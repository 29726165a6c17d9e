#include "graph/transform.h"

#include <vector>

#include "graph/builder.h"

namespace pivotscale {

InducedResult InduceSubgraph(const Graph& g,
                             std::span<const NodeId> vertices) {
  constexpr NodeId kAbsent = ~NodeId{0};
  std::vector<NodeId> new_id(g.NumNodes(), kAbsent);
  InducedResult result;
  for (NodeId v : vertices) {
    if (new_id[v] != kAbsent) continue;  // duplicate
    new_id[v] = static_cast<NodeId>(result.original_ids.size());
    result.original_ids.push_back(v);
  }

  EdgeList edges;
  for (NodeId old_u : result.original_ids) {
    for (NodeId old_v : g.Neighbors(old_u)) {
      if (new_id[old_v] == kAbsent) continue;
      if (old_u < old_v)  // emit each undirected edge once
        edges.emplace_back(new_id[old_u], new_id[old_v]);
    }
  }
  result.graph = BuildUndirected(
      std::move(edges), static_cast<NodeId>(result.original_ids.size()));
  return result;
}

Graph DisjointUnion(const Graph& a, const Graph& b) {
  EdgeList edges;
  const NodeId offset = a.NumNodes();
  for (NodeId u = 0; u < a.NumNodes(); ++u)
    for (NodeId v : a.Neighbors(u))
      if (u < v) edges.emplace_back(u, v);
  for (NodeId u = 0; u < b.NumNodes(); ++u)
    for (NodeId v : b.Neighbors(u))
      if (u < v) edges.emplace_back(u + offset, v + offset);
  return BuildUndirected(std::move(edges), offset + b.NumNodes());
}

}  // namespace pivotscale
