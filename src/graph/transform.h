// Graph transformations around the core pipeline: cutting out
// vertex-induced subgraphs and composing test graphs.
#ifndef PIVOTSCALE_GRAPH_TRANSFORM_H_
#define PIVOTSCALE_GRAPH_TRANSFORM_H_

#include <span>
#include <vector>

#include "graph/graph.h"

namespace pivotscale {

// Result of a transformation that renumbers vertices: the new graph plus
// the mapping from new ids back to the original ids.
struct InducedResult {
  Graph graph;
  std::vector<NodeId> original_ids;  // original_ids[new] = old
};

// Vertex-induced subgraph on `vertices` (duplicates ignored); vertices are
// renumbered compactly in the order given.
InducedResult InduceSubgraph(const Graph& g,
                             std::span<const NodeId> vertices);

// Disjoint union: b's vertices are shifted by a.NumNodes(). Clique counts
// add across a disjoint union, which the tests exploit as an invariant.
Graph DisjointUnion(const Graph& a, const Graph& b);

}  // namespace pivotscale

#endif  // PIVOTSCALE_GRAPH_TRANSFORM_H_
