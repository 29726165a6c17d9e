#include "sim/mem_model.h"

#include <algorithm>

#include "pivot/subgraph_bitmap.h"

namespace pivotscale {

std::size_t EstimateStructureBytes(SubgraphKind kind, NodeId num_nodes,
                                   EdgeId max_out_degree) {
  const std::size_t n = num_nodes;
  const std::size_t d = max_out_degree;
  // Payload: the first-level subgraph stores each member edge twice; the
  // member count is <= d and each member's list is <= d entries.
  const std::size_t payload = d * d * sizeof(std::uint32_t);
  switch (kind) {
    case SubgraphKind::kDense:
      // Row headers (vector: ptr+size+cap), degree array, 2 flag byte maps.
      return n * (24 + sizeof(std::uint32_t) + 2) + payload;
    case SubgraphKind::kSparse:
      // Slot arrays sized d plus a hash index (~32 B/entry + buckets).
      return d * (24 + sizeof(std::uint32_t) + 1 + 40) + payload;
    case SubgraphKind::kRemap:
      // Slot arrays sized d; hash map only alive during build.
      return d * (24 + sizeof(std::uint32_t) + 1 + 32) + payload;
    case SubgraphKind::kBitmap: {
      // Member list and hash, plus bit rows for the largest bitmap task;
      // above the bound, remap's arrays as well.
      const std::size_t rows = std::min(d, BitmapSubgraph::kMaxVertices);
      const std::size_t bit_rows = rows * BitmapSubgraph::RowWords(rows) *
                                   sizeof(std::uint64_t);
      if (d > BitmapSubgraph::kMaxVertices)
        return EstimateStructureBytes(SubgraphKind::kRemap, num_nodes,
                                      max_out_degree) +
               bit_rows;
      return d * (sizeof(NodeId) + 32) + bit_rows;
    }
  }
  return 0;
}

std::size_t AggregateWorkspaceBytes(SubgraphKind kind, NodeId num_nodes,
                                    EdgeId max_out_degree, int threads,
                                    std::size_t measured_per_thread) {
  const std::size_t per_thread =
      measured_per_thread > 0
          ? measured_per_thread
          : EstimateStructureBytes(kind, num_nodes, max_out_degree);
  return per_thread * static_cast<std::size_t>(threads);
}

}  // namespace pivotscale
