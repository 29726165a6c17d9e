// Analytic memory-footprint model for the subgraph structures.
//
// Section VI-D compares process memory across structures at 64 threads.
// Measured workspace bytes are exact for the threads that actually ran;
// this model extrapolates a structure's thread-local footprint to any
// thread count so the memory study and the scaling simulation can reason
// about 64-thread configurations on a single-core host.
#ifndef PIVOTSCALE_SIM_MEM_MODEL_H_
#define PIVOTSCALE_SIM_MEM_MODEL_H_

#include <cstdint>

#include "graph/graph.h"
#include "pivot/count.h"

namespace pivotscale {

// Estimated bytes of one thread's subgraph workspace for the given
// structure on a DAG with `num_nodes` vertices and maximum out-degree
// `max_out_degree`.
//
// dense:  |V| adjacency-row headers + |V| degrees + 2|V| flag bytes,
//         plus payload bounded by max_out_degree^2 entries.
// sparse: compact slot arrays + hash index, all O(max_out_degree), plus the
//         same payload bound.
// remap:  like sparse but with plain arrays (hash map only during build).
// bitmap: remap's member list and hash plus bit rows of 1, 2 or 4 words;
//         above 256 members, remap's list arrays as well.
std::size_t EstimateStructureBytes(SubgraphKind kind, NodeId num_nodes,
                                   EdgeId max_out_degree);

// Aggregate footprint of `threads` thread-local structures. Prefers the
// measured single-thread workspace when available (measured > 0), falling
// back to the estimate.
std::size_t AggregateWorkspaceBytes(SubgraphKind kind, NodeId num_nodes,
                                    EdgeId max_out_degree, int threads,
                                    std::size_t measured_per_thread = 0);

}  // namespace pivotscale

#endif  // PIVOTSCALE_SIM_MEM_MODEL_H_
