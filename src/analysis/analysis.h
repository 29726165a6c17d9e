// Degree histograms around the clique-counting core: what the paper's
// Figure 3 plots (core-ordered vs degree-ordered DAG out-degree
// distributions).
#ifndef PIVOTSCALE_ANALYSIS_ANALYSIS_H_
#define PIVOTSCALE_ANALYSIS_ANALYSIS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace pivotscale {

// Histogram of values into power-of-two buckets: bucket b holds values in
// [2^b, 2^(b+1)) with bucket 0 holding {0, 1}. Used for degree
// distributions (Figure 3).
std::vector<std::uint64_t> Log2Histogram(
    const std::vector<EdgeId>& values);

// Out-degree list of a graph (for histogramming DAGs).
std::vector<EdgeId> DegreeSequence(const Graph& g);

}  // namespace pivotscale

#endif  // PIVOTSCALE_ANALYSIS_ANALYSIS_H_
