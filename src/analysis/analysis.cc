#include "analysis/analysis.h"

namespace pivotscale {

std::vector<std::uint64_t> Log2Histogram(
    const std::vector<EdgeId>& values) {
  std::vector<std::uint64_t> buckets;
  for (EdgeId v : values) {
    int b = 0;
    EdgeId x = v;
    while (x > 1) {
      x >>= 1;
      ++b;
    }
    if (static_cast<std::size_t>(b) >= buckets.size())
      buckets.resize(b + 1, 0);
    ++buckets[b];
  }
  return buckets;
}

std::vector<EdgeId> DegreeSequence(const Graph& g) {
  std::vector<EdgeId> degrees(g.NumNodes());
  for (NodeId u = 0; u < g.NumNodes(); ++u) degrees[u] = g.Degree(u);
  return degrees;
}

}  // namespace pivotscale
