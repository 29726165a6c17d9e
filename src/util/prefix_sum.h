// Parallel exclusive prefix sum.
//
// Used by the CSR builder and the orderings to turn per-vertex counts into
// offsets. The input is cut into fixed blocks: one ParallelFor scans each
// block locally, a serial pass scans the block totals, and a second
// ParallelFor adds each block's offset. The block size is fixed, so the
// result and the work do not depend on the team the budget grants.
#ifndef PIVOTSCALE_UTIL_PREFIX_SUM_H_
#define PIVOTSCALE_UTIL_PREFIX_SUM_H_

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "exec/executor.h"
#include "util/check.h"

namespace pivotscale {

// Computes out[i] = sum of in[0..i) (exclusive scan) and returns the grand
// total. `out` may alias `in`. T must be an unsigned integral type.
template <typename T>
T ParallelPrefixSum(const std::vector<T>& in, std::vector<T>* out) {
  static_assert(std::is_unsigned_v<T>,
                "ParallelPrefixSum requires an unsigned accumulator");
  CHECK(out != nullptr);
  constexpr std::size_t kBlock = std::size_t{1} << 14;
  const std::size_t n = in.size();
  out->resize(n);
  const std::size_t num_blocks = (n + kBlock - 1) / kBlock;
  // block_totals[b + 1] = sum of block b; scanned in place below.
  std::vector<T> block_totals(num_blocks + 1, T{0});
  const ExecOptions options;

  // Pass 1: local exclusive scan per block.
  ParallelFor(num_blocks, options, [&](std::size_t b) {
    const std::size_t end = std::min(n, (b + 1) * kBlock);
    T local = T{0};
    for (std::size_t i = b * kBlock; i < end; ++i) {
      const T v = in[i];  // read before write: in may alias out
      (*out)[i] = local;
      local += v;
    }
    block_totals[b + 1] = local;
  });

  for (std::size_t b = 1; b <= num_blocks; ++b)
    block_totals[b] += block_totals[b - 1];

  // Pass 2: offset each block by the preceding blocks' totals.
  ParallelFor(num_blocks, options, [&](std::size_t b) {
    const T offset = block_totals[b];
    if (offset == T{0}) return;
    const std::size_t end = std::min(n, (b + 1) * kBlock);
    for (std::size_t i = b * kBlock; i < end; ++i) (*out)[i] += offset;
  });
  return block_totals[num_blocks];
}

}  // namespace pivotscale

#endif  // PIVOTSCALE_UTIL_PREFIX_SUM_H_
