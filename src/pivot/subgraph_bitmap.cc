#include "pivot/subgraph_bitmap.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace pivotscale {

static_assert(BitmapSubgraph::kMaxVertices <
                  std::numeric_limits<std::uint16_t>::max(),
              "local id + 1 must fit the 16-bit stamp");

void BitmapSubgraph::Attach(const Graph& dag) {
  RemapSubgraph::Attach(dag);
  local_.assign(dag.NumNodes(), 0);
  hits_.assign(dag.MaxDegree(), 0);
}

void BitmapSubgraph::Build(NodeId root) {
  DCHECK(dag_ != nullptr) << "BitmapSubgraph::Build before Attach";
  const auto nbrs = dag_->Neighbors(root);
  orig_.assign(nbrs.begin(), nbrs.end());
  FinishBits();
}

void BitmapSubgraph::BuildPair(NodeId u, NodeId v) {
  CollectPair(u, v);
  FinishBits();
}

void BitmapSubgraph::FinishBits() {
  const std::size_t n = orig_.size();
  words_ = RowWords(n);
  if (words_ == 0) {
    FinishBuild();
    return;
  }
  const std::size_t words = words_;
  if (bits_.size() < n * words) bits_.resize(n * words);
  std::uint64_t* const bits = bits_.data();
  std::fill_n(bits, n * words, std::uint64_t{0});

  for (std::size_t a = 0; a < n; ++a) {
    DCHECK_EQ(local_[orig_[a]], 0) << "stale stamp at " << orig_[a];
    local_[orig_[a]] = static_cast<std::uint16_t>(a + 1);
  }
  // Symmetrize member edges straight into the rows. Every out-neighbor's
  // stamp goes to the hit buffer and only a member's advances the cursor,
  // so the scan has no branch on membership (most probes miss).
  const std::uint16_t* const local = local_.data();
  std::uint32_t* const hits = hits_.data();
  for (std::size_t a = 0; a < n; ++a) {
    if (a + 2 < n) __builtin_prefetch(dag_->Neighbors(orig_[a + 2]).data());
    std::size_t found = 0;
    for (NodeId b : dag_->Neighbors(orig_[a])) {
      const std::uint32_t stamp = local[b];
      hits[found] = stamp;
      found += stamp != 0;
    }
    std::uint64_t* const row = bits + a * words;
    const std::uint64_t a_bit = std::uint64_t{1} << (a & 63);
    for (std::size_t i = 0; i < found; ++i) {
      const std::uint32_t b = hits[i] - 1;
      row[b >> 6] |= std::uint64_t{1} << (b & 63);
      bits[b * words + (a >> 6)] |= a_bit;
    }
  }
  for (NodeId m : orig_) local_[m] = 0;
}

std::size_t BitmapSubgraph::HeapBytes() const {
  return RemapSubgraph::HeapBytes() +
         bits_.capacity() * sizeof(std::uint64_t) +
         local_.capacity() * sizeof(std::uint16_t) +
         hits_.capacity() * sizeof(std::uint32_t);
}

}  // namespace pivotscale
