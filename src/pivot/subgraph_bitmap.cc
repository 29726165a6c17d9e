#include "pivot/subgraph_bitmap.h"

#include <algorithm>

#include "util/check.h"

namespace pivotscale {

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
  RemapMembers();
  const std::size_t words = words_;
  if (bits_.size() < n * words) bits_.resize(n * words);
  std::fill_n(bits_.begin(), n * words, std::uint64_t{0});

  // Symmetrize member edges straight into the rows. Most out-neighbors
  // of a member are not members, so a filter bit answers them before
  // the hash probe does.
  for (NodeId m : orig_) filter_[FilterBit(m) >> 6] |= FilterMask(m);
  for (std::size_t a = 0; a < n; ++a) {
    for (NodeId b : dag_->Neighbors(orig_[a])) {
      if ((filter_[FilterBit(b) >> 6] & FilterMask(b)) == 0) continue;
      const Id local = remap_.Find(b);
      if (local == FlatHashMap::kNotFound) continue;
      bits_[a * words + (local >> 6)] |= std::uint64_t{1} << (local & 63);
      bits_[local * words + (a >> 6)] |= std::uint64_t{1} << (a & 63);
    }
  }
  for (NodeId m : orig_) filter_[FilterBit(m) >> 6] = 0;
}

std::size_t BitmapSubgraph::HeapBytes() const {
  return RemapSubgraph::HeapBytes() +
         bits_.capacity() * sizeof(std::uint64_t);
}

}  // namespace pivotscale
