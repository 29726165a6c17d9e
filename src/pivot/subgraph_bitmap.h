// Bitmap-row induced-subgraph structure — the default counting structure.
//
// A task of at most kMaxVertices members stores its local adjacency as
// fixed-width bit rows of 1, 2 or 4 64-bit words (Words()), and
// PivotCounter runs the recursion on masks passed by value
// (PivotCounter::RecurseBits): the candidate set P is a mask, a child is
// row[w] & P, and the pivot is the argmax of popcount(row[u] & P). There
// is no undo stack and no mark or removed flag — the masks are values, so
// ascent restores nothing. This is the binary-encoded adjacency of
// GPU-Pivot and the compressed induced subgraphs of Lonkar & Beamer, on
// the CPU and per worker.
//
// The bit-row build uses no hash map. Each worker holds a |V|-entry stamp
// (the egonet id array of Galois kcl_dfs): a build writes local id + 1 at
// each member's id, scans every member's out-list once, keeps the stamp
// values it reads with a branch-free cursor (a zero stamp is a
// non-member), sets both row bits for the hits, and then zeroes the
// members' entries again. A member's local id is below 256, so the stamp
// is 2 bytes per vertex.
//
// A task above the bound builds remap's list rows instead (Words() == 0)
// and runs the list recursion in the same PivotCounter, so one worker
// slot keeps one set of accumulators either way. The list interface
// (Vertices, AdjPrefix, Mark, ...) is inherited from RemapSubgraph and is
// valid only after a fallback build.
#ifndef PIVOTSCALE_PIVOT_SUBGRAPH_BITMAP_H_
#define PIVOTSCALE_PIVOT_SUBGRAPH_BITMAP_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "pivot/subgraph_remap.h"
#include "util/check.h"

namespace pivotscale {

// A vertex set over local ids [0, 64 * W), one bit per vertex.
template <std::size_t W>
using BitMask = std::array<std::uint64_t, W>;

namespace bitmask {

template <std::size_t W>
inline BitMask<W> And(const BitMask<W>& a, const std::uint64_t* b) {
  BitMask<W> out;
  for (std::size_t i = 0; i < W; ++i) out[i] = a[i] & b[i];
  return out;
}

template <std::size_t W>
inline BitMask<W> AndNot(const BitMask<W>& a, const std::uint64_t* b) {
  BitMask<W> out;
  for (std::size_t i = 0; i < W; ++i) out[i] = a[i] & ~b[i];
  return out;
}

// Population count of a & b. The default ISA has no POPCNT instruction
// (std::popcount becomes a libgcc call), so this is the inline SWAR count:
// per-word byte counts (each <= 8 * W <= 32) are summed before one
// horizontal multiply. A byte total can reach 256 only at W = 4, so that
// width folds byte pairs into 16-bit lanes first.
template <std::size_t W>
inline std::uint32_t CountAnd(const BitMask<W>& a, const std::uint64_t* b) {
  static_assert(W <= 4, "byte counts would overflow");
  constexpr std::uint64_t k1 = 0x5555555555555555ULL;
  constexpr std::uint64_t k2 = 0x3333333333333333ULL;
  constexpr std::uint64_t k4 = 0x0f0f0f0f0f0f0f0fULL;
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < W; ++i) {
    std::uint64_t x = a[i] & b[i];
    x -= (x >> 1) & k1;
    x = (x & k2) + ((x >> 2) & k2);
    bytes += (x + (x >> 4)) & k4;
  }
  if constexpr (W < 4) {
    return static_cast<std::uint32_t>((bytes * 0x0101010101010101ULL) >> 56);
  } else {
    constexpr std::uint64_t k8 = 0x00ff00ff00ff00ffULL;
    const std::uint64_t lanes = (bytes & k8) + ((bytes >> 8) & k8);
    return static_cast<std::uint32_t>((lanes * 0x0001000100010001ULL) >> 48);
  }
}

template <std::size_t W>
inline std::uint32_t Count(const BitMask<W>& a) {
  BitMask<W> ones;
  ones.fill(~std::uint64_t{0});
  return CountAnd(a, ones.data());
}

template <std::size_t W>
inline void Clear(BitMask<W>* a, std::uint32_t bit) {
  (*a)[bit >> 6] &= ~(std::uint64_t{1} << (bit & 63));
}

// Calls f(bit) for every set bit of a, in increasing order.
template <std::size_t W, typename F>
inline void ForEach(const BitMask<W>& a, F&& f) {
  for (std::size_t i = 0; i < W; ++i) {
    for (std::uint64_t word = a[i]; word != 0; word &= word - 1)
      f(static_cast<std::uint32_t>(i * 64 + __builtin_ctzll(word)));
  }
}

}  // namespace bitmask

class BitmapSubgraph : public RemapSubgraph {
 public:
  static constexpr const char* kName = "bitmap";
  // Largest task that gets bit rows (4 words per row).
  static constexpr std::size_t kMaxVertices = 256;

  // Words per bit row for a task of n members: 1, 2 or 4, or 0 above
  // kMaxVertices (list rows).
  static constexpr std::uint32_t RowWords(std::size_t n) {
    return n <= 64 ? 1 : n <= 128 ? 2 : n <= kMaxVertices ? 4 : 0;
  }

  // Also sizes the stamp (|V| entries) and the hit buffer (max out-degree).
  void Attach(const Graph& dag);
  void Build(NodeId root);
  void BuildPair(NodeId u, NodeId v);

  // RowWords of the task built last.
  std::uint32_t Words() const { return words_; }
  // The task's members as a mask (bit rows only).
  template <std::size_t W>
  BitMask<W> Members() const {
    DCHECK_EQ(words_, W);
    BitMask<W> all{};
    for (std::size_t u = 0; u < orig_.size(); ++u)
      all[u >> 6] |= std::uint64_t{1} << (u & 63);
    return all;
  }
  // Local vertex u's row: its neighbors among the task's members.
  const std::uint64_t* Row(Id u) const {
    DCHECK_LT(u, orig_.size());
    return bits_.data() + static_cast<std::size_t>(u) * words_;
  }
  std::size_t HeapBytes() const;

 private:
  // Shared tail of Build/BuildPair: orig_ holds the member list.
  void FinishBits();

  std::uint32_t words_ = 0;
  std::vector<std::uint64_t> bits_;  // row u at [u * words_, (u+1) * words_)
  // Original id -> local id + 1 for the members of the task being built,
  // 0 elsewhere; all zero between builds.
  std::vector<std::uint16_t> local_;
  // Stamp values read from one member's out-list, hits first.
  std::vector<std::uint32_t> hits_;
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_SUBGRAPH_BITMAP_H_
