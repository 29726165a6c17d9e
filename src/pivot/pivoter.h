// The Pivoter counting recursion (Algorithm 1 + Section V details),
// templated over the subgraph structure and the stats policy.
//
// Per root vertex v of the DAG, Build() induces the (symmetrized) subgraph
// on N+(v) and the recursion runs Bron-Kerbosch with pivoting over it,
// maintaining only the candidate set P (Section V-B streamlines away R and
// X). Each tree path tracks the number of *required* vertices r and the
// number of *pivots* np; a leaf contributes C(np, k - r) k-cliques — every
// clique formed by the required vertices plus any (k-r)-subset of the path's
// pivots — and each clique is generated exactly once because every branch
// removes its vertex from the candidate pool of later branches (the
// "direct by identifier among non-neighbors" rule of Section V-A).
//
// Reversible mutations: descending into the branch of w narrows every
// surviving vertex's adjacency list, in place, so that a prefix of length
// deg(u) holds exactly the neighbors inside the new candidate set. The old
// prefix lengths go on an undo stack; ascent restores them. Partitioning
// permutes entries only within the parent's prefix, so restoring the length
// restores the set. All buffers are reused across roots: steady-state
// counting performs no allocation (Section V-B).
//
// Bit rows: on the BitmapSubgraph structure a task of at most 256 members
// runs RecurseBits instead, where the candidate set is a mask passed by
// value and none of the mutation bookkeeping exists (docs/algorithm.md,
// "Bitmap rows"). Larger tasks run Recurse in the same counter.
//
// Closed-form tail (bit rows, kAllUpToK and early-terminating kSingleK):
// every clique below a node with r required vertices, np path pivots and
// candidate mask P (s = |P|) is R ∪ T ∪ C with T a subset of the pivots
// and C a clique of G[P]. So once k - r <= 2 the recursion stops and
// counts the sizes r, r + 1 and r + 2 directly: 1, np + s and
// C(np, 2) + np·s + e(P), with e(P) from one upper-triangle pass over P.
// Per-vertex attribution: the root and every required vertex are in all
// of them; each pivot in 1 (k - r = 1) or (np - 1) + s (k - r = 2); each
// u in P in 1 or np + |row[u] ∩ P|.
#ifndef PIVOTSCALE_PIVOT_PIVOTER_H_
#define PIVOTSCALE_PIVOT_PIVOTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "pivot/stats.h"
#include "pivot/subgraph_bitmap.h"
#include "util/binomial.h"
#include "util/check.h"
#include "util/uint128.h"

namespace pivotscale {

// What the counter accumulates.
enum class CountMode {
  kSingleK,   // k-cliques of exactly the target size
  kAllK,      // every clique size up to the largest present
  kAllUpToK,  // every clique size up to k (Section V-A: the original
              // Pivoter's per-size mode, with pruning above k)
};

// One thread's counting engine. SG is one of {DenseSubgraph,
// SparseSubgraph, RemapSubgraph, BitmapSubgraph}; Stats is a policy from
// pivot/stats.h.
template <typename SG, typename Stats>
class PivotCounter {
 public:
  using Id = typename SG::Id;

  // `max_clique_bound` sizes the per-size array; the DAG's max out-degree
  // + 1 is always a valid bound (a clique of size c forces its root's
  // out-degree to be at least c - 1). `binom` must cover Choose(n, *) for
  // n <= max_clique_bound and is shared read-only across threads.
  PivotCounter(const Graph& dag, CountMode mode, std::uint32_t k,
               bool per_vertex, std::uint32_t max_clique_bound,
               const BinomialTable* binom, bool early_termination = true)
      : mode_(mode),
        k_(k),
        per_vertex_(per_vertex),
        early_termination_(early_termination),
        binom_(binom) {
    CHECK(binom != nullptr);
    CHECK_GE(k, 1u);
    // The leaf rule consults C(np, *) for np up to the bound; a short
    // table would silently read out of range mid-count.
    CHECK_GE(binom->max_n(), max_clique_bound)
        << "PivotCounter: binomial table does not cover the clique bound";
    sg_.Attach(dag);
    per_size_.assign(max_clique_bound + 2, BigCount{});
    if (per_vertex_) per_vertex_counts_.assign(dag.NumNodes(), BigCount{});
  }

  // Counts all cliques rooted at `root` and accumulates into this counter.
  void ProcessRoot(NodeId root) {
    sg_.Build(root);
    root_ = root;
    // The root itself is the first required vertex (r = 1).
    total_ += CountBuilt(/*r=*/1);
  }

  // Edge-parallel entry point (requires an SG with BuildPair: the remap
  // and bitmap structures): counts the cliques whose two lowest-ranked
  // members are the DAG edge (u, v). Both endpoints start as required
  // (r = 2).
  void ProcessEdge(NodeId u, NodeId v) {
    sg_.BuildPair(u, v);
    root_ = u;
    if (per_vertex_) required_stack_.push_back(v);
    total_ += CountBuilt(/*r=*/2);
    if (per_vertex_) required_stack_.pop_back();
  }

  // Accounts the singleton clique {u}. Used when a root task is split
  // into edge subtasks: ProcessEdge only reaches cliques of size >= 2, so
  // the split's owner contributes {u} exactly once through this call,
  // mirroring what ProcessRoot's empty-candidate leaf would have counted.
  void AddSingleton(NodeId u) {
    if (mode_ == CountMode::kSingleK) {
      if (k_ == 1) {
        total_ += BigCount{1};
        if (per_vertex_) per_vertex_counts_[u] += BigCount{1};
      }
      return;
    }
    per_size_[1] += BigCount{1};
  }

  BigCount total() const { return total_; }
  // per_size()[s] = number of s-cliques (kAllK mode; index 0 unused).
  const std::vector<BigCount>& per_size() const { return per_size_; }
  // per-vertex k-clique participation counts (per_vertex mode).
  const std::vector<BigCount>& per_vertex_counts() const {
    return per_vertex_counts_;
  }
  const Stats& stats() const { return stats_; }
  Stats& stats() { return stats_; }
  std::size_t WorkspaceBytes() const { return sg_.HeapBytes(); }
  const SG& subgraph() const { return sg_; }

 private:
  void EnsureDepth(std::size_t depth) {
    if (bufs_.size() < depth) {
      bufs_.resize(depth);
      branch_bufs_.resize(depth);
    }
  }

  // Leaf/early-exit contribution when the path holds r required vertices
  // and the pivots on pivot_stack_. Handles per-vertex attribution: each
  // required vertex is in all C(np, k-r) cliques; each pivot is in
  // C(np-1, k-r-1) of them (the cliques that chose it).
  BigCount LeafSingleK(std::uint32_t r, std::uint32_t np) {
    DCHECK_LT(np, per_size_.size());  // bound from the DAG's max out-degree
    if (k_ < r || k_ - r > np) return BigCount{};
    const BigCount cliques = binom_->Choose(np, k_ - r);
    if (per_vertex_ && cliques != BigCount{}) {
      per_vertex_counts_[root_] += cliques;
      for (NodeId u : required_stack_) per_vertex_counts_[u] += cliques;
      if (k_ > r) {
        const BigCount per_pivot = binom_->Choose(np - 1, k_ - r - 1);
        for (NodeId u : pivot_stack_) per_vertex_counts_[u] += per_pivot;
      }
    }
    return cliques;
  }

  void LeafAllK(std::uint32_t r, std::uint32_t np) {
    std::uint32_t max_j = np;
    if (mode_ == CountMode::kAllUpToK && k_ >= r)
      max_j = std::min(np, k_ - r);
    DCHECK_LT(r + max_j, per_size_.size());
    for (std::uint32_t j = 0; j <= max_j; ++j)
      per_size_[r + j] += binom_->Choose(np, j);
  }

  // Structures with bit rows (BitmapSubgraph) run RecurseBits on every
  // task they built as bit rows and Recurse on the rest.
  static constexpr bool kBitRows = requires(const SG& sg) { sg.Words(); };

  // Runs the recursion over the task just built, whose path so far holds
  // r required vertices and no pivots.
  BigCount CountBuilt(std::uint32_t r) {
    if constexpr (kBitRows) {
      switch (sg_.Words()) {
        case 1:
          return RecurseBits<1>(sg_.template Members<1>(), r, 0);
        case 2:
          return RecurseBits<2>(sg_.template Members<2>(), r, 0);
        case 4:
          return RecurseBits<4>(sg_.template Members<4>(), r, 0);
        default:
          break;  // list rows
      }
    }
    const auto verts = sg_.Vertices();
    EnsureDepth(verts.size() + 2);
    bufs_[0].assign(verts.begin(), verts.end());
    return Recurse(bufs_[0], r, /*np=*/0, /*depth=*/0);
  }

  // The recursion on bit rows: the candidate set is a mask passed by
  // value, so nothing is narrowed and nothing is undone. Same pruning,
  // pivot rule, removal rule and leaves as Recurse.
  template <std::size_t W>
  BigCount RecurseBits(BitMask<W> candidates, std::uint32_t r,
                       std::uint32_t np) {
    stats_.OnCall();
    const std::uint32_t size = bitmask::Count(candidates);

    if (mode_ == CountMode::kSingleK && early_termination_) {
      // r > k only for a pair task at k = 1, which holds no k-clique.
      if (r >= k_) return LeafSingleK(r, np);
      if (r + np + size < k_) return BigCount{};
    }
    if (mode_ == CountMode::kAllUpToK && r >= k_) {
      // The capped twin of the r == k rule: of the cliques below, only
      // the required set itself has size <= k (the subtree's one r == k
      // leaf, at the end of its pivot chain, with zero pivots chosen).
      if (r == k_) per_size_[r] += BigCount{1};
      return BigCount{};
    }
    // The early_termination = false ablation keeps plain recursion.
    if ((mode_ == CountMode::kAllUpToK ||
         (mode_ == CountMode::kSingleK && early_termination_)) &&
        r + 2 >= k_)
      return TailBits(candidates, size, r, np);

    if (size == 0) {
      if (mode_ != CountMode::kSingleK) {
        LeafAllK(r, np);
        return BigCount{};
      }
      return LeafSingleK(r, np);
    }

    std::uint64_t scanned = 0;
    const std::uint32_t pivot = PickPivot(candidates, size, &scanned);
    stats_.OnEdgeOps(scanned);

    // Branches: the pivot and its non-neighbors. Each finished branch
    // leaves the pool of the later ones.
    const BitMask<W> branches =
        bitmask::AndNot(candidates, sg_.Row(pivot));
    BigCount total{};
    bitmask::ForEach(branches, [&](std::uint32_t w) {
      const bool is_pivot_branch = (w == pivot);
      stats_.OnInduce();
      if (per_vertex_) {
        if (is_pivot_branch)
          pivot_stack_.push_back(sg_.OrigId(w));
        else
          required_stack_.push_back(sg_.OrigId(w));
      }
      total += RecurseBits<W>(bitmask::And(candidates, sg_.Row(w)),
                              r + (is_pivot_branch ? 0 : 1),
                              np + (is_pivot_branch ? 1 : 0));
      if (per_vertex_) {
        if (is_pivot_branch)
          pivot_stack_.pop_back();
        else
          required_stack_.pop_back();
      }
      bitmask::Clear(&candidates, w);
    });
    return total;
  }

  // The last k - r <= 2 levels below a RecurseBits node, in closed form
  // (see the header comment): the node's cliques of sizes r, r + 1 and
  // r + 2 number 1, np + s and C(np, 2) + np·s + e(P). Returns the size-k
  // count in kSingleK mode; adds all three sizes up to k in kAllUpToK.
  template <std::size_t W>
  BigCount TailBits(const BitMask<W>& candidates, std::uint32_t size,
                    std::uint32_t r, std::uint32_t np) {
    const std::uint32_t need = k_ - r;
    DCHECK(need == 1 || need == 2);
    const std::uint64_t p = np;
    const std::uint64_t one_more = p + size;
    std::uint64_t two_more = 0;
    if (need == 2) {
      // e(P). Per-vertex mode needs every |row[u] ∩ P| and credits u with
      // the np + |row[u] ∩ P| cliques that take it; otherwise each edge
      // is seen once, from its lower endpoint.
      std::uint64_t edges = 0;
      if (per_vertex_) {
        bitmask::ForEach(candidates, [&](std::uint32_t u) {
          const std::uint32_t d = bitmask::CountAnd(candidates, sg_.Row(u));
          stats_.OnEdgeOps(d);
          edges += d;
          per_vertex_counts_[sg_.OrigId(u)] += BigCount{p + d};
        });
        edges /= 2;
      } else {
        BitMask<W> above = candidates;
        bitmask::ForEach(candidates, [&](std::uint32_t u) {
          bitmask::Clear(&above, u);
          edges += bitmask::CountAnd(above, sg_.Row(u));
        });
        stats_.OnEdgeOps(edges);
      }
      two_more = p * (p - 1) / 2 + p * size + edges;  // p = 0 gives 0
    }

    if (mode_ == CountMode::kAllUpToK) {
      // r + np + s <= the clique bound, so a size past the per-size table
      // is only ever reached with a zero count.
      per_size_[r] += BigCount{1};
      if (one_more != 0) per_size_[r + 1] += BigCount{one_more};
      if (two_more != 0) per_size_[r + 2] += BigCount{two_more};
      return BigCount{};
    }

    const std::uint64_t cliques = need == 1 ? one_more : two_more;
    if (per_vertex_ && cliques != 0) {
      per_vertex_counts_[root_] += BigCount{cliques};
      for (NodeId u : required_stack_)
        per_vertex_counts_[u] += BigCount{cliques};
      // A pivot exists only when np >= 1, so one_more - 1 >= 0.
      const BigCount per_pivot{need == 1 ? 1 : one_more - 1};
      for (NodeId u : pivot_stack_) per_vertex_counts_[u] += per_pivot;
      if (need == 1)
        bitmask::ForEach(candidates, [&](std::uint32_t u) {
          per_vertex_counts_[sg_.OrigId(u)] += BigCount{1};
        });
    }
    return BigCount{cliques};
  }

  // The first candidate with the most neighbors inside the set. A
  // candidate adjacent to every other one cannot be beaten, so the scan
  // stops there. Adds the popcounted row entries it saw to *scanned.
  template <std::size_t W>
  std::uint32_t PickPivot(const BitMask<W>& candidates, std::uint32_t size,
                          std::uint64_t* scanned) const {
    std::uint32_t pivot = 0;
    std::uint32_t pivot_deg = 0;
    bool any = false;
    for (std::size_t i = 0; i < W; ++i) {
      for (std::uint64_t word = candidates[i]; word != 0; word &= word - 1) {
        const auto u =
            static_cast<std::uint32_t>(i * 64 + __builtin_ctzll(word));
        const std::uint32_t d = bitmask::CountAnd(candidates, sg_.Row(u));
        *scanned += d;
        if (!any || d > pivot_deg) {
          pivot = u;
          pivot_deg = d;
          any = true;
          if (d + 1 == size) return pivot;
        }
      }
    }
    return pivot;
  }

  BigCount Recurse(std::span<const Id> candidates, std::uint32_t r,
                   std::uint32_t np, std::uint32_t depth) {
    stats_.OnCall();

    if (mode_ == CountMode::kSingleK && early_termination_) {
      // Early termination (Section V-A): once the required set alone
      // reaches k, the subtree holds exactly one k-clique — the required
      // set itself (any deeper leaf with r' = k shares it). Disabling this
      // is a pure ablation: the recursion stays correct, just slower.
      // r > k only for a pair task at k = 1, which holds no k-clique.
      if (r >= k_) return LeafSingleK(r, np);
      // Even taking every remaining candidate cannot reach k.
      if (r + np + candidates.size() < k_) return BigCount{};
    }
    // Required vertices beyond k contribute to no tracked size.
    if (mode_ == CountMode::kAllUpToK && r > k_) return BigCount{};

    if (candidates.empty()) {
      if (mode_ != CountMode::kSingleK) {
        LeafAllK(r, np);
        return BigCount{};
      }
      return LeafSingleK(r, np);
    }

    // Pivot: the candidate with the most neighbors inside the set. Its
    // neighbors need no branches of their own — they are all reachable
    // through the pivot's branch as optional (pivot) vertices.
    Id pivot = candidates[0];
    std::uint32_t pivot_deg = sg_.Deg(pivot);
    for (Id u : candidates) {
      const std::uint32_t d = sg_.Deg(u);
      if constexpr (Stats::kTrace)
        stats_.OnTouch(TouchRegion::kDeg, sg_.ModelIndex(u));
      if (d > pivot_deg) {
        pivot = u;
        pivot_deg = d;
      }
    }

    // Branch list: the pivot first, then the non-neighbors of the pivot.
    auto& branches = branch_bufs_[depth];
    branches.clear();
    branches.push_back(pivot);
    for (Id v : sg_.AdjPrefix(pivot)) {
      sg_.Mark(v);
      stats_.OnEdgeOp();
    }
    for (Id u : candidates) {
      stats_.OnMembership();
      if constexpr (Stats::kTrace)
        stats_.OnTouch(TouchRegion::kFlags, sg_.ModelIndex(u));
      if (u != pivot && !sg_.Marked(u)) branches.push_back(u);
    }
    for (Id v : sg_.AdjPrefix(pivot)) sg_.Unmark(v);

    BigCount total{};
    for (Id w : branches) {
      const bool is_pivot_branch = (w == pivot);

      // Child candidate set: N(w) within the current set, minus vertices
      // whose branches already ran at this level.
      auto& child = bufs_[depth + 1];
      child.clear();
      for (Id v : sg_.AdjPrefix(w)) {
        stats_.OnEdgeOp();
        stats_.OnMembership();
        if constexpr (Stats::kTrace)
          stats_.OnTouch(TouchRegion::kAdjData,
                         AdjIndex(sg_.ModelIndex(w), child.size()));
        if (!sg_.Removed(v)) child.push_back(v);
      }

      // Reversible narrowing: every child member's prefix shrinks to its
      // neighbors inside `child`. One undo frame per branch descent.
      stats_.OnInduce();
      const std::size_t undo_top = undo_.size();
      for (Id v : child) sg_.Mark(v);
      for (Id v : child) {
        auto adj = sg_.AdjPrefix(v);
        if constexpr (Stats::kTrace)
          stats_.OnTouch(TouchRegion::kAdjRow, sg_.ModelIndex(v));
        std::uint32_t kept = 0;
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(adj.size()); ++i) {
          stats_.OnEdgeOp();
          if (sg_.Marked(adj[i])) std::swap(adj[kept++], adj[i]);
        }
        undo_.push_back({v, sg_.Deg(v)});
        sg_.SetDeg(v, kept);
      }
      for (Id v : child) sg_.Unmark(v);

      if (per_vertex_) {
        if (is_pivot_branch)
          pivot_stack_.push_back(sg_.OrigId(w));
        else
          required_stack_.push_back(sg_.OrigId(w));
      }

      total += Recurse(child, r + (is_pivot_branch ? 0 : 1),
                       np + (is_pivot_branch ? 1 : 0), depth + 1);

      if (per_vertex_) {
        if (is_pivot_branch)
          pivot_stack_.pop_back();
        else
          required_stack_.pop_back();
      }

      // Ascend: restore every narrowed prefix length.
      while (undo_.size() > undo_top) {
        const UndoRecord rec = undo_.back();
        undo_.pop_back();
        sg_.SetDeg(rec.vertex, rec.old_deg);
      }

      // This branch's vertex leaves the pool for all later branches.
      sg_.SetRemoved(w);
    }
    // Restore the removed flags so the parent level sees its own pool.
    for (Id w : branches) sg_.ClearRemoved(w);
    return total;
  }

  // Modeled flat index of adjacency payload accesses (trace policy only):
  // row-granular so dense structures spread across the full id space.
  std::uint64_t AdjIndex(Id u, std::size_t i) const {
    return static_cast<std::uint64_t>(u) * 64 +
           (static_cast<std::uint64_t>(i) & 63);
  }

  SG sg_;
  Stats stats_;
  CountMode mode_;
  std::uint32_t k_;
  bool per_vertex_;
  bool early_termination_;
  const BinomialTable* binom_;

  NodeId root_ = 0;
  BigCount total_{};
  std::vector<BigCount> per_size_;
  std::vector<BigCount> per_vertex_counts_;

  struct UndoRecord {
    Id vertex;
    std::uint32_t old_deg;
  };
  std::vector<UndoRecord> undo_;
  std::vector<std::vector<Id>> bufs_;         // per-depth candidate sets
  std::vector<std::vector<Id>> branch_bufs_;  // per-depth branch lists
  std::vector<NodeId> required_stack_;        // per-vertex mode only
  std::vector<NodeId> pivot_stack_;           // per-vertex mode only
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_PIVOTER_H_
