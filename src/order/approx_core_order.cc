#include "order/approx_core_order.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "util/check.h"

namespace pivotscale {

namespace {

// Live vertices per block of a round's selection: blocks are the unit of
// parallel work, so a round over at most one block runs inline.
constexpr std::size_t kLiveBlock = 4096;

// A round's removed vertex as its within-round rank key: original degree
// in the high word, id in the low word, so sorting the packed values
// orders a batch by (degree, id). A degree fits the word: neighbors are
// distinct 32-bit ids.
std::uint64_t BatchKey(const Graph& g, NodeId u) {
  return (static_cast<std::uint64_t>(g.Degree(u)) << 32) | u;
}

// Splits `live` into the vertices `take` selects (into `batch`, as
// BatchKeys) and the rest (into `next_live`), both in `live`'s order, and
// returns the minimum degree among the rest. Two parallel passes over
// fixed blocks: the first counts each block's taken vertices, a prefix
// sum places every block's output, the second writes. The outputs are
// sized exactly, so no per-worker buffer is needed.
template <typename Take>
std::int64_t SplitLive(const Graph& g, const std::vector<std::int64_t>& degree,
                       const std::vector<NodeId>& live, Take&& take,
                       std::vector<std::uint64_t>* batch,
                       std::vector<NodeId>* next_live) {
  struct Block {
    std::size_t taken = 0;  // after the prefix sum: the block's offset
    std::int64_t min_kept = std::numeric_limits<std::int64_t>::max();
  };
  const std::size_t num_blocks = (live.size() + kLiveBlock - 1) / kLiveBlock;
  std::vector<Block> blocks(num_blocks);
  const auto end_of = [&](std::size_t b) {
    return std::min(live.size(), (b + 1) * kLiveBlock);
  };
  ParallelFor(num_blocks, ExecOptions{}, [&](std::size_t b) {
    Block block;
    for (std::size_t i = b * kLiveBlock; i < end_of(b); ++i) {
      const NodeId u = live[i];
      if (take(u)) {
        ++block.taken;
      } else {
        block.min_kept = std::min(block.min_kept, degree[u]);
      }
    }
    blocks[b] = block;
  });
  std::size_t taken = 0;
  std::int64_t min_kept = std::numeric_limits<std::int64_t>::max();
  for (Block& block : blocks) {
    min_kept = std::min(min_kept, block.min_kept);
    taken += std::exchange(block.taken, taken);
  }
  batch->resize(taken);
  next_live->resize(live.size() - taken);
  ParallelFor(num_blocks, ExecOptions{}, [&](std::size_t b) {
    std::size_t t = blocks[b].taken;
    std::size_t k = b * kLiveBlock - t;
    for (std::size_t i = b * kLiveBlock; i < end_of(b); ++i) {
      const NodeId u = live[i];
      if (take(u)) {
        (*batch)[t++] = BatchKey(g, u);
      } else {
        (*next_live)[k++] = u;
      }
    }
  });
  return min_kept;
}

}  // namespace

ApproxCoreResult ApproxCoreOrderingWithStats(const Graph& g,
                                             double epsilon) {
  const NodeId n = g.NumNodes();
  std::vector<std::int64_t> degree(n);
  std::vector<std::uint8_t> alive(n, 1);

  std::int64_t remaining_degree_sum = ParallelReduce(
      n, ExecOptions{}, std::int64_t{0},
      [&](std::int64_t& sum, std::size_t i) {
        const auto u = static_cast<NodeId>(i);
        degree[u] = static_cast<std::int64_t>(g.Degree(u));
        sum += degree[u];
      },
      [](std::int64_t& into, std::int64_t from) { into += from; });

  // A round scans only the vertices still in the graph: `live` holds them
  // in id order and is compacted into `next_live` as the round selects,
  // so a round costs O(live + edges of the removed vertices), not O(n).
  std::vector<NodeId> live(n), next_live;
  std::iota(live.begin(), live.end(), NodeId{0});
  // The round's removed vertices as BatchKeys.
  std::vector<std::uint64_t> batch;
  std::vector<NodeId> ranks(n);
  NodeId next_rank = 0;
  int round = 0;
  while (!live.empty()) {
    const double avg = static_cast<double>(remaining_degree_sum) /
                       static_cast<double>(live.size());
    const double threshold = (1.0 + epsilon) * avg;

    // Selection: the vertices below the threshold leave this round.
    // Progress guarantee: with eps < 0 the threshold can fall below the
    // minimum remaining degree (e.g. on regular graphs). Fall back to
    // removing all minimum-degree vertices, which is still a bulk peel.
    const std::int64_t min_kept = SplitLive(
        g, degree, live,
        [&](NodeId u) { return static_cast<double>(degree[u]) < threshold; },
        &batch, &next_live);
    if (batch.empty()) {
      SplitLive(
          g, degree, live, [&](NodeId u) { return degree[u] == min_kept; },
          &batch, &next_live);
      DCHECK(!batch.empty());
    }

    // The round's vertices take the next |batch| ranks, ordered by
    // (original degree, id): overall the rank key is (round, original
    // degree, id), the tiebreaker the paper prescribes for non-unique
    // round-based rankings. Unlike PackKey, the round is not clamped.
    std::sort(batch.begin(), batch.end());
    for (std::uint64_t key : batch) {
      const auto u = static_cast<NodeId>(key);
      ranks[u] = next_rank++;
      alive[u] = 0;
    }

    // Removal pass: update degrees of surviving neighbors. The degree
    // updates use atomics because two removed vertices can share a
    // surviving neighbor.
    // Degree-sum bookkeeping: removing R drops sum(deg(u) for u in R) plus
    // one decrement per R-survivor edge (R-R edges are fully covered by the
    // first term since both endpoints contribute).
    struct Deltas {
      std::int64_t removed_degree = 0;
      std::int64_t survivor_decrements = 0;
    };
    ExecOptions removal_options;
    removal_options.grain = 64;
    const Deltas deltas = ParallelReduce(
        batch.size(), removal_options, Deltas{},
        [&](Deltas& d, std::size_t i) {
          const auto u = static_cast<NodeId>(batch[i]);
          d.removed_degree += degree[u];
          for (NodeId v : g.Neighbors(u)) {
            if (!alive[v]) continue;
            std::atomic_ref<std::int64_t>(degree[v])
                .fetch_sub(1, std::memory_order_relaxed);
            ++d.survivor_decrements;
          }
        },
        [](Deltas& into, const Deltas& from) {
          into.removed_degree += from.removed_degree;
          into.survivor_decrements += from.survivor_decrements;
        });
    remaining_degree_sum -=
        deltas.removed_degree + deltas.survivor_decrements;
    std::swap(live, next_live);
    ++round;
  }

  ApproxCoreResult result;
  result.ordering.name =
      "approx-core(eps=" + std::to_string(epsilon) + ")";
  result.ordering.ranks = std::move(ranks);
  result.rounds = round;
  return result;
}

Ordering ApproxCoreOrdering(const Graph& g, double epsilon) {
  return ApproxCoreOrderingWithStats(g, epsilon).ordering;
}

}  // namespace pivotscale
