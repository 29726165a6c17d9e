#include "order/kcore_order.h"

#include <atomic>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "exec/executor.h"

namespace pivotscale {

namespace {

// Minimum live vertices per chunk of a level's collection pass.
constexpr std::size_t kLiveGrain = 4096;

}  // namespace

std::vector<EdgeId> CoreDecomposition(const Graph& g, int* rounds_out) {
  const NodeId n = g.NumNodes();
  std::vector<std::int64_t> degree(n);
  ParallelFor(n, ExecOptions{}, [&](std::size_t u) {
    degree[u] = static_cast<std::int64_t>(g.Degree(static_cast<NodeId>(u)));
  });

  std::vector<EdgeId> coreness(n, 0);
  std::vector<std::uint8_t> alive(n, 1);
  std::vector<NodeId> frontier, next_frontier;
  // The vertices not yet peeled when the current level began (in no
  // particular order): a level's collection pass scans only these and
  // compacts them, dropping the ones the previous level's cascade removed.
  std::vector<NodeId> live(n), next_live;
  std::iota(live.begin(), live.end(), NodeId{0});
  next_live.reserve(n);

  NodeId removed_total = 0;
  std::int64_t level = 0;
  int rounds = 0;
  while (removed_total < n) {
    // Collect everything peelable at this level, then cascade within the
    // level (removing a degree-<=level vertex can push neighbors below the
    // threshold in the same level) — the PKC processing structure.
    // Every worker splits its chunks of `live` into private vectors (its
    // reduction slot); the merge concatenates them in worker order.
    struct Split {
      std::vector<NodeId> peel;
      std::vector<NodeId> keep;
    };
    frontier.clear();
    next_live.clear();
    ExecOptions collect_options;
    collect_options.grain = kLiveGrain;
    ParallelForWorkers(
        live.size(), collect_options, [](int) { return Split{}; },
        [&](Split& s, std::size_t i) {
          const NodeId u = live[i];
          if (!alive[u]) return;
          if (degree[u] <= level) {
            s.peel.push_back(u);
          } else {
            s.keep.push_back(u);
          }
        },
        [&](Split& s) {
          frontier.insert(frontier.end(), s.peel.begin(), s.peel.end());
          next_live.insert(next_live.end(), s.keep.begin(), s.keep.end());
        });
    std::swap(live, next_live);

    ++rounds;  // the level-collection pass
    while (!frontier.empty()) {
      ++rounds;  // each cascade pass synchronizes
      for (NodeId u : frontier) {
        alive[u] = 0;
        coreness[u] = static_cast<EdgeId>(level);
      }
      removed_total += static_cast<NodeId>(frontier.size());

      next_frontier.clear();
      ExecOptions cascade_options;
      cascade_options.grain = 64;
      ParallelForWorkers(
          frontier.size(), cascade_options,
          [](int) { return std::vector<NodeId>(); },
          [&](std::vector<NodeId>& local, std::size_t i) {
            for (NodeId v : g.Neighbors(frontier[i])) {
              if (!alive[v]) continue;
              // Two frontier vertices can share the neighbor, hence the
              // atomic decrement. Exactly the decrement that lands on
              // `level` crosses the peelable threshold, so each vertex
              // enqueues once.
              const std::int64_t after =
                  std::atomic_ref<std::int64_t>(degree[v])
                      .fetch_sub(1, std::memory_order_relaxed) -
                  1;
              if (after == level) local.push_back(v);
            }
          },
          [&next_frontier](std::vector<NodeId>& local) {
            next_frontier.insert(next_frontier.end(), local.begin(),
                                 local.end());
          });
      std::swap(frontier, next_frontier);
    }
    ++level;
  }
  if (rounds_out != nullptr) *rounds_out = rounds;
  return coreness;
}

Ordering KCoreOrdering(const Graph& g, int* rounds_out) {
  const NodeId n = g.NumNodes();
  const std::vector<EdgeId> coreness = CoreDecomposition(g, rounds_out);
  std::vector<std::uint64_t> keys(n);
  ParallelFor(n, ExecOptions{}, [&](std::size_t i) {
    const auto u = static_cast<NodeId>(i);
    keys[u] = PackKey(coreness[u], g.Degree(u));
  });
  return {"kcore", RanksFromKeys(keys)};
}

}  // namespace pivotscale
