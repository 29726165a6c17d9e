// Microbenchmarks (google-benchmark): the execution layer itself.
// Measures what the scheduler adds and costs — chunk-bound construction
// in both modes, the per-region entry cost of the fork-join pool,
// self-scheduling overhead at different granularities, reduction
// throughput, the thread-budget lease path, and the counting driver
// across split thresholds (never / default / every root).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "exec/executor.h"
#include "exec/thread_budget.h"
#include "graph/builder.h"
#include "graph/dag.h"
#include "graph/generators.h"
#include "order/core_order.h"
#include "pivot/count.h"

namespace {

using namespace pivotscale;

void BM_BuildChunkBoundsUniform(benchmark::State& state) {
  ExecOptions options;
  options.chunks_per_worker = 8;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        exec_detail::BuildChunkBounds(1 << 16, 8, options).size());
}
BENCHMARK(BM_BuildChunkBoundsUniform);

void BM_BuildChunkBoundsCostWeighted(benchmark::State& state) {
  ExecOptions options;
  options.chunks_per_worker = 8;
  // Power-law-ish skew: a few heavy items, a long cheap tail.
  options.cost = [](std::size_t i) {
    return i % 997 == 0 ? 10'000.0 : 1.0;
  };
  for (auto _ : state)
    benchmark::DoNotOptimize(
        exec_detail::BuildChunkBounds(1 << 16, 8, options).size());
}
BENCHMARK(BM_BuildChunkBoundsCostWeighted);

void BM_ThreadBudgetAcquireRelease(benchmark::State& state) {
  for (auto _ : state) {
    ThreadLease lease = ThreadBudget::Global().Acquire(0);
    benchmark::DoNotOptimize(lease.threads());
  }
}
BENCHMARK(BM_ThreadBudgetAcquireRelease);

// Per-region entry cost: back-to-back regions with the whole budget
// (num_threads = 0) and an empty body over team x 8 items, so nothing
// hides the lease, the fork and the join. `team` is the mean realized
// team.
void BM_EmptyRegion(benchmark::State& state) {
  const ExecOptions options;
  const std::size_t items =
      8 * static_cast<std::size_t>(ThreadBudget::Global().capacity());
  double team = 0;
  for (auto _ : state)
    team += ParallelFor(items, options, [](std::size_t) {}).team;
  state.counters["team"] =
      benchmark::Counter(team, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_EmptyRegion);

// Region launch + teardown overhead against a trivial body, across
// self-scheduling granularities (arg = chunks_per_worker). Each worker
// adds into its own reduction slot, padded past a cache line because
// ParallelReduce keeps the slots side by side, so the body shares no line
// with another worker and the time is the scheduler's.
void BM_ParallelForOverhead(benchmark::State& state) {
  struct Slot {
    std::uint64_t sum = 0;
    char pad[64] = {};
  };
  ExecOptions options;
  options.chunks_per_worker = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const Slot total = ParallelReduce(
        std::size_t{1} << 14, options, Slot{},
        [](Slot& slot, std::size_t i) {
          benchmark::DoNotOptimize(slot.sum += i);
        },
        [](Slot& into, const Slot& from) { into.sum += from.sum; });
    benchmark::DoNotOptimize(total.sum);
  }
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(8)->Arg(64);

void BM_ParallelReduceSum(benchmark::State& state) {
  ExecOptions options;
  for (auto _ : state) {
    const std::uint64_t total = ParallelReduce(
        std::size_t{1} << 18, options, std::uint64_t{0},
        [](std::uint64_t& acc, std::size_t i) { acc += i; },
        [](std::uint64_t& into, std::uint64_t from) { into += from; });
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ParallelReduceSum);

const Graph& BenchDag() {
  static const Graph dag = [] {
    EdgeList edges = Rmat(12, 10.0, 23);
    PlantCliques(&edges, 4096, 6, 6, 9, 24);
    const Graph g = BuildGraph(std::move(edges));
    return Directionalize(g, CoreOrdering(g).ranks);
  }();
  return dag;
}

// The counting driver across the splitting spectrum:
// arg 0 = kNeverSplit (pure vertex-parallel), 1 = default threshold
// (split only the long tail), 2 = split every root with out-edges.
void BM_CountCliquesSplitThreshold(benchmark::State& state) {
  CountOptions options;
  options.k = 6;
  options.structure = SubgraphKind::kRemap;
  switch (state.range(0)) {
    case 0: options.split_threshold = kNeverSplit; break;
    case 1: options.split_threshold = kDefaultSplitThreshold; break;
    default: options.split_threshold = 0; break;
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(
        CountCliques(BenchDag(), options).total.value());
}
BENCHMARK(BM_CountCliquesSplitThreshold)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
