// Microbenchmarks (google-benchmark): ordering kernels on a mid-size
// power-law graph (2^14-vertex R-MAT), and the peels also on
// friendster-like@2 (2^18 vertices), where a round's cost shows. The
// paper's cost ladder (degree << centrality < k-core < approx-core(-0.5)
// < exact core peel, sequential) is a 64-thread one. At 4 threads on a
// 4-vCPU host (medians of 5, noisy host) the R-MAT reads: exact peel
// 1.1-1.3 ms, degree 1.3-1.7, centrality 1.5-1.9, approx-core(-0.5)
// 3.2-3.4 (150 rounds), k-core 3.2-4.0 (208 rounds); friendster-like@2:
// exact peel 58-97 ms, k-core 66-88 (474 rounds), approx-core(-0.5)
// 77-88 (571 rounds). Four threads do not yet buy back the rounds.
#include <benchmark/benchmark.h>

#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "order/approx_core_order.h"
#include "order/centrality_order.h"
#include "order/core_order.h"
#include "order/degree_order.h"
#include "order/heuristic.h"
#include "order/kcore_order.h"

namespace {

using namespace pivotscale;

const Graph& BenchGraph() {
  static const Graph g = BuildGraph(Rmat(14, 12.0, 11));
  return g;
}

// The largest graph of the clique-poor pipeline: 2^18 vertices, where a
// peel round that scanned all n vertices would dominate the ordering.
const Graph& FriendsterGraph() {
  static const Graph g = MakeDataset("friendster-like", 2.0).graph;
  return g;
}

void BM_DegreeOrdering(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(DegreeOrdering(BenchGraph()).ranks.size());
}
BENCHMARK(BM_DegreeOrdering);

void BM_CoreOrdering(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(CoreOrdering(BenchGraph()).ranks.size());
}
BENCHMARK(BM_CoreOrdering);

void BM_CoreOrderingFriendster(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(CoreOrdering(FriendsterGraph()).ranks.size());
}
BENCHMARK(BM_CoreOrderingFriendster);

// eps = range(0) / 10; reports the round count as the "rounds" counter.
void RunApproxCore(benchmark::State& state, const Graph& g) {
  const double eps = static_cast<double>(state.range(0)) / 10.0;
  int rounds = 0;
  for (auto _ : state) {
    const ApproxCoreResult result = ApproxCoreOrderingWithStats(g, eps);
    rounds = result.rounds;
    benchmark::DoNotOptimize(result.ordering.ranks.size());
  }
  state.counters["rounds"] = rounds;
}

void BM_ApproxCoreOrdering(benchmark::State& state) {
  RunApproxCore(state, BenchGraph());
}
BENCHMARK(BM_ApproxCoreOrdering)->Arg(-5)->Arg(1)->Arg(500000);

void BM_ApproxCoreOrderingFriendster(benchmark::State& state) {
  RunApproxCore(state, FriendsterGraph());
}
BENCHMARK(BM_ApproxCoreOrderingFriendster)->Arg(-5)->Arg(1);

// Reports the synchronized round count as the "rounds" counter.
void RunKCore(benchmark::State& state, const Graph& g) {
  int rounds = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(KCoreOrdering(g, &rounds).ranks.size());
  state.counters["rounds"] = rounds;
}

void BM_KCoreOrdering(benchmark::State& state) {
  RunKCore(state, BenchGraph());
}
BENCHMARK(BM_KCoreOrdering);

void BM_KCoreOrderingFriendster(benchmark::State& state) {
  RunKCore(state, FriendsterGraph());
}
BENCHMARK(BM_KCoreOrderingFriendster);

void BM_CentralityOrdering(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        CentralityOrdering(BenchGraph(), 3).ranks.size());
}
BENCHMARK(BM_CentralityOrdering);

void BM_Heuristic(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(SelectOrdering(BenchGraph()).a);
}
BENCHMARK(BM_Heuristic);

}  // namespace
