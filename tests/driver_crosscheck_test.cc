// Cross-validation of the two counting drivers, plus regression tests for
// the pipeline mode clobber and the per-thread busy-time sizing fix.
//
// CountCliques (vertex-parallel) and CountCliquesEdgeParallel decompose
// the same recursion differently; comparing them on random graphs for
// every k, structure, and per-vertex attribution keeps them from drifting.
// The forced-split section pins the executor's long-tail splitting path:
// with split_threshold = 1 every root with out-edges becomes edge-slice
// subtasks, so the split decomposition (including the singleton fixup)
// carries the entire count and must still match brute force.
#include <gtest/gtest.h>

#include <algorithm>

#include "exec/thread_budget.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "pivot/count.h"
#include "pivot/pivotscale.h"
#include "test_helpers.h"
#include "util/binomial.h"
#include "util/telemetry.h"

namespace pivotscale {
namespace {

using testing_helpers::BruteForceCount;
using testing_helpers::MakeDag;

// ------------------------------------------------- driver cross-validation

struct CrossParam {
  NodeId n;
  double p;
  std::uint64_t seed;
};

class DriverCrosscheck : public ::testing::TestWithParam<CrossParam> {};

TEST_P(DriverCrosscheck, EdgeParallelMatchesVertexParallelAllStructures) {
  const auto [n, p, seed] = GetParam();
  const Graph g = BuildGraph(ErdosRenyi(n, p, seed));
  const Graph dag = MakeDag(g, OrderingKind::kCore);

  for (std::uint32_t k = 1; k <= 6; ++k) {
    CountOptions options;
    options.k = k;
    const CountResult edge = CountCliquesEdgeParallel(dag, options);
    const std::uint64_t truth = BruteForceCount(g, k);
    EXPECT_EQ(edge.total.value(), static_cast<uint128>(truth))
        << "edge-parallel k=" << k;
    for (auto kind : {SubgraphKind::kDense, SubgraphKind::kSparse,
                      SubgraphKind::kRemap, SubgraphKind::kBitmap}) {
      options.structure = kind;
      const CountResult vertex = CountCliques(dag, options);
      EXPECT_EQ(vertex.total, edge.total)
          << "k=" << k << " structure=" << SubgraphKindName(kind);
    }
  }
}

TEST_P(DriverCrosscheck, PerVertexCountsAgree) {
  const auto [n, p, seed] = GetParam();
  const Graph g = BuildGraph(ErdosRenyi(n, p, seed + 1000));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);

  for (std::uint32_t k = 1; k <= 6; ++k) {
    CountOptions options;
    options.k = k;
    options.per_vertex = true;
    const CountResult edge = CountCliquesEdgeParallel(dag, options);
    ASSERT_EQ(edge.per_vertex.size(), g.NumNodes());
    for (auto kind : {SubgraphKind::kDense, SubgraphKind::kSparse,
                      SubgraphKind::kRemap, SubgraphKind::kBitmap}) {
      options.structure = kind;
      const CountResult vertex = CountCliques(dag, options);
      ASSERT_EQ(vertex.per_vertex.size(), g.NumNodes());
      for (NodeId v = 0; v < g.NumNodes(); ++v)
        EXPECT_EQ(vertex.per_vertex[v], edge.per_vertex[v])
            << "k=" << k << " structure=" << SubgraphKindName(kind)
            << " v=" << v;
    }
  }
}

TEST_P(DriverCrosscheck, AllKPerSizeAgrees) {
  const auto [n, p, seed] = GetParam();
  const Graph g = BuildGraph(ErdosRenyi(n, p, seed + 2000));
  const Graph dag = MakeDag(g, OrderingKind::kCore);

  CountOptions options;
  options.k = 4;
  options.mode = CountMode::kAllK;
  const CountResult edge = CountCliquesEdgeParallel(dag, options);
  for (auto kind : {SubgraphKind::kDense, SubgraphKind::kSparse,
                    SubgraphKind::kRemap, SubgraphKind::kBitmap}) {
    options.structure = kind;
    const CountResult vertex = CountCliques(dag, options);
    const std::size_t sizes =
        std::min(vertex.per_size.size(), edge.per_size.size());
    for (std::size_t s = 1; s < sizes; ++s)
      EXPECT_EQ(vertex.per_size[s], edge.per_size[s])
          << "structure=" << SubgraphKindName(kind) << " size=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGnp, DriverCrosscheck,
    ::testing::Values(CrossParam{40, 0.10, 1}, CrossParam{40, 0.25, 2},
                      CrossParam{60, 0.15, 3}, CrossParam{80, 0.08, 4}),
    [](const ::testing::TestParamInfo<CrossParam>& param_info) {
      std::string name = "n";
      name += std::to_string(param_info.param.n);
      name += "_seed";
      name += std::to_string(param_info.param.seed);
      return name;
    });

TEST_P(DriverCrosscheck, ForcedSplitMatchesBruteForce) {
  // split_threshold = 1: the splitting path is not just exercised on the
  // heavy tail, it carries the whole count.
  const auto [n, p, seed] = GetParam();
  const Graph g = BuildGraph(ErdosRenyi(n, p, seed + 3000));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  for (std::uint32_t k = 1; k <= 6; ++k) {
    for (auto kind : {SubgraphKind::kRemap, SubgraphKind::kBitmap}) {
      CountOptions options;
      options.k = k;
      options.structure = kind;
      options.split_threshold = 1;
      const CountResult split = CountCliques(dag, options);
      EXPECT_EQ(split.total.value(),
                static_cast<uint128>(BruteForceCount(g, k)))
          << "forced-split k=" << k << " structure="
          << SubgraphKindName(kind);
    }
  }
}

TEST_P(DriverCrosscheck, ForcedSplitPerVertexAndAllKAgreeWithUnsplit) {
  const auto [n, p, seed] = GetParam();
  const Graph g = BuildGraph(ErdosRenyi(n, p, seed + 4000));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);

  CountOptions base;
  base.k = 4;
  base.structure = SubgraphKind::kRemap;
  base.per_vertex = true;
  base.split_threshold = kNeverSplit;
  const CountResult whole = CountCliques(dag, base);

  CountOptions split_options = base;
  split_options.split_threshold = 1;
  const CountResult split = CountCliques(dag, split_options);
  EXPECT_EQ(split.total, whole.total);
  ASSERT_EQ(split.per_vertex.size(), whole.per_vertex.size());
  for (NodeId v = 0; v < g.NumNodes(); ++v)
    EXPECT_EQ(split.per_vertex[v], whole.per_vertex[v]) << "v=" << v;

  CountOptions all_k = split_options;
  all_k.per_vertex = false;
  all_k.mode = CountMode::kAllK;
  CountOptions all_k_whole = all_k;
  all_k_whole.split_threshold = kNeverSplit;
  const CountResult split_all = CountCliques(dag, all_k);
  const CountResult whole_all = CountCliques(dag, all_k_whole);
  const std::size_t sizes =
      std::min(split_all.per_size.size(), whole_all.per_size.size());
  for (std::size_t s = 1; s < sizes; ++s)
    EXPECT_EQ(split_all.per_size[s], whole_all.per_size[s]) << "size=" << s;
}

TEST(ForcedSplit, NonRemapStructuresIgnoreThresholdAndStayCorrect) {
  // Dense/Sparse structures cannot run edge subtasks (no BuildPair);
  // split_threshold must be ignored, not mis-applied.
  const Graph g = BuildGraph(ErdosRenyi(50, 0.2, 7));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  const std::uint64_t truth = BruteForceCount(g, 4);
  for (auto kind : {SubgraphKind::kDense, SubgraphKind::kSparse}) {
    CountOptions options;
    options.k = 4;
    options.structure = kind;
    options.split_threshold = 1;
    const CountResult result = CountCliques(dag, options);
    EXPECT_EQ(result.total.value(), static_cast<uint128>(truth))
        << SubgraphKindName(kind);
  }
}

TEST(ForcedSplit, SplitTelemetryReportsEveryEligibleRoot) {
  const Graph g = BuildGraph(CompleteGraph(16));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  TelemetryRegistry telemetry;
  CountOptions options;
  options.k = 4;
  options.structure = SubgraphKind::kRemap;
  options.split_threshold = 1;
  options.telemetry = &telemetry;
  const CountResult result = CountCliques(dag, options);
  EXPECT_EQ(result.total.value(), BinomialChoose(16, 4));
  // K16 under a total order: 15 roots have out-edges, the last has none.
  EXPECT_EQ(telemetry.Counter("count.splits"), 15u);
  EXPECT_EQ(telemetry.Counter("exec.splits"), 15u);
}

TEST(DriverCrosscheck, PlantedCliquesDeepK) {
  // Clique-rich input exercises the deep pivoting branches of both
  // decompositions.
  EdgeList edges = GnM(70, 300, 9);
  PlantCliques(&edges, 70, 3, 7, 9, 10);
  const Graph g = BuildGraph(std::move(edges));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  for (std::uint32_t k = 2; k <= 8; ++k) {
    CountOptions options;
    options.k = k;
    const CountResult vertex = CountCliques(dag, options);
    const CountResult edge = CountCliquesEdgeParallel(dag, options);
    EXPECT_EQ(vertex.total, edge.total) << "k=" << k;
  }
}

TEST(DriverCrosscheck, EdgeParallelKOneStopsAtEveryPairTask) {
  // A pair task starts with r = 2 required vertices, above k = 1, so its
  // first call must return: one call per DAG edge, plus one per root
  // without out-edges (counted whole).
  const Graph g = BuildGraph(ErdosRenyi(400, 0.1, 1));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  CountOptions options;
  options.k = 1;
  options.collect_op_stats = true;
  const CountResult result = CountCliquesEdgeParallel(dag, options);
  EXPECT_EQ(result.total.value(), static_cast<uint128>(g.NumNodes()));
  std::uint64_t sinks = 0;
  for (NodeId v = 0; v < dag.NumNodes(); ++v) sinks += dag.Degree(v) == 0;
  EXPECT_EQ(result.ops.calls, dag.NumDirectedEdges() + sinks);
}

// -------------------------------------------- pipeline mode (regression)

TEST(PipelineMode, AllUpToKFlowsThroughPipeline) {
  // Pre-fix CountKCliques overwrote count.mode with kSingleK whenever
  // all_k was false, so kAllUpToK was unreachable and per_size stayed
  // empty of results.
  const Graph g = BuildGraph(CompleteGraph(12));
  PivotScaleOptions options;
  options.k = 5;
  options.count.mode = CountMode::kAllUpToK;
  options.forced_ordering = OrderingSpec{OrderingKind::kDegree};
  const PivotScaleResult result = CountKCliques(g, options);
  for (std::uint32_t s = 1; s <= 5; ++s)
    EXPECT_EQ(result.count.per_size[s].value(), BinomialChoose(12, s))
        << s;
  EXPECT_EQ(result.total.value(), BinomialChoose(12, 5));
}

TEST(PipelineMode, DefaultRemainsSingleK) {
  const Graph g = BuildGraph(CompleteGraph(10));
  PivotScaleOptions options;
  options.k = 3;
  options.forced_ordering = OrderingSpec{OrderingKind::kDegree};
  const PivotScaleResult result = CountKCliques(g, options);
  EXPECT_EQ(result.total.value(), BinomialChoose(10, 3));
}

TEST(PipelineMode, AllKStillForcesAllK) {
  const Graph g = BuildGraph(CompleteGraph(10));
  PivotScaleOptions options;
  options.k = 3;
  options.all_k = true;
  options.count.mode = CountMode::kSingleK;  // all_k must win
  options.forced_ordering = OrderingSpec{OrderingKind::kDegree};
  const PivotScaleResult result = CountKCliques(g, options);
  for (std::uint32_t s = 1; s <= 10; ++s)
    EXPECT_EQ(result.count.per_size[s].value(), BinomialChoose(10, s))
        << s;
}

// --------------------------------- busy-time team sizing (regression)

TEST(ThreadBusySeconds, SizedToActualTeamNotRequest) {
  // While this thread holds the whole budget, a run that asks for 4
  // threads realizes a team of 1. Pre-fix the result carried 4 slots, 3 of
  // them phantom zeros diluting imbalance stats.
  const Graph g = BuildGraph(CompleteGraph(12));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  CountOptions options;
  options.k = 3;
  options.num_threads = 4;

  CountResult vertex, edge;
  {
    ThreadBudget& budget = ThreadBudget::Global();
    const ThreadLease held = budget.Acquire(budget.capacity());
    vertex = CountCliques(dag, options);
    edge = CountCliquesEdgeParallel(dag, options);
  }

  EXPECT_EQ(vertex.thread_busy_seconds.size(), 1u);
  EXPECT_EQ(edge.thread_busy_seconds.size(), 1u);
  EXPECT_EQ(vertex.total.value(), BinomialChoose(12, 3));
  EXPECT_EQ(edge.total.value(), BinomialChoose(12, 3));
}

TEST(ThreadBusySeconds, DeliveredTeamOutsideParallelRegion) {
  const Graph g = BuildGraph(CompleteGraph(12));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  CountOptions options;
  options.k = 3;
  options.num_threads = 2;
  const CountResult result = CountCliques(dag, options);
  EXPECT_GE(result.thread_busy_seconds.size(), 1u);
  EXPECT_LE(result.thread_busy_seconds.size(), 2u);
}

}  // namespace
}  // namespace pivotscale
