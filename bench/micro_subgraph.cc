// Microbenchmarks (google-benchmark): first-level subgraph construction and
// full per-root counting for the four structures. These isolate the access
// costs the paper discusses — dense's direct indexing, sparse's per-access
// hash lookup (~1.2x), and remap's pay-hash-once design — and the bitmap
// kernel's: a ProcessRoot case minus the matching Build case is the
// per-root recursion cost on bit rows versus remap's list rows. The
// default cases count single-k at k = 8; two more run bit rows in the
// modes the server counts in (kAllUpToK for single-k requests, per-vertex
// kSingleK), at k = 4 and k = 3, where most calls end in the closed-form
// tail.
//
// The bench DAG has 2^13 vertices, so the bitmap build's |V|-entry stamp
// sits in L1. BM_SubgraphBuild<BitmapSubgraph, FriendsterDag> repeats the
// bitmap build on friendster-like at scale 2 (2^18 vertices, the largest
// graph of the clique-poor pipeline), whose stamp and out-lists do not
// fit in L2.
#include <benchmark/benchmark.h>

#include "graph/builder.h"
#include "graph/dag.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "order/core_order.h"
#include "pivot/pivoter.h"
#include "pivot/subgraph_bitmap.h"
#include "pivot/subgraph_dense.h"
#include "pivot/subgraph_remap.h"
#include "pivot/subgraph_sparse.h"
#include "util/binomial.h"

namespace {

using namespace pivotscale;

const Graph& BenchDag() {
  static const Graph dag = [] {
    EdgeList edges = Rmat(13, 10.0, 7);
    PlantCliques(&edges, 4096, 16, 8, 20, 8);
    const Graph g = BuildGraph(std::move(edges));
    return Directionalize(g, CoreOrdering(g).ranks);
  }();
  return dag;
}

const Graph& FriendsterDag() {
  static const Graph dag = [] {
    const Graph g = MakeDataset("friendster-like", 2.0).graph;
    return Directionalize(g, CoreOrdering(g).ranks);
  }();
  return dag;
}

template <typename SG, const Graph& (*kDag)() = BenchDag>
void BM_SubgraphBuild(benchmark::State& state) {
  const Graph& dag = kDag();
  SG sg;
  sg.Attach(dag);
  NodeId v = 0;
  for (auto _ : state) {
    sg.Build(v);
    benchmark::DoNotOptimize(sg);
    v = (v + 1) % dag.NumNodes();
  }
}
BENCHMARK(BM_SubgraphBuild<DenseSubgraph>);
BENCHMARK(BM_SubgraphBuild<SparseSubgraph>);
BENCHMARK(BM_SubgraphBuild<RemapSubgraph>);
BENCHMARK(BM_SubgraphBuild<BitmapSubgraph>);
BENCHMARK_TEMPLATE(BM_SubgraphBuild, BitmapSubgraph, FriendsterDag);

template <typename SG, CountMode kMode = CountMode::kSingleK,
          std::uint32_t kK = 8, bool kPerVertex = false>
void BM_ProcessRoot(benchmark::State& state) {
  const Graph& dag = BenchDag();
  const std::uint32_t bound =
      static_cast<std::uint32_t>(dag.MaxDegree()) + 1;
  static const BinomialTable binom(bound + 1);
  PivotCounter<SG, NoStats> counter(dag, kMode, kK, kPerVertex, bound,
                                    &binom);
  NodeId v = 0;
  for (auto _ : state) {
    counter.ProcessRoot(v);
    benchmark::DoNotOptimize(counter.total());
    v = (v + 1) % dag.NumNodes();
  }
}
BENCHMARK(BM_ProcessRoot<DenseSubgraph>);
BENCHMARK(BM_ProcessRoot<SparseSubgraph>);
BENCHMARK(BM_ProcessRoot<RemapSubgraph>);
BENCHMARK(BM_ProcessRoot<BitmapSubgraph>);
BENCHMARK_TEMPLATE(BM_ProcessRoot, BitmapSubgraph, CountMode::kAllUpToK, 4);
BENCHMARK_TEMPLATE(BM_ProcessRoot, BitmapSubgraph, CountMode::kSingleK, 3,
                   true);

}  // namespace
