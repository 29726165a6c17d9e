// Exactness of the bitmap-row kernel at its word boundaries.
//
// BitmapSubgraph stores a task of n members in rows of 1 (n <= 64), 2
// (n <= 128) or 4 (n <= 256) words and falls back to remap's list rows
// above 256. Each case here builds a graph with one hub whose DAG
// out-degree is exactly d, for d on both sides of every boundary, and
// checks every counting mode against brute force and against the remap
// structure. The forced-split cases run the same graphs through
// ProcessEdge, whose pair builds are all small enough for bit rows, so
// the >256 root is exercised both whole (fallback) and split (bit rows).
//
// The closed-form tail (RecurseBits stops once k - r <= 2) is checked the
// same way, in every mode that takes it, on the hub graphs, on a
// near-complete graph where paths reach the tail with pivots (np > 0),
// and on a sparse graph whose tails mostly see an empty candidate set.
// Remap has no tail, so it is an independent reference.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/dag.h"
#include "graph/generators.h"
#include "pivot/count.h"
#include "pivot/subgraph_bitmap.h"
#include "test_helpers.h"
#include "util/binomial.h"

namespace pivotscale {
namespace {

using testing_helpers::BruteForceCount;
using testing_helpers::BruteForcePerVertex;

// Orients every edge from the lower id to the higher one, so vertex 0's
// out-degree is its degree.
Graph IdOrderDag(const Graph& g) {
  std::vector<NodeId> ranks(g.NumNodes());
  std::iota(ranks.begin(), ranks.end(), NodeId{0});
  return Directionalize(g, ranks);
}

// Hub 0 adjacent to members 1..d, a sparse random graph on the members, a
// planted clique straddling local ids 63/64 (and 127/128 where present),
// and noise vertices past d whose edges land in members' out-lists
// without being members of the hub's task.
Graph HubGraph(NodeId d) {
  const NodeId noise = 20;
  EdgeList edges;
  for (NodeId m = 1; m <= d; ++m) edges.push_back({0, m});
  for (const auto& [a, b] : ErdosRenyi(d, 12.0 / d, /*seed=*/d))
    edges.push_back({a + 1, b + 1});
  for (NodeId mid : {NodeId{64}, NodeId{128}}) {
    if (mid + 4 > d) continue;
    // Members mid-3..mid+4 hold local ids mid-4..mid+3.
    for (NodeId a = mid - 3; a <= mid + 4; ++a)
      for (NodeId b = a + 1; b <= mid + 4; ++b) edges.push_back({a, b});
  }
  for (NodeId i = 0; i < 4 * noise; ++i)
    edges.push_back({1 + (i * 37) % d, d + 1 + i % noise});
  return BuildUndirected(std::move(edges), d + 1 + noise);
}

// Brute-force truth for sizes 1..max_k: per-vertex participation and the
// total per size (each s-clique has s members).
struct Truth {
  std::vector<std::vector<std::uint64_t>> per_vertex;  // [k][v]
  std::vector<uint128> total;                          // [k]
};

Truth BruteForceTruth(const Graph& g, std::uint32_t max_k) {
  Truth truth;
  truth.per_vertex.resize(max_k + 1);
  truth.total.assign(max_k + 1, 0);
  for (std::uint32_t k = 1; k <= max_k; ++k) {
    truth.per_vertex[k] = BruteForcePerVertex(g, k);
    const std::uint64_t memberships = std::accumulate(
        truth.per_vertex[k].begin(), truth.per_vertex[k].end(),
        std::uint64_t{0});
    truth.total[k] = memberships / k;
  }
  return truth;
}

// Every mode the tail serves, whole-root and forced split (split
// threshold 1 splits every root, so pair tasks reach the tail at r = 2):
// kSingleK with and without per-vertex for k = 1..6, kAllUpToK for
// k = 1..7, each against brute force and the tail-less remap kernel.
void ExpectTailExact(const Graph& g, const Graph& dag) {
  const Truth truth = BruteForceTruth(g, 7);
  for (std::uint64_t split : {kNeverSplit, std::uint64_t{1}}) {
    const auto run = [&](CountOptions options, SubgraphKind structure) {
      options.structure = structure;
      options.split_threshold = split;
      return CountCliques(dag, options);
    };
    for (std::uint32_t k = 1; k <= 6; ++k) {
      for (bool per_vertex : {false, true}) {
        CountOptions options;
        options.k = k;
        options.per_vertex = per_vertex;
        const CountResult bitmap = run(options, SubgraphKind::kBitmap);
        const CountResult remap = run(options, SubgraphKind::kRemap);
        EXPECT_EQ(bitmap.total.value(), truth.total[k])
            << "k=" << k << " per_vertex=" << per_vertex
            << " split=" << split;
        EXPECT_EQ(bitmap.total, remap.total) << "k=" << k;
        if (!per_vertex) continue;
        EXPECT_EQ(bitmap.per_vertex, remap.per_vertex)
            << "k=" << k << " split=" << split;
        ASSERT_EQ(bitmap.per_vertex.size(), g.NumNodes());
        for (NodeId v = 0; v < g.NumNodes(); ++v)
          EXPECT_EQ(bitmap.per_vertex[v].value(),
                    static_cast<uint128>(truth.per_vertex[k][v]))
              << "k=" << k << " split=" << split << " v=" << v;
      }
    }
    for (std::uint32_t k = 1; k <= 7; ++k) {
      CountOptions upto;
      upto.mode = CountMode::kAllUpToK;
      upto.k = k;
      const CountResult bitmap = run(upto, SubgraphKind::kBitmap);
      const CountResult remap = run(upto, SubgraphKind::kRemap);
      EXPECT_EQ(bitmap.per_size, remap.per_size)
          << "k=" << k << " split=" << split;
      for (std::uint32_t s = 1; s <= k; ++s)
        EXPECT_EQ(bitmap.per_size[s].value(), truth.total[s])
            << "k=" << k << " size=" << s << " split=" << split;
      EXPECT_EQ(bitmap.total.value(), truth.total[k]) << "k=" << k;
    }
  }
}

class BitmapBoundary : public ::testing::TestWithParam<NodeId> {
 protected:
  void SetUp() override {
    g_ = HubGraph(GetParam());
    dag_ = IdOrderDag(g_);
    ASSERT_EQ(dag_.Degree(0), GetParam());
  }

  CountResult Run(CountOptions options, SubgraphKind structure) const {
    options.structure = structure;
    options.split_threshold = kNeverSplit;
    return CountCliques(dag_, options);
  }

  Graph g_;
  Graph dag_;
};

TEST_P(BitmapBoundary, SingleKWithAndWithoutEarlyTermination) {
  for (std::uint32_t k = 1; k <= 6; ++k) {
    const auto truth = static_cast<uint128>(BruteForceCount(g_, k));
    for (bool early : {true, false}) {
      CountOptions options;
      options.k = k;
      options.early_termination = early;
      EXPECT_EQ(Run(options, SubgraphKind::kBitmap).total.value(), truth)
          << "k=" << k << " early=" << early;
      EXPECT_EQ(Run(options, SubgraphKind::kRemap).total.value(), truth)
          << "k=" << k << " early=" << early;
    }
  }
}

TEST_P(BitmapBoundary, AllKAndAllUpToKMatchRemapAndBruteForce) {
  CountOptions all;
  all.mode = CountMode::kAllK;
  const CountResult bitmap = Run(all, SubgraphKind::kBitmap);
  const CountResult remap = Run(all, SubgraphKind::kRemap);
  EXPECT_EQ(bitmap.per_size, remap.per_size);
  for (std::uint32_t s = 1; s <= 5; ++s)
    EXPECT_EQ(bitmap.per_size[s].value(),
              static_cast<uint128>(BruteForceCount(g_, s)))
        << "size=" << s;

  for (std::uint32_t k : {1u, 2u, 4u}) {
    CountOptions upto;
    upto.mode = CountMode::kAllUpToK;
    upto.k = k;
    const CountResult capped = Run(upto, SubgraphKind::kBitmap);
    for (std::uint32_t s = 1; s <= k; ++s)
      EXPECT_EQ(capped.per_size[s], remap.per_size[s])
          << "k=" << k << " size=" << s;
    EXPECT_EQ(capped.total, remap.per_size[k]) << "k=" << k;
  }
}

TEST_P(BitmapBoundary, PerVertexMatchesRemapAndBruteForce) {
  for (std::uint32_t k : {3u, 4u}) {
    CountOptions options;
    options.k = k;
    options.per_vertex = true;
    const CountResult bitmap = Run(options, SubgraphKind::kBitmap);
    const CountResult remap = Run(options, SubgraphKind::kRemap);
    EXPECT_EQ(bitmap.per_vertex, remap.per_vertex) << "k=" << k;
    const std::vector<std::uint64_t> truth = BruteForcePerVertex(g_, k);
    ASSERT_EQ(bitmap.per_vertex.size(), truth.size());
    for (NodeId v = 0; v < g_.NumNodes(); ++v)
      EXPECT_EQ(bitmap.per_vertex[v].value(), static_cast<uint128>(truth[v]))
          << "k=" << k << " v=" << v;
  }
}

TEST_P(BitmapBoundary, ForcedSplitMatchesUnsplit) {
  for (std::uint32_t k = 1; k <= 5; ++k) {
    CountOptions options;
    options.k = k;
    options.structure = SubgraphKind::kBitmap;
    options.split_threshold = 1;
    EXPECT_EQ(CountCliques(dag_, options).total.value(),
              static_cast<uint128>(BruteForceCount(g_, k)))
        << "forced-split k=" << k;
  }

  CountOptions per_vertex;
  per_vertex.k = 4;
  per_vertex.per_vertex = true;
  const CountResult whole = Run(per_vertex, SubgraphKind::kBitmap);
  per_vertex.structure = SubgraphKind::kBitmap;
  per_vertex.split_threshold = 1;
  EXPECT_EQ(CountCliques(dag_, per_vertex).per_vertex, whole.per_vertex);

  CountOptions all;
  all.mode = CountMode::kAllK;
  const CountResult all_whole = Run(all, SubgraphKind::kBitmap);
  all.structure = SubgraphKind::kBitmap;
  all.split_threshold = 1;
  EXPECT_EQ(CountCliques(dag_, all).per_size, all_whole.per_size);
}

TEST_P(BitmapBoundary, CompleteGraphClosedForm) {
  // K_{d+1}: every root's task is a clique, so the recursion is one pivot
  // chain that crosses every word of the rows.
  const NodeId n = GetParam() + 1;
  const Graph dag = IdOrderDag(BuildGraph(CompleteGraph(n)));
  CountOptions upto;
  upto.mode = CountMode::kAllUpToK;
  upto.k = 5;
  const CountResult capped = CountCliques(dag, upto);
  for (std::uint32_t s = 1; s <= 5; ++s)
    EXPECT_EQ(capped.per_size[s].value(), BinomialChoose(n, s)) << s;

  CountOptions per_vertex;
  per_vertex.k = 4;
  per_vertex.per_vertex = true;
  const CountResult pv = CountCliques(dag, per_vertex);
  EXPECT_EQ(pv.total.value(), BinomialChoose(n, 4));
  for (NodeId v = 0; v < n; ++v)
    EXPECT_EQ(pv.per_vertex[v].value(), BinomialChoose(n - 1, 3)) << v;
}

TEST_P(BitmapBoundary, ClosedFormTailMatchesRemapAndBruteForce) {
  ExpectTailExact(g_, dag_);
}

INSTANTIATE_TEST_SUITE_P(
    WordBoundaries, BitmapBoundary,
    ::testing::Values(63, 64, 65, 127, 128, 129, 255, 256, 257),
    [](const ::testing::TestParamInfo<NodeId>& param_info) {
      std::string name = "d";
      name += std::to_string(param_info.param);
      return name;
    });

TEST(BitmapTail, CompleteGraphWithNoise) {
  // K_24 with every seventh edge dropped: most roots' tasks are nearly
  // complete, so paths pick several pivots before the missing edges add
  // required vertices, and the tail sees np > 0. Noise vertices attach to
  // a third of the clique each.
  const NodeId n = 24;
  const NodeId noise = 8;
  EdgeList edges;
  std::uint32_t pair = 0;
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = a + 1; b < n; ++b)
      if (++pair % 7 != 0) edges.push_back({a, b});
  for (NodeId x = 0; x < noise; ++x)
    for (NodeId a = x % 3; a < n; a += 3) edges.push_back({n + x, a});
  const Graph g = BuildUndirected(std::move(edges), n + noise);
  ExpectTailExact(g, IdOrderDag(g));
}

TEST(BitmapTail, SparseGraphWithEmptyCandidateTails) {
  // Stars, an even cycle, K_{3,4} (no triangles: kAllUpToK paths reach
  // r = k - 2 with nothing left in P) next to a K_4 and a K_5 with
  // pendant edges and a path between them.
  EdgeList edges;
  for (NodeId leaf = 1; leaf <= 6; ++leaf) edges.push_back({0, leaf});
  for (NodeId i = 0; i < 8; ++i) edges.push_back({7 + i, 7 + (i + 1) % 8});
  for (NodeId a = 15; a < 18; ++a)
    for (NodeId b = 18; b < 22; ++b) edges.push_back({a, b});
  for (NodeId a = 22; a < 26; ++a)
    for (NodeId b = a + 1; b < 26; ++b) edges.push_back({a, b});
  for (NodeId a = 26; a < 31; ++a)
    for (NodeId b = a + 1; b < 31; ++b) edges.push_back({a, b});
  edges.push_back({22, 31});
  edges.push_back({26, 32});
  edges.push_back({25, 33});
  edges.push_back({33, 26});
  edges.push_back({0, 22});
  const Graph g = BuildUndirected(std::move(edges), 34);
  ExpectTailExact(g, IdOrderDag(g));
}

TEST(BitmapTail, UpperTriangleEdgeOpsOnCompleteGraph) {
  // kAllUpToK at k = 3 stops at every root (r = 1 = k - 2) and counts
  // e(P) once per edge: the only adjacency entries read are the
  // C(outdeg(v), 2) edges among each root's out-neighbors, and the only
  // call is the root's own.
  for (NodeId n : {NodeId{5}, NodeId{33}, NodeId{64}}) {
    const Graph dag = IdOrderDag(BuildGraph(CompleteGraph(n)));
    CountOptions upto;
    upto.mode = CountMode::kAllUpToK;
    upto.k = 3;
    upto.structure = SubgraphKind::kBitmap;
    upto.split_threshold = kNeverSplit;
    upto.collect_op_stats = true;
    const CountResult result = CountCliques(dag, upto);
    uint128 pairs = 0;
    for (NodeId v = 0; v < n; ++v) pairs += BinomialChoose(dag.Degree(v), 2);
    EXPECT_EQ(static_cast<uint128>(result.ops.edge_ops), pairs) << "n=" << n;
    EXPECT_EQ(result.ops.calls, n) << "n=" << n;
    EXPECT_EQ(result.total.value(), BinomialChoose(n, 3)) << "n=" << n;
  }
}

TEST(BitmapSubgraph, RowWidthFollowsTaskSize) {
  for (const auto& [d, words] :
       std::vector<std::pair<NodeId, std::uint32_t>>{
           {1, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 4}, {256, 4}, {257, 0}}) {
    const Graph dag = IdOrderDag(BuildGraph(CompleteGraph(d + 1)));
    BitmapSubgraph sg;
    sg.Attach(dag);
    sg.Build(0);
    EXPECT_EQ(sg.Words(), words) << "d=" << d;
  }
}

}  // namespace
}  // namespace pivotscale
