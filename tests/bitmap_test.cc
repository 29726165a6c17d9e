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

INSTANTIATE_TEST_SUITE_P(
    WordBoundaries, BitmapBoundary,
    ::testing::Values(63, 64, 65, 127, 128, 129, 255, 256, 257),
    [](const ::testing::TestParamInfo<NodeId>& param_info) {
      std::string name = "d";
      name += std::to_string(param_info.param);
      return name;
    });

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
