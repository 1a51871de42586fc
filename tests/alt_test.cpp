// ALT (Dijkstra with a landmark potential) correctness and effectiveness,
// the landmark tables themselves, plus the penalty-based alternative-routes
// generator.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "common/rng.h"
#include "graph/network_builder.h"
#include "routing/cost_model.h"
#include "routing/dijkstra.h"
#include "routing/path_similarity.h"
#include "routing/penalty_alternatives.h"
#include "routing/preprocessed_graph.h"

namespace pathrank::routing {
namespace {

using graph::BuildSyntheticNetwork;
using graph::BuildTestNetwork;
using graph::RoadNetwork;
using graph::SyntheticNetworkConfig;

/// Dijkstra in ALT mode over freshly preprocessed tables.
Dijkstra MakeAlt(const RoadNetwork& net, const EdgeCostFn& cost,
                 int num_landmarks) {
  return Dijkstra(net, std::make_shared<const PreprocessedGraph>(
                           net, cost, num_landmarks));
}

class AltProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AltProperty, MatchesDijkstraOnLength) {
  const RoadNetwork net = BuildTestNetwork(GetParam());
  const auto cost = EdgeCostFn::Length(net);
  Dijkstra alt = MakeAlt(net, cost, 6);
  Dijkstra dijkstra(net);
  pathrank::Rng rng(GetParam() * 9 + 1);
  for (int i = 0; i < 30; ++i) {
    const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    if (s == t) continue;
    const auto pd = dijkstra.ShortestPath(s, t, cost);
    const auto pa = alt.ShortestPath(s, t, cost);
    ASSERT_EQ(pd.has_value(), pa.has_value());
    if (pd.has_value()) {
      EXPECT_NEAR(pd->cost, pa->cost, 1e-6 * std::max(1.0, pd->cost));
      EXPECT_TRUE(ValidatePath(net, *pa).empty()) << ValidatePath(net, *pa);
    }
  }
}

TEST_P(AltProperty, MatchesDijkstraOnCustomMetric) {
  // The point of ALT over geometric A*: it supports arbitrary metrics.
  const RoadNetwork net = BuildTestNetwork(GetParam() + 10);
  pathrank::Rng wrng(GetParam());
  std::vector<double> weights(net.num_edges());
  for (double& w : weights) w = wrng.NextUniform(0.5, 3.0);
  const auto cost = EdgeCostFn::Custom(net, weights);
  Dijkstra alt = MakeAlt(net, cost, 6);
  Dijkstra dijkstra(net);
  pathrank::Rng rng(GetParam() * 11 + 5);
  for (int i = 0; i < 20; ++i) {
    const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    if (s == t) continue;
    const auto pd = dijkstra.ShortestPath(s, t, cost);
    const auto pa = alt.ShortestPath(s, t, cost);
    ASSERT_EQ(pd.has_value(), pa.has_value());
    if (pd.has_value()) {
      EXPECT_NEAR(pd->cost, pa->cost, 1e-6 * std::max(1.0, pd->cost));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AltProperty, ::testing::Values(2, 12, 32));

TEST(Alt, SettlesFewerVerticesThanDijkstra) {
  SyntheticNetworkConfig cfg;
  cfg.rows = 28;
  cfg.cols = 28;
  const RoadNetwork net = BuildSyntheticNetwork(cfg);
  const auto cost = EdgeCostFn::Length(net);
  Dijkstra alt = MakeAlt(net, cost, 8);
  Dijkstra dijkstra(net);
  pathrank::Rng rng(5);
  size_t settled_alt = 0;
  size_t settled_dij = 0;
  for (int i = 0; i < 20; ++i) {
    const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    if (s == t) continue;
    dijkstra.ShortestPath(s, t, cost);
    alt.ShortestPath(s, t, cost);
    settled_dij += dijkstra.last_settled_count();
    settled_alt += alt.last_settled_count();
  }
  // ALT must do meaningfully less work overall.
  EXPECT_LT(settled_alt * 2, settled_dij);
}

TEST(Alt, LandmarksAreDistinct) {
  const RoadNetwork net = BuildTestNetwork(3);
  const PreprocessedGraph tables(net, EdgeCostFn::Length(net), 6);
  auto lm = tables.landmarks();
  std::sort(lm.begin(), lm.end());
  EXPECT_EQ(std::unique(lm.begin(), lm.end()), lm.end());
  EXPECT_EQ(lm.size(), 6u);
}

/// Bellman-Ford over every edge: d(root -> v), or d(v -> root) when
/// `reverse`.
std::vector<double> BellmanFord(const RoadNetwork& net, VertexId root,
                                const EdgeCostFn& cost, bool reverse) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(net.num_vertices(), kInf);
  dist[root] = 0.0;
  for (bool changed = true; changed;) {
    changed = false;
    for (graph::EdgeId e = 0; e < net.num_edges(); ++e) {
      const auto& rec = net.edge(e);
      const VertexId u = reverse ? rec.to : rec.from;
      const VertexId v = reverse ? rec.from : rec.to;
      if (dist[u] + cost(e) < dist[v] - 1e-12) {
        dist[v] = dist[u] + cost(e);
        changed = true;
      }
    }
  }
  return dist;
}

TEST(Alt, LandmarkTablesMatchBellmanFord) {
  // Random per-edge weights make every road's two directions cost
  // differently, so the forward and reverse tables differ and each sweep
  // direction is checked on its own.
  for (const uint64_t seed : {4u, 21u}) {
    SyntheticNetworkConfig cfg;
    cfg.rows = 9;
    cfg.cols = 9;
    cfg.seed = seed;
    const RoadNetwork net = BuildSyntheticNetwork(cfg);
    pathrank::Rng wrng(seed);
    std::vector<double> weights(net.num_edges());
    for (double& w : weights) w = wrng.NextUniform(0.5, 3.0);
    const auto cost = EdgeCostFn::Custom(net, weights);
    const PreprocessedGraph tables(net, cost, 5);
    ASSERT_EQ(tables.landmarks().size(), 5u);
    const auto expect_table = [](const std::vector<double>& got,
                                 const std::vector<double>& want) {
      ASSERT_EQ(got.size(), want.size());
      for (size_t v = 0; v < want.size(); ++v) {
        if (std::isinf(want[v])) {
          EXPECT_TRUE(std::isinf(got[v])) << "vertex " << v;
        } else {
          EXPECT_NEAR(got[v], want[v], 1e-9 * std::max(1.0, want[v]))
              << "vertex " << v;
        }
      }
    };
    for (size_t l = 0; l < tables.landmarks().size(); ++l) {
      const VertexId landmark = tables.landmarks()[l];
      SCOPED_TRACE("landmark " + std::to_string(landmark));
      expect_table(tables.distances_from(l),
                   BellmanFord(net, landmark, cost, /*reverse=*/false));
      expect_table(tables.distances_to(l),
                   BellmanFord(net, landmark, cost, /*reverse=*/true));
    }
  }
}

class PenaltyProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PenaltyProperty, PathsDistinctValidSorted) {
  const RoadNetwork net = BuildTestNetwork(GetParam());
  const auto cost = EdgeCostFn::TravelTime(net);
  PenaltyOptions options;
  options.k = 6;
  pathrank::Rng rng(GetParam() * 3);
  for (int i = 0; i < 5; ++i) {
    const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    if (s == t) continue;
    const auto paths = PenaltyAlternatives(net, s, t, cost, options);
    ASSERT_FALSE(paths.empty());
    std::set<std::vector<VertexId>> seen;
    for (size_t j = 0; j < paths.size(); ++j) {
      EXPECT_TRUE(ValidatePath(net, paths[j]).empty());
      EXPECT_EQ(paths[j].source(), s);
      EXPECT_EQ(paths[j].destination(), t);
      EXPECT_TRUE(seen.insert(paths[j].vertices).second);
      if (j > 0) {
        EXPECT_GE(paths[j].cost, paths[j - 1].cost - 1e-9);
      }
    }
  }
}

TEST_P(PenaltyProperty, FirstPathIsShortest) {
  const RoadNetwork net = BuildTestNetwork(GetParam() + 40);
  const auto cost = EdgeCostFn::TravelTime(net);
  Dijkstra dijkstra(net);
  PenaltyOptions options;
  options.k = 4;
  const auto paths = PenaltyAlternatives(net, 2, 61, cost, options);
  const auto sp = dijkstra.ShortestPath(2, 61, cost);
  ASSERT_FALSE(paths.empty());
  ASSERT_TRUE(sp.has_value());
  EXPECT_NEAR(paths[0].cost, sp->cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PenaltyProperty, ::testing::Values(6, 16, 26));

TEST(Penalty, ProducesDiverseAlternatives) {
  const RoadNetwork net = BuildTestNetwork(9);
  const auto cost = EdgeCostFn::TravelTime(net);
  PenaltyOptions options;
  options.k = 5;
  options.penalty_factor = 1.5;
  const auto paths = PenaltyAlternatives(net, 0, 63, cost, options);
  ASSERT_GE(paths.size(), 3u);
  // Later alternatives must differ substantially from the shortest.
  const double sim =
      WeightedJaccard(net, paths.back().edges, paths.front().edges);
  EXPECT_LT(sim, 0.9);
}

TEST(Penalty, UnreachableYieldsEmpty) {
  graph::RoadNetworkBuilder b;
  b.AddVertex({57.0, 9.9});
  b.AddVertex({57.1, 9.9});
  b.AddEdge(1, 0, 10.0, graph::RoadCategory::kResidential);
  const RoadNetwork net = b.Build();
  const auto cost = EdgeCostFn::Length(net);
  EXPECT_TRUE(PenaltyAlternatives(net, 0, 1, cost, {}).empty());
}

}  // namespace
}  // namespace pathrank::routing
