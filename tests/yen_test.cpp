// Yen's k-shortest-paths and the diversified top-k generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/rng.h"
#include "graph/network_builder.h"
#include "routing/ban_set.h"
#include "routing/cost_model.h"
#include "routing/dijkstra.h"
#include "routing/diversified.h"
#include "routing/path_similarity.h"
#include "routing/preprocessed_graph.h"
#include "routing/yen.h"

namespace pathrank::routing {
namespace {

using graph::BuildTestNetwork;
using graph::RoadCategory;
using graph::RoadNetwork;
using graph::RoadNetworkBuilder;

/// Small diamond graph with known path spectrum between 0 and 3:
///   0->1->3 cost 2, 0->2->3 cost 4, 0->1->2->3 cost 5, 0->2->1->3 ... etc.
RoadNetwork MakeDiamond() {
  RoadNetworkBuilder b;
  for (int i = 0; i < 4; ++i) b.AddVertex({57.0 + 0.01 * i, 9.9});
  b.AddBidirectionalEdge(0, 1, 1.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(1, 3, 1.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(0, 2, 2.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(2, 3, 2.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(1, 2, 2.0, RoadCategory::kResidential);
  return b.Build();
}

TEST(Yen, DiamondSpectrumInOrder) {
  const RoadNetwork net = MakeDiamond();
  const auto cost = EdgeCostFn::Length(net);
  const auto paths = TopKShortestPaths(net, 0, 3, cost, 4);
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_NEAR(paths[0].cost, 2.0, 1e-9);  // 0-1-3
  EXPECT_NEAR(paths[1].cost, 4.0, 1e-9);  // 0-2-3
  EXPECT_NEAR(paths[2].cost, 5.0, 1e-9);  // 0-1-2-3
  EXPECT_NEAR(paths[3].cost, 5.0, 1e-9);  // 0-2-1-3
}

TEST(Yen, FirstPathIsShortest) {
  const RoadNetwork net = BuildTestNetwork();
  const auto cost = EdgeCostFn::Length(net);
  Dijkstra dijkstra(net);
  const auto sp = dijkstra.ShortestPath(0, 63, cost);
  const auto paths = TopKShortestPaths(net, 0, 63, cost, 5);
  ASSERT_FALSE(paths.empty());
  ASSERT_TRUE(sp.has_value());
  EXPECT_NEAR(paths[0].cost, sp->cost, 1e-9);
}

class YenProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(YenProperty, PathsAreSortedSimpleDistinctAndValid) {
  const RoadNetwork net = BuildTestNetwork(GetParam());
  const auto cost = EdgeCostFn::Length(net);
  pathrank::Rng rng(GetParam() * 13 + 1);
  for (int trial = 0; trial < 5; ++trial) {
    const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    if (s == t) continue;
    const auto paths = TopKShortestPaths(net, s, t, cost, 8);
    ASSERT_FALSE(paths.empty());
    std::set<std::vector<VertexId>> seen;
    double prev_cost = 0.0;
    for (const Path& p : paths) {
      EXPECT_TRUE(ValidatePath(net, p).empty()) << ValidatePath(net, p);
      EXPECT_TRUE(IsSimplePath(p));
      EXPECT_EQ(p.source(), s);
      EXPECT_EQ(p.destination(), t);
      EXPECT_GE(p.cost, prev_cost - 1e-9);  // non-decreasing
      prev_cost = p.cost;
      EXPECT_TRUE(seen.insert(p.vertices).second) << "duplicate path";
    }
  }
}

TEST_P(YenProperty, EnumeratorMatchesOneShot) {
  const RoadNetwork net = BuildTestNetwork(GetParam() + 50);
  const auto cost = EdgeCostFn::Length(net);
  YenEnumerator yen(net, 0, 63, cost);
  std::vector<Path> incremental;
  for (int i = 0; i < 6; ++i) {
    auto p = yen.Next();
    if (!p.has_value()) break;
    incremental.push_back(*p);
  }
  const auto oneshot = TopKShortestPaths(net, 0, 63, cost, 6);
  ASSERT_EQ(incremental.size(), oneshot.size());
  for (size_t i = 0; i < oneshot.size(); ++i) {
    EXPECT_NEAR(incremental[i].cost, oneshot[i].cost, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, YenProperty, ::testing::Values(2, 8, 18, 44));

TEST(Yen, ExhaustsFiniteGraph) {
  // Line graph: exactly one simple path between the endpoints.
  RoadNetworkBuilder b;
  for (int i = 0; i < 4; ++i) b.AddVertex({57.0 + 0.01 * i, 9.9});
  for (int i = 0; i < 3; ++i) {
    b.AddBidirectionalEdge(static_cast<VertexId>(i),
                           static_cast<VertexId>(i + 1), 1.0,
                           RoadCategory::kResidential);
  }
  const RoadNetwork net = b.Build();
  const auto cost = EdgeCostFn::Length(net);
  const auto paths = TopKShortestPaths(net, 0, 3, cost, 10);
  EXPECT_EQ(paths.size(), 1u);
}

TEST(Yen, UnreachableYieldsEmpty) {
  RoadNetworkBuilder b;
  b.AddVertex({57.0, 9.9});
  b.AddVertex({57.1, 9.9});
  b.AddEdge(1, 0, 10.0, RoadCategory::kResidential);
  const RoadNetwork net = b.Build();
  const auto cost = EdgeCostFn::Length(net);
  EXPECT_TRUE(TopKShortestPaths(net, 0, 1, cost, 3).empty());
}

TEST(Yen, ParallelEdgesDoNotHideOtherPaths) {
  // Two parallel 0->1 roads: banning only the first path's 0->1 edge at
  // spur 0 would let the search take the 2 m twin, regenerate 0-1-2, and
  // never reach 0-2. Spur bans cover every edge to the next vertex.
  RoadNetworkBuilder b;
  for (int i = 0; i < 3; ++i) b.AddVertex({57.0 + 0.01 * i, 9.9});
  b.AddEdge(0, 1, 1.0, RoadCategory::kResidential);
  b.AddEdge(0, 1, 2.0, RoadCategory::kResidential);
  b.AddEdge(1, 2, 1.0, RoadCategory::kResidential);
  b.AddEdge(0, 2, 10.0, RoadCategory::kResidential);
  const RoadNetwork net = b.Build();
  const auto cost = EdgeCostFn::Length(net);
  Dijkstra plain(net);
  Dijkstra alt(net, std::make_shared<const PreprocessedGraph>(net, cost, 2));
  for (Dijkstra* search : {&plain, &alt}) {
    const auto paths = TopKShortestPaths(net, 0, 2, cost, 5, nullptr, search);
    ASSERT_EQ(paths.size(), 2u);
    EXPECT_EQ(paths[0].vertices, (std::vector<VertexId>{0, 1, 2}));
    EXPECT_EQ(paths[0].cost, 2.0);
    EXPECT_EQ(paths[1].vertices, (std::vector<VertexId>{0, 2}));
    EXPECT_EQ(paths[1].cost, 10.0);
  }
}

class DiversifiedProperty : public ::testing::TestWithParam<double> {};

TEST_P(DiversifiedProperty, PairwiseSimilarityRespectsThreshold) {
  const RoadNetwork net = BuildTestNetwork(77);
  const auto cost = EdgeCostFn::Length(net);
  DiversifiedOptions options;
  options.k = 6;
  options.similarity_threshold = GetParam();
  options.pad_with_rejected = false;  // strict mode for the property
  pathrank::Rng rng(91);
  for (int trial = 0; trial < 5; ++trial) {
    const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    if (s == t) continue;
    const auto paths = DiversifiedTopK(net, s, t, cost, options);
    for (size_t i = 0; i < paths.size(); ++i) {
      for (size_t j = i + 1; j < paths.size(); ++j) {
        EXPECT_LE(WeightedJaccard(net, paths[i].edges, paths[j].edges),
                  GetParam() + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, DiversifiedProperty,
                         ::testing::Values(0.3, 0.5, 0.8));

TEST(Diversified, FirstPathIsShortest) {
  const RoadNetwork net = BuildTestNetwork(5);
  const auto cost = EdgeCostFn::Length(net);
  Dijkstra dijkstra(net);
  const auto sp = dijkstra.ShortestPath(3, 60, cost);
  DiversifiedOptions options;
  options.k = 5;
  const auto paths = DiversifiedTopK(net, 3, 60, cost, options);
  ASSERT_FALSE(paths.empty());
  ASSERT_TRUE(sp.has_value());
  EXPECT_NEAR(paths[0].cost, sp->cost, 1e-9);
}

TEST(Diversified, PaddingFillsUpToK) {
  const RoadNetwork net = BuildTestNetwork(6);
  const auto cost = EdgeCostFn::Length(net);
  DiversifiedOptions strict;
  strict.k = 8;
  strict.similarity_threshold = 0.05;  // extremely strict
  strict.pad_with_rejected = false;
  DiversifiedOptions padded = strict;
  padded.pad_with_rejected = true;
  const auto strict_paths = DiversifiedTopK(net, 0, 63, cost, strict);
  const auto padded_paths = DiversifiedTopK(net, 0, 63, cost, padded);
  EXPECT_GE(padded_paths.size(), strict_paths.size());
  EXPECT_LE(padded_paths.size(), 8u);
  // Padded output stays sorted by cost.
  for (size_t i = 1; i < padded_paths.size(); ++i) {
    EXPECT_GE(padded_paths[i].cost, padded_paths[i - 1].cost - 1e-9);
  }
}

TEST(Diversified, MoreDiverseThanTopK) {
  const RoadNetwork net = BuildTestNetwork(9);
  const auto cost = EdgeCostFn::Length(net);
  DiversifiedOptions options;
  options.k = 6;
  options.similarity_threshold = 0.6;
  pathrank::Rng rng(17);
  double topk_sim = 0.0;
  double div_sim = 0.0;
  int pairs = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    if (s == t) continue;
    const auto topk = TopKShortestPaths(net, s, t, cost, options.k);
    const auto div = DiversifiedTopK(net, s, t, cost, options);
    const size_t n = std::min(topk.size(), div.size());
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        topk_sim += WeightedJaccard(net, topk[i].edges, topk[j].edges);
        div_sim += WeightedJaccard(net, div[i].edges, div[j].edges);
        ++pairs;
      }
    }
  }
  ASSERT_GT(pairs, 0);
  // The diversified sets must be meaningfully less self-similar.
  EXPECT_LT(div_sim, topk_sim);
}

// ---------------------------------------------------------------------------
// Completeness and parity. The tests above check that what Yen returns is
// well formed; the ones below check that it is the RIGHT set: against a
// brute-force enumeration of every simple path, and bitwise against Yen as
// originally written (every accepted path spurs from index 0), which is
// what Lawler's deviation-index rule must reproduce.

/// rows x cols grid, every road bidirectional and exactly 1 m long: the
/// most tie-heavy input there is (every monotone corner-to-corner route
/// costs the same).
RoadNetwork MakeUnitGrid(int rows, int cols) {
  RoadNetworkBuilder b;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      b.AddVertex({57.0 + 0.001 * r, 9.9 + 0.001 * c});
    }
  }
  const auto id = [cols](int r, int c) {
    return static_cast<VertexId>(r * cols + c);
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        b.AddBidirectionalEdge(id(r, c), id(r, c + 1), 1.0,
                               RoadCategory::kResidential);
      }
      if (r + 1 < rows) {
        b.AddBidirectionalEdge(id(r, c), id(r + 1, c), 1.0,
                               RoadCategory::kResidential);
      }
    }
  }
  return b.Build();
}

/// Random directed graph on `n` vertices with `edges` distinct (u, v)
/// pairs and no self-loops, plus `twins` extra edges parallel to randomly
/// chosen pairs. With `integer_lengths` every edge is 1, 2 or 3 m, so cost
/// ties abound (between parallel twins too).
RoadNetwork MakeRandomDigraph(uint64_t seed, int n, int edges,
                              bool integer_lengths, int twins = 0) {
  pathrank::Rng rng(seed);
  RoadNetworkBuilder b;
  for (int i = 0; i < n; ++i) b.AddVertex({57.0 + 0.001 * i, 9.9});
  const auto length = [&] {
    return integer_lengths ? 1.0 + static_cast<double>(rng.NextBounded(3))
                           : 1.0 + 9.0 * rng.NextDouble();
  };
  std::vector<std::pair<VertexId, VertexId>> pairs;
  std::set<std::pair<VertexId, VertexId>> used;
  while (static_cast<int>(used.size()) < edges) {
    const auto u = static_cast<VertexId>(rng.NextBounded(n));
    const auto v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v || !used.insert({u, v}).second) continue;
    pairs.emplace_back(u, v);
    b.AddEdge(u, v, length(), RoadCategory::kResidential);
  }
  for (int i = 0; i < twins; ++i) {
    const auto& [u, v] = pairs[rng.NextBounded(pairs.size())];
    b.AddEdge(u, v, length(), RoadCategory::kResidential);
  }
  return b.Build();
}

/// Every simple s->t path, by depth-first search. A path is a vertex
/// sequence: between parallel edges it takes the shortest (the one
/// FindEdge returns), which is the cheapest under the length metric the
/// oracle tests use.
std::vector<Path> AllSimplePaths(const RoadNetwork& net, VertexId s,
                                 VertexId t, const EdgeCostFn& cost) {
  std::vector<Path> out;
  std::vector<bool> on_path(net.num_vertices(), false);
  Path current;
  current.vertices.push_back(s);
  on_path[s] = true;
  std::function<void(VertexId)> dfs = [&](VertexId u) {
    if (u == t) {
      Path p = current;
      p.cost = 0.0;
      for (EdgeId e : p.edges) p.cost += cost(e);
      out.push_back(std::move(p));
      return;
    }
    for (EdgeId e : net.OutEdges(u)) {
      const VertexId v = net.edge(e).to;
      if (on_path[v] || net.FindEdge(u, v) != e) continue;
      on_path[v] = true;
      current.vertices.push_back(v);
      current.edges.push_back(e);
      dfs(v);
      current.edges.pop_back();
      current.vertices.pop_back();
      on_path[v] = false;
    }
  };
  dfs(s);
  return out;
}

/// TopKShortestPaths(k) must return the k cheapest simple paths (all of
/// them when fewer exist), each distinct, simple and correctly costed.
void ExpectTopKMatchesOracle(const RoadNetwork& net, VertexId s, VertexId t,
                             int k) {
  const auto cost = EdgeCostFn::Length(net);
  const std::vector<Path> all = AllSimplePaths(net, s, t, cost);
  std::set<std::vector<VertexId>> all_seqs;
  std::vector<double> oracle_costs;
  for (const Path& p : all) {
    all_seqs.insert(p.vertices);
    oracle_costs.push_back(p.cost);
  }
  std::sort(oracle_costs.begin(), oracle_costs.end());

  const std::vector<Path> got = TopKShortestPaths(net, s, t, cost, k);
  const size_t want = std::min(static_cast<size_t>(k), all.size());
  ASSERT_EQ(got.size(), want) << s << "->" << t << " k=" << k;
  std::set<std::vector<VertexId>> got_seqs;
  for (size_t i = 0; i < got.size(); ++i) {
    const Path& p = got[i];
    EXPECT_TRUE(IsSimplePath(p));
    EXPECT_EQ(p.source(), s);
    EXPECT_EQ(p.destination(), t);
    EXPECT_TRUE(all_seqs.count(p.vertices)) << "not an s->t path";
    EXPECT_TRUE(got_seqs.insert(p.vertices).second) << "duplicate path";
    double sum = 0.0;
    for (EdgeId e : p.edges) sum += cost(e);
    EXPECT_NEAR(p.cost, sum, 1e-9 * sum);
    // Yen yields paths in cost order, so the i-th one is the i-th cheapest.
    EXPECT_NEAR(p.cost, oracle_costs[i], 1e-9 * oracle_costs[i])
        << s << "->" << t << " rank " << i;
  }
  if (static_cast<size_t>(k) > all.size()) {
    EXPECT_EQ(got_seqs, all_seqs);
  }
}

TEST(YenOracle, RandomDigraphsReturnTheKCheapestSimplePaths) {
  // With parallel twins Yen must return each vertex sequence once, at its
  // cheapest parallel edges.
  for (const int twins : {0, 8}) {
    SCOPED_TRACE("twins " + std::to_string(twins));
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      const bool integer_lengths = seed % 2 == 0;
      const RoadNetwork net =
          MakeRandomDigraph(seed, 8, 22, integer_lengths, twins);
      pathrank::Rng rng(seed * 7 + 3);
      for (int q = 0; q < 4; ++q) {
        const auto s = static_cast<VertexId>(rng.NextBounded(8));
        const auto t = static_cast<VertexId>(rng.NextBounded(8));
        if (s == t) continue;
        for (const int k : {1, 3, 10, 1000}) {
          ExpectTopKMatchesOracle(net, s, t, k);
        }
      }
    }
  }
}

TEST(YenOracle, UnitGridReturnsTheKCheapestSimplePaths) {
  // 4x4 has 184 simple corner-to-corner paths, 20 of them tied shortest.
  const RoadNetwork net = MakeUnitGrid(4, 4);
  for (const auto& [s, t] : {std::pair<VertexId, VertexId>{0, 15},
                             {5, 10},
                             {3, 12},
                             {1, 14}}) {
    for (const int k : {1, 20, 25, 100, 1000}) {
      ExpectTopKMatchesOracle(net, s, t, k);
    }
  }
}

/// Yen as originally written: every accepted path spurs from index 0,
/// with an exact vertex-sequence dedup. Returns the first `max_paths`
/// paths of the enumeration, in order.
std::vector<Path> FullSpurYen(const RoadNetwork& net, VertexId s, VertexId t,
                              const EdgeCostFn& cost, size_t max_paths,
                              Dijkstra* search) {
  struct Candidate {
    double cost;
    Path path;
    bool operator<(const Candidate& o) const {
      if (cost != o.cost) return cost < o.cost;
      return path.vertices < o.path.vertices;
    }
  };
  std::vector<Path> accepted;
  SearchResult first = search->FindPath(s, t, cost, nullptr, nullptr);
  if (!first.found()) return accepted;
  std::set<std::vector<VertexId>> seen{first.path.vertices};
  accepted.push_back(std::move(first.path));
  std::set<Candidate> pool;
  BanSet bans(net.num_vertices(), net.num_edges());
  while (accepted.size() < max_paths) {
    const Path base = accepted.back();
    for (size_t i = 0; i + 1 < base.vertices.size(); ++i) {
      bans.Clear();
      for (const Path& p : accepted) {
        if (p.vertices.size() > i && i < p.edges.size() &&
            std::equal(p.vertices.begin(), p.vertices.begin() + i + 1,
                       base.vertices.begin())) {
          bans.BanEdge(p.edges[i]);
        }
      }
      for (size_t j = 0; j < i; ++j) bans.BanVertex(base.vertices[j]);
      SearchResult r =
          search->FindPath(base.vertices[i], t, cost, &bans, nullptr);
      if (!r.found()) continue;
      Path cand;
      cand.edges.assign(base.edges.begin(), base.edges.begin() + i);
      cand.edges.insert(cand.edges.end(), r.path.edges.begin(),
                        r.path.edges.end());
      cand.vertices.assign(base.vertices.begin(), base.vertices.begin() + i);
      cand.vertices.insert(cand.vertices.end(), r.path.vertices.begin(),
                           r.path.vertices.end());
      if (!seen.insert(cand.vertices).second) continue;
      double root_cost = 0.0;
      for (size_t j = 0; j < i; ++j) root_cost += cost(base.edges[j]);
      cand.cost = root_cost + r.path.cost;
      RecomputeTotals(net, &cand);
      const double key = cand.cost;
      pool.insert({key, std::move(cand)});
    }
    if (pool.empty()) break;
    accepted.push_back(pool.begin()->path);
    pool.erase(pool.begin());
  }
  return accepted;
}

/// DiversifiedTopK's greedy selection over a precomputed enumeration.
std::vector<Path> ReferenceDiversified(const RoadNetwork& net,
                                       const std::vector<Path>& enumeration,
                                       const DiversifiedOptions& options) {
  std::vector<Path> accepted;
  std::vector<Path> rejected;
  int enumerated = 0;
  for (const Path& next : enumeration) {
    if (static_cast<int>(accepted.size()) >= options.k ||
        enumerated >= options.max_enumerated) {
      break;
    }
    ++enumerated;
    bool diverse = true;
    for (const Path& a : accepted) {
      if (WeightedJaccard(net, next.edges, a.edges) >
          options.similarity_threshold) {
        diverse = false;
        break;
      }
    }
    (diverse ? accepted : rejected).push_back(next);
  }
  for (const Path& p : rejected) {
    if (static_cast<int>(accepted.size()) >= options.k) break;
    accepted.push_back(p);
  }
  std::sort(accepted.begin(), accepted.end(),
            [](const Path& a, const Path& b) { return a.cost < b.cost; });
  return accepted;
}

void ExpectBitwiseEqual(const std::vector<Path>& expected,
                        const std::vector<Path>& actual, const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].vertices, actual[i].vertices) << what << " #" << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(expected[i].cost),
              std::bit_cast<uint64_t>(actual[i].cost))
        << what << " #" << i;
  }
}

enum class Spur { kDijkstra, kAlt };

std::unique_ptr<Dijkstra> MakeSearch(
    Spur kind, const RoadNetwork& net,
    const std::shared_ptr<const PreprocessedGraph>& tables) {
  return std::make_unique<Dijkstra>(net,
                                    kind == Spur::kAlt ? tables : nullptr);
}

/// TkDI k=10, TkDI k=60 and D-TkDI (k=10, threshold 0.6, 300 enumerated:
/// the serving config) from the library vs the full-spur reference, in
/// both search modes. Separate search instances for the two sides, so
/// scratch reuse inside a search cannot leak into the comparison.
void ExpectLawlerMatchesFullSpur(const RoadNetwork& net, const EdgeCostFn& cost,
                                 const std::vector<std::pair<VertexId, VertexId>>&
                                     pairs) {
  const auto tables = std::make_shared<const PreprocessedGraph>(net, cost, 6);
  DiversifiedOptions diversified;
  diversified.k = 10;
  diversified.similarity_threshold = 0.6;
  diversified.max_enumerated = 300;
  for (const Spur kind : {Spur::kDijkstra, Spur::kAlt}) {
    auto reference_search = MakeSearch(kind, net, tables);
    auto search = MakeSearch(kind, net, tables);
    for (const auto& [s, t] : pairs) {
      SCOPED_TRACE(std::string(kind == Spur::kAlt ? "alt" : "dijkstra") +
                   " " + std::to_string(s) + "->" + std::to_string(t));
      const std::vector<Path> reference =
          FullSpurYen(net, s, t, cost, 300, reference_search.get());
      for (const int k : {10, 60}) {
        const std::vector<Path> want(
            reference.begin(),
            reference.begin() + std::min<size_t>(k, reference.size()));
        ExpectBitwiseEqual(want,
                           TopKShortestPaths(net, s, t, cost, k, nullptr,
                                             search.get()),
                           k == 10 ? "TkDI-10" : "TkDI-60");
      }
      ExpectBitwiseEqual(ReferenceDiversified(net, reference, diversified),
                         DiversifiedTopK(net, s, t, cost, diversified,
                                         nullptr, search.get()),
                         "D-TkDI");
    }
  }
}

TEST(YenLawler, MatchesFullSpurReferenceOnSyntheticNetworks) {
  for (const uint64_t seed : {3u, 19u, 58u}) {
    graph::SyntheticNetworkConfig config;
    config.rows = 10;
    config.cols = 10;
    config.seed = seed;
    const RoadNetwork net = graph::BuildSyntheticNetwork(config);
    pathrank::Rng rng(seed + 1);
    std::vector<std::pair<VertexId, VertexId>> pairs;
    while (pairs.size() < 5) {
      const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
      const auto t = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
      if (s != t) pairs.emplace_back(s, t);
    }
    ExpectLawlerMatchesFullSpur(net, EdgeCostFn::TravelTime(net), pairs);
  }
}

TEST(YenLawler, MatchesFullSpurReferenceOnUnitGrid) {
  const RoadNetwork net = MakeUnitGrid(7, 7);
  ExpectLawlerMatchesFullSpur(net, EdgeCostFn::Length(net),
                              {{0, 48}, {6, 42}, {8, 40}, {3, 45}, {24, 0}});
}

TEST(YenLawler, SpursOnlyFromTheDeviationIndex) {
  // On the tie-heavy grid Lawler's rule must actually skip searches: the
  // library runs strictly fewer than the full-spur reference for the same
  // (identical) output.
  const RoadNetwork net = MakeUnitGrid(7, 7);
  const auto cost = EdgeCostFn::Length(net);
  Dijkstra reference(net);
  Dijkstra lawler(net);
  const auto want = FullSpurYen(net, 0, 48, cost, 60, &reference);
  ExpectBitwiseEqual(want,
                     TopKShortestPaths(net, 0, 48, cost, 60, nullptr, &lawler),
                     "TkDI-60");
  EXPECT_LT(lawler.searches(), reference.searches());
}

}  // namespace
}  // namespace pathrank::routing
