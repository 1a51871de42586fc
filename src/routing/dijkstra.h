// The one shortest-path search of the library: label-setting Dijkstra
// with an optional landmark potential, target early-exit, reusable state
// (epoch trick), optional vertex/edge bans (required by Yen's algorithm)
// and cooperative cancellation.
//
// Two modes, fixed at construction:
//
//   * Dijkstra(network): bound 0 everywhere — plain Dijkstra.
//   * Dijkstra(network, tables): ALT (Goldberg & Harrelson 2005). Point-
//     to-point searches order the frontier by f = g + h(v) with the
//     landmark lower bound h(v) = tables->LowerBound(v, target). A* with a
//     consistent potential is Dijkstra on reduced costs, so the loop, the
//     stale-entry test and the reconstruction are the same code; only the
//     heap key differs. The bound is admissible under bans (removing
//     edges only lengthens true distances), so results stay exact.
//
// One loop also runs the one-to-all sweeps: ComputeAllFrom relaxes
// out-edges from a source, ComputeAllTo relaxes in-edges into a target
// (d(v -> target) for every v — what the landmark tables store). Sweeps
// have no target, so they always run with bound 0.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "routing/ban_set.h"
#include "routing/cost_model.h"
#include "routing/path.h"
#include "routing/preprocessed_graph.h"

namespace pathrank::routing {

/// Tri-state outcome of one point-to-point query.
enum class SearchOutcome {
  kFound,        ///< `path` holds an exact shortest path
  kUnreachable,  ///< no path exists under the given bans
  kCancelled,    ///< the cancel token expired mid-search; reachability unknown
};

/// One answered point-to-point query.
struct SearchResult {
  SearchOutcome outcome = SearchOutcome::kUnreachable;
  /// Meaningful only when outcome == kFound.
  Path path;

  bool found() const { return outcome == SearchOutcome::kFound; }

  static SearchResult Found(Path p) {
    SearchResult r;
    r.outcome = SearchOutcome::kFound;
    r.path = std::move(p);
    return r;
  }
  static SearchResult Unreachable() { return SearchResult{}; }
  static SearchResult Cancelled() {
    SearchResult r;
    r.outcome = SearchOutcome::kCancelled;
    return r;
  }
};

/// Reusable shortest-path search. Not thread-safe; create one instance
/// per thread (or per Yen enumeration). The landmark tables, when given,
/// are shared read-only and may serve any number of instances.
class Dijkstra {
 public:
  /// Plain Dijkstra: bound 0.
  explicit Dijkstra(const RoadNetwork& network);

  /// ALT over `tables` (null = plain Dijkstra). Every point-to-point cost
  /// function must be the metric the tables were preprocessed under —
  /// checked per call for the length and travel-time kinds, the caller's
  /// contract for custom metrics.
  Dijkstra(const RoadNetwork& network,
           std::shared_ptr<const PreprocessedGraph> tables);

  /// Exact shortest path from `source` to `target` under `cost`, counted
  /// in searches(). `bans` (optional) excludes banned edges and banned
  /// ARRIVAL vertices: a banned source still departs, a banned target is
  /// unreachable. `cancel` (optional) is checked on entry and then every
  /// kCancelCheckPops heap pops; an expired token yields kCancelled.
  SearchResult FindPath(VertexId source, VertexId target,
                        const EdgeCostFn& cost, const BanSet* bans = nullptr,
                        const CancelToken* cancel = nullptr);

  /// FindPath as an optional: std::nullopt when `target` is unreachable
  /// OR the search was cancelled — callers that must tell the two apart
  /// use FindPath.
  std::optional<Path> ShortestPath(VertexId source, VertexId target,
                                   const EdgeCostFn& cost,
                                   const BanSet* bans = nullptr,
                                   const CancelToken* cancel = nullptr);

  /// Cancellation-poll cadence, in heap pops. Small enough that even the
  /// tiny test graphs hit a checkpoint, large enough that the per-pop
  /// cost with a live token is one predictable branch plus a rare clock
  /// read.
  static constexpr size_t kCancelCheckPops = 64;

  /// Full one-to-all relaxation over out-edges from `source`. After the
  /// call DistanceTo(v) is d(source -> v) and PathTo(v) runs source -> v.
  void ComputeAllFrom(VertexId source, const EdgeCostFn& cost);

  /// Full one-to-all relaxation over in-edges into `target`. After the
  /// call DistanceTo(v) is d(v -> target) and PathTo(v) runs v -> target.
  void ComputeAllTo(VertexId target, const EdgeCostFn& cost);

  /// Distance between `v` and the last sweep's root (see ComputeAllFrom /
  /// ComputeAllTo); +inf when unreachable.
  double DistanceTo(VertexId v) const;

  /// True when v was reached by the last search.
  bool Reached(VertexId v) const;

  /// Reconstructs the tree path between `v` and the last sweep's root
  /// (empty optional when unreachable).
  std::optional<Path> PathTo(VertexId v) const;

  /// Number of vertices settled by the last search (for benchmarks).
  size_t last_settled_count() const { return settled_count_; }

  /// Point-to-point searches answered so far, whatever their outcome. For
  /// an instance that served one Yen enumeration this is the first
  /// shortest-path search plus every spur search.
  uint64_t searches() const { return searches_; }

  /// The landmark tables, or null in plain mode.
  const std::shared_ptr<const PreprocessedGraph>& tables() const {
    return tables_;
  }

 private:
  struct QueueEntry {
    double f;  // heap key: g + lower bound (g itself in plain mode)
    double g;  // distance from the root
    VertexId vertex;
    bool operator>(const QueueEntry& o) const { return f > o.f; }
  };

  SearchResult Run(VertexId root, VertexId target, bool reverse,
                   const EdgeCostFn& cost, const BanSet* bans,
                   const CancelToken* cancel);
  Path Reconstruct(VertexId v) const;

  /// tables_->LowerBound(v, bound_target_), computed on first use: each
  /// call reads 4 table entries per landmark, and Yen asks it of the same
  /// vertices search after search. bound_[v] is valid where
  /// bound_stamp_[v] == bound_epoch_.
  double Bound(VertexId v);

  const RoadNetwork* network_;
  std::shared_ptr<const PreprocessedGraph> tables_;
  std::vector<double> dist_;
  std::vector<EdgeId> parent_edge_;  // tree edge toward the root
  std::vector<uint32_t> stamp_;      // epoch per vertex
  std::vector<QueueEntry> heap_;     // search frontier, reused across queries
  uint32_t epoch_ = 0;
  bool reverse_ = false;  // the last search relaxed in-edges
  size_t settled_count_ = 0;
  uint64_t searches_ = 0;

  VertexId bound_target_ = graph::kInvalidVertex;
  std::vector<double> bound_;
  std::vector<uint32_t> bound_stamp_;
  uint32_t bound_epoch_ = 0;
};

}  // namespace pathrank::routing
