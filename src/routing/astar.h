// A* point-to-point search with admissible geometric heuristics.
//
// For the length metric the heuristic is the great-circle distance to the
// target; for the travel-time metric it is that distance divided by the
// network's maximum free-flow speed. Both are admissible and consistent, so
// A* returns exact shortest paths while settling far fewer vertices than
// Dijkstra. Custom metrics fall back to a zero heuristic (== Dijkstra).
#pragma once

#include <optional>
#include <vector>

#include "common/deadline.h"
#include "routing/ban_set.h"
#include "routing/cost_model.h"
#include "routing/path.h"

namespace pathrank::routing {

/// Reusable A* engine; not thread-safe.
class AStar {
 public:
  explicit AStar(const RoadNetwork& network);

  /// Exact shortest path from `source` to `target` under `cost`. `bans`
  /// (optional) excludes banned edges and banned arrival vertices —
  /// Dijkstra semantics, and the geometric heuristic stays admissible
  /// because bans only remove edges. `cancel` (optional) is polled every
  /// Dijkstra::kCancelCheckPops pops; expiry aborts with std::nullopt.
  std::optional<Path> ShortestPath(VertexId source, VertexId target,
                                   const EdgeCostFn& cost,
                                   const BanSet* bans = nullptr,
                                   const CancelToken* cancel = nullptr);

  /// Vertices settled by the last query (for benchmarks).
  size_t last_settled_count() const { return settled_count_; }

 private:
  struct QueueEntry {
    double f;
    double g;
    VertexId vertex;
    bool operator>(const QueueEntry& o) const { return f > o.f; }
  };

  const RoadNetwork* network_;
  std::vector<double> dist_;
  std::vector<EdgeId> parent_edge_;
  std::vector<uint32_t> stamp_;
  std::vector<QueueEntry> heap_;  // search frontier, reused across queries
  uint32_t epoch_ = 0;
  size_t settled_count_ = 0;
};

}  // namespace pathrank::routing
