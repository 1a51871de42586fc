#include "routing/astar.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/logging.h"
#include "routing/dijkstra.h"

namespace pathrank::routing {
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

AStar::AStar(const RoadNetwork& network)
    : network_(&network),
      dist_(network.num_vertices(), kInf),
      parent_edge_(network.num_vertices(), graph::kInvalidEdge),
      stamp_(network.num_vertices(), 0) {}

std::optional<Path> AStar::ShortestPath(VertexId source, VertexId target,
                                        const EdgeCostFn& cost,
                                        const BanSet* bans,
                                        const CancelToken* cancel) {
  PR_CHECK(source < network_->num_vertices());
  PR_CHECK(target < network_->num_vertices());
  if (cancel != nullptr && cancel->Expired()) return std::nullopt;
  ++epoch_;
  settled_count_ = 0;

  const graph::Coordinate goal = network_->coordinate(target);
  const double inv_max_speed =
      network_->max_speed_mps() > 0.0 ? 1.0 / network_->max_speed_mps() : 0.0;
  auto heuristic = [&](VertexId v) -> double {
    if (cost.is_length()) {
      // FastDistanceMeters slightly underestimates haversine at regional
      // scale; scale down a hair to keep it admissible in all cases.
      return 0.995 * graph::FastDistanceMeters(network_->coordinate(v), goal);
    }
    if (cost.is_travel_time()) {
      return 0.995 * graph::FastDistanceMeters(network_->coordinate(v), goal) *
             inv_max_speed;
    }
    return 0.0;
  };

  // Same heap discipline as Dijkstra::Run: std::priority_queue's
  // operations over member storage reused across queries.
  const std::greater<QueueEntry> later;
  heap_.clear();
  dist_[source] = 0.0;
  parent_edge_[source] = graph::kInvalidEdge;
  stamp_[source] = epoch_;
  heap_.push_back({heuristic(source), 0.0, source});

  size_t pops = 0;
  while (!heap_.empty()) {
    // Same amortised checkpoint cadence as Dijkstra::Run.
    if (cancel != nullptr &&
        (++pops & (Dijkstra::kCancelCheckPops - 1)) == 0 &&
        cancel->Expired()) {
      return std::nullopt;
    }
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const QueueEntry top = heap_.back();
    heap_.pop_back();
    const VertexId u = top.vertex;
    if (stamp_[u] != epoch_ || top.g > dist_[u]) continue;
    ++settled_count_;
    if (u == target) {
      Path path;
      path.cost = top.g;
      std::vector<EdgeId> rev;
      VertexId cur = target;
      while (parent_edge_[cur] != graph::kInvalidEdge) {
        const EdgeId e = parent_edge_[cur];
        rev.push_back(e);
        cur = network_->edge(e).from;
      }
      path.edges.assign(rev.rbegin(), rev.rend());
      path.vertices.reserve(path.edges.size() + 1);
      path.vertices.push_back(cur);
      for (EdgeId e : path.edges) {
        path.vertices.push_back(network_->edge(e).to);
      }
      RecomputeTotals(*network_, &path);
      return path;
    }
    for (EdgeId e : network_->OutEdges(u)) {
      if (bans != nullptr && bans->IsEdgeBanned(e)) continue;
      const auto& rec = network_->edge(e);
      const VertexId v = rec.to;
      if (bans != nullptr && bans->IsVertexBanned(v)) continue;
      const double ng = top.g + cost(e);
      if (stamp_[v] != epoch_ || ng < dist_[v]) {
        stamp_[v] = epoch_;
        dist_[v] = ng;
        parent_edge_[v] = e;
        heap_.push_back({ng + heuristic(v), ng, v});
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
  return std::nullopt;
}

}  // namespace pathrank::routing
