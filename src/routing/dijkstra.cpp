#include "routing/dijkstra.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/logging.h"

namespace pathrank::routing {
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

Dijkstra::Dijkstra(const RoadNetwork& network) : Dijkstra(network, nullptr) {}

Dijkstra::Dijkstra(const RoadNetwork& network,
                   std::shared_ptr<const PreprocessedGraph> tables)
    : network_(&network),
      tables_(std::move(tables)),
      dist_(network.num_vertices(), kInf),
      parent_edge_(network.num_vertices(), graph::kInvalidEdge),
      stamp_(network.num_vertices(), 0) {
  if (tables_ != nullptr) {
    PR_CHECK(tables_->num_vertices() == network.num_vertices())
        << "preprocessed tables index a different network";
    bound_.resize(network.num_vertices());
    bound_stamp_.assign(network.num_vertices(), 0);
  }
}

SearchResult Dijkstra::FindPath(VertexId source, VertexId target,
                                const EdgeCostFn& cost, const BanSet* bans,
                                const CancelToken* cancel) {
  PR_CHECK(source < network_->num_vertices());
  PR_CHECK(target < network_->num_vertices());
  // The landmark bounds are only lower bounds for the preprocessing
  // metric; a mismatched query metric would silently return wrong paths.
  PR_CHECK(tables_ == nullptr || tables_->CompatibleWith(cost))
      << "query metric does not match the preprocessing metric";
  ++searches_;
  return Run(source, target, /*reverse=*/false, cost, bans, cancel);
}

std::optional<Path> Dijkstra::ShortestPath(VertexId source, VertexId target,
                                           const EdgeCostFn& cost,
                                           const BanSet* bans,
                                           const CancelToken* cancel) {
  SearchResult r = FindPath(source, target, cost, bans, cancel);
  if (!r.found()) return std::nullopt;
  return std::move(r.path);
}

void Dijkstra::ComputeAllFrom(VertexId source, const EdgeCostFn& cost) {
  PR_CHECK(source < network_->num_vertices());
  Run(source, graph::kInvalidVertex, /*reverse=*/false, cost, nullptr,
      nullptr);
}

void Dijkstra::ComputeAllTo(VertexId target, const EdgeCostFn& cost) {
  PR_CHECK(target < network_->num_vertices());
  Run(target, graph::kInvalidVertex, /*reverse=*/true, cost, nullptr,
      nullptr);
}

double Dijkstra::Bound(VertexId v) {
  if (bound_stamp_[v] != bound_epoch_) {
    bound_stamp_[v] = bound_epoch_;
    bound_[v] = tables_->LowerBound(v, bound_target_);
  }
  return bound_[v];
}

SearchResult Dijkstra::Run(VertexId root, VertexId target, bool reverse,
                           const EdgeCostFn& cost, const BanSet* bans,
                           const CancelToken* cancel) {
  // Entry checkpoint: an already-expired token (deadline spent before the
  // search even starts) must not buy a full search.
  if (cancel != nullptr && cancel->Expired()) return SearchResult::Cancelled();
  ++epoch_;
  settled_count_ = 0;
  reverse_ = reverse;
  // Only a point-to-point search has a target to bound against; sweeps
  // and plain mode key the heap on g alone, so f == g exactly and the pop
  // order is plain Dijkstra's.
  const bool goal_directed =
      tables_ != nullptr && target != graph::kInvalidVertex;
  if (goal_directed && target != bound_target_) {
    // Every spur search of one Yen query shares the target, so the memo
    // lives until the target changes; a new target invalidates it in O(1).
    bound_target_ = target;
    ++bound_epoch_;
  }

  // Min-heap on f, driven exactly as std::priority_queue drives it
  // (push_back + push_heap, pop_heap + pop_back), so the pop order, ties
  // included, does not depend on the storage, which survives across
  // searches.
  const std::greater<QueueEntry> later;
  heap_.clear();
  dist_[root] = 0.0;
  parent_edge_[root] = graph::kInvalidEdge;
  stamp_[root] = epoch_;
  heap_.push_back({goal_directed ? Bound(root) : 0.0, 0.0, root});

  size_t pops = 0;
  while (!heap_.empty()) {
    // Cooperative cancellation, amortised to every kCancelCheckPops pops.
    // With cancel == nullptr this is one never-taken branch: no arithmetic
    // the result depends on, so a deadline-free search is bitwise
    // identical to an uncancelled one.
    if (cancel != nullptr && (++pops & (kCancelCheckPops - 1)) == 0 &&
        cancel->Expired()) {
      return SearchResult::Cancelled();
    }
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const QueueEntry top = heap_.back();
    heap_.pop_back();
    const VertexId u = top.vertex;
    // Lazy deletion: an entry is stale once a shorter label replaced it.
    if (stamp_[u] != epoch_ || top.g > dist_[u]) continue;
    ++settled_count_;
    if (u == target) return SearchResult::Found(Reconstruct(target));
    for (EdgeId e : reverse ? network_->InEdges(u) : network_->OutEdges(u)) {
      if (bans != nullptr && bans->IsEdgeBanned(e)) continue;
      const auto& rec = network_->edge(e);
      const VertexId v = reverse ? rec.from : rec.to;
      if (bans != nullptr && bans->IsVertexBanned(v)) continue;
      const double g = top.g + cost(e);
      if (stamp_[v] != epoch_ || g < dist_[v]) {
        stamp_[v] = epoch_;
        dist_[v] = g;
        parent_edge_[v] = e;
        heap_.push_back({goal_directed ? g + Bound(v) : g, g, v});
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
  return SearchResult::Unreachable();
}

double Dijkstra::DistanceTo(VertexId v) const {
  return stamp_[v] == epoch_ ? dist_[v] : kInf;
}

bool Dijkstra::Reached(VertexId v) const { return stamp_[v] == epoch_; }

std::optional<Path> Dijkstra::PathTo(VertexId v) const {
  if (!Reached(v)) return std::nullopt;
  return Reconstruct(v);
}

Path Dijkstra::Reconstruct(VertexId v) const {
  Path path;
  path.cost = dist_[v];
  // Walk the tree edges from v to the root: toward the source after a
  // forward search, toward the target after a reverse sweep.
  VertexId cur = v;
  while (parent_edge_[cur] != graph::kInvalidEdge) {
    const EdgeId e = parent_edge_[cur];
    path.edges.push_back(e);
    cur = reverse_ ? network_->edge(e).to : network_->edge(e).from;
  }
  if (!reverse_) std::reverse(path.edges.begin(), path.edges.end());
  path.vertices.reserve(path.edges.size() + 1);
  path.vertices.push_back(reverse_ ? v : cur);
  for (EdgeId e : path.edges) path.vertices.push_back(network_->edge(e).to);
  RecomputeTotals(*network_, &path);
  return path;
}

}  // namespace pathrank::routing
