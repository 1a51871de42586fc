#include "routing/yen.h"

#include <algorithm>

#include "common/logging.h"

namespace pathrank::routing {

YenEnumerator::YenEnumerator(const RoadNetwork& network, VertexId source,
                             VertexId target, const EdgeCostFn& cost,
                             const CancelToken* cancel, Dijkstra* search)
    : network_(&network),
      source_(source),
      target_(target),
      cost_(cost),
      cancel_(cancel),
      owned_search_(search == nullptr ? std::make_unique<Dijkstra>(network)
                                      : nullptr),
      search_(search != nullptr ? search : owned_search_.get()),
      bans_(network.num_vertices(), network.num_edges()) {}

std::optional<Path> YenEnumerator::Next() {
  // Both latches make every later call O(1): exhaustion means the path
  // space is provably empty, and cancellation is sticky — the search's
  // explicit Cancelled outcome is what lets us latch instead of re-running
  // the whole exhausted-state check (spur pass + pool inspection) on every
  // call against an expired token.
  if (exhausted_ || cancelled_) return std::nullopt;
  if (cancel_ != nullptr && cancel_->Expired()) {
    cancelled_ = true;
    return std::nullopt;
  }

  if (!first_done_) {
    first_done_ = true;
    SearchResult r = search_->FindPath(source_, target_, cost_,
                                       /*bans=*/nullptr, cancel_);
    if (r.outcome == SearchOutcome::kCancelled) {
      cancelled_ = true;
      return std::nullopt;
    }
    if (r.outcome == SearchOutcome::kUnreachable || r.path.edges.empty()) {
      exhausted_ = true;
      return std::nullopt;
    }
    accepted_.push_back(std::move(r.path));
    return accepted_.back();
  }

  // Generate deviations of the most recently accepted path, then pop the
  // cheapest candidate overall.
  if (!GenerateSpurs(accepted_.back(), last_deviation_)) {
    // The spur pass was cut short, so the candidate pool may be missing
    // cheaper deviations: popping from it could yield out-of-order paths.
    // Stop here; accepted() still holds a correct (partial) prefix.
    cancelled_ = true;
    return std::nullopt;
  }
  if (candidates_.empty()) {
    exhausted_ = true;
    return std::nullopt;
  }
  auto it = candidates_.begin();
  accepted_.push_back(it->path);
  last_deviation_ = it->spur_index;
  candidates_.erase(it);
  return accepted_.back();
}

bool YenEnumerator::GenerateSpurs(const Path& base, size_t first_spur) {
  // For each spur position i on the base path from its deviation index
  // on: root = base[0..i], ban (a) every out-edge from the spur to the
  // (i+1)-th vertex of an accepted path sharing that root and (b) all
  // root vertices except the spur node, then search spur->target.
  // Positions before the deviation index are Lawler's skip (see yen.h).
  for (size_t i = first_spur; i + 1 < base.vertices.size(); ++i) {
    const VertexId spur = base.vertices[i];

    bans_.Clear();
    for (const Path& p : accepted_) {
      if (p.vertices.size() > i + 1 &&
          std::equal(p.vertices.begin(), p.vertices.begin() + i + 1,
                     base.vertices.begin())) {
        const VertexId next = p.vertices[i + 1];
        for (EdgeId e : network_->OutEdges(spur)) {
          if (network_->edge(e).to == next) bans_.BanEdge(e);
        }
      }
    }
    for (size_t j = 0; j < i; ++j) {
      bans_.BanVertex(base.vertices[j]);
    }

    SearchResult r =
        search_->FindPath(spur, target_, cost_, &bans_, cancel_);
    if (r.outcome == SearchOutcome::kCancelled) return false;
    if (r.outcome == SearchOutcome::kUnreachable) continue;
    Path& spur_path = r.path;

    Candidate cand;
    cand.spur_index = i;
    cand.path.edges.assign(base.edges.begin(), base.edges.begin() + i);
    cand.path.edges.insert(cand.path.edges.end(), spur_path.edges.begin(),
                           spur_path.edges.end());
    cand.path.vertices.assign(base.vertices.begin(),
                              base.vertices.begin() + i);
    cand.path.vertices.insert(cand.path.vertices.end(),
                              spur_path.vertices.begin(),
                              spur_path.vertices.end());

    double root_cost = 0.0;
    for (size_t j = 0; j < i; ++j) root_cost += cost_(base.edges[j]);
    cand.path.cost = root_cost + spur_path.cost;
    cand.cost = cand.path.cost;
    RecomputeTotals(*network_, &cand.path);
    candidates_.insert(std::move(cand));
  }
  return true;
}

std::vector<Path> TopKShortestPaths(const RoadNetwork& network,
                                    VertexId source, VertexId target,
                                    const EdgeCostFn& cost, int k,
                                    const CancelToken* cancel,
                                    Dijkstra* search) {
  PR_CHECK(k >= 1) << "k must be positive";
  YenEnumerator yen(network, source, target, cost, cancel, search);
  std::vector<Path> out;
  out.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    auto p = yen.Next();
    if (!p.has_value()) break;
    out.push_back(std::move(*p));
  }
  return out;
}

}  // namespace pathrank::routing
