// Yen's algorithm for k shortest loopless paths, exposed both as a one-shot
// TopKShortestPaths() and as an incremental enumerator (YenEnumerator) that
// yields simple paths in non-decreasing cost order. The enumerator form is
// what the diversified top-k generator consumes: it keeps pulling paths
// until enough mutually-dissimilar ones have been accepted.
//
// Spur searches run through a routing::Dijkstra: by default an owned
// plain one, or a caller-supplied instance — the serving layer passes one
// in ALT mode over per-epoch landmark tables to accelerate cold routes.
// Both modes are exact, so the candidate sets are identical whenever
// shortest paths are unique.
//
// Spur bans are by next VERTEX: at spur position i every out-edge from
// the spur to a vertex that an accepted path with the same root took
// next is banned, parallel edges included. Paths are thereby partitioned
// by vertex sequence, so no candidate repeats another and none needs a
// dedup; on a network without parallel edges this bans exactly the
// accepted paths' next edges.
//
// Lawler's rule (Lawler 1972): an accepted path spurs only from its
// deviation index on — the position where it left the path it was
// derived from (0 for the first path). For a spur position i below that
// index the root base[0..i] and the set of accepted next vertices after
// it are exactly what they were when that spur search last ran (the new
// path follows its parent there), so the search would repeat the same
// (spur, bans) query and get back a path already generated. Skipping it
// changes no candidate and no pool order; yen_test checks the output
// bitwise against a reference that spurs from index 0.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "routing/ban_set.h"
#include "routing/cost_model.h"
#include "routing/dijkstra.h"
#include "routing/path.h"

namespace pathrank::routing {

/// Incremental k-shortest-simple-paths enumerator (Yen 1971, with
/// Lawler's deviation-index rule). Create one per (source, target) query;
/// call Next() repeatedly.
class YenEnumerator {
 public:
  /// `cancel` (optional, borrowed — must outlive the enumerator) threads
  /// cooperative cancellation into every spur search. Once it expires,
  /// Next() returns std::nullopt; paths already accepted stay valid, which
  /// is what lets callers degrade to a partial candidate set.
  ///
  /// `search` (optional, borrowed — must outlive the enumerator; not
  /// shareable across concurrent enumerators) runs every shortest-path
  /// search, including the spur searches. nullptr = an internally owned
  /// plain Dijkstra.
  YenEnumerator(const RoadNetwork& network, VertexId source, VertexId target,
                const EdgeCostFn& cost, const CancelToken* cancel = nullptr,
                Dijkstra* search = nullptr);

  /// Returns the next shortest simple path, or std::nullopt when the path
  /// space is exhausted or the cancel token has expired. The first call
  /// returns the shortest path.
  std::optional<Path> Next();

  /// Paths returned so far.
  const std::vector<Path>& accepted() const { return accepted_; }

  /// True when the path space is provably exhausted (every search
  /// that could extend it reported Unreachable and the candidate pool is
  /// empty). False after a cancellation — "ran out of time" is not "ran
  /// out of paths".
  bool exhausted() const { return exhausted_; }

  /// True once a search was cut short by the cancel token. Latched: no
  /// later Next() re-runs any search (the token is sticky, so none could
  /// make progress anyway).
  bool cancelled() const { return cancelled_; }

 private:
  struct Candidate {
    double cost;
    /// Deviation index: the position on the parent path whose vertex is
    /// the spur node. The candidate shares the parent's first
    /// spur_index + 1 vertices and leaves it by a different edge there;
    /// once accepted, its own spur pass starts at this index.
    size_t spur_index;
    Path path;
    bool operator<(const Candidate& o) const {
      if (cost != o.cost) return cost < o.cost;
      return path.vertices < o.path.vertices;
    }
  };

  /// Generates deviations of `base` at spur positions first_spur and
  /// later. Returns false when a spur search was cancelled mid-pass (the
  /// pool may be missing cheaper deviations).
  bool GenerateSpurs(const Path& base, size_t first_spur);

  const RoadNetwork* network_;
  VertexId source_;
  VertexId target_;
  EdgeCostFn cost_;
  const CancelToken* cancel_;
  std::unique_ptr<Dijkstra> owned_search_;
  Dijkstra* search_;
  BanSet bans_;
  std::vector<Path> accepted_;
  std::set<Candidate> candidates_;  // ordered pool (B set)
  bool exhausted_ = false;
  bool cancelled_ = false;
  bool first_done_ = false;
  /// Deviation index of accepted_.back(): where its spur pass starts (0
  /// for the first path).
  size_t last_deviation_ = 0;
};

/// One-shot convenience: up to k shortest simple paths in cost order.
/// When `cancel` expires mid-enumeration the paths found so far are
/// returned (possibly fewer than k, possibly zero). `search` (optional,
/// borrowed) runs the spur searches; nullptr = owned plain Dijkstra.
std::vector<Path> TopKShortestPaths(const RoadNetwork& network,
                                    VertexId source, VertexId target,
                                    const EdgeCostFn& cost, int k,
                                    const CancelToken* cancel = nullptr,
                                    Dijkstra* search = nullptr);

}  // namespace pathrank::routing
