// Diversified top-k shortest paths (the paper's D-TkDI candidate strategy).
//
// Enumerates simple paths in increasing cost order (Yen) and greedily
// accepts a path only when its weighted-Jaccard similarity to every
// previously accepted path is at most `similarity_threshold`. The shortest
// path is always accepted first. This yields a compact set of k mutually
// diverse near-shortest paths — the training-candidate distribution the
// paper shows to train better ranking models than plain top-k.
#pragma once

#include <vector>

#include "common/deadline.h"
#include "routing/cost_model.h"
#include "routing/path.h"

namespace pathrank::routing {

class Dijkstra;

/// Options for diversified enumeration.
struct DiversifiedOptions {
  /// Number of paths requested.
  int k = 10;
  /// Maximum allowed pairwise weighted-Jaccard similarity between accepted
  /// paths. Lower = more diverse. The paper's poster uses a "compact set of
  /// diversified paths"; 0.8 reproduces the reported behaviour well.
  double similarity_threshold = 0.8;
  /// Upper bound on how many paths Yen may enumerate before giving up
  /// (guards against pathological queries where diversity is unreachable).
  int max_enumerated = 400;
  /// When true and fewer than k diverse paths exist within the enumeration
  /// budget, pad the result with the cheapest rejected paths so callers
  /// always receive k candidates when the graph allows it.
  bool pad_with_rejected = true;
};

/// Returns up to k mutually diverse shortest paths in cost order. When
/// `cancel` expires mid-enumeration the paths accepted so far (padded
/// with already-enumerated rejects when configured) are returned —
/// possibly fewer than k, possibly zero. `search` (optional, borrowed)
/// runs the underlying Yen spur searches; nullptr = owned plain Dijkstra.
std::vector<Path> DiversifiedTopK(const RoadNetwork& network, VertexId source,
                                  VertexId target, const EdgeCostFn& cost,
                                  const DiversifiedOptions& options,
                                  const CancelToken* cancel = nullptr,
                                  Dijkstra* search = nullptr);

}  // namespace pathrank::routing
