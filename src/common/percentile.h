// Nearest-rank percentile over an ascending-sorted sample — the ONE
// quantile convention shared by the serving bench metrics
// (bench_throughput's serve_rank_* / serve_route_* p50/p99) and the
// pathrank_cli serve latency report, so the CLI's numbers and the gated
// bench numbers can never silently disagree for the same sample.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace pathrank {

/// p-quantile of `sorted` (ascending, non-empty) by the nearest-rank
/// convention: the smallest element whose cumulative frequency is >= p,
/// i.e. index ceil(p * n) - 1, clamped to [0, n-1]. (The previous
/// floor(p * n) indexing was one rank too high whenever p * n landed on
/// an integer: the p50 of 4 samples returned the 3rd, not the 2nd.)
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  const double rank =
      std::ceil(p * static_cast<double>(sorted.size()));
  const size_t index = rank <= 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(sorted.size() - 1, index)];
}

}  // namespace pathrank
