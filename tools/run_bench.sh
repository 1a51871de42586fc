#!/usr/bin/env bash
# Builds Release, runs bench_throughput and checks every metric against the
# committed baseline (BENCH_throughput.json) with a relative tolerance.
# This gates GEMM GFLOP/s, walk/candidate throughput, training epoch time
# AND the serving sections — per-request rank latency/QPS, the
# end-to-end serve_http_* loopback latency/QPS/shed-rate, the
# serve_route_* online-routing pipeline (cold vs candidate-cached
# latency + routes/s), and snapshot capture/hot-swap
# latency at 1..N threads — a serving regression fails the check like any
# other metric.
# The required-family check below additionally fails the run if a bench
# edit silently drops one of those metric families, and the doc link
# checker keeps README/docs references resolvable.
#
#   tools/run_bench.sh                 check against the committed baseline
#   tools/run_bench.sh --update        overwrite the committed baseline
#   tools/run_bench.sh --smoke         metric-family gate only: run the
#                                      bench, verify every family is
#                                      emitted, skip the perf thresholds
#                                      (for CI on shared runners, where
#                                      absolute numbers are noise)
#
# PATHRANK_BENCH_TOLERANCE (default 0.30) sets the allowed relative
# regression; PATHRANK_BENCH_SCALE (tiny|small|paper) sizes the workload.
# Baselines are machine-specific: regenerate with --update when benching
# on new hardware before trusting the check.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-bench"
BASELINE="$ROOT/BENCH_throughput.json"

# Metric families every bench run must emit; a fresh JSON missing one
# means the corresponding bench section was lost, which the
# baseline-driven check alone would not notice on --update.
REQUIRED_FAMILIES=(
  gemm256_gflops
  walks_per_s
  candidates_per_s
  serve_rank_per_s
  serve_rank_p50_s
  serve_rank_p99_s
  serve_http_per_s
  serve_http_p50_s
  serve_http_p99_s
  serve_http_shed_rate
  serve_route_cold_p50_s
  serve_route_cold_p99_s
  serve_route_cold_small_dijkstra_p50_s
  serve_route_cold_small_dijkstra_p99_s
  serve_route_cold_small_alt_p50_s
  serve_route_cold_small_alt_p99_s
  serve_route_cold_large_dijkstra_p50_s
  serve_route_cold_large_dijkstra_p99_s
  serve_route_cold_large_alt_p50_s
  serve_route_cold_large_alt_p99_s
  serve_route_warm_p50_s
  serve_route_warm_p99_s
  serve_route_per_s
  serve_route_after_swap_p50_s
  serve_route_after_swap_p99_s
  serve_traffic_ingest_p50_s
  serve_traffic_ingest_p99_s
  snapshot_capture_s
  swap_latency_s
  train_epoch_s
)

require_families() {
  local json="$1"
  local missing=0
  for family in "${REQUIRED_FAMILIES[@]}"; do
    if ! grep -q "\"$family" "$json"; then
      echo "MISSING FAMILY  $family (not in $json)" >&2
      missing=1
    fi
  done
  if [[ "$missing" != 0 ]]; then
    echo "bench output lost a required metric family" >&2
    exit 1
  fi
}

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j --target bench_throughput >/dev/null

if [[ "${1:-}" == "--update" ]]; then
  PATHRANK_BENCH_OUT="$BASELINE" "$BUILD/bench_throughput"
  require_families "$BASELINE"
  echo "baseline updated: $BASELINE"
elif [[ "${1:-}" == "--smoke" ]]; then
  PATHRANK_BENCH_OUT="$BUILD/BENCH_throughput.json" "$BUILD/bench_throughput"
  require_families "$BUILD/BENCH_throughput.json"
  echo "bench smoke: all required metric families emitted"
elif [[ -f "$BASELINE" ]]; then
  PATHRANK_BENCH_OUT="$BUILD/BENCH_throughput.json" \
    "$BUILD/bench_throughput" --check "$BASELINE"
  require_families "$BUILD/BENCH_throughput.json"
else
  echo "no baseline at $BASELINE; writing one" >&2
  PATHRANK_BENCH_OUT="$BASELINE" "$BUILD/bench_throughput"
  require_families "$BASELINE"
fi

# Docs gate alongside perf: broken README/docs links fail the run too.
bash "$ROOT/tools/check_doc_links.sh"
