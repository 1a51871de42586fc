// Generator-honesty check. A stub /v1/route backend with a fixed service
// time runs behind the real HttpServer; one stall pauses every handler
// for kStallNs. An open-loop generator that counts coordinated omission
// must charge the stall to every request that was due during it, not
// only to the few that were on the wire when it began.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench.h"
#include "loadgen.h"
#include "serving/http_server.h"

namespace perfbench {
namespace {

constexpr int64_t kServiceNs = 1'000'000;
constexpr int64_t kStallNs = 200'000'000;
constexpr double kRate = 200;
constexpr double kSeconds = 2.0;

}  // namespace

int RunLoadgenSelfTest() {
  namespace serving = pathrank::serving;
  // The stall window is set once the schedule is anchored.
  std::atomic<int64_t> stall_start{0};
  std::atomic<int64_t> stall_end{0};
  serving::HttpBackend backend;
  backend.rank = [](pathrank::graph::VertexId, pathrank::graph::VertexId) {
    return std::vector<serving::ScoredPath>{};
  };
  backend.score = [](std::vector<pathrank::routing::Path>) {
    return std::vector<serving::ScoredPath>{};
  };
  backend.route = [&](const serving::RouteRequest&) {
    const int64_t now = NowNs();
    if (now >= stall_start.load() && now < stall_end.load()) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(stall_end.load() - now));
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(kServiceNs));
    return serving::RouteResult{};
  };
  serving::HttpServerOptions server_options;
  server_options.num_threads = 4;
  serving::HttpServer server(std::move(backend), server_options);
  server.Start();

  std::vector<ScheduledRequest> schedule;
  const int64_t base = NowNs() + 50'000'000;
  const auto count = static_cast<size_t>(kRate * kSeconds);
  for (size_t i = 0; i < count; ++i) {
    ScheduledRequest request;
    // Evenly spaced: the check needs no randomness.
    request.intended_ns =
        base + static_cast<int64_t>(static_cast<double>(i) / kRate * 1e9);
    request.wire = HttpPost("/v1/route", "{\"source\": 1, \"destination\": 2}");
    schedule.push_back(std::move(request));
  }
  stall_start.store(base + 1'000'000'000);
  stall_end.store(base + 1'000'000'000 + kStallNs);

  int failures = 0;
  PhaseResult phase;
  {
    LoadGenerator generator(server.port(), 4);
    phase = generator.Run(schedule,
                          base + static_cast<int64_t>(kSeconds * 1e9),
                          1'000'000'000, {});
  }
  server.Stop();

  size_t due_in_stall = 0;
  size_t charged = 0;
  size_t slow_open = 0;
  size_t slow_from_send = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const RequestOutcome& out = phase.outcomes[i];
    if (out.status != 200) {
      ++failures;
      continue;
    }
    const int64_t intended = schedule[i].intended_ns;
    const int64_t latency = out.done_ns - intended;
    if (latency > kStallNs / 2) ++slow_open;
    if (out.done_ns - out.sent_ns > kStallNs / 2) ++slow_from_send;
    if (intended >= stall_start.load() && intended < stall_end.load()) {
      ++due_in_stall;
      // Nothing due in the stall can finish before it ends.
      if (out.done_ns >= stall_end.load()) ++charged;
    }
  }
  std::printf("loadgen self-test: %zu requests due during a %.0f ms stall, "
              "%zu carry it in their latency\n",
              due_in_stall, kStallNs * 1e-6, charged);
  std::printf("  latency > %.0f ms: %zu timed from the intended send, %zu "
              "timed from the actual send\n",
              kStallNs * 0.5e-6, slow_open, slow_from_send);
  if (failures > 0) {
    std::printf("FAIL: %d requests did not answer 200\n", failures);
    return 1;
  }
  if (due_in_stall == 0 || charged != due_in_stall) {
    std::printf("FAIL: the stall is missing from requests due during it\n");
    return 1;
  }
  // About rate x stall / 2 requests were due in the stall's first half;
  // timing from the actual send would show at most one per connection.
  const auto expected = static_cast<size_t>(kRate * kStallNs * 1e-9 / 2);
  if (slow_open + 2 < expected || slow_from_send > 4) {
    std::printf("FAIL: expected ~%zu slow requests from the intended send "
                "time and at most 4 from the actual send\n",
                expected);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

}  // namespace perfbench
