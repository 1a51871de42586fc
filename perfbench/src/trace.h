// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own wrappers around the calls it
// makes into each layer (the HttpBackend seams, the planner's ScoreFn,
// the training entry points) — nothing under src/ is instrumented. Each
// thread appends to its own log; a span's parent is the span open on the
// same thread when it began. Spans stay in memory until the run writes
// them out at exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kClient,           ///< one request, as the load generator saw it
  kRoute,            ///< HttpBackend::route -> RoutePlanner::Plan
  kScore,            ///< RoutePlanner ScoreFn -> ServingEngine::ScoreBatch
  kTraffic,          ///< HttpBackend::traffic -> GraphStore::ApplyTraffic
  kGenerateQueries,  ///< data::GenerateQueries
  kNode2Vec,         ///< embedding::TrainNode2Vec
  kTrain,            ///< core::TrainPathRank
  kEvaluate,         ///< core::Evaluate
};

const char* SpanNameString(SpanName name);

struct Span {
  SpanName name = SpanName::kClient;
  uint32_t thread = 0;
  int32_t parent = -1;  ///< index in the same thread's log, -1 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t source = 0;       ///< route spans: the query
  uint32_t destination = 0;
  /// kScore: path vertices handed to the scorer; kRoute: routes returned.
  uint32_t count = 0;
  bool cache_hit = false;    ///< kRoute only
  /// Shared by every span of one request; 0 until the run matches server
  /// spans to the client request they served.
  uint64_t request = 0;
};

struct ThreadLog {
  std::mutex mu;
  uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<int32_t> open;
};

class Tracer {
 public:
  /// Recording is off until enabled; a disabled tracer records nothing.
  void SetEnabled(bool enabled);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread and returns its handle.
  int32_t Begin(SpanName name);
  /// Closes the span `handle` and fills its attributes.
  void End(int32_t handle, uint32_t source = 0, uint32_t destination = 0,
           uint32_t count = 0, bool cache_hit = false);

  /// Every thread log recorded so far. Call only while no traced call is
  /// running.
  std::vector<ThreadLog*> Logs();

  /// Writes every span as one CSV line to `path`. Returns false on I/O
  /// failure.
  bool Write(const std::string& path, const std::vector<Span>& extra);

 private:
  ThreadLog* Local();

  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// The process-wide tracer the wrappers record into.
Tracer& GlobalTracer();

}  // namespace perfbench
