#include "trace.h"

#include <cstdio>

#include "loadgen.h"

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kClient: return "client";
    case SpanName::kRoute: return "http_backend.route";
    case SpanName::kScore: return "serving_engine.score_batch";
    case SpanName::kTraffic: return "http_backend.traffic";
    case SpanName::kGenerateQueries: return "data.generate_queries";
    case SpanName::kNode2Vec: return "embedding.train_node2vec";
    case SpanName::kTrain: return "core.train_pathrank";
    case SpanName::kEvaluate: return "core.evaluate";
  }
  return "unknown";
}

void Tracer::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

ThreadLog* Tracer::Local() {
  // Logs are owned by the tracer, not by the thread, so spans survive the
  // server's worker threads exiting.
  thread_local ThreadLog* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    local = logs_.back().get();
    local->thread = static_cast<uint32_t>(logs_.size() - 1);
  }
  return local;
}

int32_t Tracer::Begin(SpanName name) {
  ThreadLog* log = Local();
  std::lock_guard<std::mutex> lock(log->mu);
  Span span;
  span.name = name;
  span.thread = log->thread;
  span.parent = log->open.empty() ? -1 : log->open.back();
  span.start_ns = NowNs();
  log->spans.push_back(span);
  const auto handle = static_cast<int32_t>(log->spans.size() - 1);
  log->open.push_back(handle);
  return handle;
}

void Tracer::End(int32_t handle, uint32_t source, uint32_t destination,
                 uint32_t count, bool cache_hit) {
  const int64_t end = NowNs();
  ThreadLog* log = Local();
  std::lock_guard<std::mutex> lock(log->mu);
  Span& span = log->spans[static_cast<size_t>(handle)];
  span.end_ns = end;
  span.source = source;
  span.destination = destination;
  span.count = count;
  span.cache_hit = cache_hit;
  if (!log->open.empty()) log->open.pop_back();
}

std::vector<ThreadLog*> Tracer::Logs() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadLog*> out;
  for (auto& log : logs_) out.push_back(log.get());
  return out;
}

bool Tracer::Write(const std::string& path, const std::vector<Span>& extra) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file,
               "name,thread,index,parent,request,start_ns,end_ns,source,"
               "destination,count,cache_hit\n");
  auto write = [file](const Span& span, size_t index) {
    std::fprintf(file, "%s,%u,%zu,%d,%llu,%lld,%lld,%u,%u,%u,%d\n",
                 SpanNameString(span.name), span.thread, index, span.parent,
                 static_cast<unsigned long long>(span.request),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.source,
                 span.destination, span.count, span.cache_hit ? 1 : 0);
  };
  for (ThreadLog* log : Logs()) {
    std::lock_guard<std::mutex> lock(log->mu);
    for (size_t i = 0; i < log->spans.size(); ++i) write(log->spans[i], i);
  }
  for (size_t i = 0; i < extra.size(); ++i) write(extra[i], i);
  return std::fclose(file) == 0;
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

}  // namespace perfbench
