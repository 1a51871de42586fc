// The repository benchmark binary. perfbench/run.py builds it and runs
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--smoke]
//   perfbench --selftest-loadgen
//
// It prints a "fingerprint" line (machine, toolchain, thread count), the
// human-readable report, and as its last line one JSON object with the
// keys correct, attempted, failed and metrics. It exits 1 when an output
// failed its correctness check or the load point was invalid, 2 on a
// usage error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "common/percentile.h"
#include "common/thread_pool.h"
#include "serving/json.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return pathrank::PercentileSorted(values, p);
}

size_t SamplesBeyond(const std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  const double q = Percentile(values, p);
  size_t beyond = 0;
  for (double v : values) beyond += v > q ? 1 : 0;
  return beyond;
}

namespace {

double CpuSeconds(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace

double ProcessCpuSeconds() { return CpuSeconds(RUSAGE_SELF); }

double ThreadCpuSeconds() { return CpuSeconds(RUSAGE_THREAD); }

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void ResetPeakRss() {
  // Writing 5 to clear_refs resets VmHWM to the current RSS.
  std::ofstream("/proc/self/clear_refs") << "5";
}

CpuTicks MachineCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks ticks;
  if (cpu != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double value = 0;
    if (!(in >> value)) return CpuTicks{};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

std::string StealLine(const CpuTicks& start) {
  const CpuTicks now = MachineCpuTicks();
  const double total = now.total - start.total;
  char line[96];
  std::snprintf(line, sizeof(line),
                "host steal: %.1f%% of machine CPU time during the measurement",
                total > 0 ? 100.0 * (now.steal - start.steal) / total : 0.0);
  return line;
}

void SetPerLayerDefaults(Result* result) {
  for (const char* name :
       {"route_p50_s", "route_p99_s", "traffic_p50_s", "traffic_p90_s",
        "http_server.self_p50_s", "http_server.self_p99_s",
        "route_planner.lookup_p50_s", "route_planner.enumerate_p50_s",
        "route_planner.enumerate_p99_s", "serving_engine.score_p50_s",
        "serving_engine.score_p99_s", "graph_store.apply_p50_s",
        "graph_store.apply_p90_s", "graph_store.rebuild_p50_s",
        "graph_store.boot_preprocess_s", "loadgen.lag_p99_s", "train_s",
        "data.generate_queries_s", "embedding.node2vec_s", "core.epoch_s",
        "core.evaluate_s"}) {
    result->Set(name, 0, "s");
  }
  for (int q = 1; q <= 4; ++q) {
    result->Set("route_planner.enumerate_p50_s.hops_q" + std::to_string(q), 0,
                "s");
    result->Set("route_planner.enumerate_p99_s.hops_q" + std::to_string(q), 0,
                "s");
  }
  for (const char* name :
       {"http_server.shed", "http_server.connections_accepted",
        "route_planner.enumerations", "route_planner.single_flight_waits",
        "route_planner.invalidations", "graph_store.epochs_behind_max",
        "graph_store.applies"}) {
    result->Set(name, 0, "count");
  }
  for (const char* name :
       {"route_planner.hit_ratio", "route_planner.alt_fallback_ratio",
        "serving_engine.score_share", "trace.overhead", "error_rate"}) {
    result->Set(name, 0, "ratio");
  }
  result->Set("route_knee_rps", 0, "req/s");
  result->Set("loadgen.achieved_rps", 0, "req/s");
  result->Set("serving_engine.us_per_vertex", 0, "us");
  result->Set("process.cpu_ms_per_request", 0, "ms");
  result->Set("train_kendall_tau", 0, "tau");
  result->Set("core.final_loss", 0, "loss");
}

namespace {

std::string JsonString(const std::string& text) {
  namespace json = pathrank::serving::json;
  return json::Dump(json::Value(text));
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Everything that must match for two results to be comparable.
std::string Fingerprint() {
  std::string out = "{";
  out += "\"cpu_model\": " + JsonString(CpuModel());
  out += ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"compiler\": " + JsonString(PERFBENCH_COMPILER);
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"pathrank_threads\": " + std::to_string(pathrank::GetNumThreads());
  out += "}";
  return out;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void PrintResult(const Result& result) {
  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& problem : result.problems) {
    std::printf("PROBLEM: %s\n", problem.c_str());
  }
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + FormatNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--smoke]\n"
               "       perfbench --selftest-loadgen\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() != "0";
      } else if (arg == "--trace-out") {
        options.trace_out = value();
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--selftest-loadgen") {
        selftest = true;
      } else {
        std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
        return Usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return Usage();
    }
  }
  if (selftest) return RunLoadgenSelfTest();
  if (options.workload.empty() || !(options.seconds > 0)) return Usage();

  try {
    pathrank::SetNumThreads(kThreads);
    std::printf("fingerprint %s\n", Fingerprint().c_str());
    Result result;
    if (options.workload == "train") {
      result = RunTrainWorkload(options);
    } else if (options.workload.rfind("route_", 0) == 0) {
      result = RunRouteWorkload(options);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
      return 2;
    }
    PrintResult(result);
    return result.correct && result.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
