// Shared declarations of the repository benchmark: run options, the fixed
// set-up every workload shares, and the result that main() prints as the
// last line of standard output.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/candidate_generation.h"
#include "graph/road_network.h"
#include "traj/trajectory_generator.h"

namespace perfbench {

/// PATHRANK_THREADS of every run: the library's pool size.
inline constexpr size_t kThreads = 4;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Short runs for the benchmark's own tests: one set-up, and the
  /// sample-count gates are reported but do not fail the run.
  bool smoke = false;
  /// Where the traced run writes its spans ("" = do not write).
  std::string trace_out;
};

/// One metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> report;
  /// Why the run is invalid or incorrect; empty when it is neither.
  std::vector<std::string> problems;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// The small-preset city: a 20x20 synthetic grid. It is the deployment,
/// not an input, so it does not change with the workload seed.
pathrank::graph::RoadNetwork BuildCity();

/// The server's D-TkDI candidate configuration, also used to build the
/// training data.
pathrank::data::CandidateGenConfig ServerCandidates();

/// `count` trips from the trajectory generator with the small preset's
/// settings. commute_fraction 0 makes every trip a fresh random OD pair.
std::vector<pathrank::traj::TripPath> Trips(
    const pathrank::graph::RoadNetwork& network, int count, uint64_t seed,
    double commute_fraction);

/// Sets every per-layer metric of every workload to 0, so a traced run
/// prints the whole per-layer list; each workload then overwrites the
/// metrics that apply to it.
void SetPerLayerDefaults(Result* result);

/// Nearest-rank percentile of an unsorted sample (0 for an empty one).
double Percentile(std::vector<double> values, double p);

/// Samples strictly above the p-quantile, the support of a tail estimate.
size_t SamplesBeyond(const std::vector<double>& values, double p);

/// CPU time (user + system) of the whole process, seconds.
double ProcessCpuSeconds();

/// CPU time (user + system) of the calling thread, seconds.
double ThreadCpuSeconds();

/// Peak resident set size of the process since start or since the last
/// ResetPeakRss(), MiB (VmHWM; getrusage's max RSS when /proc is absent).
double PeakRssMiB();

/// Restarts the peak that PeakRssMiB() reports at the current RSS.
void ResetPeakRss();

/// Machine-wide CPU ticks from /proc/stat: all of them, and those the
/// hypervisor ran other guests in (steal). Zeros when unavailable.
struct CpuTicks {
  double total = 0;
  double steal = 0;
};
CpuTicks MachineCpuTicks();

/// Report line with the share of CPU time stolen since `start`: host
/// noise that slows every timing of a run.
std::string StealLine(const CpuTicks& start);

Result RunRouteWorkload(const Options& options);
Result RunTrainWorkload(const Options& options);
/// The generator-honesty check: a stub backend with a fixed service time
/// and one injected stall. Returns 0 when the stall shows up in the
/// latency of every request that was due during it.
int RunLoadgenSelfTest();

}  // namespace perfbench
