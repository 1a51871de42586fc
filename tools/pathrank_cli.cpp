// pathrank_cli — command-line front end for the full pipeline, with file
// persistence between stages so each step can run as a separate process:
//
//   pathrank_cli network  --rows 20 --cols 20 --seed 1 --out net
//   pathrank_cli simulate --network net --trips 700 --drivers 40
//                         --out trips.csv
//   pathrank_cli train    --network net --trips trips.csv --m 64
//                         --strategy dtkdi --epochs 20 --out model.bin
//   pathrank_cli evaluate --network net --trips trips.csv --model model.bin
//   pathrank_cli rank     --network net --model model.bin --from 12 --to 245
//   pathrank_cli serve    --network net --model model.bin --num-queries 128
//                         --threads 4 --repeat 3
//                         [--watch-model 1] [--http 8080]
//
// `serve` drives the serving stack with a batch of queries (from --queries
// CSV of "source,destination" lines, or sampled randomly) and reports
// per-query latency percentiles and QPS. `--watch-model 1` polls the model
// checkpoint and hot-swaps the served snapshot whenever the file changes,
// without restarting the process.
//
// `serve --http PORT` skips the self-drive and instead exposes the same
// stack over HTTP/1.1 (POST /v1/rank, POST /v1/score, POST /v1/route,
// POST /v1/traffic, GET /healthz, GET /statsz) until SIGINT/SIGTERM,
// with admission control in front of the engine (--max-inflight,
// --max-queue-wait-us; overload answers 429 + Retry-After). It composes
// with --watch-model, so hot swap works over the wire.
// /v1/route is the full online pipeline (candidate enumeration + LRU
// candidate cache + scoring, see serving::RoutePlanner); --route-cache N
// sizes the cache. The route pipeline serves a live graph behind a
// GraphStore: POST /v1/traffic ingests edge cost/closure batches
// (epoch + 1 per batch), and `--watch-graph 1` polls the graph source
// files and hot-swaps a re-exported network the same way --watch-model
// swaps checkpoints. The serving network comes from --network PREFIX
// (the CSV pair) or --graph EDGES.csv (edges-only: vertex set inferred,
// coordinates zeroed — enough for travel-time routing).
//
// Networks are stored as the CSV pair written by graph::SaveNetworkCsv,
// trips as traj::SaveTrips CSV, models as core::SaveModel checkpoints.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.h"
#include "common/percentile.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/model_io.h"
#include "pathrank.h"
#include "graph/graph_io.h"
#include "serving/fault_injector.h"
#include "serving/graph_store.h"
#include "serving/http_server.h"
#include "serving/route_planner.h"
#include "traj/trip_io.h"

namespace {

using namespace pathrank;

/// Minimal --flag value parser; every flag takes exactly one value.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
        std::exit(2);
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag %s expects a value\n", key.c_str());
        std::exit(2);
      }
      values_[key.substr(2)] = argv[++i];
    }
  }

  /// Errors out (listing the offenders) when a parsed flag is not in the
  /// subcommand's allow-list.
  void RejectUnknown(const std::string& command,
                     const std::set<std::string>& known) const {
    bool any = false;
    for (const auto& [key, value] : values_) {
      if (known.count(key) == 0) {
        std::fprintf(stderr, "unknown flag --%s for command '%s'\n",
                     key.c_str(), command.c_str());
        any = true;
      }
    }
    if (any) std::exit(2);
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it != values_.end() ? it->second : fallback;
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  int GetInt(const std::string& key, int fallback) const {
    return GetParsed<int32_t>(key, fallback, "an integer", ParseInt32);
  }

  /// GetInt for sizes and counts: a value below 1 is a usage error.
  int GetPositiveInt(const std::string& key, int fallback) const {
    const int value = GetInt(key, fallback);
    if (value < 1) {
      std::fprintf(stderr, "flag --%s expects an integer >= 1, got %d\n",
                   key.c_str(), value);
      std::exit(2);
    }
    return value;
  }

  double GetDouble(const std::string& key, double fallback) const {
    return GetParsed<double>(key, fallback, "a number", ParseDouble);
  }

  std::string Require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }

 private:
  /// Shared lookup/parse/diagnostic for the numeric getters, built on the
  /// common/parse whole-token parsers: the entire value must convert
  /// (trailing junk, overflow and non-finite values are all clean usage
  /// errors, exit 2 — never a half-parsed flag).
  template <typename T, typename Parse>
  T GetParsed(const std::string& key, T fallback, const char* expected,
              Parse parse) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    T value{};
    if (!parse(it->second, &value)) {
      std::fprintf(stderr, "flag --%s expects %s, got '%s'\n", key.c_str(),
                   expected, it->second.c_str());
      std::exit(2);
    }
    return value;
  }

  std::map<std::string, std::string> values_;
};

data::CandidateStrategy ParseStrategy(const std::string& name) {
  if (name == "tkdi" || name == "topk") return data::CandidateStrategy::kTopK;
  if (name == "dtkdi" || name == "div") {
    return data::CandidateStrategy::kDiversifiedTopK;
  }
  if (name == "penalty") return data::CandidateStrategy::kPenalty;
  std::fprintf(stderr, "unknown strategy: %s (tkdi|dtkdi|penalty)\n",
               name.c_str());
  std::exit(2);
}

int CmdNetwork(const Args& args) {
  graph::SyntheticNetworkConfig cfg;
  cfg.rows = args.GetInt("rows", 20);
  cfg.cols = args.GetInt("cols", 20);
  cfg.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const auto network = graph::BuildSyntheticNetwork(cfg);
  const std::string out = args.Require("out");
  graph::SaveNetworkCsv(network, out);
  std::printf("wrote %s_vertices.csv / %s_edges.csv (%s)\n", out.c_str(),
              out.c_str(), network.Summary().c_str());
  return 0;
}

int CmdSimulate(const Args& args) {
  const auto network = graph::LoadNetworkCsv(args.Require("network"));
  traj::TrajectoryGeneratorConfig cfg;
  cfg.num_trips = args.GetInt("trips", 700);
  cfg.num_drivers = args.GetInt("drivers", 40);
  cfg.min_trip_distance_m = args.GetDouble("min-distance", 2500.0);
  cfg.max_path_vertices = args.GetInt("max-vertices", 60);
  cfg.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  const auto trips = traj::TrajectoryGenerator(network, cfg).Generate();
  const std::string out = args.Require("out");
  traj::SaveTrips(trips, out);
  std::printf("wrote %zu trips to %s\n", trips.size(), out.c_str());
  return 0;
}

data::RankingDataset BuildDataset(const graph::RoadNetwork& network,
                                  const std::vector<traj::TripPath>& trips,
                                  const Args& args) {
  data::CandidateGenConfig gen;
  gen.strategy = ParseStrategy(args.Get("strategy", "dtkdi"));
  gen.k = args.GetInt("k", 10);
  gen.similarity_threshold = args.GetDouble("threshold", 0.6);
  data::RankingDataset dataset;
  dataset.queries = data::GenerateQueries(network, trips, gen);
  return dataset;
}

int CmdTrain(const Args& args) {
  // Every model and trainer flag is checked before the expensive stages.
  const int m = args.GetPositiveInt("m", 64);
  const int hidden = args.GetPositiveInt("hidden", 64);
  const int epochs = args.GetPositiveInt("epochs", 20);
  const double lr = args.GetDouble("lr", 3e-3);
  if (!(lr > 0.0)) {
    std::fprintf(stderr, "flag --lr expects a positive number, got %g\n", lr);
    std::exit(2);
  }
  const auto network = graph::LoadNetworkCsv(args.Require("network"));
  const auto trips = traj::LoadTrips(network, args.Require("trips"));
  auto dataset = BuildDataset(network, trips, args);
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 11)));
  const auto split = data::SplitDataset(dataset, 0.8, 0.1, rng);

  embedding::Node2VecConfig n2v;
  n2v.skipgram.dims = m;
  n2v.seed = static_cast<uint64_t>(args.GetInt("seed", 11)) + 1;
  std::printf("training node2vec (%d dims)...\n", m);
  const auto table = embedding::TrainNode2Vec(network, n2v);

  core::PathRankConfig model_cfg;
  model_cfg.embedding_dim = static_cast<size_t>(m);
  model_cfg.hidden_size = static_cast<size_t>(hidden);
  model_cfg.finetune_embedding = args.GetInt("finetune", 1) != 0;
  model_cfg.multi_task = args.GetInt("multitask", 0) != 0;
  core::PathRankModel model(network.num_vertices(), model_cfg);
  model.InitializeEmbedding(table);

  core::TrainerConfig train_cfg;
  train_cfg.epochs = epochs;
  train_cfg.learning_rate = lr;
  train_cfg.verbose = true;
  SetLogLevel(LogLevel::kInfo);
  std::printf("training PathRank (%s)...\n",
              model_cfg.VariantName().c_str());
  core::TrainPathRank(model, split.train, split.validation, train_cfg);

  const auto result = core::Evaluate(model, split.test);
  std::printf("held-out test: %s\n", result.ToString().c_str());
  const std::string out = args.Require("out");
  core::SaveModel(model, out);
  std::printf("wrote model checkpoint to %s\n", out.c_str());
  return 0;
}

int CmdEvaluate(const Args& args) {
  const auto network = graph::LoadNetworkCsv(args.Require("network"));
  const auto trips = traj::LoadTrips(network, args.Require("trips"));
  auto dataset = BuildDataset(network, trips, args);
  auto model = core::LoadModel(args.Require("model"));
  if (model->vocab_size() != network.num_vertices()) {
    std::fprintf(stderr, "model/network vertex-count mismatch\n");
    return 1;
  }
  const auto result = core::Evaluate(*model, dataset);
  std::printf("%s\n", result.ToString().c_str());
  return 0;
}

data::CandidateGenConfig GenConfigFromArgs(const Args& args) {
  data::CandidateGenConfig gen;
  gen.strategy = ParseStrategy(args.Get("strategy", "dtkdi"));
  gen.k = args.GetInt("k", 10);
  // Same default BuildDataset uses, so serving candidates match a model
  // trained with the defaults.
  gen.similarity_threshold = args.GetDouble("threshold", 0.6);
  return gen;
}

int CmdRank(const Args& args) {
  const auto network = graph::LoadNetworkCsv(args.Require("network"));
  auto model = core::LoadModel(args.Require("model"));
  const auto from = static_cast<graph::VertexId>(args.GetInt("from", 0));
  const auto to = static_cast<graph::VertexId>(
      args.GetInt("to", static_cast<int>(network.num_vertices()) - 1));
  if (from >= network.num_vertices() || to >= network.num_vertices()) {
    std::fprintf(stderr, "vertex id out of range\n");
    return 1;
  }
  if (model->vocab_size() != network.num_vertices()) {
    std::fprintf(stderr, "model/network vertex-count mismatch\n");
    return 1;
  }
  serving::ServingOptions options;
  options.num_replicas = 1;
  options.candidates = GenConfigFromArgs(args);
  const serving::ServingEngine engine(
      network, serving::ModelSnapshot::Capture(*model), options);
  const auto ranked = engine.Rank(from, to);
  std::printf("%zu candidates for %u -> %u:\n", ranked.size(), from, to);
  for (size_t i = 0; i < ranked.size(); ++i) {
    std::printf("#%zu score=%.4f length=%.0fm time=%.0fs vertices=%zu\n",
                i + 1, ranked[i].score, ranked[i].path.length_m,
                ranked[i].path.time_s, ranked[i].path.num_vertices());
  }
  return 0;
}

/// Reads "source,destination" lines (blank lines and '#' comments are
/// skipped) into rank queries.
std::vector<serving::RankQuery> LoadQueriesCsv(
    const std::string& path, const graph::RoadNetwork& network) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open queries file %s\n", path.c_str());
    std::exit(2);
  }
  std::vector<serving::RankQuery> queries;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    unsigned src = 0;
    unsigned dst = 0;
    if (std::sscanf(line.c_str(), " %u , %u", &src, &dst) != 2) {
      std::fprintf(stderr, "%s:%zu: expected 'source,destination'\n",
                   path.c_str(), line_no);
      std::exit(2);
    }
    if (src >= network.num_vertices() || dst >= network.num_vertices()) {
      std::fprintf(stderr, "%s:%zu: vertex id out of range\n", path.c_str(),
                   line_no);
      std::exit(2);
    }
    queries.push_back({src, dst});
  }
  return queries;
}

/// Samples random (source != destination) query pairs.
std::vector<serving::RankQuery> SampleQueries(
    const graph::RoadNetwork& network, int count, uint64_t seed) {
  if (count <= 0) {
    std::fprintf(stderr, "--num-queries must be positive\n");
    std::exit(2);
  }
  if (network.num_vertices() < 2) {
    std::fprintf(stderr, "network too small to sample queries\n");
    std::exit(2);
  }
  Rng rng(seed);
  const auto n = static_cast<int64_t>(network.num_vertices());
  std::vector<serving::RankQuery> queries;
  queries.reserve(static_cast<size_t>(count));
  while (queries.size() < static_cast<size_t>(count)) {
    const auto src = static_cast<graph::VertexId>(rng.NextInt(0, n - 1));
    const auto dst = static_cast<graph::VertexId>(rng.NextInt(0, n - 1));
    if (src == dst) continue;
    queries.push_back({src, dst});
  }
  return queries;
}

/// Polls a model checkpoint's mtime and hot-swaps the served snapshot when
/// the file changes — the `serve --watch-model` reload path. The swap
/// itself is one atomic pointer exchange inside the engine; in-flight
/// requests finish on the snapshot they started with.
class ModelWatcher {
 public:
  ModelWatcher(std::string model_path, const graph::RoadNetwork& network,
               std::function<void(std::shared_ptr<const serving::ModelSnapshot>)>
                   swap,
               int interval_ms)
      : model_path_(std::move(model_path)),
        network_(&network),
        swap_(std::move(swap)),
        interval_ms_(interval_ms),
        last_mtime_(Mtime(model_path_)) {
    thread_ = std::thread([this] { Loop(); });
  }

  ~ModelWatcher() {
    stop_.store(true);
    thread_.join();
  }

  uint64_t swaps() const { return swaps_.load(); }

 private:
  static std::filesystem::file_time_type Mtime(const std::string& path) {
    std::error_code ec;
    const auto t = std::filesystem::last_write_time(path, ec);
    return ec ? std::filesystem::file_time_type{} : t;
  }

  /// Sleeps one poll interval in small slices so destruction never waits
  /// out a long --watch-interval-ms.
  void InterruptibleSleep() const {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(interval_ms_);
    while (!stop_.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  void Loop() {
    while (!stop_.load()) {
      InterruptibleSleep();
      if (stop_.load()) break;
      const auto mtime = Mtime(model_path_);
      if (mtime == last_mtime_ ||
          mtime == std::filesystem::file_time_type{}) {
        continue;
      }
      try {
        auto next = core::LoadModel(model_path_);
        if (next->vocab_size() != network_->num_vertices()) {
          std::fprintf(stderr,
                       "watch-model: %s no longer matches the network; "
                       "keeping the current snapshot\n",
                       model_path_.c_str());
          last_mtime_ = mtime;  // not transient; wait for the next rewrite
          continue;
        }
        swap_(serving::ModelSnapshot::Capture(*next));
        last_mtime_ = mtime;
        swaps_.fetch_add(1);
        std::printf("watch-model: hot-swapped snapshot from %s\n",
                    model_path_.c_str());
      } catch (const std::exception& e) {
        // A partially written checkpoint mid-save is expected. last_mtime_
        // deliberately stays stale so the next tick retries even when the
        // writer finishes within the same coarse mtime granule.
        std::fprintf(stderr, "watch-model: reload failed (%s); will retry\n",
                     e.what());
      }
    }
  }

  const std::string model_path_;
  const graph::RoadNetwork* network_;
  const std::function<void(std::shared_ptr<const serving::ModelSnapshot>)>
      swap_;
  const int interval_ms_;
  std::filesystem::file_time_type last_mtime_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> swaps_{0};
  std::thread thread_;
};

/// Polls the graph source's mtime and swaps a freshly loaded network into
/// the GraphStore when it changes — the `serve --watch-graph` reload
/// path, ModelWatcher's graph-side twin. Watches the edges CSV (the file
/// a re-export rewrites); in-flight route queries finish on the snapshot
/// they captured, and the superseded graph is freed when the last of
/// them returns.
class GraphWatcher {
 public:
  GraphWatcher(std::string watch_path,
               std::function<graph::RoadNetwork()> load,
               serving::GraphStore* store, int interval_ms)
      : watch_path_(std::move(watch_path)),
        load_(std::move(load)),
        store_(store),
        interval_ms_(interval_ms),
        last_mtime_(Mtime(watch_path_)) {
    thread_ = std::thread([this] { Loop(); });
  }

  ~GraphWatcher() {
    stop_.store(true);
    thread_.join();
  }

  uint64_t swaps() const { return swaps_.load(); }

 private:
  static std::filesystem::file_time_type Mtime(const std::string& path) {
    std::error_code ec;
    const auto t = std::filesystem::last_write_time(path, ec);
    return ec ? std::filesystem::file_time_type{} : t;
  }

  void InterruptibleSleep() const {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(interval_ms_);
    while (!stop_.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  void Loop() {
    while (!stop_.load()) {
      InterruptibleSleep();
      if (stop_.load()) break;
      const auto mtime = Mtime(watch_path_);
      if (mtime == last_mtime_ ||
          mtime == std::filesystem::file_time_type{}) {
        continue;
      }
      try {
        graph::RoadNetwork next = load_();
        const auto current = store_->Current();
        if (next.num_vertices() != current->network().num_vertices()) {
          // The model's vocabulary (and the /v1/rank engine) is pinned to
          // the boot-time vertex set; a graph that changes it needs a
          // restart with a matching model, not a hot swap.
          std::fprintf(stderr,
                       "watch-graph: %s changed its vertex count (%zu -> "
                       "%zu); the model is pinned to the boot graph — "
                       "keeping the current snapshot\n",
                       watch_path_.c_str(),
                       current->network().num_vertices(),
                       next.num_vertices());
          last_mtime_ = mtime;  // not transient; wait for the next rewrite
          continue;
        }
        store_->SwapNetwork(std::move(next));
        last_mtime_ = mtime;
        swaps_.fetch_add(1);
        std::printf("watch-graph: hot-swapped graph from %s (epoch %llu)\n",
                    watch_path_.c_str(),
                    static_cast<unsigned long long>(store_->epoch()));
      } catch (const std::exception& e) {
        // A partially written CSV mid-export is expected. last_mtime_
        // deliberately stays stale so the next tick retries even when the
        // writer finishes within the same coarse mtime granule.
        std::fprintf(stderr, "watch-graph: reload failed (%s); will retry\n",
                     e.what());
      }
    }
  }

  const std::string watch_path_;
  const std::function<graph::RoadNetwork()> load_;
  serving::GraphStore* store_;
  const int interval_ms_;
  std::filesystem::file_time_type last_mtime_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> swaps_{0};
  std::thread thread_;
};

/// SIGINT/SIGTERM flag for `serve --http`: handlers may only touch
/// lock-free atomics, so the serving loop polls this and does the actual
/// shutdown outside signal context.
std::atomic<bool> g_http_interrupted{false};

void OnHttpSignal(int /*signum*/) { g_http_interrupted.store(true); }

/// `serve --http PORT`: serves the engine stack over HTTP until a signal
/// arrives, then reports the traffic counters.
int RunHttpFrontEnd(const Args& args, const graph::RoadNetwork& network,
                    serving::ServingEngine* engine,
                    const ModelWatcher* watcher) {
  serving::HttpServerOptions options;
  options.bind_address = args.Get("http-addr", "0.0.0.0");
  const int port = args.GetInt("http", 0);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "--http expects a port in [0, 65535]\n");
    return 2;
  }
  options.port = static_cast<uint16_t>(port);
  options.max_inflight =
      static_cast<size_t>(std::max(1, args.GetInt("max-inflight", 64)));
  // 0 = auto (max_inflight + 4): admission stays the binding constraint
  // and spare workers keep /healthz answering under a saturated engine.
  options.num_threads =
      static_cast<size_t>(std::max(0, args.GetInt("http-threads", 0)));
  options.max_queue_wait_us = std::max(0, args.GetInt("max-queue-wait-us", 0));
  options.idle_timeout_s = std::max(1, args.GetInt("idle-timeout-s", 30));
  options.request_deadline_s =
      std::max(1, args.GetInt("request-deadline-s", 60));
  options.default_deadline_ms =
      std::max(0, args.GetInt("default-deadline-ms", 0));
  options.max_deadline_ms = std::max(0, args.GetInt("max-deadline-ms", 0));
  if (options.num_threads != 0 &&
      options.num_threads <= options.max_inflight) {
    std::fprintf(stderr,
                 "warning: --http-threads %zu <= --max-inflight %zu: "
                 "admission control cannot engage (concurrency is already "
                 "capped by the worker count)\n",
                 options.num_threads, options.max_inflight);
  }

  serving::HttpBackend backend;
  backend.num_vertices = network.num_vertices();
  backend.rank = [engine](graph::VertexId s, graph::VertexId d) {
    return engine->Rank(s, d);
  };
  backend.score = [engine](std::vector<routing::Path> paths) {
    return engine->ScoreBatch(paths);
  };
  backend.swap_count = [engine] { return engine->swap_count(); };

  // --fault-spec: deterministic chaos at the backend seams (sites
  // "rank", "score", "route"), for drills and for reproducing what
  // chaos_test exercises programmatically. The wrappers go in BEFORE the
  // planner captures backend.score, so injected scoring faults hit
  // /v1/route too.
  std::shared_ptr<serving::FaultInjector> faults;
  if (args.Has("fault-spec")) {
    try {
      faults = serving::FaultInjector::Parse(
          args.Get("fault-spec", ""),
          static_cast<uint64_t>(args.GetInt("fault-seed", 1)));
    } catch (const serving::FaultSpecError& e) {
      std::fprintf(stderr, "--fault-spec: %s\n", e.what());
      return 2;
    }
  }
  if (faults != nullptr && faults->enabled()) {
    backend.rank = [faults, inner = backend.rank](graph::VertexId s,
                                                  graph::VertexId d) {
      faults->Inject("rank");
      return inner(s, d);
    };
    backend.score = [faults, inner = backend.score](
                        std::vector<routing::Path> paths) {
      faults->Inject("score");
      return inner(std::move(paths));
    };
  }

  // The live graph behind /v1/route and /v1/traffic: a GraphStore seeded
  // with a copy of the boot network (epoch 0). Traffic batches and
  // --watch-graph reloads swap new snapshots in; the /v1/rank engine
  // stays pinned to the boot network (its candidate generator and the
  // model vocabulary were built against it).
  serving::GraphStore graph_store(network);

  // --spur-engine: which engine runs the Yen spur searches behind
  // /v1/route. "alt" turns on the GraphStore's preprocessing lifecycle:
  // landmark tables built at boot, rebuilt in the background after every
  // /v1/traffic batch or --watch-graph swap, with mid-rebuild queries
  // falling back to exact Dijkstra.
  serving::SpurEngine spur_engine = serving::SpurEngine::kDijkstra;
  const std::string spur_name = args.Get("spur-engine", "dijkstra");
  if (!serving::ParseSpurEngine(spur_name, &spur_engine)) {
    std::fprintf(stderr, "--spur-engine must be dijkstra or alt (got %s)\n",
                 spur_name.c_str());
    return 2;
  }
  const int num_landmarks = args.GetInt("landmarks", 8);
  if (num_landmarks < 1) {
    std::fprintf(stderr, "--landmarks must be >= 1 (got %d)\n",
                 num_landmarks);
    return 2;
  }
  if (spur_engine == serving::SpurEngine::kAlt) {
    serving::PreprocessOptions preprocess;
    preprocess.num_landmarks = num_landmarks;
    graph_store.EnablePreprocessing(preprocess);
  }

  // The online route pipeline behind POST /v1/route: candidate
  // enumeration + LRU candidate cache + scoring through the SAME seam
  // backend.score uses, so injected scoring faults reach it too. Built
  // over the GraphStore: each query captures the current
  // snapshot (and, for ALT, the preprocessing artifact) once, and cached
  // candidate sets invalidate when the epoch moves on.
  serving::RoutePlannerConfig route_config;
  route_config.store = &graph_store;
  route_config.candidates = GenConfigFromArgs(args);
  route_config.cache_capacity =
      static_cast<size_t>(std::max(0, args.GetInt("route-cache", 1024)));
  route_config.spur_engine = spur_engine;
  route_config.num_landmarks = num_landmarks;
  const serving::RoutePlanner planner(route_config, backend.score);
  backend.route = [&planner](const serving::RouteRequest& request) {
    return planner.Plan(request);
  };
  backend.traffic =
      [&graph_store](const std::vector<graph::TrafficUpdate>& updates) {
        return graph_store.ApplyTraffic(updates);
      };
  backend.graph_epoch = [&graph_store] { return graph_store.epoch(); };
  backend.route_planner_stats = [&planner] { return planner.stats(); };
  backend.preprocessing_stats = [&graph_store] {
    return graph_store.preprocessing_stats();
  };
  if (faults != nullptr && faults->enabled()) {
    // The "route" site stalls/fails between deadline anchoring (HTTP
    // parse) and Plan(), so an injected delay visibly consumes budget.
    backend.route = [faults, inner = backend.route](
                        const serving::RouteRequest& request) {
      faults->Inject("route");
      return inner(request);
    };
  }

  // --watch-graph: poll the graph source and hot-swap re-exports, the
  // graph-side analogue of --watch-model. Watches the edges CSV — the
  // file a re-export rewrites for either --graph or --network serving.
  std::unique_ptr<GraphWatcher> graph_watcher;
  if (args.GetInt("watch-graph", 0) != 0) {
    const bool has_graph = args.Has("graph");
    const std::string watch_path =
        has_graph ? args.Get("graph", "")
                  : args.Get("network", "") + "_edges.csv";
    auto load = [has_graph, &args]() {
      return has_graph ? graph::LoadNetworkEdgesCsv(args.Get("graph", ""))
                       : graph::LoadNetworkCsv(args.Get("network", ""));
    };
    graph_watcher = std::make_unique<GraphWatcher>(
        watch_path, std::move(load), &graph_store,
        std::max(1, args.GetInt("watch-interval-ms", 200)));
  }

  serving::HttpServer server(std::move(backend), options);
  server.Start();
  std::printf("route planner: strategy %s, k=%d, cache %zu entries, "
              "spur engine %s%s\n",
              data::CandidateStrategyName(route_config.candidates.strategy)
                  .c_str(),
              route_config.candidates.k, route_config.cache_capacity,
              serving::SpurEngineName(spur_engine),
              spur_engine == serving::SpurEngine::kAlt
                  ? StrFormat(" (%d landmarks)", num_landmarks).c_str()
                  : "");
  std::printf("HTTP serving on %s:%u  (threads=%zu, max_inflight=%zu, "
              "max_queue_wait_us=%lld%s%s)\n",
              options.bind_address.c_str(), server.port(),
              server.options().num_threads, options.max_inflight,
              static_cast<long long>(options.max_queue_wait_us),
              watcher != nullptr ? ", watch-model" : "",
              graph_watcher != nullptr ? ", watch-graph" : "");
  std::printf("timeouts: idle %d s, request %d s; route budget: default %lld "
              "ms, max %lld ms (0 = unbounded)\n",
              options.idle_timeout_s, options.request_deadline_s,
              static_cast<long long>(options.default_deadline_ms),
              static_cast<long long>(options.max_deadline_ms));
  if (faults != nullptr && faults->enabled()) {
    std::printf("FAULT INJECTION ACTIVE: %s (seed %d)\n",
                args.Get("fault-spec", "").c_str(),
                args.GetInt("fault-seed", 1));
  }
  std::printf("endpoints: POST /v1/rank  POST /v1/score  POST /v1/route  "
              "POST /v1/traffic  GET /healthz  GET /statsz  "
              "(Ctrl-C to stop)\n");

  g_http_interrupted.store(false);
  std::signal(SIGINT, OnHttpSignal);
  std::signal(SIGTERM, OnHttpSignal);
  while (!g_http_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  server.Stop();

  const auto stats = server.stats();
  std::printf("\nshutting down: %llu connections, %llu requests, "
              "%llu shed\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.requests_total),
              static_cast<unsigned long long>(stats.shed_total));
  std::printf("rank:  %llu requests  p50 %.2f ms  p99 %.2f ms\n",
              static_cast<unsigned long long>(stats.rank.requests),
              stats.rank.latency_p50_s * 1e3, stats.rank.latency_p99_s * 1e3);
  std::printf("score: %llu requests  p50 %.2f ms  p99 %.2f ms\n",
              static_cast<unsigned long long>(stats.score.requests),
              stats.score.latency_p50_s * 1e3,
              stats.score.latency_p99_s * 1e3);
  std::printf("route: %llu requests  p50 %.2f ms  p99 %.2f ms  "
              "cache %llu hit / %llu miss\n",
              static_cast<unsigned long long>(stats.route.requests),
              stats.route.latency_p50_s * 1e3,
              stats.route.latency_p99_s * 1e3,
              static_cast<unsigned long long>(planner.cache_hits()),
              static_cast<unsigned long long>(planner.cache_misses()));
  std::printf("graph: epoch %llu  %llu traffic batch(es)  "
              "%llu invalidation(s)  %llu single-flight wait(s)  "
              "%llu enumeration(s)  %llu spur search(es)\n",
              static_cast<unsigned long long>(graph_store.epoch()),
              static_cast<unsigned long long>(graph_store.traffic_batches()),
              static_cast<unsigned long long>(planner.invalidations()),
              static_cast<unsigned long long>(planner.single_flight_waits()),
              static_cast<unsigned long long>(planner.enumerations()),
              static_cast<unsigned long long>(planner.spur_searches()));
  if (spur_engine == serving::SpurEngine::kAlt) {
    const serving::PreprocessingStats pre = graph_store.preprocessing_stats();
    std::printf("preprocessing: %d landmarks  %llu rebuild(s)  "
                "p50 %.1f ms  p99 %.1f ms  %llu ALT fallback(s)\n",
                pre.landmarks,
                static_cast<unsigned long long>(pre.rebuilds),
                pre.rebuild_p50_s * 1e3, pre.rebuild_p99_s * 1e3,
                static_cast<unsigned long long>(planner.alt_fallbacks()));
  }
  std::printf("deadlines: %llu exceeded (504), %llu degraded (partial), "
              "route timeouts %llu\n",
              static_cast<unsigned long long>(stats.deadline_exceeded_total),
              static_cast<unsigned long long>(stats.degraded_total),
              static_cast<unsigned long long>(stats.route.timeouts));
  if (faults != nullptr && faults->enabled()) {
    std::printf("fault injection: %llu delay(s), %llu error(s) fired\n",
                static_cast<unsigned long long>(faults->injected_delays()),
                static_cast<unsigned long long>(faults->injected_errors()));
  }
  if (watcher != nullptr) {
    std::printf("watch-model: %llu hot swap(s) while serving\n",
                static_cast<unsigned long long>(watcher->swaps()));
  }
  if (graph_watcher != nullptr) {
    std::printf("watch-graph: %llu hot swap(s) while serving\n",
                static_cast<unsigned long long>(graph_watcher->swaps()));
  }
  return 0;
}

/// Sorts `latency` and prints the serve self-drive's wall-clock / QPS /
/// percentile report. PercentileSorted keeps the quantile convention
/// identical to the gated bench metrics.
void ReportServeStats(std::vector<double>& latency, double wall_s,
                      size_t candidates_served) {
  std::sort(latency.begin(), latency.end());
  auto pct = [&](double p) { return PercentileSorted(latency, p) * 1e3; };
  double mean_ms = 0.0;
  for (double s : latency) mean_ms += s;
  mean_ms = mean_ms / static_cast<double>(latency.size()) * 1e3;

  std::printf("%zu candidates served\n", candidates_served);
  std::printf("wall %.3f s  =>  %.1f QPS\n", wall_s,
              static_cast<double>(latency.size()) / wall_s);
  std::printf("latency/query: mean %.2f ms  p50 %.2f ms  p95 %.2f ms  "
              "p99 %.2f ms\n",
              mean_ms, pct(0.50), pct(0.95), pct(0.99));
}

/// Serving network source: --network PREFIX (the SaveNetworkCsv pair) or
/// --graph EDGES.csv (edges-only; vertex set inferred, coordinates
/// zeroed). Exactly one must be given.
graph::RoadNetwork LoadServeNetwork(const Args& args) {
  const bool has_network = args.Has("network");
  const bool has_graph = args.Has("graph");
  if (has_network == has_graph) {
    std::fprintf(stderr,
                 "serve needs exactly one of --network PREFIX or "
                 "--graph EDGES.csv\n");
    std::exit(2);
  }
  return has_graph ? graph::LoadNetworkEdgesCsv(args.Get("graph", ""))
                   : graph::LoadNetworkCsv(args.Get("network", ""));
}

int CmdServe(const Args& args) {
  const auto network = LoadServeNetwork(args);
  auto model = core::LoadModel(args.Require("model"));
  if (model->vocab_size() != network.num_vertices()) {
    std::fprintf(stderr, "model/network vertex-count mismatch\n");
    return 1;
  }
  const int threads = args.GetInt("threads", 0);
  if (threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0\n");
    return 2;
  }
  if (threads > 0) SetNumThreads(static_cast<size_t>(threads));

  const int replicas = args.GetInt("replicas", 0);
  if (replicas < 0) {
    std::fprintf(stderr, "--replicas must be >= 0 (0 = one per thread)\n");
    return 2;
  }

  serving::ServingOptions options;
  options.num_replicas = static_cast<size_t>(replicas);
  options.candidates = GenConfigFromArgs(args);
  const auto snapshot = serving::ModelSnapshot::Capture(*model);
  model.reset();  // the snapshot owns its own copy of the parameters

  serving::ServingEngine engine(network, snapshot, options);

  std::unique_ptr<ModelWatcher> watcher;
  if (args.GetInt("watch-model", 0) != 0) {
    watcher = std::make_unique<ModelWatcher>(
        args.Require("model"), network,
        [&](std::shared_ptr<const serving::ModelSnapshot> next) {
          engine.SwapSnapshot(std::move(next));
        },
        std::max(1, args.GetInt("watch-interval-ms", 200)));
  }

  // --http: network front end instead of the self-drive (no query set
  // needed; traffic arrives over the wire). Self-drive-only flags are an
  // error here, not a silent no-op — same rule RejectUnknown enforces.
  if (args.Has("http")) {
    for (const char* flag : {"queries", "num-queries", "repeat", "seed"}) {
      if (args.Has(flag)) {
        std::fprintf(stderr,
                     "--%s drives the self-serve benchmark and has no "
                     "effect with --http\n",
                     flag);
        return 2;
      }
    }
    return RunHttpFrontEnd(args, network, &engine, watcher.get());
  }
  // Symmetric rule: HTTP-only flags without --http are an error too —
  // the self-drive has no admission control, and no /v1/route planner
  // whose cache --route-cache would size.
  for (const char* flag :
       {"http-addr", "http-threads", "max-inflight", "max-queue-wait-us",
        "route-cache", "spur-engine", "landmarks", "idle-timeout-s",
        "request-deadline-s", "default-deadline-ms", "max-deadline-ms",
        "fault-spec", "fault-seed", "watch-graph"}) {
    if (args.Has(flag)) {
      std::fprintf(stderr, "--%s configures the HTTP front end; add --http "
                           "PORT or drop it\n",
                   flag);
      return 2;
    }
  }

  std::vector<serving::RankQuery> queries;
  if (args.Has("queries")) {
    queries = LoadQueriesCsv(args.Get("queries", ""), network);
  } else {
    queries = SampleQueries(network, args.GetInt("num-queries", 64),
                            static_cast<uint64_t>(args.GetInt("seed", 1)));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no queries to serve\n");
    return 1;
  }
  const int repeat = std::max(1, args.GetInt("repeat", 1));
  const size_t total = queries.size() * static_cast<size_t>(repeat);

  // Warm-up (pool spin-up, scratch allocation, cache warming).
  for (size_t q = 0; q < std::min<size_t>(queries.size(), 4); ++q) {
    engine.Rank(queries[q].source, queries[q].destination);
  }

  // Per-query latencies land in disjoint slots; workers never share state.
  std::vector<double> latency(total);
  std::vector<size_t> candidate_counts(total, 0);
  Stopwatch wall;
  ParallelForShards(0, total, [&](size_t /*shard*/, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const auto& query = queries[i % queries.size()];
      Stopwatch per_query;
      const auto ranked = engine.Rank(query.source, query.destination);
      latency[i] = per_query.ElapsedSeconds();
      candidate_counts[i] = ranked.size();
    }
  });
  const double wall_s = wall.ElapsedSeconds();
  std::printf("served %zu queries (%zu unique x %d) on %zu threads, "
              "%zu replicas\n",
              total, queries.size(), repeat, GetNumThreads(),
              engine.num_replicas());

  size_t candidates_served = 0;
  for (size_t c : candidate_counts) candidates_served += c;
  ReportServeStats(latency, wall_s, candidates_served);
  if (watcher) {
    std::printf("watch-model: %llu hot swap(s) during the run\n",
                static_cast<unsigned long long>(watcher->swaps()));
  }
  return 0;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: pathrank_cli <command> [--flag value ...]\n"
      "commands:\n"
      "  network   --out PREFIX [--rows N --cols N --seed S]\n"
      "  simulate  --network PREFIX --out TRIPS.csv [--trips N --drivers N]\n"
      "  train     --network PREFIX --trips TRIPS.csv --out MODEL.bin\n"
      "            [--strategy tkdi|dtkdi|penalty --k K --m M --hidden H\n"
      "             --epochs E --lr LR --finetune 0|1 --multitask 0|1]\n"
      "  evaluate  --network PREFIX --trips TRIPS.csv --model MODEL.bin\n"
      "  rank      --network PREFIX --model MODEL.bin --from V --to V\n"
      "            [--strategy tkdi|dtkdi|penalty --k K --threshold T]\n"
      "  serve     (--network PREFIX | --graph EDGES.csv) --model MODEL.bin\n"
      "            [--queries Q.csv | --num-queries N --seed S]\n"
      "            [--threads T --replicas R --repeat K --strategy ... "
      "--k K --threshold T]\n"
      "            [--watch-model 0|1 --watch-interval-ms M]\n"
      "            [--http PORT --http-addr A --max-inflight N\n"
      "             --max-queue-wait-us U --http-threads T (0 = auto)\n"
      "             --route-cache N (LRU candidate sets for /v1/route)\n"
      "             --spur-engine dijkstra|alt (Yen spur searches)\n"
      "             --landmarks N (ALT landmark count, default 8)\n"
      "             --watch-graph 0|1 (hot-swap re-exported graphs)\n"
      "             --idle-timeout-s S --request-deadline-s S\n"
      "             --default-deadline-ms MS --max-deadline-ms MS "
      "(0 = unbounded)\n"
      "             --fault-spec \"site:delay_ms=N:p=F;site:error\" "
      "--fault-seed S]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv, 2);

  // Per-subcommand flag allow-lists: a typo'd or misplaced flag is an
  // error, not a silently ignored no-op.
  static const std::map<std::string, std::set<std::string>> kKnownFlags = {
      {"network", {"rows", "cols", "seed", "out"}},
      {"simulate",
       {"network", "trips", "drivers", "min-distance", "max-vertices", "seed",
        "out"}},
      {"train",
       {"network", "trips", "strategy", "k", "threshold", "seed", "m",
        "hidden", "finetune", "multitask", "epochs", "lr", "out"}},
      {"evaluate",
       {"network", "trips", "strategy", "k", "threshold", "model"}},
      {"rank",
       {"network", "model", "from", "to", "strategy", "k", "threshold"}},
      {"serve",
       {"network", "graph", "model", "queries", "num-queries", "seed",
        "threads", "replicas", "repeat", "strategy", "k", "threshold",
        "watch-model", "watch-graph", "watch-interval-ms",
        "http", "http-addr", "http-threads", "max-inflight",
        "max-queue-wait-us", "route-cache", "spur-engine", "landmarks",
        "idle-timeout-s", "request-deadline-s", "default-deadline-ms",
        "max-deadline-ms", "fault-spec", "fault-seed"}},
  };
  const auto known = kKnownFlags.find(command);
  if (known != kKnownFlags.end()) {
    args.RejectUnknown(command, known->second);
  }

  try {
    if (command == "network") return CmdNetwork(args);
    if (command == "simulate") return CmdSimulate(args);
    if (command == "train") return CmdTrain(args);
    if (command == "evaluate") return CmdEvaluate(args);
    if (command == "rank") return CmdRank(args);
    if (command == "serve") return CmdServe(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  PrintUsage();
  return 2;
}
