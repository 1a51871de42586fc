// The route workloads: route_hot, route_cold and route_live.
//
// Each run hosts the real serving stack in-process — HttpServer in front
// of a RoutePlanner over a GraphStore, scoring through
// ServingEngine::ScoreBatch, wired as `pathrank_cli serve --http
// --spur-engine alt` wires it — and drives it over loopback sockets with
// the open-loop generator in loadgen.h. An untraced run measures a fixed
// load point. A traced run measures the load point in alternating untraced
// and traced parts, turns the spans into the per-layer metrics, and then
// finds the knee with a fixed geometric rate ramp.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/model.h"
#include "loadgen.h"
#include "routing/cost_model.h"
#include "routing/dijkstra.h"
#include "serving/graph_store.h"
#include "serving/http_server.h"
#include "serving/json.h"
#include "serving/model_snapshot.h"
#include "serving/route_planner.h"
#include "serving/serving_engine.h"
#include "trace.h"

namespace perfbench {
namespace {

using pathrank::Rng;
using pathrank::graph::VertexId;
using OdPair = std::pair<VertexId, VertexId>;
namespace json = pathrank::serving::json;
namespace serving = pathrank::serving;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One route workload's fixed settings.
struct RouteWorkload {
  const char* name;
  /// The load point: offered rate, about half of the lowest knee measured
  /// when the benchmark was added (see README.md).
  double load_rps;
  /// Seconds between /v1/traffic batches; 0 = no traffic.
  double traffic_interval_s;
};

constexpr RouteWorkload kRouteWorkloads[] = {
    {"route_hot", 350, 0},
    {"route_cold", 120, 0},
    {"route_live", 120, 1.0},
};

constexpr size_t kServerWorkers = 4;
constexpr int kConnections = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Route p99 a ramp step must meet to pass.
constexpr double kLatencyLimitS = 0.2;
/// Generator lag p99 above which a load point is not a valid measurement.
constexpr double kLagBoundS = 0.05;
/// The rate ramp: steps from the load point up by kRampRatio each, each
/// lasting kRampStepFraction of --seconds.
constexpr double kRampRatio = 1.15;
constexpr int kRampMaxSteps = 10;
constexpr double kRampStepFraction = 0.05;
/// route_hot / route_live: Zipf(kZipfS) draws from a pool of trip endpoints
/// smaller than the planner cache. The pool and its popularity order are
/// the city's popular OD pairs, part of the deployment like the city, so
/// they come from a fixed seed; the workload seed picks which pairs are
/// asked for when. Enumeration cost is heavy-tailed in the hop count, and
/// with a seeded pool the cost per request measured which pairs the seed
/// ranked first more than it measured the code.
constexpr size_t kHotPool = 256;
constexpr uint64_t kHotPoolSeed = 42;
constexpr double kZipfS = 1.0;
constexpr size_t kCacheCapacity = 1024;
/// route_cold: unique pairs sent during set-up and never measured.
constexpr int kColdWarmupPairs = 96;
/// Load-point responses compared bit for bit with the Dijkstra reference.
constexpr size_t kBitwiseSamples = 48;
/// route_live: edges per traffic batch.
constexpr int kTrafficEdges = 64;

// ---------------------------------------------------------------------------
// The serving stack.

class Stack {
 public:
  explicit Stack(double* boot_preprocess_s) {
    network_ = BuildCity();
    pathrank::core::PathRankConfig model_config;
    model_config.embedding_dim = 64;
    model_config.hidden_size = 64;
    model_config.seed = 7;
    {
      // Latency does not depend on the weights, so a random-init model
      // measures the same serving path as a trained one.
      const pathrank::core::PathRankModel model(
          network_.num_vertices(), model_config,
          pathrank::core::InitMode::kRandomInit);
      snapshot_ = serving::ModelSnapshot::Capture(model);
    }
    serving::ServingOptions engine_options;
    engine_options.candidates = ServerCandidates();
    engine_ = std::make_unique<serving::ServingEngine>(network_, snapshot_,
                                                       engine_options);
    store_ = std::make_unique<serving::GraphStore>(network_);
    const int64_t preprocess_start = NowNs();
    store_->EnablePreprocessing(serving::PreprocessOptions{});
    *boot_preprocess_s = static_cast<double>(NowNs() - preprocess_start) * 1e-9;

    serving::ServingEngine* engine = engine_.get();
    serving::RoutePlanner::ScoreFn score =
        [engine](std::vector<pathrank::routing::Path> paths) {
          Tracer& tracer = GlobalTracer();
          if (!tracer.enabled()) return engine->ScoreBatch(paths);
          uint32_t vertices = 0;
          for (const auto& path : paths) {
            vertices += static_cast<uint32_t>(path.vertices.size());
          }
          const int32_t span = tracer.Begin(SpanName::kScore);
          auto ranked = engine->ScoreBatch(paths);
          tracer.End(span, 0, 0, vertices);
          return ranked;
        };

    serving::RoutePlannerConfig planner_config;
    planner_config.store = store_.get();
    planner_config.candidates = ServerCandidates();
    planner_config.cache_capacity = kCacheCapacity;
    planner_config.spur_engine = serving::SpurEngine::kAlt;
    planner_ = std::make_unique<serving::RoutePlanner>(planner_config, score);

    serving::HttpBackend backend;
    backend.num_vertices = network_.num_vertices();
    backend.rank = [engine](VertexId s, VertexId d) {
      return engine->Rank(s, d);
    };
    backend.score = score;
    const serving::RoutePlanner* planner = planner_.get();
    serving::GraphStore* store = store_.get();
    backend.route = [planner](const serving::RouteRequest& request) {
      Tracer& tracer = GlobalTracer();
      if (!tracer.enabled()) return planner->Plan(request);
      const int32_t span = tracer.Begin(SpanName::kRoute);
      serving::RouteResult result = planner->Plan(request);
      tracer.End(span, request.source, request.destination,
                 static_cast<uint32_t>(result.ranked.size()),
                 result.cache_hit);
      return result;
    };
    backend.traffic =
        [store](const std::vector<pathrank::graph::TrafficUpdate>& updates) {
          Tracer& tracer = GlobalTracer();
          if (!tracer.enabled()) return store->ApplyTraffic(updates);
          const int32_t span = tracer.Begin(SpanName::kTraffic);
          serving::TrafficResult result = store->ApplyTraffic(updates);
          tracer.End(span, 0, 0, static_cast<uint32_t>(updates.size()));
          return result;
        };
    backend.graph_epoch = [store] { return store->epoch(); };
    backend.route_planner_stats = [planner] { return planner->stats(); };
    backend.preprocessing_stats = [store] {
      return store->preprocessing_stats();
    };
    backend.swap_count = [engine] { return engine->swap_count(); };

    serving::HttpServerOptions server_options;
    server_options.bind_address = "127.0.0.1";
    server_options.port = 0;
    server_options.num_threads = kServerWorkers;
    server_ = std::make_unique<serving::HttpServer>(std::move(backend),
                                                    server_options);
    server_->Start();
  }

  ~Stack() { server_->Stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  uint16_t port() const { return server_->port(); }
  const pathrank::graph::RoadNetwork& network() const { return network_; }
  const std::shared_ptr<const serving::ModelSnapshot>& snapshot() const {
    return snapshot_;
  }
  serving::RoutePlannerStats planner_stats() const {
    return planner_->stats();
  }
  serving::PreprocessingStats preprocessing_stats() const {
    return store_->preprocessing_stats();
  }
  serving::HttpServerStats server_stats() const { return server_->stats(); }

 private:
  pathrank::graph::RoadNetwork network_;
  std::shared_ptr<const serving::ModelSnapshot> snapshot_;
  std::unique_ptr<serving::ServingEngine> engine_;
  std::unique_ptr<serving::GraphStore> store_;
  std::unique_ptr<serving::RoutePlanner> planner_;
  std::unique_ptr<serving::HttpServer> server_;
};

// ---------------------------------------------------------------------------
// Inputs: OD pairs, arrival schedules and traffic batches, all from the seed.

std::string RouteBody(const OdPair& od) {
  return "{\"source\": " + std::to_string(od.first) +
         ", \"destination\": " + std::to_string(od.second) + "}";
}

/// Where the OD pairs of a route stream come from.
class PairSource {
 public:
  /// Zipf-skewed draws from a pool, in pool order of popularity
  /// (route_hot, route_live).
  PairSource(std::vector<OdPair> pool, double zipf_s, uint64_t seed)
      : pool_(std::move(pool)), rng_(seed) {
    double total = 0;
    for (size_t rank = 0; rank < pool_.size(); ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), zipf_s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  /// Each pair once, in order (route_cold).
  explicit PairSource(std::vector<OdPair> unique)
      : pool_(std::move(unique)), rng_(0), unique_(true) {}

  OdPair Next() {
    if (unique_) {
      if (next_ >= pool_.size()) {
        throw std::runtime_error("route_cold ran out of unique OD pairs");
      }
      return pool_[next_++];
    }
    const double u = rng_.NextDouble();
    const size_t index = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return pool_[std::min(index, pool_.size() - 1)];
  }

 private:
  std::vector<OdPair> pool_;
  std::vector<double> cdf_;
  Rng rng_;
  bool unique_ = false;
  size_t next_ = 0;
};

/// Live-traffic batches: `per_batch` edges of a rotating window over
/// a seeded permutation of the edge ids. Each update alternates the
/// edge's travel time between base x 1.25 and base (x 0.8 of the raised
/// value). The state after m applied batches depends on m alone.
class TrafficSource {
 public:
  TrafficSource(const pathrank::graph::RoadNetwork& network, int per_batch,
                uint64_t seed)
      : per_batch_(static_cast<size_t>(per_batch)) {
    order_.resize(network.num_edges());
    for (size_t e = 0; e < order_.size(); ++e) {
      order_[e] = static_cast<uint32_t>(e);
      base_.push_back(network.edge(static_cast<uint32_t>(e)).travel_time_s);
    }
    Rng rng(seed);
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.NextBounded(i)]);
    }
    hits_.assign(order_.size(), 0);
  }

  /// The body of batch number `batch`, given that batches 0..batch-1
  /// were applied (updates `hits` in place).
  std::string Body(uint64_t batch, std::vector<uint32_t>* hits) const {
    std::string body = "{\"updates\": [";
    for (size_t i = 0; i < per_batch_; ++i) {
      const size_t pos = (batch * per_batch_ + i) % order_.size();
      const uint32_t edge = order_[pos];
      const uint32_t hit = (*hits)[pos]++;
      const double time = base_[edge] * (hit % 2 == 0 ? 1.25 : 1.0);
      char number[32];
      const auto end = std::to_chars(number, number + sizeof(number), time);
      if (i > 0) body += ", ";
      body += "{\"edge\": " + std::to_string(edge) +
              ", \"travel_time_s\": " + std::string(number, end.ptr) + "}";
    }
    body += "]}";
    return body;
  }

  /// Records that `count` more batches were applied by the server.
  void Commit(size_t count) {
    for (size_t k = 0; k < count; ++k) Body(applied_++, &hits_);
  }
  uint64_t applied() const { return applied_; }
  std::vector<uint32_t> hits() const { return hits_; }

 private:
  size_t per_batch_;
  std::vector<uint32_t> order_;
  std::vector<double> base_;
  std::vector<uint32_t> hits_;
  uint64_t applied_ = 0;
};

/// Poisson arrivals at `rate` over [0, duration) seconds, plus (when
/// traffic is set) one traffic batch every `traffic_interval_s`, pinned to
/// connection 0. Times are offsets; Shift() anchors them.
std::vector<ScheduledRequest> BuildSchedule(double rate, double duration,
                                            Rng* arrivals, PairSource* pairs,
                                            const TrafficSource* traffic,
                                            double traffic_interval_s) {
  std::vector<ScheduledRequest> schedule;
  double t = -std::log(1.0 - arrivals->NextDouble()) / rate;
  while (t < duration) {
    ScheduledRequest request;
    request.intended_ns = static_cast<int64_t>(t * 1e9);
    const OdPair od = pairs->Next();
    request.source = od.first;
    request.destination = od.second;
    request.wire = HttpPost("/v1/route", RouteBody(od));
    schedule.push_back(std::move(request));
    t += -std::log(1.0 - arrivals->NextDouble()) / rate;
  }
  if (traffic != nullptr) {
    std::vector<uint32_t> hits = traffic->hits();
    uint64_t batch = traffic->applied();
    for (double tt = traffic_interval_s / 2; tt < duration;
         tt += traffic_interval_s) {
      ScheduledRequest request;
      request.kind = RequestKind::kTraffic;
      request.intended_ns = static_cast<int64_t>(tt * 1e9);
      request.pinned_conn = 0;
      request.wire = HttpPost("/v1/traffic", traffic->Body(batch++, &hits));
      schedule.push_back(std::move(request));
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const ScheduledRequest& a, const ScheduledRequest& b) {
                       return a.intended_ns < b.intended_ns;
                     });
  }
  return schedule;
}

void Shift(std::vector<ScheduledRequest>* schedule, int64_t base) {
  for (auto& request : *schedule) request.intended_ns += base;
}

// ---------------------------------------------------------------------------
// Checking and summarising one phase.

/// Reference answers from an in-process RoutePlanner over a pinned copy of
/// the network with the Dijkstra engine: what every /v1/route response of
/// a static-graph workload must equal, bit for bit.
class Reference {
 public:
  explicit Reference(const Stack& stack)
      : network_(stack.network()),
        engine_(network_, stack.snapshot(), serving::ServingOptions{}) {
    serving::RoutePlannerConfig config;
    config.network = &network_;
    config.candidates = ServerCandidates();
    config.spur_engine = serving::SpurEngine::kDijkstra;
    planner_ = std::make_unique<serving::RoutePlanner>(
        config, [this](std::vector<pathrank::routing::Path> paths) {
          return engine_.ScoreBatch(paths);
        });
  }

  /// Empty when `route_json` equals the reference answer for `od`.
  std::string Compare(const OdPair& od, const json::Value& response) const {
    const serving::RouteResult expected =
        planner_->Plan(serving::RouteRequest(od.first, od.second));
    const json::Array& routes = response.Find("routes")->array();
    if (routes.size() != expected.ranked.size()) {
      return "route count " + std::to_string(routes.size()) + " != " +
             std::to_string(expected.ranked.size());
    }
    for (size_t i = 0; i < routes.size(); ++i) {
      const auto& want = expected.ranked[i];
      const double score = routes[i].Find("score")->number_value();
      if (std::bit_cast<uint64_t>(score) !=
          std::bit_cast<uint64_t>(want.score)) {
        return "route " + std::to_string(i) + " score differs";
      }
      const json::Array& vertices = routes[i].Find("vertices")->array();
      if (vertices.size() != want.path.vertices.size()) {
        return "route " + std::to_string(i) + " vertex count differs";
      }
      for (size_t v = 0; v < vertices.size(); ++v) {
        if (static_cast<VertexId>(vertices[v].number_value()) !=
            want.path.vertices[v]) {
          return "route " + std::to_string(i) + " vertices differ";
        }
      }
    }
    return "";
  }

 private:
  pathrank::graph::RoadNetwork network_;
  serving::ServingEngine engine_;
  std::unique_ptr<serving::RoutePlanner> planner_;
};

/// Checks one /v1/route body: well formed, at least one route, and every
/// route a connected source -> destination path. Returns "" when valid;
/// fills *epoch with the reported graph_epoch.
std::string CheckRouteBody(const pathrank::graph::RoadNetwork& network,
                           const ScheduledRequest& request,
                           const json::Value& body, uint64_t* epoch) {
  const json::Value* routes = body.Find("routes");
  const json::Value* graph_epoch = body.Find("graph_epoch");
  if (routes == nullptr || !routes->is_array() || graph_epoch == nullptr ||
      body.Find("cache_hit") == nullptr) {
    return "response lacks routes, graph_epoch or cache_hit";
  }
  *epoch = static_cast<uint64_t>(graph_epoch->number_value());
  if (routes->array().empty()) return "no routes";
  for (const json::Value& route : routes->array()) {
    const json::Array& vertices = route.Find("vertices")->array();
    const json::Array& edges = route.Find("edges")->array();
    if (vertices.size() < 2 || edges.size() + 1 != vertices.size()) {
      return "route has inconsistent vertex and edge lists";
    }
    if (static_cast<VertexId>(vertices.front().number_value()) !=
            request.source ||
        static_cast<VertexId>(vertices.back().number_value()) !=
            request.destination) {
      return "route does not join the requested endpoints";
    }
    for (size_t i = 0; i < edges.size(); ++i) {
      const double id = edges[i].number_value();
      if (id < 0 || id >= static_cast<double>(network.num_edges())) {
        return "route names an unknown edge";
      }
      const auto& edge = network.edge(static_cast<uint32_t>(id));
      if (edge.from != static_cast<VertexId>(vertices[i].number_value()) ||
          edge.to != static_cast<VertexId>(vertices[i + 1].number_value())) {
        return "route is not a connected path";
      }
    }
  }
  return "";
}

/// What one phase measured.
struct PhaseSummary {
  std::vector<double> route_latency;  ///< from intended send; +inf = missed
  std::vector<double> route_offset_s;  ///< intended send, from phase start
  std::vector<double> traffic_latency;
  std::vector<double> lag;            ///< generator lateness per request
  size_t routes_sent = 0;
  size_t routes_completed = 0;
  size_t traffic_sent = 0;
  size_t traffic_acked = 0;
  size_t failed = 0;
  size_t unsent = 0;
  double backlog_growth = 0;  ///< see BacklogGrowth; > 1 = grew
  bool backlog_grew() const { return backlog_growth > 1; }
  double seconds = 0;
  std::vector<std::string> problems;
};

/// How much the generator backlog grew over a phase: the mean backlog of
/// the last quarter of the samples over (twice the first quarter's + 8).
/// Above 1 the backlog is growing — the offered rate is beyond what the
/// server completes.
double BacklogGrowth(const std::vector<uint32_t>& samples) {
  if (samples.size() < 8) return 0;
  const size_t quarter = samples.size() / 4;
  double first = 0;
  double last = 0;
  for (size_t i = 0; i < quarter; ++i) {
    first += samples[i];
    last += samples[samples.size() - 1 - i];
  }
  first /= static_cast<double>(quarter);
  last /= static_cast<double>(quarter);
  return last / (2 * first + 8);
}

/// Adds one phase's tallies to `into` (the traced run alternates phases).
void Append(PhaseSummary* into, const PhaseSummary& part) {
  auto add = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  add(&into->route_latency, part.route_latency);
  add(&into->traffic_latency, part.traffic_latency);
  add(&into->lag, part.lag);
  for (double offset : part.route_offset_s) {
    into->route_offset_s.push_back(into->seconds + offset);
  }
  into->routes_sent += part.routes_sent;
  into->routes_completed += part.routes_completed;
  into->traffic_sent += part.traffic_sent;
  into->traffic_acked += part.traffic_acked;
  into->failed += part.failed;
  into->unsent += part.unsent;
  into->backlog_growth = std::max(into->backlog_growth, part.backlog_growth);
  into->seconds += part.seconds;
}

/// Checks each response on the generator thread as it arrives, so a phase
/// keeps one verdict per request instead of every body (the benchmark's
/// own memory then stays out of peak_rss_mb). Bodies are kept only for
/// the requests in `keep`.
class ResponseChecker {
 public:
  ResponseChecker(const pathrank::graph::RoadNetwork& network,
                  const std::vector<ScheduledRequest>& schedule,
                  uint64_t epoch_before_phase, std::set<size_t> keep)
      : network_(network),
        schedule_(schedule),
        epoch_before_phase_(epoch_before_phase),
        keep_(std::move(keep)),
        verdicts_(schedule.size()) {}

  void operator()(size_t index, RequestOutcome* out) {
    const ScheduledRequest& request = schedule_[index];
    std::string& verdict = verdicts_[index];
    const auto body = out->status == 200 ? json::Parse(out->body)
                                         : std::optional<json::Value>();
    if (request.kind == RequestKind::kTraffic) {
      const json::Value* epoch = body ? body->Find("epoch") : nullptr;
      // One entry per acknowledgement the generator counted, so
      // acks_before_send indexes it.
      if (out->status != 0) {
        ack_epochs_.push_back(
            epoch != nullptr ? static_cast<uint64_t>(epoch->number_value())
                             : last_epoch());
      }
      if (out->status != 200) {
        verdict = "traffic batch answered " + std::to_string(out->status) +
                  ": " + out->body.substr(0, 200);
      } else if (epoch == nullptr) {
        verdict = "traffic ack without an epoch";
      }
    } else if (out->status != 200) {
      verdict = "route answered " + std::to_string(out->status);
    } else if (!body) {
      verdict = "route body is not JSON";
    } else {
      uint64_t epoch = 0;
      verdict = CheckRouteBody(network_, request, *body, &epoch);
      // A route sent after a traffic ack must see that ack's epoch.
      const uint32_t acks = out->acks_before_send;
      const uint64_t floor = acks > 0 && acks <= ack_epochs_.size()
                                 ? ack_epochs_[acks - 1]
                                 : epoch_before_phase_;
      if (verdict.empty() && epoch < floor) {
        verdict = "route reports graph_epoch " + std::to_string(epoch) +
                  " after an ack of epoch " + std::to_string(floor);
      }
      if (!verdict.empty()) {
        verdict += " (" + std::to_string(request.source) + " -> " +
                   std::to_string(request.destination) + ")";
      }
    }
    if (keep_.count(index) == 0) std::string().swap(out->body);
  }

  const std::string& verdict(size_t index) const { return verdicts_[index]; }
  uint64_t last_epoch() const {
    return ack_epochs_.empty() ? epoch_before_phase_ : ack_epochs_.back();
  }

 private:
  const pathrank::graph::RoadNetwork& network_;
  const std::vector<ScheduledRequest>& schedule_;
  uint64_t epoch_before_phase_;
  std::set<size_t> keep_;
  std::vector<std::string> verdicts_;
  std::vector<uint64_t> ack_epochs_;
};

/// Tallies a checked phase.
PhaseSummary Summarize(const std::vector<ScheduledRequest>& schedule,
                       const PhaseResult& phase,
                       const ResponseChecker& checker, double phase_seconds) {
  PhaseSummary summary;
  summary.seconds = phase_seconds;
  summary.backlog_growth = BacklogGrowth(phase.backlog_samples);
  for (size_t i = 0; i < schedule.size(); ++i) {
    const RequestOutcome& out = phase.outcomes[i];
    const bool route = schedule[i].kind == RequestKind::kRoute;
    const double offset_s =
        static_cast<double>(schedule[i].intended_ns - phase.start_ns) * 1e-9;
    if (out.queued_ns != 0) {
      summary.lag.push_back(
          static_cast<double>(out.queued_ns - schedule[i].intended_ns) * 1e-9);
    }
    if (out.sent_ns == 0) {
      if (route) {
        ++summary.unsent;
        summary.route_latency.push_back(kInf);
        summary.route_offset_s.push_back(offset_s);
      }
      continue;
    }
    ++(route ? summary.routes_sent : summary.traffic_sent);
    const std::string& verdict = checker.verdict(i);
    if (!verdict.empty()) {
      ++summary.failed;
      if (route) {
        summary.route_latency.push_back(kInf);
        summary.route_offset_s.push_back(offset_s);
      }
      if (summary.problems.size() < 5) summary.problems.push_back(verdict);
      continue;
    }
    const double latency =
        static_cast<double>(out.done_ns - schedule[i].intended_ns) * 1e-9;
    if (route) {
      ++summary.routes_completed;
      summary.route_latency.push_back(latency);
      summary.route_offset_s.push_back(offset_s);
    } else {
      ++summary.traffic_acked;
      summary.traffic_latency.push_back(latency);
    }
  }
  return summary;
}

// ---------------------------------------------------------------------------
// Traced-run analysis.

struct RequestTrace {
  double client_s = 0;  ///< sent -> response, as the client saw it
  double route_s = 0;   ///< HttpBackend::route span
  double score_s = 0;   ///< ScoreFn spans inside it
  uint32_t vertices = 0;
  bool cache_hit = false;
  OdPair od;
};

/// Matches the server's spans to the client requests they served. Each
/// keep-alive connection is served in order by one worker thread, so the
/// sequence of top-level spans on a worker equals the request sequence of
/// one connection; the match assigns every span its request id.
std::vector<RequestTrace> MatchSpans(
    const std::vector<ScheduledRequest>& schedule, const PhaseResult& phase,
    const std::vector<size_t>& first_span, uint64_t request_base,
    std::vector<double>* traffic_apply_s, std::string* problem) {
  struct Top {
    SpanName name;
    int32_t index;
  };
  std::vector<ThreadLog*> logs = GlobalTracer().Logs();
  std::vector<std::vector<Top>> per_thread(logs.size());
  for (size_t t = 0; t < logs.size(); ++t) {
    std::lock_guard<std::mutex> lock(logs[t]->mu);
    const size_t first = t < first_span.size() ? first_span[t] : 0;
    for (size_t i = first; i < logs[t]->spans.size(); ++i) {
      const Span& span = logs[t]->spans[i];
      if (span.parent < 0 &&
          (span.name == SpanName::kRoute || span.name == SpanName::kTraffic)) {
        per_thread[t].push_back({span.name, static_cast<int32_t>(i)});
      }
    }
  }
  std::vector<std::vector<size_t>> per_conn;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const RequestOutcome& out = phase.outcomes[i];
    if (out.conn < 0 || out.status != 200) continue;
    const auto conn = static_cast<size_t>(out.conn);
    if (per_conn.size() <= conn) per_conn.resize(conn + 1);
    per_conn[conn].push_back(i);
  }
  for (auto& requests : per_conn) {
    std::sort(requests.begin(), requests.end(), [&](size_t a, size_t b) {
      return phase.outcomes[a].sent_ns < phase.outcomes[b].sent_ns;
    });
  }

  std::vector<RequestTrace> traces;
  std::vector<bool> used(logs.size(), false);
  for (const auto& requests : per_conn) {
    if (requests.empty()) continue;
    size_t match = logs.size();
    for (size_t t = 0; t < logs.size() && match == logs.size(); ++t) {
      if (used[t] || per_thread[t].size() != requests.size()) continue;
      bool same = true;
      for (size_t k = 0; k < requests.size() && same; ++k) {
        const ScheduledRequest& request = schedule[requests[k]];
        const Top& top = per_thread[t][k];
        const Span& span = logs[t]->spans[static_cast<size_t>(top.index)];
        const bool route = request.kind == RequestKind::kRoute;
        same = route ? (top.name == SpanName::kRoute &&
                        span.source == request.source &&
                        span.destination == request.destination)
                     : top.name == SpanName::kTraffic;
      }
      if (same) match = t;
    }
    if (match == logs.size()) {
      *problem = "trace: no worker thread's spans match a connection";
      return {};
    }
    used[match] = true;
    ThreadLog* log = logs[match];
    for (size_t k = 0; k < requests.size(); ++k) {
      const size_t index = requests[k];
      const RequestOutcome& out = phase.outcomes[index];
      const auto top = static_cast<size_t>(per_thread[match][k].index);
      Span& span = log->spans[top];
      span.request = request_base + index + 1;
      const double span_s = static_cast<double>(span.end_ns - span.start_ns) *
                            1e-9;
      if (span.name == SpanName::kTraffic) {
        traffic_apply_s->push_back(span_s);
        continue;
      }
      RequestTrace trace;
      trace.client_s = static_cast<double>(out.done_ns - out.sent_ns) * 1e-9;
      trace.route_s = span_s;
      trace.cache_hit = span.cache_hit;
      trace.od = {span.source, span.destination};
      for (size_t c = top + 1; c < log->spans.size(); ++c) {
        Span& child = log->spans[c];
        if (child.parent != static_cast<int32_t>(top)) {
          if (child.parent < 0) break;
          continue;
        }
        child.request = request_base + index + 1;
        trace.score_s +=
            static_cast<double>(child.end_ns - child.start_ns) * 1e-9;
        trace.vertices += child.count;
      }
      traces.push_back(trace);
    }
  }
  return traces;
}

/// Shortest-path hop count of an OD pair under the free-flow travel time.
size_t HopCount(pathrank::routing::Dijkstra* dijkstra,
                const pathrank::graph::RoadNetwork& network, const OdPair& od) {
  const auto path = dijkstra->ShortestPath(
      od.first, od.second, pathrank::routing::EdgeCostFn::TravelTime(network));
  return path ? path->edges.size() : 0;
}

std::string Fmt(const char* format, double a, double b = 0, double c = 0,
                double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c, d);
  return buf;
}

enum class CpuRole { kServer, kGenerator };

/// Pins the calling thread for its lifetime: kGenerator to CPU 0, kServer
/// to every other CPU; restores the generator pinning on exit. The
/// generator then never waits for a core behind the server it is timing,
/// as a client on its own machine would not. No-op on one CPU.
class CpuSetScope {
 public:
  explicit CpuSetScope(CpuRole role) { Pin(role); }
  ~CpuSetScope() { Pin(CpuRole::kGenerator); }
  CpuSetScope(const CpuSetScope&) = delete;
  CpuSetScope& operator=(const CpuSetScope&) = delete;

  static void Pin(CpuRole role) {
    const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
    if (cpus < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (role == CpuRole::kGenerator) {
      CPU_SET(0, &set);
    } else {
      for (long c = 1; c < cpus && c < CPU_SETSIZE; ++c) CPU_SET(c, &set);
    }
    ::sched_setaffinity(0, sizeof(set), &set);
  }
};

}  // namespace

Result RunRouteWorkload(const Options& options) {
  const std::string& name = options.workload;
  const RouteWorkload* workload = nullptr;
  for (const RouteWorkload& w : kRouteWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) {
    throw std::runtime_error("unknown route workload " + name);
  }
  const bool cold = name == "route_cold";
  const bool live = workload->traffic_interval_s > 0;
  Result result;
  const int64_t process_start = NowNs();
  CpuSetScope::Pin(CpuRole::kGenerator);

  // --- Inputs, from the seed (not part of set-up: the program only ever
  // receives them). ---
  const pathrank::graph::RoadNetwork city = BuildCity();
  const double load_rps = workload->load_rps;
  const double ramp_step_s = options.seconds * kRampStepFraction;
  const double traffic_interval_s = workload->traffic_interval_s;

  Rng arrivals(options.seed * 0x9E3779B97F4A7C15ULL + 1);
  std::unique_ptr<PairSource> pairs;
  std::vector<OdPair> warmup;
  if (cold) {
    // Enough unique pairs for the load point, the whole ramp and the
    // warm-up, with a margin for Poisson variation.
    double expected = load_rps * options.seconds;
    if (options.trace) {
      for (int i = 0; i < kRampMaxSteps; ++i) {
        expected += load_rps * std::pow(kRampRatio, i) * ramp_step_s;
      }
    }
    const size_t need = static_cast<size_t>(expected * 1.2) + 200 +
                        static_cast<size_t>(kColdWarmupPairs);
    std::vector<OdPair> unique;
    std::set<OdPair> seen;
    for (uint64_t round = 0; unique.size() < need; ++round) {
      if (round > 20) throw std::runtime_error("too few unique OD pairs");
      const auto trips = Trips(city, static_cast<int>(need),
                               options.seed * 31 + round, 0.0);
      for (const auto& trip : trips) {
        const OdPair od{trip.source(), trip.destination()};
        if (seen.insert(od).second) unique.push_back(od);
      }
    }
    warmup.assign(unique.end() - kColdWarmupPairs, unique.end());
    unique.resize(unique.size() - static_cast<size_t>(kColdWarmupPairs));
    pairs = std::make_unique<PairSource>(std::move(unique));
  } else {
    std::vector<OdPair> pool;
    std::set<OdPair> seen;
    for (const auto& trip : Trips(city, 700, kHotPoolSeed, 0.85)) {
      const OdPair od{trip.source(), trip.destination()};
      if (pool.size() < kHotPool && seen.insert(od).second) pool.push_back(od);
    }
    warmup = pool;
    pairs = std::make_unique<PairSource>(std::move(pool), kZipfS,
                                         options.seed * 7919 + 3);
  }
  std::unique_ptr<TrafficSource> traffic;
  if (live) {
    traffic = std::make_unique<TrafficSource>(city, kTrafficEdges,
                                              options.seed * 104729 + 5);
  }
  std::vector<ScheduledRequest> warmup_schedule;
  for (const OdPair& od : warmup) {
    ScheduledRequest request;
    request.source = od.first;
    request.destination = od.second;
    request.wire = HttpPost("/v1/route", RouteBody(od));
    warmup_schedule.push_back(std::move(request));
  }
  const double inputs_s = static_cast<double>(NowNs() - process_start) * 1e-9;
  // Restart the peak so that peak_rss_mb covers set-up and the load
  // point, the serving stack, and not input generation's scratch memory.
  const double inputs_rss_mb = PeakRssMiB();
  ResetPeakRss();

  // --- Set-up, repeated; the median is setup_s and the last one stays up
  // for the measurement. ---
  const int setup_reps = options.smoke ? 1 : kSetupReps;
  std::vector<double> setup_times;
  std::vector<double> boot_preprocess_times;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<LoadGenerator> generator;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t last_ack_epoch = 0;
  for (int rep = 0; rep < setup_reps; ++rep) {
    generator.reset();
    stack.reset();
    const int64_t start = NowNs();
    double boot_preprocess_s = 0;
    {
      // Threads inherit their creator's CPU set: the server's threads get
      // every CPU but the generator's.
      const CpuSetScope server_cpus(CpuRole::kServer);
      stack = std::make_unique<Stack>(&boot_preprocess_s);
    }
    generator = std::make_unique<LoadGenerator>(stack->port(), kConnections);
    std::vector<ScheduledRequest> schedule = warmup_schedule;
    const int64_t now = NowNs();
    Shift(&schedule, now);
    ResponseChecker checker(city, schedule, 0, {});
    const PhaseResult phase =
        generator->Run(schedule, now + 1, 60'000'000'000, std::ref(checker));
    setup_times.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    boot_preprocess_times.push_back(boot_preprocess_s);
    const PhaseSummary summary = Summarize(schedule, phase, checker, 0);
    attempted += summary.routes_sent;
    failed += summary.failed + summary.unsent;
    for (const auto& problem : summary.problems) result.Fail(problem);
  }
  const double setup_s = Percentile(setup_times, 0.5);

  // --- Measurement. ---
  // Runs one phase; keeps the bodies of `keep` seeded-random route
  // requests for the bitwise check.
  auto run_phase = [&](double rate, double seconds,
                       const std::function<void()>& on_tick,
                       std::vector<ScheduledRequest>* schedule_out,
                       PhaseResult* phase_out, size_t keep = 0) {
    std::vector<ScheduledRequest> schedule =
        BuildSchedule(rate, seconds, &arrivals, pairs.get(), traffic.get(),
                      traffic_interval_s);
    std::set<size_t> kept;
    Rng pick(options.seed ^ 0x5DEECE66DULL);
    for (size_t k = 0; k < keep && !schedule.empty(); ++k) {
      const size_t i = pick.NextBounded(schedule.size());
      if (schedule[i].kind == RequestKind::kRoute) kept.insert(i);
    }
    const int64_t base = NowNs() + 2'000'000;
    Shift(&schedule, base);
    const auto close = base + static_cast<int64_t>(seconds * 1e9);
    ResponseChecker checker(city, schedule, last_ack_epoch, std::move(kept));
    PhaseResult phase = generator->Run(schedule, close, 1'000'000'000,
                                       std::ref(checker), on_tick);
    last_ack_epoch = checker.last_epoch();
    PhaseSummary summary = Summarize(schedule, phase, checker, seconds);
    if (traffic) traffic->Commit(summary.traffic_acked);
    attempted += summary.routes_sent + summary.traffic_sent;
    failed += summary.failed;
    for (const auto& problem : summary.problems) result.Fail(problem);
    if (schedule_out) *schedule_out = std::move(schedule);
    if (phase_out) *phase_out = std::move(phase);
    return summary;
  };
  // A load point that is not a valid measurement fails the run rather
  // than report a latency.
  auto check_load_point = [&](const PhaseSummary& s, const char* label) {
    if (s.backlog_grew()) {
      result.Fail(std::string(label) + ": generator backlog grew");
    }
    if (s.unsent > 0) {
      result.Fail(std::string(label) + ": " + std::to_string(s.unsent) +
                  " requests were never sent");
    }
    const double lag_p99 = Percentile(s.lag, 0.99);
    if (lag_p99 > kLagBoundS) {
      result.Fail(std::string(label) + Fmt(": generator lag p99 %.4f s "
                                           "exceeds its bound %.4f s",
                                           lag_p99, kLagBoundS));
    }
    const size_t beyond = SamplesBeyond(s.route_latency, 0.99);
    if (beyond < 10 && !options.smoke) {
      result.Fail(std::string(label) + ": only " + std::to_string(beyond) +
                  " samples beyond p99");
    }
  };
  auto report_phase = [&](const char* label, double rate,
                          const PhaseSummary& s) {
    result.report.push_back(
        std::string(label) +
        Fmt(": offered %.1f req/s, achieved %.1f req/s, p50 %.4f s, ", rate,
            static_cast<double>(s.routes_completed) / s.seconds,
            Percentile(s.route_latency, 0.5)) +
        Fmt("p99 %.4f s (%.0f beyond), lag p99 %.5f s",
            Percentile(s.route_latency, 0.99),
            static_cast<double>(SamplesBeyond(s.route_latency, 0.99)),
            Percentile(s.lag, 0.99)) +
        (s.backlog_grew() ? ", backlog grew" : ""));
  };

  result.report.push_back(Fmt("inputs %.3f s, peak RSS %.1f MiB; setup "
                              "median %.3f s over ",
                              inputs_s, inputs_rss_mb, setup_s) +
                          std::to_string(setup_reps) + " repetitions");

  // Rate ramp: steps climb geometrically from the load point until two
  // steps in a row miss. A step passes when its route p99 is within the
  // latency limit, no request failed and the generator backlog did not
  // grow; the knee is the highest passing step (0 when none passes).
  auto measure_knee = [&]() {
    double knee = 0;
    int misses_in_row = 0;
    for (int i = 0; i < kRampMaxSteps && misses_in_row < 2; ++i) {
      const double rate = load_rps * std::pow(kRampRatio, i);
      const PhaseSummary s = run_phase(rate, ramp_step_s, {}, nullptr, nullptr);
      report_phase(("ramp " + Fmt("%.1f", rate)).c_str(), rate, s);
      const bool passed = s.failed == 0 && !s.backlog_grew() &&
                          Percentile(s.route_latency, 0.99) <= kLatencyLimitS;
      if (passed) knee = rate;
      misses_in_row = passed ? 0 : misses_in_row + 1;
    }
    result.report.push_back(Fmt("knee %.1f req/s", knee));
    return knee;
  };

  const CpuTicks ticks_at_start = MachineCpuTicks();
  if (!options.trace) {
    // Server CPU: the whole process minus this thread, which runs the
    // generator and the response checks.
    const double cpu0 = ProcessCpuSeconds();
    const double own0 = ThreadCpuSeconds();
    std::vector<ScheduledRequest> load_schedule;
    PhaseResult load_phase;
    const PhaseSummary load =
        run_phase(load_rps, options.seconds, {}, &load_schedule, &load_phase,
                  live ? 0 : kBitwiseSamples);
    const double server_cpu_s =
        (ProcessCpuSeconds() - cpu0) - (ThreadCpuSeconds() - own0);
    report_phase("load point", load_rps, load);
    check_load_point(load, "load point");
    // Latency is reported, not gated: it follows the host's CPU steal
    // (see README.md), so the traced run carries it as a per-layer metric.
    result.report.push_back(Fmt("route latency: p50 %.5f s, p99 %.5f s",
                                Percentile(load.route_latency, 0.5),
                                Percentile(load.route_latency, 0.99)));
    result.Set("setup_s", setup_s, "s");
    result.Set("peak_rss_mb", PeakRssMiB(), "MiB");
    if (live) {
      result.report.push_back(
          Fmt("traffic acks: p50 %.5f s, p90 %.5f s over %.0f batches",
              Percentile(load.traffic_latency, 0.5),
              Percentile(load.traffic_latency, 0.9),
              static_cast<double>(load.traffic_acked)));
    }
    result.Set("cpu_ms_per_op",
               server_cpu_s * 1e3 / std::max<double>(1, load.routes_sent),
               "ms");

    // Bitwise check of a seeded sample of the load point's responses
    // (static graph only: live responses depend on the epoch).
    if (!live) {
      const std::vector<ScheduledRequest>& schedule = load_schedule;
      const PhaseResult& phase = load_phase;
      const Reference reference(*stack);
      size_t checked = 0;
      for (size_t i = 0; i < schedule.size(); ++i) {
        if (phase.outcomes[i].status != 200 || phase.outcomes[i].body.empty()) {
          continue;
        }
        const auto body = json::Parse(phase.outcomes[i].body);
        const std::string diff =
            body ? reference.Compare({schedule[i].source,
                                      schedule[i].destination},
                                     *body)
                 : "not JSON";
        ++checked;
        if (!diff.empty()) {
          ++failed;
          result.Fail("bitwise check against the Dijkstra reference: " + diff);
        }
      }
      result.report.push_back("bitwise reference check: " +
                              std::to_string(checked) + " responses");
    }
  } else {
    SetPerLayerDefaults(&result);
    // The load point runs as four alternating parts, untraced and traced,
    // so drift in the host's speed does not bias trace.overhead. The
    // untraced parts (3/4 of the time, so their p99 has ten samples beyond
    // it) give the latency, the generator's validity numbers and the CPU
    // cost; the traced parts give the spans.
    uint64_t epochs_behind_max = 0;
    int64_t next_poll = 0;
    const Stack* polled = stack.get();
    auto poll = [&] {
      const int64_t now = NowNs();
      if (now < next_poll) return;
      next_poll = now + 2'000'000;
      epochs_behind_max = std::max(
          epochs_behind_max, polled->preprocessing_stats().epochs_behind);
    };
    PhaseSummary plain;
    PhaseSummary traced;
    double cpu_s = 0;
    serving::RoutePlannerStats delta;
    std::vector<RequestTrace> traces;
    std::vector<double> apply_s;
    std::vector<Span> client_spans;
    uint64_t request_base = 0;
    for (int part = 0; part < 4; ++part) {
      std::vector<ScheduledRequest> schedule;
      PhaseResult phase;
      if (part % 2 == 0) {
        const double cpu0 = ProcessCpuSeconds();
        Append(&plain,
               run_phase(load_rps, options.seconds * 3 / 8, {}, nullptr, nullptr));
        cpu_s += ProcessCpuSeconds() - cpu0;
        continue;
      }
      std::vector<size_t> first_span;
      for (ThreadLog* log : GlobalTracer().Logs()) {
        std::lock_guard<std::mutex> lock(log->mu);
        first_span.push_back(log->spans.size());
      }
      const serving::RoutePlannerStats before = stack->planner_stats();
      GlobalTracer().SetEnabled(true);
      Append(&traced,
             run_phase(load_rps, options.seconds / 8, poll, &schedule, &phase));
      GlobalTracer().SetEnabled(false);
      const serving::RoutePlannerStats after = stack->planner_stats();
      delta.cache_hits += after.cache_hits - before.cache_hits;
      delta.cache_misses += after.cache_misses - before.cache_misses;
      delta.enumerations += after.enumerations - before.enumerations;
      delta.single_flight_waits +=
          after.single_flight_waits - before.single_flight_waits;
      delta.invalidations += after.invalidations - before.invalidations;
      delta.alt_fallbacks += after.alt_fallbacks - before.alt_fallbacks;

      std::string problem;
      for (const RequestTrace& trace : MatchSpans(
               schedule, phase, first_span, request_base, &apply_s, &problem)) {
        traces.push_back(trace);
      }
      if (!problem.empty()) result.Fail(problem);
      // Client spans join the server spans in the written trace.
      for (size_t i = 0; i < schedule.size(); ++i) {
        const RequestOutcome& out = phase.outcomes[i];
        if (out.sent_ns == 0) continue;
        Span span;
        span.name = SpanName::kClient;
        span.thread = 0xFFFFFFFFu;
        span.start_ns = out.sent_ns;
        span.end_ns = out.done_ns;
        span.source = schedule[i].source;
        span.destination = schedule[i].destination;
        span.request = request_base + i + 1;
        client_spans.push_back(span);
      }
      request_base += schedule.size();
    }
    report_phase("untraced load point", load_rps, plain);
    check_load_point(plain, "untraced load point");
    report_phase("traced load point", load_rps, traced);
    if (!options.trace_out.empty() &&
        !GlobalTracer().Write(options.trace_out, client_spans)) {
      result.report.push_back("could not write spans to " + options.trace_out);
    }

    std::vector<double> self_s;
    std::vector<double> lookup_s;
    std::vector<double> enumerate_s;
    std::vector<double> score_s;
    std::vector<OdPair> enumerate_od;
    double score_total = 0;
    double route_total = 0;
    double vertices_total = 0;
    for (const RequestTrace& t : traces) {
      self_s.push_back(t.client_s - t.route_s);
      (t.cache_hit ? lookup_s : enumerate_s).push_back(t.route_s - t.score_s);
      if (!t.cache_hit) enumerate_od.push_back(t.od);
      if (t.score_s > 0) score_s.push_back(t.score_s);
      score_total += t.score_s;
      route_total += t.route_s;
      vertices_total += t.vertices;
    }
    const uint64_t hits = delta.cache_hits;
    const uint64_t misses = delta.cache_misses;
    const uint64_t enumerations = delta.enumerations;
    const serving::HttpServerStats server = stack->server_stats();
    const serving::PreprocessingStats pre = stack->preprocessing_stats();

    result.Set("http_server.self_p50_s", Percentile(self_s, 0.5), "s");
    result.Set("http_server.self_p99_s", Percentile(self_s, 0.99), "s");
    result.Set("http_server.shed", static_cast<double>(server.shed_total),
               "count");
    result.Set("http_server.connections_accepted",
               static_cast<double>(server.connections_accepted), "count");
    result.Set("route_planner.hit_ratio",
               hits + misses > 0 ? static_cast<double>(hits) /
                                       static_cast<double>(hits + misses)
                                 : 0,
               "ratio");
    result.Set("route_planner.lookup_p50_s", Percentile(lookup_s, 0.5), "s");
    result.Set("route_planner.enumerate_p50_s", Percentile(enumerate_s, 0.5),
               "s");
    result.Set("route_planner.enumerate_p99_s", Percentile(enumerate_s, 0.99),
               "s");
    result.Set("route_planner.enumerations", static_cast<double>(enumerations),
               "count");
    result.Set("route_planner.single_flight_waits",
               static_cast<double>(delta.single_flight_waits),
               "count");
    result.Set("route_planner.invalidations",
               static_cast<double>(delta.invalidations),
               "count");
    result.Set("route_planner.alt_fallback_ratio",
               enumerations > 0
                   ? static_cast<double>(delta.alt_fallbacks) /
                         static_cast<double>(enumerations)
                   : 0,
               "ratio");
    result.Set("serving_engine.score_p50_s", Percentile(score_s, 0.5), "s");
    result.Set("serving_engine.score_p99_s", Percentile(score_s, 0.99), "s");
    result.Set("serving_engine.us_per_vertex",
               vertices_total > 0 ? score_total * 1e6 / vertices_total : 0,
               "us");
    result.Set("serving_engine.score_share",
               route_total > 0 ? score_total / route_total : 0, "ratio");
    result.Set("graph_store.applies", static_cast<double>(apply_s.size()),
               "count");
    result.Set("graph_store.apply_p50_s", Percentile(apply_s, 0.5), "s");
    result.Set("graph_store.apply_p90_s", Percentile(apply_s, 0.9), "s");
    result.Set("graph_store.rebuild_p50_s", pre.rebuild_p50_s, "s");
    result.Set("graph_store.epochs_behind_max",
               static_cast<double>(epochs_behind_max), "count");
    result.Set("graph_store.boot_preprocess_s",
               Percentile(boot_preprocess_times, 0.5), "s");
    result.Set("process.cpu_ms_per_request",
               cpu_s * 1e3 / std::max<double>(1, plain.routes_sent), "ms");
    result.Set("loadgen.lag_p99_s", Percentile(plain.lag, 0.99), "s");
    result.Set("loadgen.achieved_rps",
               static_cast<double>(plain.routes_completed) / plain.seconds,
               "req/s");
    const double plain_p50 = Percentile(plain.route_latency, 0.5);
    result.Set("route_p50_s", plain_p50, "s");
    result.Set("route_p99_s", Percentile(plain.route_latency, 0.99), "s");
    result.Set("trace.overhead",
               plain_p50 > 0
                   ? Percentile(traced.route_latency, 0.5) / plain_p50 - 1
                   : 0,
               "ratio");
    if (live) {
      result.Set("traffic_p50_s", Percentile(plain.traffic_latency, 0.5), "s");
      result.Set("traffic_p90_s", Percentile(plain.traffic_latency, 0.9), "s");
    }

    // Tail attribution: enumeration time by the OD pair's shortest-path
    // hop count, in hop-count quartiles.
    if (enumerate_s.size() >= 8) {
      pathrank::routing::Dijkstra dijkstra(city);
      std::vector<std::pair<size_t, double>> by_hops;
      for (size_t i = 0; i < enumerate_s.size(); ++i) {
        by_hops.emplace_back(HopCount(&dijkstra, city, enumerate_od[i]),
                             enumerate_s[i]);
      }
      std::sort(by_hops.begin(), by_hops.end());
      result.report.push_back(
          "enumeration time by shortest-path hop count (quartiles):");
      for (int q = 0; q < 4; ++q) {
        const size_t lo = by_hops.size() * static_cast<size_t>(q) / 4;
        const size_t hi = by_hops.size() * static_cast<size_t>(q + 1) / 4;
        std::vector<double> times;
        for (size_t i = lo; i < hi; ++i) times.push_back(by_hops[i].second);
        const double p50 = Percentile(times, 0.5);
        const double p99 = Percentile(times, 0.99);
        result.Set("route_planner.enumerate_p50_s.hops_q" +
                       std::to_string(q + 1),
                   p50, "s");
        result.Set("route_planner.enumerate_p99_s.hops_q" +
                       std::to_string(q + 1),
                   p99, "s");
        result.report.push_back(
            Fmt("  hops %.0f-%.0f: n=%.0f  p50 %.5f s",
                static_cast<double>(by_hops[lo].first),
                static_cast<double>(by_hops[hi - 1].first),
                static_cast<double>(times.size()), p50) +
            Fmt("  p99 %.5f s (%.0f beyond)", p99,
                static_cast<double>(SamplesBeyond(times, 0.99))));
      }
    }
    // The knee is reported here, ungated: on shared hardware its
    // run-to-run spread is wider than any bound a gate could use.
    result.Set("route_knee_rps", measure_knee(), "req/s");
  }
  result.report.push_back(StealLine(ticks_at_start));
  result.attempted = attempted;
  result.failed = failed;
  if (options.trace) {
    result.Set("error_rate",
               attempted > 0 ? static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                             : 0,
               "ratio");
  }
  result.report.push_back(
      Fmt("attempted %.0f, failed %.0f", static_cast<double>(attempted),
          static_cast<double>(failed)));
  generator.reset();
  stack.reset();
  return result;
}

}  // namespace perfbench
