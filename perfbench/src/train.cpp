// The train workload: the `pathrank_cli train` pipeline on the
// small-preset city at kThreads threads — node2vec, a fixed
// number of PathRank epochs with no early stopping, then evaluation on the
// held-out test split. It is the only workload where the backward pass,
// the optimizer, trainer parallelism and node2vec do the work.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/evaluator.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "embedding/node2vec.h"
#include "loadgen.h"
#include "trace.h"

namespace perfbench {
namespace {

/// Trips simulated for the training data.
constexpr int kTrips = 240;
/// PathRank epochs per pipeline run, with no early stopping.
constexpr int kEpochs = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;

/// Runs `fn` inside a span when tracing is on; returns its wall seconds.
template <typename Fn>
double Timed(SpanName name, Fn&& fn) {
  Tracer& tracer = GlobalTracer();
  const int32_t span = tracer.enabled() ? tracer.Begin(name) : -1;
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  if (span >= 0) tracer.End(span);
  return static_cast<double>(end - start) * 1e-9;
}

struct TrainInputs {
  pathrank::graph::RoadNetwork network;
  pathrank::data::DatasetSplit split;
  double generate_queries_s = 0;
};

/// Set-up as `pathrank_cli network / simulate / train` performs it:
/// network, trips, and the D-TkDI candidate sets of every trip.
TrainInputs Setup(uint64_t seed) {
  TrainInputs inputs;
  inputs.network = BuildCity();
  const auto trips = Trips(inputs.network, kTrips, seed, 0.85);
  pathrank::data::RankingDataset dataset;
  inputs.generate_queries_s = Timed(SpanName::kGenerateQueries, [&] {
    dataset.queries = pathrank::data::GenerateQueries(inputs.network, trips,
                                                      ServerCandidates());
  });
  pathrank::Rng rng(seed + 11);
  inputs.split = pathrank::data::SplitDataset(dataset, 0.8, 0.1, rng);
  return inputs;
}

struct TrainRun {
  double train_s = 0;
  double cpu_s = 0;  ///< process CPU time (user + system)
  double node2vec_s = 0;
  double epochs_s = 0;
  double evaluate_s = 0;
  double final_loss = 0;
  double tau = 0;
};

TrainRun TrainOnce(const TrainInputs& inputs, uint64_t seed) {
  TrainRun run;
  const int64_t start = NowNs();
  const double cpu_start = ProcessCpuSeconds();
  pathrank::embedding::Node2VecConfig n2v;
  n2v.skipgram.dims = 64;
  n2v.seed = seed + 12;
  pathrank::nn::Matrix table;
  run.node2vec_s = Timed(SpanName::kNode2Vec, [&] {
    table = pathrank::embedding::TrainNode2Vec(inputs.network, n2v);
  });

  pathrank::core::PathRankConfig model_config;
  model_config.embedding_dim = 64;
  model_config.hidden_size = 64;
  model_config.finetune_embedding = true;
  pathrank::core::PathRankModel model(inputs.network.num_vertices(),
                                      model_config);
  model.InitializeEmbedding(table);

  pathrank::core::TrainerConfig train_config;
  train_config.epochs = kEpochs;
  train_config.learning_rate = 3e-3;
  train_config.patience = 0;  // fixed work: no early stopping
  pathrank::core::TrainHistory history;
  run.epochs_s = Timed(SpanName::kTrain, [&] {
    history = pathrank::core::TrainPathRank(model, inputs.split.train,
                                      inputs.split.validation, train_config);
  });
  run.final_loss =
      history.epochs.empty() ? NAN : history.epochs.back().train_loss;

  pathrank::core::EvalResult eval;
  run.evaluate_s = Timed(SpanName::kEvaluate, [&] {
    eval = pathrank::core::Evaluate(model, inputs.split.test);
  });
  run.tau = eval.kendall_tau;
  run.train_s = static_cast<double>(NowNs() - start) * 1e-9;
  run.cpu_s = ProcessCpuSeconds() - cpu_start;
  return run;
}

}  // namespace

Result RunTrainWorkload(const Options& options) {
  Result result;
  const int setup_reps = options.smoke ? 1 : kSetupReps;
  GlobalTracer().SetEnabled(options.trace);

  std::vector<double> setup_times;
  std::vector<double> generate_times;
  TrainInputs inputs;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const int64_t start = NowNs();
    inputs = Setup(options.seed);
    setup_times.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    generate_times.push_back(inputs.generate_queries_s);
  }

  // Train repeatedly until the measured time is used up (at least once);
  // the same seed and thread count must give the same model every time.
  std::vector<TrainRun> runs;
  const CpuTicks ticks_at_start = MachineCpuTicks();
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  do {
    runs.push_back(TrainOnce(inputs, options.seed));
  } while (NowNs() < deadline);

  uint64_t failed = 0;
  for (const TrainRun& run : runs) {
    if (!std::isfinite(run.final_loss) || !std::isfinite(run.tau)) {
      ++failed;
      result.Fail("training produced a non-finite loss or Kendall tau");
    } else if (run.tau != runs.front().tau ||
               run.final_loss != runs.front().final_loss) {
      ++failed;
      result.Fail("repeated training with one seed and thread count "
                  "gave a different model");
    }
  }
  result.attempted = runs.size();
  result.failed = failed;

  auto median = [&](double TrainRun::*field) {
    std::vector<double> values;
    for (const TrainRun& run : runs) values.push_back(run.*field);
    return Percentile(values, 0.5);
  };
  char line[320];
  std::snprintf(line, sizeof(line),
                "train: %zu runs, median %.3f s and %.3f CPU s (node2vec "
                "%.3f s, %d epochs %.3f s, evaluate %.3f s), loss %.5f, "
                "tau %.4f",
                runs.size(), median(&TrainRun::train_s),
                median(&TrainRun::cpu_s), median(&TrainRun::node2vec_s),
                kEpochs, median(&TrainRun::epochs_s),
                median(&TrainRun::evaluate_s), runs.front().final_loss,
                runs.front().tau);
  result.report.push_back(line);
  std::snprintf(line, sizeof(line), "setup median %.3f s over %d repetitions",
                Percentile(setup_times, 0.5), setup_reps);
  result.report.push_back(line);
  result.report.push_back(StealLine(ticks_at_start));

  if (!options.trace) {
    result.Set("setup_s", Percentile(setup_times, 0.5), "s");
    result.Set("cpu_ms_per_op", median(&TrainRun::cpu_s) * 1e3, "ms");
    result.Set("peak_rss_mb", PeakRssMiB(), "MiB");
  } else {
    SetPerLayerDefaults(&result);
    result.Set("train_s", median(&TrainRun::train_s), "s");
    result.Set("train_kendall_tau", runs.front().tau, "tau");
    result.Set("data.generate_queries_s", Percentile(generate_times, 0.5),
               "s");
    result.Set("embedding.node2vec_s", median(&TrainRun::node2vec_s), "s");
    result.Set("core.epoch_s", median(&TrainRun::epochs_s) / kEpochs, "s");
    result.Set("core.final_loss", runs.front().final_loss, "loss");
    result.Set("core.evaluate_s", median(&TrainRun::evaluate_s), "s");
    result.Set("error_rate",
               static_cast<double>(failed) / static_cast<double>(runs.size()),
               "ratio");
    if (!options.trace_out.empty() &&
        !GlobalTracer().Write(options.trace_out, {})) {
      result.report.push_back("could not write spans to " + options.trace_out);
    }
  }
  GlobalTracer().SetEnabled(false);
  return result;
}

}  // namespace perfbench
