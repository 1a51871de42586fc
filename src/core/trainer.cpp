// Training loop. Each batch is cut into kChunkRows-row chunks that run
// forward and backward concurrently through the one shared const model,
// each chunk on its own tape and gradient set. The loss is taken once over
// the whole batch, the chunk gradients are summed in chunk order, and one
// clipped Adam step follows. No model is copied, and the thread count only
// decides how many chunks run at once.
#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace pathrank::core {
namespace {

/// Copies parameter values into `snap`, reusing its storage (the snapshot
/// is refreshed on every validation improvement, so reallocation here was
/// measurable on small workloads).
void SnapshotValuesInto(const nn::ParameterList& params,
                        std::vector<nn::Matrix>* snap) {
  snap->resize(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    nn::Matrix& dst = (*snap)[i];
    const nn::Matrix& src = params[i]->value;
    dst.ResizeNoZero(src.rows(), src.cols());
    std::copy(src.data(), src.data() + src.size(), dst.data());
  }
}

void RestoreValues(const nn::ParameterList& params,
                   const std::vector<nn::Matrix>& snap) {
  PR_CHECK(snap.size() == params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = snap[i];
  }
}

/// One row chunk of a batch: its own tape and gradient set, so chunks run
/// forward and backward concurrently through the one shared model.
struct Chunk {
  InferenceScratch tape;
  nn::Gradients grads;
};

/// `v[begin, begin + n)`, or an empty span when `v` is empty (no
/// auxiliary targets).
std::span<const float> RowsOf(const std::vector<float>& v, size_t begin,
                              size_t n) {
  if (v.empty()) return {};
  return std::span<const float>(v).subspan(begin, n);
}

}  // namespace

TrainHistory TrainPathRank(PathRankModel& model,
                           const data::RankingDataset& train,
                           const data::RankingDataset& validation,
                           const TrainerConfig& config) {
  PR_CHECK(config.epochs >= 1);
  if (!std::isfinite(config.learning_rate) || config.learning_rate <= 0.0) {
    throw std::invalid_argument("learning_rate must be finite and positive");
  }
  pathrank::Rng rng(config.seed);
  data::Batcher batcher(data::FlattenDataset(train), config.batch_size);

  nn::ScheduleConfig schedule;
  schedule.type = config.schedule;
  schedule.base_lr = config.learning_rate;
  schedule.total_epochs = config.epochs;
  schedule.min_lr = config.learning_rate * 0.01;

  const nn::ParameterList params = model.Parameters();
  const size_t num_params = params.size();
  nn::Adam optimizer(config.learning_rate);

  // Chunk c of a batch holds rows [c * kChunkRows, (c + 1) * kChunkRows);
  // the plan depends only on the batch's row count.
  std::vector<Chunk> chunks((config.batch_size + kChunkRows - 1) /
                            kChunkRows);
  for (Chunk& chunk : chunks) chunk.tape.record = true;
  PathRankModel::Outputs outputs;
  std::vector<float> d_scores;
  std::vector<float> d_aux_length;
  std::vector<float> d_aux_time;

  TrainHistory history;
  history.best_val_mae = std::numeric_limits<double>::infinity();
  std::vector<nn::Matrix> best_weights;
  bool have_best = false;
  int epochs_since_best = 0;
  const bool use_validation = !validation.queries.empty();

  const bool multi_task = model.config().multi_task;
  const auto aux_weight = static_cast<float>(model.config().aux_loss_weight);

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    pathrank::Stopwatch watch;
    const double lr = nn::LearningRateAt(schedule, epoch);
    optimizer.set_learning_rate(lr);
    batcher.Reshuffle(rng);

    double loss_sum = 0.0;
    size_t example_count = 0;
    for (size_t i = 0; i < batcher.num_batches(); ++i) {
      const data::ModelBatch batch = batcher.GetBatch(i);
      const size_t rows = batch.labels.size();
      const size_t num_chunks = (rows + kChunkRows - 1) / kChunkRows;
      auto for_each_chunk = [&](const auto& fn) {
        ParallelForShards(
            0, num_chunks,
            [&](size_t, size_t lo, size_t hi) {
              for (size_t c = lo; c < hi; ++c) {
                const size_t begin = c * kChunkRows;
                fn(chunks[c], begin, std::min(rows, begin + kChunkRows));
              }
            },
            /*max_shards=*/num_chunks);
      };

      // Forward: each chunk records its rows on its own tape; the outputs
      // are gathered back into batch row order.
      outputs.scores.resize(rows);
      outputs.aux_length.resize(multi_task ? rows : 0);
      outputs.aux_time.resize(multi_task ? rows : 0);
      for_each_chunk([&](Chunk& chunk, size_t begin, size_t end) {
        chunk.tape.batch = batch.sequences.Rows(begin, end);
        const PathRankModel::Outputs out =
            model.ForwardFull(chunk.tape.batch, &chunk.tape);
        const auto at = static_cast<std::ptrdiff_t>(begin);
        std::copy(out.scores.begin(), out.scores.end(),
                  outputs.scores.begin() + at);
        std::copy(out.aux_length.begin(), out.aux_length.end(),
                  outputs.aux_length.begin() + at);
        std::copy(out.aux_time.begin(), out.aux_time.end(),
                  outputs.aux_time.begin() + at);
      });

      // The loss is taken once over the whole batch.
      double loss = nn::ComputeLoss(config.loss, outputs.scores,
                                    batch.labels, &d_scores);
      if (multi_task) {
        // Auxiliary regression on the candidate's normalised length and
        // travel time; gradients scaled by the auxiliary weight.
        loss += aux_weight * nn::ComputeLoss(config.loss, outputs.aux_length,
                                             batch.norm_lengths,
                                             &d_aux_length);
        loss += aux_weight * nn::ComputeLoss(config.loss, outputs.aux_time,
                                             batch.norm_times, &d_aux_time);
        for (float& grad : d_aux_length) grad *= aux_weight;
        for (float& grad : d_aux_time) grad *= aux_weight;
      }
      loss_sum += loss * static_cast<double>(rows);
      example_count += rows;

      // Backward: each chunk backpropagates its rows of the loss gradient
      // into its own gradient set.
      for_each_chunk([&](Chunk& chunk, size_t begin, size_t end) {
        const size_t n = end - begin;
        nn::ZeroGradients(params, &chunk.grads);
        model.BackwardFull(chunk.tape, RowsOf(d_scores, begin, n),
                           RowsOf(d_aux_length, begin, n),
                           RowsOf(d_aux_time, begin, n), &chunk.grads);
      });

      // Sum the chunk gradients into chunk 0's set in chunk order, then
      // clip and take one optimizer step for the batch.
      nn::Gradients& grads = chunks[0].grads;
      if (num_chunks > 1) {
        ParallelFor(0, num_params, 1, [&](size_t lo, size_t hi) {
          for (size_t p = lo; p < hi; ++p) {
            if (params[p]->frozen) continue;  // optimizer never applies it
            for (size_t c = 1; c < num_chunks; ++c) {
              grads[p].Add(chunks[c].grads[p]);
            }
          }
        });
      }
      if (config.clip_norm > 0.0) {
        nn::ClipGradientNorm(params, config.clip_norm, &grads);
      }
      optimizer.Step(params, grads);
    }

    EpochRecord record;
    record.epoch = epoch;
    record.train_loss = loss_sum / static_cast<double>(example_count);
    record.learning_rate = lr;

    if (use_validation) {
      // Validation scores through the const forward pass on the shared
      // model, sharded with per-shard scratch.
      const EvalResult val = Evaluate(model, validation);
      record.val_mae = val.mae;
      record.val_tau = val.kendall_tau;
      if (val.mae < history.best_val_mae) {
        history.best_val_mae = val.mae;
        history.best_epoch = epoch;
        SnapshotValuesInto(params, &best_weights);
        have_best = true;
        epochs_since_best = 0;
      } else {
        ++epochs_since_best;
      }
    }
    record.seconds = watch.ElapsedSeconds();
    history.epochs.push_back(record);

    if (config.verbose) {
      PR_LOG_INFO << "epoch " << epoch << " loss=" << record.train_loss
                  << (use_validation
                          ? " val_mae=" + std::to_string(record.val_mae)
                          : "")
                  << " lr=" << record.learning_rate << " ("
                  << record.seconds << "s)";
    }
    if (use_validation && config.patience > 0 &&
        epochs_since_best >= config.patience) {
      break;
    }
  }

  if (use_validation && have_best) {
    RestoreValues(params, best_weights);
  }
  return history;
}

}  // namespace pathrank::core
