// Mini-batch training loop for PathRank: MSE regression against the
// weighted-Jaccard ground truth, Adam, cosine learning-rate schedule,
// gradient clipping and validation-based early stopping with best-weight
// restoration.
#pragma once

#include <vector>

#include "core/config.h"
#include "core/evaluator.h"
#include "core/model.h"
#include "data/batcher.h"
#include "data/dataset.h"

namespace pathrank::core {

/// Rows per chunk of a training batch. Chunks run forward and backward
/// concurrently, each on its own tape and gradient set, and the sets are
/// summed in chunk order. The arithmetic therefore depends on the batch
/// alone, never on the thread count; a batch of at most kChunkRows rows is
/// a single chunk.
inline constexpr size_t kChunkRows = 8;

/// Per-epoch training record.
struct EpochRecord {
  int epoch = 0;
  double train_loss = 0.0;
  double val_mae = 0.0;
  double val_tau = 0.0;
  double learning_rate = 0.0;
  double seconds = 0.0;
};

/// Full training history.
struct TrainHistory {
  std::vector<EpochRecord> epochs;
  int best_epoch = -1;
  double best_val_mae = 0.0;
};

/// Trains `model` in place and returns the history. `validation` may be
/// empty, in which case early stopping is disabled and the final weights
/// are kept. The trained weights are bitwise identical for any thread
/// count. Throws std::invalid_argument unless the learning rate is finite
/// and positive.
TrainHistory TrainPathRank(PathRankModel& model,
                           const data::RankingDataset& train,
                           const data::RankingDataset& validation,
                           const TrainerConfig& config);

}  // namespace pathrank::core
