// Model checkpointing: save/load round trips, config restoration, and
// multi-task model behaviour.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/model.h"
#include "core/model_io.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace pathrank::core {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

nn::SequenceBatch ToyBatch() {
  return nn::SequenceBatch::FromSequences({{1, 2, 3, 4}, {5, 6}, {7, 8, 9}});
}

/// Scores `batch` through a fresh inference scratch.
std::vector<float> Score(const PathRankModel& model,
                         const nn::SequenceBatch& batch) {
  InferenceScratch scratch;
  return model.Forward(batch, &scratch);
}

PathRankModel::Outputs ScoreFull(const PathRankModel& model,
                                 const nn::SequenceBatch& batch) {
  InferenceScratch scratch;
  return model.ForwardFull(batch, &scratch);
}

PathRankConfig SmallConfig() {
  PathRankConfig cfg;
  cfg.embedding_dim = 8;
  cfg.hidden_size = 12;
  cfg.seed = 3;
  return cfg;
}

TEST(ModelIo, RoundTripReproducesScores) {
  PathRankModel model(16, SmallConfig());
  // Perturb away from init: one training step.
  nn::Adam adam(0.05);
  const auto batch = ToyBatch();
  const std::vector<float> truth{0.9f, 0.1f, 0.5f};
  std::vector<float> d;
  InferenceScratch tape;
  tape.record = true;
  const auto scores0 = model.Forward(batch, &tape);
  nn::MseLoss(scores0, truth, &d);
  nn::Gradients grads;
  nn::ZeroGradients(model.Parameters(), &grads);
  model.Backward(tape, d, &grads);
  adam.Step(model.Parameters(), grads);

  const auto expected = Score(model, batch);
  const std::string path = TempPath("pr_model.bin");
  SaveModel(model, path);
  auto loaded = LoadModel(path);
  const auto got = Score(*loaded, batch);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]);
  }
  std::remove(path.c_str());
}

TEST(ModelIo, RestoresConfig) {
  PathRankConfig cfg = SmallConfig();
  cfg.cell = nn::CellType::kLstm;
  cfg.bidirectional = false;
  cfg.pooling = Pooling::kFinalState;
  cfg.finetune_embedding = false;
  cfg.multi_task = true;
  cfg.aux_loss_weight = 0.7;
  PathRankModel model(20, cfg);
  const std::string path = TempPath("pr_model2.bin");
  SaveModel(model, path);
  auto loaded = LoadModel(path);
  EXPECT_EQ(loaded->vocab_size(), 20u);
  EXPECT_EQ(loaded->config().cell, nn::CellType::kLstm);
  EXPECT_FALSE(loaded->config().bidirectional);
  EXPECT_EQ(loaded->config().pooling, Pooling::kFinalState);
  EXPECT_FALSE(loaded->config().finetune_embedding);
  EXPECT_TRUE(loaded->config().multi_task);
  EXPECT_DOUBLE_EQ(loaded->config().aux_loss_weight, 0.7);
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsGarbage) {
  const std::string path = TempPath("pr_model_garbage.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const char junk[] = "this is not a model";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_THROW(LoadModel(path), std::runtime_error);
  std::remove(path.c_str());
}

/// Saves a valid checkpoint, overwrites the little-endian header word at
/// `offset` (sizeof(Word) bytes), and expects LoadModel to reject the file
/// cleanly.
template <typename Word>
void ExpectCorruptHeaderWordRejected(size_t offset, Word value) {
  const std::string path = TempPath("pr_model_corrupt.bin");
  SaveModel(PathRankModel(16, SmallConfig()), path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&value), sizeof(value));
  }
  EXPECT_THROW(LoadModel(path), std::runtime_error)
      << "offset " << offset << " value " << value;
  std::remove(path.c_str());
}

// Header layout: magic @0, version @4, vocab @8, embedding_dim @16,
// hidden_size @24, cell @32, bidirectional @36, pooling @40.
TEST(ModelIo, RejectsOutOfRangeCellType) {
  // Used to build no recurrent layer and segfault on first use.
  ExpectCorruptHeaderWordRejected(32, 0x03);
}

TEST(ModelIo, RejectsOutOfRangePooling) {
  // Used to load silently and serve with final-state pooling.
  ExpectCorruptHeaderWordRejected(40, 0x07);
}

TEST(ModelIo, RejectsZeroDimensions) {
  ExpectCorruptHeaderWordRejected(16, 0);  // embedding_dim (low word)
  ExpectCorruptHeaderWordRejected(24, 0);  // hidden_size (low word)
}

TEST(ModelIo, RejectsDimensionsLargerThanTheFile) {
  // Used to allocate first (std::bad_alloc) instead of failing cleanly.
  ExpectCorruptHeaderWordRejected(16, uint64_t{1} << 40);  // embedding_dim
  ExpectCorruptHeaderWordRejected(24, uint64_t{1} << 40);  // hidden_size
  ExpectCorruptHeaderWordRejected(8, uint64_t{1} << 40);   // vocab
}

TEST(MultiTask, AuxOutputsPresentAndBounded) {
  PathRankConfig cfg = SmallConfig();
  cfg.multi_task = true;
  PathRankModel model(16, cfg);
  const auto outputs = ScoreFull(model, ToyBatch());
  ASSERT_EQ(outputs.aux_length.size(), 3u);
  ASSERT_EQ(outputs.aux_time.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GT(outputs.aux_length[i], 0.0f);
    EXPECT_LT(outputs.aux_length[i], 1.0f);
    EXPECT_GT(outputs.aux_time[i], 0.0f);
    EXPECT_LT(outputs.aux_time[i], 1.0f);
  }
}

TEST(MultiTask, SingleTaskHasNoAuxOutputs) {
  PathRankModel model(16, SmallConfig());
  const auto outputs = ScoreFull(model, ToyBatch());
  EXPECT_TRUE(outputs.aux_length.empty());
  EXPECT_TRUE(outputs.aux_time.empty());
}

TEST(MultiTask, HasMoreParameters) {
  PathRankConfig cfg = SmallConfig();
  PathRankModel single(16, cfg);
  cfg.multi_task = true;
  PathRankModel multi(16, cfg);
  EXPECT_GT(multi.NumParameters(), single.NumParameters());
}

TEST(MultiTask, JointTrainingReducesAllLosses) {
  PathRankConfig cfg = SmallConfig();
  cfg.multi_task = true;
  cfg.aux_loss_weight = 0.5;
  PathRankModel model(16, cfg);
  const auto batch = ToyBatch();
  const std::vector<float> truth{0.9f, 0.1f, 0.5f};
  const std::vector<float> aux_len{0.3f, 0.8f, 0.6f};
  const std::vector<float> aux_time{0.4f, 0.7f, 0.5f};

  nn::Adam adam(0.02);
  const nn::ParameterList params = model.Parameters();
  std::vector<float> ds;
  std::vector<float> dl;
  std::vector<float> dt;
  nn::Gradients grads;
  InferenceScratch tape;
  tape.record = true;
  double first = 0.0;
  double last = 0.0;
  for (int step = 0; step < 80; ++step) {
    const auto out = model.ForwardFull(batch, &tape);
    double loss = nn::MseLoss(out.scores, truth, &ds);
    loss += 0.5 * nn::MseLoss(out.aux_length, aux_len, &dl);
    loss += 0.5 * nn::MseLoss(out.aux_time, aux_time, &dt);
    for (float& g : dl) g *= 0.5f;
    for (float& g : dt) g *= 0.5f;
    if (step == 0) first = loss;
    last = loss;
    nn::ZeroGradients(params, &grads);
    model.BackwardFull(tape, ds, dl, dt, &grads);
    adam.Step(params, grads);
  }
  EXPECT_LT(last, first * 0.2);
}

TEST(MultiTask, BackwardFullRejectsAuxWithoutMultiTask) {
  PathRankModel model(16, SmallConfig());
  InferenceScratch tape;
  tape.record = true;
  model.Forward(ToyBatch(), &tape);
  const std::vector<float> d{0.1f, 0.1f, 0.1f};
  nn::Gradients grads;
  nn::ZeroGradients(model.Parameters(), &grads);
  EXPECT_THROW(model.BackwardFull(tape, d, d, d, &grads), std::logic_error);
}

}  // namespace
}  // namespace pathrank::core
