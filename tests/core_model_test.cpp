// PathRank model behaviour: output range, variants (PR-A1 freeze vs PR-A2
// fine-tune), cell/bidirectional configurations, gradient flow, chunked
// backward passes, config validation (model, trainer and pathrank_cli
// train), and end-to-end ranking through the serving engine.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <span>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/trainer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "graph/network_builder.h"
#include "serving/serving_engine.h"

namespace pathrank::core {
namespace {

nn::SequenceBatch ToyBatch() {
  return nn::SequenceBatch::FromSequences(
      {{1, 2, 3, 4}, {5, 6}, {7, 8, 9}});
}

PathRankConfig SmallConfig() {
  PathRankConfig cfg;
  cfg.embedding_dim = 8;
  cfg.hidden_size = 12;
  cfg.seed = 3;
  return cfg;
}

/// Scores `batch` through a fresh inference scratch.
std::vector<float> Score(const PathRankModel& model,
                         const nn::SequenceBatch& batch) {
  InferenceScratch scratch;
  return model.Forward(batch, &scratch);
}

/// One Adam step on the MSE between the model's scores and `truth`;
/// returns the loss before the step.
double TrainStep(PathRankModel& model, const nn::SequenceBatch& batch,
                 const std::vector<float>& truth, nn::Adam& adam) {
  InferenceScratch tape;
  tape.record = true;
  const auto scores = model.Forward(batch, &tape);
  std::vector<float> d;
  const double loss = nn::MseLoss(scores, truth, &d);
  const nn::ParameterList params = model.Parameters();
  nn::Gradients grads;
  nn::ZeroGradients(params, &grads);
  model.Backward(tape, d, &grads);
  adam.Step(params, grads);
  return loss;
}

TEST(PathRankModel, ScoresAreInUnitInterval) {
  PathRankModel model(16, SmallConfig());
  const auto scores = Score(model, ToyBatch());
  ASSERT_EQ(scores.size(), 3u);
  for (float s : scores) {
    EXPECT_GT(s, 0.0f);
    EXPECT_LT(s, 1.0f);
  }
}

TEST(PathRankModel, DeterministicForward) {
  PathRankModel model(16, SmallConfig());
  const auto s1 = Score(model, ToyBatch());
  const auto s2 = Score(model, ToyBatch());
  for (size_t i = 0; i < s1.size(); ++i) EXPECT_EQ(s1[i], s2[i]);
}

TEST(PathRankModel, SameSeedSameModel) {
  PathRankModel a(16, SmallConfig());
  PathRankModel b(16, SmallConfig());
  const auto sa = Score(a, ToyBatch());
  const auto sb = Score(b, ToyBatch());
  for (size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
}

TEST(PathRankModel, PaddingDoesNotChangeScores) {
  PathRankModel model(16, SmallConfig());
  const auto mixed = Score(model, ToyBatch());
  const auto alone =
      Score(model, nn::SequenceBatch::FromSequences({{5, 6}}));
  EXPECT_NEAR(mixed[1], alone[0], 1e-6f);
}

class VariantTest : public ::testing::TestWithParam<bool> {};

TEST_P(VariantTest, EmbeddingFreezeSemantics) {
  PathRankConfig cfg = SmallConfig();
  cfg.finetune_embedding = GetParam();  // PR-A2 if true, PR-A1 if false
  PathRankModel model(16, cfg);

  // Snapshot embedding table.
  const nn::ParameterList params = model.Parameters();
  nn::Parameter* emb = params[0];
  ASSERT_EQ(emb->name, "embedding");
  const nn::Matrix before = emb->value;

  // One training step.
  nn::Adam adam(0.05);
  TrainStep(model, ToyBatch(), {0.9f, 0.1f, 0.5f}, adam);

  double delta = 0.0;
  for (size_t i = 0; i < before.size(); ++i) {
    delta += std::abs(emb->value.data()[i] - before.data()[i]);
  }
  if (GetParam()) {
    EXPECT_GT(delta, 0.0) << "PR-A2 must update the embedding matrix";
  } else {
    EXPECT_EQ(delta, 0.0) << "PR-A1 must keep the embedding matrix frozen";
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, VariantTest, ::testing::Bool());

TEST(PathRankModel, VariantNames) {
  PathRankConfig a1 = SmallConfig();
  a1.finetune_embedding = false;
  PathRankConfig a2 = SmallConfig();
  a2.finetune_embedding = true;
  EXPECT_EQ(a1.VariantName(), "PR-A1");
  EXPECT_EQ(a2.VariantName(), "PR-A2");
}

class CellConfig : public ::testing::TestWithParam<nn::CellType> {};

TEST_P(CellConfig, TrainingStepReducesLoss) {
  PathRankConfig cfg = SmallConfig();
  cfg.cell = GetParam();
  PathRankModel model(16, cfg);
  const auto batch = ToyBatch();
  const std::vector<float> truth{0.9f, 0.1f, 0.5f};

  nn::Adam adam(0.02);
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 60; ++step) {
    const double loss = TrainStep(model, batch, truth, adam);
    if (step == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.2)
      << nn::CellTypeName(GetParam()) << " failed to overfit a toy batch";
}

INSTANTIATE_TEST_SUITE_P(Cells, CellConfig,
                         ::testing::Values(nn::CellType::kGru,
                                           nn::CellType::kRnn,
                                           nn::CellType::kLstm));

class PoolingTest : public ::testing::TestWithParam<Pooling> {};

TEST_P(PoolingTest, ScoresValidAndTrainable) {
  PathRankConfig cfg = SmallConfig();
  cfg.pooling = GetParam();
  PathRankModel model(16, cfg);
  const auto batch = ToyBatch();
  const std::vector<float> truth{0.9f, 0.1f, 0.5f};
  nn::Adam adam(0.02);
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 50; ++step) {
    for (float s : Score(model, batch)) {
      ASSERT_GT(s, 0.0f);
      ASSERT_LT(s, 1.0f);
    }
    const double loss = TrainStep(model, batch, truth, adam);
    if (step == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.25);
}

TEST_P(PoolingTest, PaddingInvariance) {
  PathRankConfig cfg = SmallConfig();
  cfg.pooling = GetParam();
  PathRankModel model(16, cfg);
  const auto mixed = Score(model, ToyBatch());
  const auto alone =
      Score(model, nn::SequenceBatch::FromSequences({{5, 6}}));
  EXPECT_NEAR(mixed[1], alone[0], 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Poolings, PoolingTest,
                         ::testing::Values(Pooling::kMean,
                                           Pooling::kFinalState));

TEST(PathRankModel, PoolingModesDiffer) {
  PathRankConfig mean_cfg = SmallConfig();
  mean_cfg.pooling = Pooling::kMean;
  PathRankConfig final_cfg = SmallConfig();
  final_cfg.pooling = Pooling::kFinalState;
  PathRankModel a(16, mean_cfg);
  PathRankModel b(16, final_cfg);
  const auto sa = Score(a, ToyBatch());
  const auto sb = Score(b, ToyBatch());
  bool any_diff = false;
  for (size_t i = 0; i < sa.size(); ++i) {
    any_diff = any_diff || sa[i] != sb[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST(PathRankModel, UnidirectionalHasFewerParameters) {
  PathRankConfig bi = SmallConfig();
  bi.bidirectional = true;
  PathRankConfig uni = SmallConfig();
  uni.bidirectional = false;
  PathRankModel m_bi(16, bi);
  PathRankModel m_uni(16, uni);
  EXPECT_GT(m_bi.NumParameters(), m_uni.NumParameters());
}

TEST(PathRankModel, InitializeEmbeddingIsUsed) {
  PathRankConfig cfg = SmallConfig();
  PathRankModel model(16, cfg);
  nn::Matrix table(16, cfg.embedding_dim);
  table.Fill(0.01f);
  model.InitializeEmbedding(table);
  // Scores before/after must differ from a fresh model with random init.
  PathRankModel fresh(16, cfg);
  const auto s1 = Score(model, ToyBatch());
  const auto s2 = Score(fresh, ToyBatch());
  bool any_diff = false;
  for (size_t i = 0; i < s1.size(); ++i) {
    any_diff = any_diff || std::abs(s1[i] - s2[i]) > 1e-9f;
  }
  EXPECT_TRUE(any_diff);
}

/// Eleven rows of assorted lengths: chunks of kChunkRows rows and a ragged
/// last chunk.
nn::SequenceBatch RaggedBatch() {
  pathrank::Rng rng(9);
  std::vector<std::vector<int32_t>> seqs;
  for (size_t b = 0; b < 11; ++b) {
    std::vector<int32_t> seq(2 + rng.NextBounded(6));
    for (int32_t& v : seq) v = static_cast<int32_t>(rng.NextBounded(16));
    seqs.push_back(std::move(seq));
  }
  return nn::SequenceBatch::FromSequences(seqs);
}

TEST(PathRankModel, ChunkedBackwardMatchesWholeBatch) {
  // The trainer's arithmetic: the loss gradient of the whole batch, cut
  // into row chunks, each backpropagated on its own tape and summed. It
  // must equal one whole-batch tape up to float reassociation.
  for (const bool multi_task : {false, true}) {
    for (const Pooling pooling : {Pooling::kFinalState, Pooling::kMean}) {
      PathRankConfig cfg = SmallConfig();
      cfg.multi_task = multi_task;
      cfg.pooling = pooling;
      PathRankModel model(16, cfg);
      const nn::ParameterList params = model.Parameters();
      const nn::SequenceBatch batch = RaggedBatch();
      const size_t rows = batch.batch_size;
      ASSERT_GT(rows, kChunkRows);
      std::vector<float> truth(rows);
      for (size_t b = 0; b < rows; ++b) truth[b] = 0.05f + 0.08f * b;

      InferenceScratch tape;
      tape.record = true;
      const auto out = model.ForwardFull(batch, &tape);
      std::vector<float> d;
      std::vector<float> d_len;
      std::vector<float> d_time;
      nn::MseLoss(out.scores, truth, &d);
      if (multi_task) {
        nn::MseLoss(out.aux_length, truth, &d_len);
        nn::MseLoss(out.aux_time, truth, &d_time);
      }
      nn::Gradients whole;
      nn::ZeroGradients(params, &whole);
      model.BackwardFull(tape, d, d_len, d_time, &whole);

      nn::Gradients summed;
      nn::ZeroGradients(params, &summed);
      for (size_t begin = 0; begin < rows; begin += kChunkRows) {
        const size_t n = std::min(kChunkRows, rows - begin);
        auto rows_of = [&](const std::vector<float>& v) {
          return v.empty() ? std::span<const float>()
                           : std::span<const float>(v).subspan(begin, n);
        };
        InferenceScratch chunk_tape;
        chunk_tape.record = true;
        model.ForwardFull(batch.Rows(begin, begin + n), &chunk_tape);
        nn::Gradients part;
        nn::ZeroGradients(params, &part);
        model.BackwardFull(chunk_tape, rows_of(d), rows_of(d_len),
                           rows_of(d_time), &part);
        for (size_t i = 0; i < part.size(); ++i) summed[i].Add(part[i]);
      }

      double norm = 0.0;
      for (size_t i = 0; i < whole.size(); ++i) {
        norm += whole[i].SquaredNorm();
        for (size_t j = 0; j < whole[i].size(); ++j) {
          const float w = whole[i].data()[j];
          ASSERT_NEAR(summed[i].data()[j], w, 1e-6f + 1e-4f * std::abs(w))
              << params[i]->name << "[" << j << "] mt=" << multi_task
              << " pool=" << static_cast<int>(pooling);
        }
      }
      EXPECT_GT(norm, 0.0);
    }
  }
}

TEST(PathRankModel, BackwardRejectsInferenceScratch) {
  PathRankModel model(16, SmallConfig());
  InferenceScratch scratch;  // not recording: no tape
  const auto scores = model.Forward(ToyBatch(), &scratch);
  nn::Gradients grads;
  nn::ZeroGradients(model.Parameters(), &grads);
  EXPECT_THROW(model.Backward(scratch, scores, &grads), std::logic_error);
}

TEST(PathRankModel, RejectsZeroDimensions) {
  // LoadModel refuses a checkpoint with a zero dimension, so such a model
  // must not be constructible (and trainable, and saved) either.
  PathRankConfig no_embedding = SmallConfig();
  no_embedding.embedding_dim = 0;
  EXPECT_THROW(PathRankModel(16, no_embedding), std::invalid_argument);
  PathRankConfig no_hidden = SmallConfig();
  no_hidden.hidden_size = 0;
  EXPECT_THROW(PathRankModel(16, no_hidden), std::invalid_argument);
  EXPECT_THROW(PathRankModel(16, no_hidden, InitMode::kSkipInit),
               std::invalid_argument);
}

data::RankingDataset TinyDataset() {
  data::RankingQuery query;
  for (int c = 0; c < 3; ++c) {
    data::RankingCandidate cand;
    cand.path.vertices = {1, 2, static_cast<graph::VertexId>(3 + c)};
    cand.path.length_m = 100.0 * (c + 1);
    cand.path.time_s = 10.0 * (c + 1);
    cand.label = 0.3 * c;
    query.candidates.push_back(cand);
  }
  data::RankingDataset dataset;
  dataset.queries.push_back(query);
  return dataset;
}

TEST(TrainPathRank, RejectsLearningRateThatIsNotFiniteAndPositive) {
  for (const double lr : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()}) {
    PathRankModel model(16, SmallConfig());
    TrainerConfig cfg;
    cfg.epochs = 1;
    cfg.learning_rate = lr;
    EXPECT_THROW(TrainPathRank(model, TinyDataset(), {}, cfg),
                 std::invalid_argument)
        << "lr=" << lr;
  }
  PathRankModel model(16, SmallConfig());
  TrainerConfig cfg;
  cfg.epochs = 1;
  EXPECT_NO_THROW(TrainPathRank(model, TinyDataset(), {}, cfg));
}

/// Exit status of `pathrank_cli train` with `flags` added, output
/// discarded. The input files do not exist, so a run that gets past the
/// flag checks fails loading the network with exit status 1.
int CliTrainExitStatus(const std::string& flags) {
  const std::string missing =
      (std::filesystem::temp_directory_path() / "pathrank_no_such_input")
          .string();
  const std::string command = std::string(PATHRANK_CLI) + " train" +
                              " --network " + missing + " --trips " +
                              missing + " --out " + missing + " " + flags +
                              " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(PathRankCli, TrainRejectsBadSizesBeforeAnyWork) {
  for (const char* flags : {"--hidden 0", "--hidden -3", "--m 0",
                            "--epochs 0", "--lr -1", "--lr 0"}) {
    EXPECT_EQ(CliTrainExitStatus(flags), 2) << flags;
  }
  EXPECT_EQ(CliTrainExitStatus("--hidden 4 --m 4 --epochs 1 --lr 0.01"), 1);
}

TEST(ModelServing, RanksSortedByScoreDescending) {
  const auto net = graph::BuildTestNetwork();
  PathRankConfig cfg = SmallConfig();
  PathRankModel model(net.num_vertices(), cfg);
  const serving::ServingEngine engine(net, model);
  data::CandidateGenConfig gen;
  gen.k = 5;
  const auto ranked = engine.Rank(0, 63, gen);
  ASSERT_GE(ranked.size(), 2u);
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].score, ranked[i].score);
  }
  for (const auto& sp : ranked) {
    EXPECT_EQ(sp.path.source(), 0u);
    EXPECT_EQ(sp.path.destination(), 63u);
  }
}

TEST(ModelServing, ScoreEmptyInputYieldsEmpty) {
  const auto net = graph::BuildTestNetwork();
  PathRankConfig cfg = SmallConfig();
  PathRankModel model(net.num_vertices(), cfg);
  const serving::ServingEngine engine(net, model);
  EXPECT_TRUE(engine.ScoreBatch({}).empty());
}

}  // namespace
}  // namespace pathrank::core
