// Parallel-vs-serial equivalence: GEMM outputs, evaluation, training,
// node2vec walks and skip-gram tables are bitwise identical for any thread
// count (the determinism guarantees documented in docs/performance.md).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "embedding/random_walk.h"
#include "embedding/skipgram.h"
#include "graph/network_builder.h"
#include "nn/matrix.h"

namespace pathrank {
namespace {

class ParallelEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override { SetNumThreads(4); }
};

nn::Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  nn::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  }
  return m;
}

void ExpectBitwiseEqual(const nn::Matrix& a, const nn::Matrix& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "at flat index " << i;
  }
}

TEST_F(ParallelEquivalenceTest, GemmBitwiseStableAcrossThreadCounts) {
  // Odd shapes exercise the remainder tiles; sizes are above the parallel
  // threshold so the pool actually shards the work.
  struct Shape {
    size_t m, k, n;
  };
  for (const Shape& shape :
       {Shape{97, 130, 61}, Shape{128, 128, 128}, Shape{33, 257, 19}}) {
    Rng rng(shape.m * 1315423911u + shape.k * 7 + shape.n);
    const nn::Matrix a = RandomMatrix(shape.m, shape.k, rng);
    const nn::Matrix b_nn = RandomMatrix(shape.k, shape.n, rng);
    const nn::Matrix b_nt = RandomMatrix(shape.n, shape.k, rng);
    const nn::Matrix b_tn = RandomMatrix(shape.m, shape.n, rng);
    const nn::Matrix c_base = RandomMatrix(shape.m, shape.n, rng);
    const nn::Matrix c_tn_base = RandomMatrix(shape.k, shape.n, rng);

    SetNumThreads(1);
    nn::Matrix nn_ref = c_base;
    GemmNN(a, b_nn, &nn_ref, 0.5f, 1.0f);
    nn::Matrix nt_ref = c_base;
    GemmNT(a, b_nt, &nt_ref, 0.5f, 1.0f);
    nn::Matrix tn_ref = c_tn_base;
    GemmTN(a, b_tn, &tn_ref, 0.5f, 1.0f);

    for (size_t threads : {2, 3, 4, 7}) {
      SetNumThreads(threads);
      nn::Matrix c = c_base;
      GemmNN(a, b_nn, &c, 0.5f, 1.0f);
      ExpectBitwiseEqual(c, nn_ref);
      c = c_base;
      GemmNT(a, b_nt, &c, 0.5f, 1.0f);
      ExpectBitwiseEqual(c, nt_ref);
      c = c_tn_base;
      GemmTN(a, b_tn, &c, 0.5f, 1.0f);
      ExpectBitwiseEqual(c, tn_ref);
    }
  }
}

/// Tiny synthetic ranking dataset: deterministic paths over a fake vertex
/// id space (the trainer never touches a road network).
data::RankingDataset SyntheticDataset(size_t num_queries, uint64_t seed) {
  Rng rng(seed);
  data::RankingDataset dataset;
  constexpr int32_t kVocab = 60;
  for (size_t q = 0; q < num_queries; ++q) {
    data::RankingQuery query;
    query.query_id = static_cast<int>(q);
    const size_t candidates = 3 + rng.NextBounded(3);
    for (size_t c = 0; c < candidates; ++c) {
      data::RankingCandidate cand;
      const size_t len = 4 + rng.NextBounded(9);
      for (size_t v = 0; v < len; ++v) {
        cand.path.vertices.push_back(
            static_cast<graph::VertexId>(rng.NextBounded(kVocab)));
      }
      cand.path.length_m = 500.0 + rng.NextDouble() * 3000.0;
      cand.path.time_s = cand.path.length_m / 15.0;
      cand.label = rng.NextDouble();
      query.candidates.push_back(std::move(cand));
    }
    dataset.queries.push_back(std::move(query));
  }
  return dataset;
}

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

std::vector<nn::Matrix> TrainOnce(size_t threads,
                                  const core::PathRankConfig& model_cfg) {
  SetNumThreads(threads);
  const data::RankingDataset train = SyntheticDataset(24, 101);
  const data::RankingDataset val = SyntheticDataset(6, 202);
  core::PathRankModel model(60, model_cfg);

  core::TrainerConfig train_cfg;
  train_cfg.epochs = 3;
  // Above kChunkRows and not a multiple of it: every batch has a ragged
  // last chunk.
  train_cfg.batch_size = 13;
  train_cfg.patience = 0;
  train_cfg.seed = 17;
  core::TrainPathRank(model, train, val, train_cfg);

  std::vector<nn::Matrix> weights;
  for (const nn::Parameter* p : model.Parameters()) {
    weights.push_back(p->value);
  }
  return weights;
}

TEST_F(ParallelEquivalenceTest, TrainingBitwiseStableAcrossThreadCounts) {
  static_assert(13 > core::kChunkRows && 13 % core::kChunkRows != 0);
  core::PathRankConfig single;
  single.embedding_dim = 12;
  single.hidden_size = 16;
  single.seed = 5;
  core::PathRankConfig multi = single;
  multi.multi_task = true;
  core::PathRankConfig frozen = single;  // PR-A1
  frozen.finetune_embedding = false;

  for (const core::PathRankConfig& cfg : {single, multi, frozen}) {
    const auto reference = TrainOnce(1, cfg);
    const core::PathRankModel untrained(60, cfg);
    const nn::ConstParameterList initial = untrained.Parameters();
    ASSERT_EQ(initial.size(), reference.size());
    bool moved = false;
    for (size_t i = 0; i < reference.size(); ++i) {
      const nn::Matrix& before = initial[i]->value;
      for (size_t j = 0; j < before.size(); ++j) {
        moved = moved || reference[i].data()[j] != before.data()[j];
      }
    }
    EXPECT_TRUE(moved) << "training left the weights untouched";
    for (size_t threads : kThreadCounts) {
      const auto run = TrainOnce(threads, cfg);
      ASSERT_EQ(run.size(), reference.size());
      for (size_t i = 0; i < run.size(); ++i) {
        SCOPED_TRACE(testing::Message()
                     << "threads=" << threads << " param " << i
                     << " multi_task=" << cfg.multi_task
                     << " finetune=" << cfg.finetune_embedding);
        ExpectBitwiseEqual(run[i], reference[i]);
      }
    }
  }
}

TEST_F(ParallelEquivalenceTest, WalkCorpusStableAcrossThreadCounts) {
  const graph::RoadNetwork network = graph::BuildTestNetwork();
  embedding::RandomWalkConfig cfg;
  cfg.walk_length = 12;
  cfg.walks_per_vertex = 3;
  const embedding::RandomWalker walker(network, cfg);
  SetNumThreads(1);
  Rng reference_rng(31);
  const auto reference = walker.GenerateCorpus(reference_rng);
  for (size_t threads : kThreadCounts) {
    SetNumThreads(threads);
    Rng rng(31);
    EXPECT_EQ(walker.GenerateCorpus(rng), reference) << "threads=" << threads;
    // The caller's stream advances identically too.
    EXPECT_EQ(rng.NextU64(), Rng(reference_rng).NextU64());
  }
}

TEST_F(ParallelEquivalenceTest, SkipGramTableStableAcrossThreadCounts) {
  const graph::RoadNetwork network = graph::BuildTestNetwork();
  embedding::RandomWalkConfig walk_cfg;
  walk_cfg.walk_length = 12;
  walk_cfg.walks_per_vertex = 10;  // several averaging rounds of 4 shards
  Rng walk_rng(41);
  const auto corpus =
      embedding::RandomWalker(network, walk_cfg).GenerateCorpus(walk_rng);
  embedding::SkipGramConfig cfg;
  cfg.dims = 8;
  cfg.epochs = 2;

  SetNumThreads(1);
  Rng reference_rng(43);
  const nn::Matrix reference = embedding::TrainSkipGram(
      corpus, network.num_vertices(), cfg, reference_rng);
  for (size_t threads : kThreadCounts) {
    SetNumThreads(threads);
    Rng rng(43);
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ExpectBitwiseEqual(embedding::TrainSkipGram(
                           corpus, network.num_vertices(), cfg, rng),
                       reference);
  }
}

TEST_F(ParallelEquivalenceTest, EvaluationStableAcrossThreadCounts) {
  const data::RankingDataset dataset = SyntheticDataset(32, 303);
  core::PathRankConfig model_cfg;
  model_cfg.embedding_dim = 12;
  model_cfg.hidden_size = 16;
  model_cfg.seed = 5;
  core::PathRankModel model(60, model_cfg);

  SetNumThreads(1);
  const core::EvalResult serial = core::Evaluate(model, dataset);
  for (size_t threads : {2, 4}) {
    SetNumThreads(threads);
    const core::EvalResult parallel = core::Evaluate(model, dataset);
    EXPECT_EQ(parallel.mae, serial.mae);
    EXPECT_EQ(parallel.kendall_tau, serial.kendall_tau);
    EXPECT_EQ(parallel.spearman_rho, serial.spearman_rho);
    EXPECT_EQ(parallel.num_queries, serial.num_queries);
  }
}

}  // namespace
}  // namespace pathrank
