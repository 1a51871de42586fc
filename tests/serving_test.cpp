// Serving stack: recording vs inference scratch equivalence (every cell /
// pooling / multi-task / direction configuration), skip-init construction,
// immutable snapshots, and the replica-pool ServingEngine (batch-vs-single
// and concurrent-vs-serial bitwise equivalence).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/model.h"
#include "graph/network_builder.h"
#include "serving/model_snapshot.h"
#include "serving/serving_engine.h"

namespace pathrank::serving {
namespace {

nn::SequenceBatch ToyBatch() {
  return nn::SequenceBatch::FromSequences(
      {{1, 2, 3, 4}, {5, 6}, {7, 8, 9, 10, 11}, {12}});
}

/// Scores `batch` through a fresh inference scratch.
std::vector<float> Score(const core::PathRankModel& model,
                         const nn::SequenceBatch& batch) {
  core::InferenceScratch scratch;
  return model.Forward(batch, &scratch);
}

core::PathRankConfig SmallConfig() {
  core::PathRankConfig cfg;
  cfg.embedding_dim = 8;
  cfg.hidden_size = 12;
  cfg.seed = 3;
  return cfg;
}

// ---- one forward body, two scratch kinds ------------------------------

TEST(ForwardScratch, RecordingBitwiseEqualToInferenceAcrossConfigs) {
  for (nn::CellType cell :
       {nn::CellType::kGru, nn::CellType::kRnn, nn::CellType::kLstm}) {
    for (bool bidirectional : {false, true}) {
      for (core::Pooling pooling :
           {core::Pooling::kFinalState, core::Pooling::kMean}) {
        for (bool multi_task : {false, true}) {
          core::PathRankConfig cfg = SmallConfig();
          cfg.cell = cell;
          cfg.bidirectional = bidirectional;
          cfg.pooling = pooling;
          cfg.multi_task = multi_task;
          core::PathRankModel model(16, cfg);

          core::InferenceScratch tape;
          tape.record = true;
          const auto expected = model.ForwardFull(ToyBatch(), &tape);
          core::InferenceScratch scratch;
          const auto actual = model.ForwardFull(ToyBatch(), &scratch);

          ASSERT_EQ(expected.scores.size(), actual.scores.size());
          for (size_t i = 0; i < expected.scores.size(); ++i) {
            EXPECT_EQ(expected.scores[i], actual.scores[i])
                << "cell=" << static_cast<int>(cell)
                << " bidi=" << bidirectional
                << " pool=" << static_cast<int>(pooling)
                << " mt=" << multi_task << " i=" << i;
          }
          ASSERT_EQ(expected.aux_length.size(), actual.aux_length.size());
          for (size_t i = 0; i < expected.aux_length.size(); ++i) {
            EXPECT_EQ(expected.aux_length[i], actual.aux_length[i]);
            EXPECT_EQ(expected.aux_time[i], actual.aux_time[i]);
          }
        }
      }
    }
  }
}

TEST(ForwardScratch, ScratchReuseAcrossGeometriesIsStable) {
  core::PathRankModel model(16, SmallConfig());
  core::InferenceScratch scratch;
  // Alternate between batch geometries with one scratch: stale shapes
  // must never leak into results.
  const auto small = nn::SequenceBatch::FromSequences({{3, 1}});
  const auto expected_toy = Score(model, ToyBatch());
  const auto expected_small = Score(model, small);
  for (int round = 0; round < 3; ++round) {
    const auto toy_scores = model.Forward(ToyBatch(), &scratch);
    const auto small_scores = model.Forward(small, &scratch);
    for (size_t i = 0; i < expected_toy.size(); ++i) {
      EXPECT_EQ(expected_toy[i], toy_scores[i]);
    }
    EXPECT_EQ(expected_small[0], small_scores[0]);
  }
}

// ---- skip-init construction ------------------------------------------

TEST(SkipInit, CopiedReplicaScoresBitwiseEqual) {
  for (bool multi_task : {false, true}) {
    core::PathRankConfig cfg = SmallConfig();
    cfg.cell = nn::CellType::kLstm;  // exercises the forget-bias init too
    cfg.multi_task = multi_task;
    core::PathRankModel source(16, cfg);
    core::PathRankModel replica(16, cfg, core::InitMode::kSkipInit);
    replica.CopyParametersFrom(source);
    const auto expected = Score(source, ToyBatch());
    const auto actual = Score(replica, ToyBatch());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i], actual[i]);
    }
  }
}

TEST(SkipInit, EmbeddingFreezeIsStillApplied) {
  core::PathRankConfig cfg = SmallConfig();
  cfg.finetune_embedding = false;  // PR-A1
  core::PathRankModel model(16, cfg, core::InitMode::kSkipInit);
  // The embedding must be frozen exactly as on the random-init path.
  bool found_frozen_embedding = false;
  for (const nn::Parameter* p :
       static_cast<const core::PathRankModel&>(model).Parameters()) {
    if (p->name == "embedding") found_frozen_embedding = p->frozen;
  }
  EXPECT_TRUE(found_frozen_embedding);
}

// ---- snapshots --------------------------------------------------------

TEST(ModelSnapshot, ConstSnapshotIsUsable) {
  core::PathRankModel model(16, SmallConfig());
  const std::shared_ptr<const ModelSnapshot> snapshot =
      ModelSnapshot::Capture(model);
  // Everything below goes through a const ModelSnapshot&.
  const ModelSnapshot& snap = *snapshot;
  EXPECT_EQ(snap.vocab_size(), 16u);
  EXPECT_EQ(snap.NumParameters(), model.NumParameters());
  EXPECT_EQ(snap.config().hidden_size, SmallConfig().hidden_size);

  core::InferenceScratch scratch;
  const auto expected = Score(model, ToyBatch());
  const auto actual = snap.model().Forward(ToyBatch(), &scratch);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]);
  }
}

TEST(ModelSnapshot, IsImmuneToLaterTrainingOfTheSource) {
  core::PathRankModel model(16, SmallConfig());
  const auto snapshot = ModelSnapshot::Capture(model);
  core::InferenceScratch scratch;
  const auto before = snapshot->model().Forward(ToyBatch(), &scratch);

  // Perturb the source model's weights (stand-in for continued training).
  for (nn::Parameter* p : model.Parameters()) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] += 0.25f;
    }
  }
  const auto source_now = Score(model, ToyBatch());
  const auto after = snapshot->model().Forward(ToyBatch(), &scratch);
  bool source_changed = false;
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]);
    source_changed = source_changed || source_now[i] != before[i];
  }
  EXPECT_TRUE(source_changed);
}

TEST(ModelSnapshot, MaterializeRoundTrips) {
  core::PathRankModel model(16, SmallConfig());
  const auto snapshot = ModelSnapshot::Capture(model);
  const auto copy = snapshot->Materialize();
  const auto expected = Score(model, ToyBatch());
  const auto actual = Score(*copy, ToyBatch());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]);
  }
}

// ---- serving engine ---------------------------------------------------

struct EngineFixture {
  graph::RoadNetwork network = graph::BuildTestNetwork();
  core::PathRankModel model;  // initialised after network (member order)
  data::CandidateGenConfig gen;

  EngineFixture() : model(network.num_vertices(), SmallConfig()) {
    gen.k = 5;
  }
};

TEST(ServingEngine, ScoreBatchMatchesTrainingForward) {
  EngineFixture fx;
  const ServingEngine engine(fx.network, fx.model);
  const auto candidates =
      data::GenerateCandidatePaths(fx.network, 0, 63, fx.gen);
  ASSERT_GE(candidates.size(), 2u);

  // Reference: the model's own scores for the same batch.
  std::vector<std::vector<int32_t>> seqs;
  for (const auto& p : candidates) {
    std::vector<int32_t> seq(p.vertices.begin(), p.vertices.end());
    seqs.push_back(std::move(seq));
  }
  const auto scores =
      Score(fx.model, nn::SequenceBatch::FromSequences(seqs));

  auto scored = engine.ScoreBatch(candidates);
  ASSERT_EQ(scored.size(), candidates.size());
  // Engine output is sorted; check it is a permutation with exact scores.
  std::vector<double> expected(scores.begin(), scores.end());
  std::sort(expected.begin(), expected.end(), std::greater<double>());
  for (size_t i = 0; i < scored.size(); ++i) {
    EXPECT_EQ(expected[i], scored[i].score);
    if (i > 0) {
      EXPECT_GE(scored[i - 1].score, scored[i].score);
    }
  }
}

TEST(ServingEngine, ConcurrentRankIsBitwiseEqualToSerial) {
  EngineFixture fx;
  ServingOptions options;
  options.num_replicas = 3;  // fewer replicas than threads: locks contend
  options.candidates = fx.gen;
  const ServingEngine engine(fx.network, fx.model, options);

  const std::vector<RankQuery> queries = {
      {0, 63}, {7, 56}, {3, 60}, {21, 42}, {14, 49}, {8, 55}, {2, 61}};

  // Serial reference through the same engine.
  std::vector<std::vector<ScoredPath>> expected;
  expected.reserve(queries.size());
  for (const auto& q : queries) {
    expected.push_back(engine.Rank(q.source, q.destination));
  }

  // N external threads x M rounds over one shared engine. Every result
  // must be bitwise identical to the serial reference.
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        // Stagger starting offsets so threads hit different replicas.
        const size_t start = (t + round) % queries.size();
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t q = (start + i) % queries.size();
          const auto got =
              engine.Rank(queries[q].source, queries[q].destination);
          if (got.size() != expected[q].size()) {
            mismatches.fetch_add(1);
            continue;
          }
          for (size_t j = 0; j < got.size(); ++j) {
            if (got[j].score != expected[q][j].score ||
                got[j].path.vertices != expected[q][j].path.vertices) {
              mismatches.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServingEngine, PoolShardedRankAndExternalRankCoexist) {
  // Rank called from inside global-pool shards (pathrank_cli serve's
  // self-drive) while external threads issue single queries must neither
  // deadlock nor change any result.
  EngineFixture fx;
  ServingOptions options;
  options.num_replicas = 2;
  options.candidates = fx.gen;
  const ServingEngine engine(fx.network, fx.model, options);

  const std::vector<RankQuery> queries = {{0, 63}, {7, 56}, {3, 60},
                                          {21, 42}, {14, 49}, {8, 55}};
  // Each shard writes its own per-query slots, so the result does not
  // depend on scheduling.
  auto rank_in_pool = [&] {
    std::vector<std::vector<ScoredPath>> results(queries.size());
    ParallelForShards(0, queries.size(),
                      [&](size_t /*shard*/, size_t lo, size_t hi) {
                        for (size_t q = lo; q < hi; ++q) {
                          results[q] = engine.Rank(queries[q].source,
                                                   queries[q].destination);
                        }
                      });
    return results;
  };
  std::vector<std::vector<ScoredPath>> expected;
  for (const auto& q : queries) {
    expected.push_back(engine.Rank(q.source, q.destination));
  }

  std::atomic<int> mismatches{0};
  std::thread external([&] {
    for (int round = 0; round < 10; ++round) {
      const size_t q = static_cast<size_t>(round) % queries.size();
      const auto got = engine.Rank(queries[q].source, queries[q].destination);
      if (got.size() != expected[q].size()) mismatches.fetch_add(1);
    }
  });
  for (int round = 0; round < 5; ++round) {
    const auto batched = rank_in_pool();
    for (size_t q = 0; q < queries.size(); ++q) {
      if (batched[q].size() != expected[q].size()) {
        mismatches.fetch_add(1);
        continue;
      }
      for (size_t i = 0; i < batched[q].size(); ++i) {
        if (batched[q][i].score != expected[q][i].score) {
          mismatches.fetch_add(1);
        }
      }
    }
  }
  external.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServingEngine, EmptyBatchAndEmptyPathsAreFine) {
  EngineFixture fx;
  const ServingEngine engine(fx.network, fx.model);
  EXPECT_TRUE(engine.ScoreBatch({}).empty());
}

TEST(ServingEngine, TwoEnginesOverOneModelAgreeBitwise) {
  // Two independently constructed engines capture independent snapshots
  // of the same model; determinism demands bitwise-equal rankings.
  EngineFixture fx;
  const ServingEngine first(fx.network, fx.model);
  const ServingEngine second(fx.network, fx.model);
  const auto via_first = first.Rank(0, 63, fx.gen);
  const auto via_second = second.Rank(0, 63, fx.gen);
  ASSERT_EQ(via_first.size(), via_second.size());
  for (size_t i = 0; i < via_first.size(); ++i) {
    EXPECT_EQ(via_first[i].score, via_second[i].score);
    EXPECT_EQ(via_first[i].path.vertices, via_second[i].path.vertices);
  }
}

}  // namespace
}  // namespace pathrank::serving
