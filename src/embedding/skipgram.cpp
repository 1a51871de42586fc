#include "embedding/skipgram.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "embedding/alias_table.h"

namespace pathrank::embedding {
namespace {

/// Numerically safe logistic.
inline float Sigmoid(float x) {
  if (x > 8.0f) return 1.0f;
  if (x < -8.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

/// SGD state shared by the serial and data-parallel paths.
struct SgnsContext {
  const std::vector<std::vector<graph::VertexId>>* corpus = nullptr;
  const SkipGramConfig* config = nullptr;
  const AliasTable* negative_table = nullptr;
  size_t dims = 0;
  double total_steps = 0.0;
};

/// Runs the word2vec SGNS inner loop over walks
/// walk_order[[begin, end)], updating `in`/`out` in place. `step_base` is
/// the global token index of walk_order[begin] — the linear lr decay then
/// matches the serial schedule exactly no matter how the range is
/// sharded.
void TrainWalkRange(const SgnsContext& ctx,
                    const std::vector<size_t>& walk_order, size_t begin,
                    size_t end, double step_base, nn::Matrix* in,
                    nn::Matrix* out, pathrank::Rng& rng,
                    std::vector<float>& grad_center) {
  const SkipGramConfig& config = *ctx.config;
  const size_t dims = ctx.dims;
  double step = step_base;
  for (size_t wi = begin; wi < end; ++wi) {
    const auto& walk = (*ctx.corpus)[walk_order[wi]];
    for (size_t pos = 0; pos < walk.size(); ++pos, ++step) {
      const double lr_frac = 1.0 - step / ctx.total_steps;
      const float lr =
          static_cast<float>(config.lr0 * std::max(lr_frac, 0.01));
      // Dynamic window shrink (word2vec trick): uniform in [1, window].
      const int w = 1 + static_cast<int>(rng.NextBounded(
                            static_cast<uint64_t>(config.window)));
      const size_t center = walk[pos];
      float* v_in = in->row(center);

      const size_t lo = pos >= static_cast<size_t>(w) ? pos - w : 0;
      const size_t hi =
          std::min(walk.size() - 1, pos + static_cast<size_t>(w));
      for (size_t ctx_pos = lo; ctx_pos <= hi; ++ctx_pos) {
        if (ctx_pos == pos) continue;
        std::fill(grad_center.begin(), grad_center.end(), 0.0f);
        // One positive + `negatives` negative targets.
        for (int neg = -1; neg < config.negatives; ++neg) {
          size_t target;
          float label;
          if (neg < 0) {
            target = walk[ctx_pos];
            label = 1.0f;
          } else {
            target = ctx.negative_table->Sample(rng);
            if (target == center) continue;
            label = 0.0f;
          }
          float* v_out = out->row(target);
          float dot = 0.0f;
          for (size_t d = 0; d < dims; ++d) dot += v_in[d] * v_out[d];
          const float g = (label - Sigmoid(dot)) * lr;
          for (size_t d = 0; d < dims; ++d) {
            grad_center[d] += g * v_out[d];
            v_out[d] += g * v_in[d];
          }
        }
        for (size_t d = 0; d < dims; ++d) v_in[d] += grad_center[d];
      }
    }
  }
}

}  // namespace

nn::Matrix TrainSkipGram(
    const std::vector<std::vector<graph::VertexId>>& corpus,
    size_t vocab_size, const SkipGramConfig& config, pathrank::Rng& rng) {
  PR_CHECK(config.dims > 0);
  PR_CHECK(config.window >= 1);
  PR_CHECK(config.negatives >= 1);
  const auto dims = static_cast<size_t>(config.dims);

  // Unigram^power negative-sampling distribution.
  std::vector<double> counts(vocab_size, 0.0);
  size_t total_tokens = 0;
  for (const auto& walk : corpus) {
    for (graph::VertexId v : walk) {
      PR_CHECK(static_cast<size_t>(v) < vocab_size);
      counts[v] += 1.0;
      ++total_tokens;
    }
  }
  PR_CHECK(total_tokens > 0) << "empty corpus";
  for (double& c : counts) c = std::pow(c, config.unigram_power);
  const AliasTable negative_table(counts);

  // word2vec-style init: input U(-0.5/d, 0.5/d), output zero.
  nn::Matrix in(vocab_size, dims);
  nn::Matrix out(vocab_size, dims);
  nn::UniformInit(&in, 0.5f / static_cast<float>(dims), rng);

  SgnsContext ctx;
  ctx.corpus = &corpus;
  ctx.config = &config;
  ctx.negative_table = &negative_table;
  ctx.dims = dims;
  ctx.total_steps = static_cast<double>(config.epochs) *
                    static_cast<double>(total_tokens);

  std::vector<size_t> walk_order(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) walk_order[i] = i;
  // Token-prefix counts over the shuffled order, recomputed per epoch:
  // pref[i] is the number of tokens in walks before position i, which
  // anchors each shard's lr schedule at its exact serial step.
  std::vector<size_t> pref(corpus.size() + 1, 0);

  // Data-parallel local SGD: each round, every shard trains on a private
  // copy of the matrices over its slice of walks (own Rng stream), then
  // the copies are averaged in shard order. One shard degenerates to the
  // classic serial loop on the canonical matrices. The shard count is part
  // of the arithmetic (each round averages the shard copies), so it is a
  // constant, not the pool size: the table is identical for any thread
  // count. Rounds are short enough that the averaged trajectory tracks
  // serial SGD closely.
  constexpr size_t kSkipGramShards = 4;
  const size_t max_shards = NumShardsFor(corpus.size(), kSkipGramShards);
  constexpr size_t kWalksPerShardPerRound = 64;
  // Averaging traffic is O(vocab * dims) per round regardless of the SGD
  // work done, so also require ~4 round tokens per vocabulary row; for
  // large graphs this grows the round instead of letting the averaging
  // dominate.
  const size_t avg_walk_tokens =
      std::max<size_t>(1, total_tokens / corpus.size());
  const size_t min_round_walks = 4 * vocab_size / avg_walk_tokens + 1;
  const size_t round_walks =
      max_shards == 1
          ? corpus.size()
          : std::max(max_shards * kWalksPerShardPerRound, min_round_walks);

  std::vector<nn::Matrix> shard_in(max_shards);
  std::vector<nn::Matrix> shard_out(max_shards);
  std::vector<std::vector<float>> shard_grad(max_shards,
                                             std::vector<float>(dims));
  std::vector<pathrank::Rng> shard_rngs;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(walk_order);
    for (size_t i = 0; i < walk_order.size(); ++i) {
      pref[i + 1] = pref[i] + corpus[walk_order[i]].size();
    }
    const double epoch_base =
        static_cast<double>(epoch) * static_cast<double>(total_tokens);

    for (size_t r0 = 0; r0 < walk_order.size(); r0 += round_walks) {
      const size_t r1 = std::min(walk_order.size(), r0 + round_walks);
      const size_t shards = NumShardsFor(r1 - r0, max_shards);
      shard_rngs.clear();
      for (size_t s = 0; s < shards; ++s) shard_rngs.push_back(rng.Fork());

      if (shards == 1) {
        TrainWalkRange(ctx, walk_order, r0, r1,
                       epoch_base + static_cast<double>(pref[r0]), &in,
                       &out, shard_rngs[0], shard_grad[0]);
        continue;
      }

      for (size_t s = 0; s < shards; ++s) {
        shard_in[s] = in;
        shard_out[s] = out;
      }
      ParallelForShards(
          r0, r1,
          [&](size_t s, size_t lo, size_t hi) {
            TrainWalkRange(ctx, walk_order, lo, hi,
                           epoch_base + static_cast<double>(pref[lo]),
                           &shard_in[s], &shard_out[s], shard_rngs[s],
                           shard_grad[s]);
          },
          shards);
      // Shard-ordered averaging back onto the canonical matrices.
      const float inv = 1.0f / static_cast<float>(shards);
      in = std::move(shard_in[0]);
      out = std::move(shard_out[0]);
      for (size_t s = 1; s < shards; ++s) {
        in.Add(shard_in[s]);
        out.Add(shard_out[s]);
      }
      in.Scale(inv);
      out.Scale(inv);
    }
  }
  return in;
}

}  // namespace pathrank::embedding
