#include "core/model.h"

#include <cmath>
#include <stdexcept>

#include "common/logging.h"

namespace pathrank::core {
namespace {

/// The heads' output squashing. BackwardFull recomputes each score from
/// the recorded logit through this same function, so it sees bitwise the
/// value Forward returned.
float Sigmoid(float logit) { return 1.0f / (1.0f + std::exp(-logit)); }

/// pooled[b] = mean over t < len_b of h[t + 1][b], the state after step t
/// in a recurrent scratch.
void MeanPool(const std::vector<nn::Matrix>& h,
              const std::vector<int32_t>& lengths, size_t num_steps,
              nn::Matrix* pooled) {
  const size_t batch = lengths.size();
  const size_t hidden = h[0].cols();
  pooled->Resize(batch, hidden);
  for (size_t t = 0; t < num_steps; ++t) {
    const nn::Matrix& ht = h[t + 1];
    for (size_t b = 0; b < batch; ++b) {
      if (static_cast<int32_t>(t) >= lengths[b]) continue;
      const float* src = ht.row(b);
      float* dst = pooled->row(b);
      for (size_t c = 0; c < hidden; ++c) dst[c] += src[c];
    }
  }
  for (size_t b = 0; b < batch; ++b) {
    const float inv = 1.0f / static_cast<float>(lengths[b]);
    float* dst = pooled->row(b);
    for (size_t c = 0; c < hidden; ++c) dst[c] *= inv;
  }
}

/// Expands d(loss)/d(pooled) into per-step hidden-state gradients.
void MeanPoolBackward(const nn::Matrix& d_pooled,
                      const std::vector<int32_t>& lengths, size_t num_steps,
                      std::vector<nn::Matrix>* d_h_steps) {
  const size_t batch = d_pooled.rows();
  const size_t hidden = d_pooled.cols();
  if (d_h_steps->size() != num_steps) d_h_steps->resize(num_steps);
  for (size_t t = 0; t < num_steps; ++t) {
    nn::Matrix& d = (*d_h_steps)[t];
    d.Resize(batch, hidden);  // zero-fill: padded rows must carry 0 grad
    for (size_t b = 0; b < batch; ++b) {
      if (static_cast<int32_t>(t) >= lengths[b]) continue;
      const float inv = 1.0f / static_cast<float>(lengths[b]);
      const float* src = d_pooled.row(b);
      float* dst = d.row(b);
      for (size_t c = 0; c < hidden; ++c) dst[c] = src[c] * inv;
    }
  }
}

}  // namespace

PathRankModel::PathRankModel(size_t vocab_size, const PathRankConfig& config,
                             InitMode init)
    : config_(config) {
  if (config.embedding_dim == 0 || config.hidden_size == 0) {
    throw std::invalid_argument(
        "PathRankModel needs embedding_dim and hidden_size >= 1");
  }
  // `weights` is the seeded Rng, or nn::kSkipInit: snapshot and checkpoint
  // builders overwrite every value (CopyParametersFrom, LoadModel), so
  // they skip the O(vocab x dim) RNG draws.
  auto build = [&](auto& weights) {
    const size_t E = config.embedding_dim;
    const size_t H = config.hidden_size;
    embedding_ = std::make_unique<nn::EmbeddingLayer>(vocab_size, E, weights);
    fwd_cell_ = nn::MakeRecurrentLayer(config.cell, E, H, weights, "cell_fwd");
    if (config.bidirectional) {
      bwd_cell_ =
          nn::MakeRecurrentLayer(config.cell, E, H, weights, "cell_bwd");
    }
    const size_t head_in = config.bidirectional ? 2 * H : H;
    head_ = std::make_unique<nn::LinearLayer>(head_in, 1, weights, "head");
    if (config.multi_task) {
      aux_length_head_ =
          std::make_unique<nn::LinearLayer>(head_in, 1, weights, "aux_len");
      aux_time_head_ =
          std::make_unique<nn::LinearLayer>(head_in, 1, weights, "aux_time");
    }
  };
  if (init == InitMode::kSkipInit) {
    build(nn::kSkipInit);
  } else {
    pathrank::Rng rng(config.seed);
    build(rng);
  }
  embedding_->set_frozen(!config.finetune_embedding);
}

void PathRankModel::InitializeEmbedding(const nn::Matrix& table) {
  embedding_->LoadTable(table);
}

std::vector<float> PathRankModel::Forward(const nn::SequenceBatch& batch,
                                          InferenceScratch* scratch) const {
  return ForwardFull(batch, scratch).scores;
}

PathRankModel::Outputs PathRankModel::ForwardFull(
    const nn::SequenceBatch& batch, InferenceScratch* scratch) const {
  PR_CHECK(batch.batch_size > 0 && batch.max_len > 0);
  InferenceScratch& s = *scratch;
  s.fwd_cell.record = s.record;
  s.bwd_cell.record = s.record;
  if (s.record && &batch != &s.batch) s.batch = batch;
  const size_t T = batch.max_len;
  const size_t B = batch.batch_size;
  const size_t H = config_.hidden_size;

  if (s.x_steps.size() != T) s.x_steps.resize(T);
  for (size_t t = 0; t < T; ++t) {
    embedding_->Lookup(batch, t, &s.x_steps[t]);
  }
  fwd_cell_->Forward(s.x_steps, batch.lengths, &s.fwd_cell, &s.repr_fwd);
  if (config_.pooling == Pooling::kMean) {
    MeanPool(s.fwd_cell.h, batch.lengths, T, &s.repr_fwd);
  }

  if (config_.bidirectional) {
    s.batch_rev = batch.Reversed();
    if (s.x_steps_rev.size() != T) s.x_steps_rev.resize(T);
    for (size_t t = 0; t < T; ++t) {
      embedding_->Lookup(s.batch_rev, t, &s.x_steps_rev[t]);
    }
    bwd_cell_->Forward(s.x_steps_rev, s.batch_rev.lengths, &s.bwd_cell,
                       &s.repr_bwd);
    if (config_.pooling == Pooling::kMean) {
      MeanPool(s.bwd_cell.h, s.batch_rev.lengths, T, &s.repr_bwd);
    }

    s.concat_h.ResizeNoZero(B, 2 * H);  // fully overwritten below
    for (size_t b = 0; b < B; ++b) {
      float* dst = s.concat_h.row(b);
      std::copy(s.repr_fwd.row(b), s.repr_fwd.row(b) + H, dst);
      std::copy(s.repr_bwd.row(b), s.repr_bwd.row(b) + H, dst + H);
    }
  } else {
    s.concat_h = s.repr_fwd;
  }

  head_->Forward(s.concat_h, &s.logits);
  Outputs out;
  out.scores.resize(B);
  for (size_t b = 0; b < B; ++b) out.scores[b] = Sigmoid(s.logits.at(b, 0));
  if (config_.multi_task) {
    aux_length_head_->Forward(s.concat_h, &s.aux_length_logits);
    aux_time_head_->Forward(s.concat_h, &s.aux_time_logits);
    out.aux_length.resize(B);
    out.aux_time.resize(B);
    for (size_t b = 0; b < B; ++b) {
      out.aux_length[b] = Sigmoid(s.aux_length_logits.at(b, 0));
      out.aux_time[b] = Sigmoid(s.aux_time_logits.at(b, 0));
    }
  }
  return out;
}

void PathRankModel::Backward(const InferenceScratch& tape,
                             std::span<const float> d_scores,
                             nn::Gradients* grads) const {
  BackwardFull(tape, d_scores, {}, {}, grads);
}

void PathRankModel::BackwardFull(const InferenceScratch& tape,
                                 std::span<const float> d_scores,
                                 std::span<const float> d_aux_length,
                                 std::span<const float> d_aux_time,
                                 nn::Gradients* grads) const {
  PR_CHECK(tape.record) << "Backward needs a tape that recorded a Forward";
  const size_t B = tape.batch.batch_size;
  const size_t H = config_.hidden_size;
  const size_t T = tape.batch.max_len;
  PR_CHECK(d_scores.size() == B) << "gradient batch-size mismatch";
  PR_CHECK(grads->size() == Parameters().size())
      << "gradient set size mismatch";

  // Each layer's slice of `grads`, taken in Parameters() order.
  nn::GradientSpan rest(*grads);
  auto take = [&rest](size_t n) {
    const nn::GradientSpan slice = rest.first(n);
    rest = rest.subspan(n);
    return slice;
  };
  nn::Matrix& embedding_grad = take(1)[0];
  const nn::GradientSpan fwd_grads = take(fwd_cell_->Parameters().size());
  const nn::GradientSpan bwd_grads =
      bwd_cell_ != nullptr ? take(bwd_cell_->Parameters().size())
                           : nn::GradientSpan{};
  const size_t head_size = head_->Parameters().size();
  const nn::GradientSpan head_grads = take(head_size);
  const nn::GradientSpan aux_length_grads =
      config_.multi_task ? take(head_size) : nn::GradientSpan{};
  const nn::GradientSpan aux_time_grads =
      config_.multi_task ? take(head_size) : nn::GradientSpan{};

  // Through the sigmoid: dL/dlogit = dL/ds * s * (1 - s), with s
  // recomputed from the recorded logit.
  auto d_logits_of = [&](const nn::Matrix& logits,
                         std::span<const float> d_out) {
    nn::Matrix d_logits(B, 1);
    for (size_t b = 0; b < B; ++b) {
      const float s = Sigmoid(logits.at(b, 0));
      d_logits.at(b, 0) = d_out[b] * s * (1.0f - s);
    }
    return d_logits;
  };

  nn::Matrix d_concat;
  head_->Backward(tape.concat_h, d_logits_of(tape.logits, d_scores),
                  head_grads, &d_concat);

  // Auxiliary heads contribute to the shared representation's gradient.
  auto add_aux = [&](const nn::LinearLayer& aux_head,
                     const nn::Matrix& logits, std::span<const float> d_out,
                     nn::GradientSpan aux_grads) {
    if (d_out.empty()) return;
    PR_CHECK(d_out.size() == B);
    nn::Matrix d_aux_concat;
    aux_head.Backward(tape.concat_h, d_logits_of(logits, d_out), aux_grads,
                      &d_aux_concat);
    d_concat.Add(d_aux_concat);
  };
  if (config_.multi_task) {
    add_aux(*aux_length_head_, tape.aux_length_logits, d_aux_length,
            aux_length_grads);
    add_aux(*aux_time_head_, tape.aux_time_logits, d_aux_time,
            aux_time_grads);
  } else {
    PR_CHECK(d_aux_length.empty() && d_aux_time.empty())
        << "auxiliary gradients require multi_task";
  }

  auto backprop_cell = [&](const nn::RecurrentLayer& cell,
                           const nn::RecurrentScratch& cell_tape,
                           const std::vector<nn::Matrix>& x_steps,
                           const nn::SequenceBatch& cell_batch,
                           const nn::Matrix& d_repr,
                           nn::GradientSpan cell_grads,
                           std::vector<nn::Matrix>* d_x_steps) {
    if (config_.pooling == Pooling::kMean) {
      std::vector<nn::Matrix> d_h_steps;
      MeanPoolBackward(d_repr, cell_batch.lengths, T, &d_h_steps);
      cell.BackwardSteps(x_steps, cell_batch.lengths, cell_tape, d_h_steps,
                         cell_grads, d_x_steps);
    } else {
      cell.Backward(x_steps, cell_batch.lengths, cell_tape, d_repr,
                    cell_grads, d_x_steps);
    }
    if (embedding_->frozen()) return;  // the optimizer never reads it
    for (size_t t = 0; t < T; ++t) {
      embedding_->AccumulateGrad(cell_batch, t, (*d_x_steps)[t],
                                 &embedding_grad);
    }
  };

  std::vector<nn::Matrix> d_x_steps;
  if (config_.bidirectional) {
    nn::Matrix d_repr_fwd(B, H);
    nn::Matrix d_repr_bwd(B, H);
    for (size_t b = 0; b < B; ++b) {
      const float* src = d_concat.row(b);
      std::copy(src, src + H, d_repr_fwd.row(b));
      std::copy(src + H, src + 2 * H, d_repr_bwd.row(b));
    }
    backprop_cell(*fwd_cell_, tape.fwd_cell, tape.x_steps, tape.batch,
                  d_repr_fwd, fwd_grads, &d_x_steps);
    backprop_cell(*bwd_cell_, tape.bwd_cell, tape.x_steps_rev,
                  tape.batch_rev, d_repr_bwd, bwd_grads, &d_x_steps);
  } else {
    backprop_cell(*fwd_cell_, tape.fwd_cell, tape.x_steps, tape.batch,
                  d_concat, fwd_grads, &d_x_steps);
  }
}

void PathRankModel::CopyParametersFrom(const PathRankModel& other) {
  const nn::ConstParameterList src = other.Parameters();
  const nn::ParameterList dst = Parameters();
  PR_CHECK(src.size() == dst.size()) << "architecture mismatch";
  for (size_t i = 0; i < src.size(); ++i) {
    PR_CHECK(dst[i]->value.SameShape(src[i]->value))
        << dst[i]->name << " shape mismatch";
    dst[i]->value = src[i]->value;
  }
}

nn::ParameterList PathRankModel::Parameters() {
  nn::ParameterList params;
  params.push_back(&embedding_->parameter());
  for (nn::Parameter* p : fwd_cell_->Parameters()) params.push_back(p);
  if (bwd_cell_ != nullptr) {
    for (nn::Parameter* p : bwd_cell_->Parameters()) params.push_back(p);
  }
  for (nn::Parameter* p : head_->Parameters()) params.push_back(p);
  if (aux_length_head_ != nullptr) {
    for (nn::Parameter* p : aux_length_head_->Parameters()) params.push_back(p);
    for (nn::Parameter* p : aux_time_head_->Parameters()) params.push_back(p);
  }
  return params;
}

nn::ConstParameterList PathRankModel::Parameters() const {
  nn::ConstParameterList params;
  params.push_back(&embedding_->parameter());
  const auto& fwd = *fwd_cell_;
  for (const nn::Parameter* p : fwd.Parameters()) params.push_back(p);
  if (bwd_cell_ != nullptr) {
    const auto& bwd = *bwd_cell_;
    for (const nn::Parameter* p : bwd.Parameters()) params.push_back(p);
  }
  const auto& head = *head_;
  for (const nn::Parameter* p : head.Parameters()) params.push_back(p);
  if (aux_length_head_ != nullptr) {
    const auto& aux_len = *aux_length_head_;
    const auto& aux_time = *aux_time_head_;
    for (const nn::Parameter* p : aux_len.Parameters()) params.push_back(p);
    for (const nn::Parameter* p : aux_time.Parameters()) params.push_back(p);
  }
  return params;
}

size_t PathRankModel::NumParameters() const {
  size_t total = 0;
  for (const nn::Parameter* p : Parameters()) total += p->value.size();
  return total;
}

}  // namespace pathrank::core
