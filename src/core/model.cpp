#include "core/model.h"

#include <cmath>

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
  const size_t head_in =
      config.bidirectional ? 2 * config.hidden_size : config.hidden_size;
  if (init == InitMode::kSkipInit) {
    // Replica/snapshot path: allocate every tensor but skip the RNG draws
    // — the caller overwrites all values (CopyParametersFrom, LoadModel).
    embedding_ = std::make_unique<nn::EmbeddingLayer>(
        vocab_size, config.embedding_dim, nn::kSkipInit);
    fwd_cell_ = nn::MakeRecurrentLayer(config.cell, config.embedding_dim,
                                       config.hidden_size, nn::kSkipInit,
                                       "cell_fwd");
    if (config.bidirectional) {
      bwd_cell_ = nn::MakeRecurrentLayer(config.cell, config.embedding_dim,
                                         config.hidden_size, nn::kSkipInit,
                                         "cell_bwd");
    }
    head_ = std::make_unique<nn::LinearLayer>(head_in, 1, nn::kSkipInit,
                                              "head");
    if (config.multi_task) {
      aux_length_head_ = std::make_unique<nn::LinearLayer>(
          head_in, 1, nn::kSkipInit, "aux_len");
      aux_time_head_ = std::make_unique<nn::LinearLayer>(
          head_in, 1, nn::kSkipInit, "aux_time");
    }
  } else {
    pathrank::Rng rng(config.seed);
    embedding_ = std::make_unique<nn::EmbeddingLayer>(
        vocab_size, config.embedding_dim, rng);
    fwd_cell_ = nn::MakeRecurrentLayer(config.cell, config.embedding_dim,
                                       config.hidden_size, rng, "cell_fwd");
    if (config.bidirectional) {
      bwd_cell_ = nn::MakeRecurrentLayer(config.cell, config.embedding_dim,
                                         config.hidden_size, rng, "cell_bwd");
    }
    head_ = std::make_unique<nn::LinearLayer>(head_in, 1, rng, "head");
    if (config.multi_task) {
      aux_length_head_ =
          std::make_unique<nn::LinearLayer>(head_in, 1, rng, "aux_len");
      aux_time_head_ =
          std::make_unique<nn::LinearLayer>(head_in, 1, rng, "aux_time");
    }
  }
  embedding_->set_frozen(!config.finetune_embedding);
}

void PathRankModel::InitializeEmbedding(const nn::Matrix& table) {
  embedding_->LoadTable(table);
}

std::vector<float> PathRankModel::Forward(const nn::SequenceBatch& batch) {
  return ForwardFull(batch).scores;
}

PathRankModel::Outputs PathRankModel::ForwardFull(
    const nn::SequenceBatch& batch) {
  // The inference body, run into the tape with per-step gate slots.
  tape_.batch = batch;
  tape_.fwd_cell.record = true;
  tape_.bwd_cell.record = true;
  return ForwardInferenceFull(tape_.batch, &tape_);
}

std::vector<float> PathRankModel::ForwardInference(
    const nn::SequenceBatch& batch, InferenceScratch* scratch) const {
  return ForwardInferenceFull(batch, scratch).scores;
}

PathRankModel::Outputs PathRankModel::ForwardInferenceFull(
    const nn::SequenceBatch& batch, InferenceScratch* scratch) const {
  PR_CHECK(batch.batch_size > 0 && batch.max_len > 0);
  InferenceScratch& s = *scratch;
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

void PathRankModel::Backward(const std::vector<float>& d_scores) {
  BackwardFull(d_scores, {}, {});
}

void PathRankModel::BackwardFull(const std::vector<float>& d_scores,
                                 const std::vector<float>& d_aux_length,
                                 const std::vector<float>& d_aux_time) {
  const InferenceScratch& tape = tape_;
  const size_t B = tape.batch.batch_size;
  const size_t H = config_.hidden_size;
  const size_t T = tape.batch.max_len;
  PR_CHECK(d_scores.size() == B) << "gradient batch-size mismatch";

  // Through the sigmoid: dL/dlogit = dL/ds * s * (1 - s), with s
  // recomputed from the recorded logit.
  auto d_logits_of = [&](const nn::Matrix& logits,
                         const std::vector<float>& d_out) {
    nn::Matrix d_logits(B, 1);
    for (size_t b = 0; b < B; ++b) {
      const float s = Sigmoid(logits.at(b, 0));
      d_logits.at(b, 0) = d_out[b] * s * (1.0f - s);
    }
    return d_logits;
  };

  nn::Matrix d_concat;
  head_->Backward(tape.concat_h, d_logits_of(tape.logits, d_scores),
                  &d_concat);

  // Auxiliary heads contribute to the shared representation's gradient.
  auto add_aux = [&](nn::LinearLayer& aux_head, const nn::Matrix& logits,
                     const std::vector<float>& d_out) {
    if (d_out.empty()) return;
    PR_CHECK(d_out.size() == B);
    nn::Matrix d_aux_concat;
    aux_head.Backward(tape.concat_h, d_logits_of(logits, d_out),
                      &d_aux_concat);
    d_concat.Add(d_aux_concat);
  };
  if (config_.multi_task) {
    add_aux(*aux_length_head_, tape.aux_length_logits, d_aux_length);
    add_aux(*aux_time_head_, tape.aux_time_logits, d_aux_time);
  } else {
    PR_CHECK(d_aux_length.empty() && d_aux_time.empty())
        << "auxiliary gradients require multi_task";
  }

  auto backprop_cell = [&](nn::RecurrentLayer& cell,
                           const nn::RecurrentScratch& cell_tape,
                           const std::vector<nn::Matrix>& x_steps,
                           const nn::SequenceBatch& cell_batch,
                           const nn::Matrix& d_repr,
                           std::vector<nn::Matrix>* d_x_steps) {
    if (config_.pooling == Pooling::kMean) {
      std::vector<nn::Matrix> d_h_steps;
      MeanPoolBackward(d_repr, cell_batch.lengths, T, &d_h_steps);
      cell.BackwardSteps(x_steps, cell_batch.lengths, cell_tape, d_h_steps,
                         d_x_steps);
    } else {
      cell.Backward(x_steps, cell_batch.lengths, cell_tape, d_repr,
                    d_x_steps);
    }
    for (size_t t = 0; t < T; ++t) {
      embedding_->AccumulateGrad(cell_batch, t, (*d_x_steps)[t]);
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
                  d_repr_fwd, &d_x_steps);
    backprop_cell(*bwd_cell_, tape.bwd_cell, tape.x_steps_rev,
                  tape.batch_rev, d_repr_bwd, &d_x_steps);
  } else {
    backprop_cell(*fwd_cell_, tape.fwd_cell, tape.x_steps, tape.batch,
                  d_concat, &d_x_steps);
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
