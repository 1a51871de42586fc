// Recurrent sequence encoders: GRU (the paper's choice), vanilla tanh RNN
// and LSTM (ablations). All share one interface:
//
//   Forward(x_steps, lengths, &scratch, &final_h) const — x_steps[t] is the
//     [B x input] embedding of timestep t; final_h receives the hidden state
//     of each row after its true length (padding is masked, not processed).
//     Every activation lands in the caller-owned scratch.
//   Backward(x_steps, lengths, tape, d_final_h, grads, &d_x_steps) const —
//     exact BPTT over a scratch that recorded a Forward of the same inputs;
//     returns gradients with respect to every input step and accumulates
//     parameter gradients into the caller's `grads`.
//
// Training and serving run the same Forward body; only the scratch differs
// (a recording tape or reused inference buffers). Layers hold nothing but
// their Parameters, so many threads may run Forward and Backward on one
// shared layer, each with its own scratch and gradient set.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "nn/parameter.h"

namespace pathrank::nn {

/// Caller-owned activation buffers of one recurrent forward pass. Buffers
/// are reshaped, not reallocated, when batch geometry repeats. After
/// Forward, `h[t + 1]` is the hidden state after step t (`h[0]` is the zero
/// initial state) — the mean-pooling head reads it.
///
/// With `record` set the scratch is a training tape: each gate keeps one
/// slot per step, which Backward reads. Otherwise each gate reuses a single
/// slot across steps (inference).
struct RecurrentScratch {
  bool record = false;
  std::vector<Matrix> h;  // [num_steps + 1] hidden states
  std::vector<Matrix> c;  // [num_steps + 1] LSTM cell states (LSTM only)
  /// gates[k]: the cell's k-th per-step activation (GRU z, r, hhat, r*h;
  /// RNN unmasked tanh output; LSTM i, f, o, g, c_new, tanh(c_new)).
  std::array<std::vector<Matrix>, 6> gates;

  /// Gate k's buffer for step t.
  Matrix& gate(size_t k, size_t t) { return gates[k][record ? t : 0]; }
  const Matrix& gate(size_t k, size_t t) const {
    return gates[k][record ? t : 0];
  }
};

/// Abstract masked recurrent encoder.
class RecurrentLayer {
 public:
  virtual ~RecurrentLayer() = default;

  /// Consumes `x_steps` (one [B x input_size] matrix per timestep), writes
  /// every activation into `scratch` and the per-row final hidden state
  /// into `final_h` [B x hidden]. Never mutates the layer.
  virtual void Forward(const std::vector<Matrix>& x_steps,
                       const std::vector<int32_t>& lengths,
                       RecurrentScratch* scratch, Matrix* final_h) const = 0;

  /// Backpropagates `d_final_h` [B x hidden] through the Forward of
  /// (`x_steps`, `lengths`) that `tape` recorded; writes input gradients
  /// into `d_x_steps` and accumulates parameter gradients into `grads`
  /// (Parameters() order). Throws std::logic_error when `tape` did not
  /// record these steps.
  void Backward(const std::vector<Matrix>& x_steps,
                const std::vector<int32_t>& lengths,
                const RecurrentScratch& tape, const Matrix& d_final_h,
                GradientSpan grads, std::vector<Matrix>* d_x_steps) const {
    BackwardImpl(x_steps, lengths, tape, &d_final_h, nullptr, grads,
                 d_x_steps);
  }

  /// Backpropagates per-step hidden-state gradients (`d_h_steps[t]` is the
  /// gradient on `tape.h[t + 1]`); used by mean-pooling heads. Rows beyond
  /// a sequence's true length must carry zero gradient.
  void BackwardSteps(const std::vector<Matrix>& x_steps,
                     const std::vector<int32_t>& lengths,
                     const RecurrentScratch& tape,
                     const std::vector<Matrix>& d_h_steps, GradientSpan grads,
                     std::vector<Matrix>* d_x_steps) const {
    BackwardImpl(x_steps, lengths, tape, nullptr, &d_h_steps, grads,
                 d_x_steps);
  }

  virtual ParameterList Parameters() = 0;
  virtual ConstParameterList Parameters() const = 0;
  virtual size_t input_size() const = 0;
  virtual size_t hidden_size() const = 0;
  virtual std::string Name() const = 0;

 protected:
  /// Exactly one of `d_final_h` / `d_h_steps` is non-null.
  virtual void BackwardImpl(const std::vector<Matrix>& x_steps,
                            const std::vector<int32_t>& lengths,
                            const RecurrentScratch& tape,
                            const Matrix* d_final_h,
                            const std::vector<Matrix>* d_h_steps,
                            GradientSpan grads,
                            std::vector<Matrix>* d_x_steps) const = 0;
};

/// Cell selector used by configs and the ablation bench.
enum class CellType { kGru, kRnn, kLstm };

std::string CellTypeName(CellType type);
CellType ParseCellType(const std::string& name);

/// GRU with update gate z, reset gate r:
///   z = sigmoid(x Wz + h Uz + bz),  r = sigmoid(x Wr + h Ur + br)
///   hhat = tanh(x Wh + (r*h) Uh + bh),  h' = (1-z)*h + z*hhat
class GruLayer final : public RecurrentLayer {
 public:
  GruLayer(size_t input_size, size_t hidden_size, pathrank::Rng& rng,
           const std::string& name_prefix = "gru");
  GruLayer(size_t input_size, size_t hidden_size, SkipInit,
           const std::string& name_prefix = "gru");

  void Forward(const std::vector<Matrix>& x_steps,
               const std::vector<int32_t>& lengths, RecurrentScratch* scratch,
               Matrix* final_h) const override;
  ParameterList Parameters() override;
  ConstParameterList Parameters() const override;
  size_t input_size() const override { return wz_.value.rows(); }
  size_t hidden_size() const override { return wz_.value.cols(); }
  std::string Name() const override { return "gru"; }

 protected:
  void BackwardImpl(const std::vector<Matrix>& x_steps,
                    const std::vector<int32_t>& lengths,
                    const RecurrentScratch& tape, const Matrix* d_final_h,
                    const std::vector<Matrix>* d_h_steps, GradientSpan grads,
                    std::vector<Matrix>* d_x_steps) const override;

 private:
  Parameter wz_, wr_, wh_;  // [input x hidden]
  Parameter uz_, ur_, uh_;  // [hidden x hidden]
  Parameter bz_, br_, bh_;  // [1 x hidden]
};

/// Vanilla tanh RNN: h' = tanh(x W + h U + b).
class RnnLayer final : public RecurrentLayer {
 public:
  RnnLayer(size_t input_size, size_t hidden_size, pathrank::Rng& rng,
           const std::string& name_prefix = "rnn");
  RnnLayer(size_t input_size, size_t hidden_size, SkipInit,
           const std::string& name_prefix = "rnn");

  void Forward(const std::vector<Matrix>& x_steps,
               const std::vector<int32_t>& lengths, RecurrentScratch* scratch,
               Matrix* final_h) const override;
  ParameterList Parameters() override;
  ConstParameterList Parameters() const override;
  size_t input_size() const override { return w_.value.rows(); }
  size_t hidden_size() const override { return w_.value.cols(); }
  std::string Name() const override { return "rnn"; }

 protected:
  void BackwardImpl(const std::vector<Matrix>& x_steps,
                    const std::vector<int32_t>& lengths,
                    const RecurrentScratch& tape, const Matrix* d_final_h,
                    const std::vector<Matrix>* d_h_steps, GradientSpan grads,
                    std::vector<Matrix>* d_x_steps) const override;

 private:
  Parameter w_, u_, b_;
};

/// LSTM with forget/input/output gates and cell state.
class LstmLayer final : public RecurrentLayer {
 public:
  LstmLayer(size_t input_size, size_t hidden_size, pathrank::Rng& rng,
            const std::string& name_prefix = "lstm");
  LstmLayer(size_t input_size, size_t hidden_size, SkipInit,
            const std::string& name_prefix = "lstm");

  void Forward(const std::vector<Matrix>& x_steps,
               const std::vector<int32_t>& lengths, RecurrentScratch* scratch,
               Matrix* final_h) const override;
  ParameterList Parameters() override;
  ConstParameterList Parameters() const override;
  size_t input_size() const override { return wi_.value.rows(); }
  size_t hidden_size() const override { return wi_.value.cols(); }
  std::string Name() const override { return "lstm"; }

 protected:
  void BackwardImpl(const std::vector<Matrix>& x_steps,
                    const std::vector<int32_t>& lengths,
                    const RecurrentScratch& tape, const Matrix* d_final_h,
                    const std::vector<Matrix>* d_h_steps, GradientSpan grads,
                    std::vector<Matrix>* d_x_steps) const override;

 private:
  Parameter wi_, wf_, wo_, wg_;  // [input x hidden]
  Parameter ui_, uf_, uo_, ug_;  // [hidden x hidden]
  Parameter bi_, bf_, bo_, bg_;  // [1 x hidden]
};

/// Factory for the configured cell type. `init` is a pathrank::Rng& for
/// seeded random weights, or kSkipInit for zero weights that snapshot
/// builders and checkpoint loads copy into. `name_prefix` namespaces the
/// parameters (must be unique per layer instance within a model so
/// checkpoints can address them).
template <typename Init>
std::unique_ptr<RecurrentLayer> MakeRecurrentLayer(
    CellType type, size_t input_size, size_t hidden_size, Init&& init,
    const std::string& name_prefix) {
  switch (type) {
    case CellType::kGru:
      return std::make_unique<GruLayer>(input_size, hidden_size, init,
                                        name_prefix);
    case CellType::kRnn:
      return std::make_unique<RnnLayer>(input_size, hidden_size, init,
                                        name_prefix);
    case CellType::kLstm:
      return std::make_unique<LstmLayer>(input_size, hidden_size, init,
                                         name_prefix);
  }
  return nullptr;
}

}  // namespace pathrank::nn
