// First-order optimizers over a ParameterList and its gradient set. Frozen
// parameters are skipped (their state slots exist but are never advanced),
// which is how PR-A1 keeps the node2vec embedding matrix fixed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/parameter.h"

namespace pathrank::nn {

/// Abstract optimizer. Per-parameter state is kept by position, so every
/// Step must pass the same parameter list.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update: `grads[i]` is the gradient of `params[i]`.
  virtual void Step(const ParameterList& params, const Gradients& grads) = 0;

  /// Current learning rate.
  double learning_rate() const { return lr_; }
  /// Sets the learning rate (called by schedulers between steps).
  void set_learning_rate(double lr) { lr_ = lr; }

  virtual std::string Name() const = 0;

 protected:
  explicit Optimizer(double lr) : lr_(lr) {}
  double lr_;
};

/// SGD with optional classical momentum.
class Sgd final : public Optimizer {
 public:
  explicit Sgd(double lr, double momentum = 0.0);
  void Step(const ParameterList& params, const Gradients& grads) override;
  std::string Name() const override { return "sgd"; }

 private:
  double momentum_;
  std::vector<Matrix> velocity_;
};

/// Adam (Kingma & Ba 2015) with bias correction; optional decoupled weight
/// decay turns it into AdamW.
class Adam final : public Optimizer {
 public:
  Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
       double epsilon = 1e-8, double weight_decay = 0.0);
  void Step(const ParameterList& params, const Gradients& grads) override;
  std::string Name() const override {
    return weight_decay_ > 0.0 ? "adamw" : "adam";
  }

 private:
  struct State {
    Matrix m;
    Matrix v;
  };
  double beta1_, beta2_, epsilon_, weight_decay_;
  int64_t t_ = 0;
  std::vector<State> state_;
};

}  // namespace pathrank::nn
