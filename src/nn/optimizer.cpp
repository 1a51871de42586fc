#include "nn/optimizer.h"

#include <cmath>

#include "common/logging.h"

namespace pathrank::nn {

Sgd::Sgd(double lr, double momentum) : Optimizer(lr), momentum_(momentum) {}

void Sgd::Step(const ParameterList& params, const Gradients& grads) {
  PR_CHECK(grads.size() == params.size()) << "gradient set size mismatch";
  const auto lr = static_cast<float>(lr_);
  velocity_.resize(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    Parameter* p = params[i];
    if (p->frozen) continue;
    PR_CHECK(grads[i].SameShape(p->value)) << p->name << " gradient shape";
    if (momentum_ > 0.0) {
      Matrix& vel = velocity_[i];
      if (!vel.SameShape(p->value)) vel.Resize(p->value.rows(), p->value.cols());
      const auto mu = static_cast<float>(momentum_);
      float* v = vel.data();
      const float* g = grads[i].data();
      float* w = p->value.data();
      const size_t n = p->value.size();
      for (size_t j = 0; j < n; ++j) {
        v[j] = mu * v[j] + g[j];
        w[j] -= lr * v[j];
      }
    } else {
      p->value.Axpy(-lr, grads[i]);
    }
  }
}

Adam::Adam(double lr, double beta1, double beta2, double epsilon,
           double weight_decay)
    : Optimizer(lr),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      weight_decay_(weight_decay) {}

void Adam::Step(const ParameterList& params, const Gradients& grads) {
  PR_CHECK(grads.size() == params.size()) << "gradient set size mismatch";
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const auto lr = static_cast<float>(lr_);
  const auto b1 = static_cast<float>(beta1_);
  const auto b2 = static_cast<float>(beta2_);
  const auto eps = static_cast<float>(epsilon_);
  const auto wd = static_cast<float>(weight_decay_);
  const auto inv_bias1 = static_cast<float>(1.0 / bias1);
  const auto inv_bias2 = static_cast<float>(1.0 / bias2);

  state_.resize(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    Parameter* p = params[i];
    if (p->frozen) continue;
    PR_CHECK(grads[i].SameShape(p->value)) << p->name << " gradient shape";
    State& s = state_[i];
    if (!s.m.SameShape(p->value)) {
      s.m.Resize(p->value.rows(), p->value.cols());
      s.v.Resize(p->value.rows(), p->value.cols());
    }
    float* m = s.m.data();
    float* v = s.v.data();
    const float* g = grads[i].data();
    float* w = p->value.data();
    const size_t n = p->value.size();
    for (size_t j = 0; j < n; ++j) {
      m[j] = b1 * m[j] + (1.0f - b1) * g[j];
      v[j] = b2 * v[j] + (1.0f - b2) * g[j] * g[j];
      const float mhat = m[j] * inv_bias1;
      const float vhat = v[j] * inv_bias2;
      w[j] -= lr * (mhat / (std::sqrt(vhat) + eps) + wd * w[j]);
    }
  }
}

}  // namespace pathrank::nn
