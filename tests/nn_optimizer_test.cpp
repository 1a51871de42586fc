// Optimizers: SGD step identity, momentum accumulation, Adam convergence,
// frozen-parameter semantics, gradient-set validation, gradient clipping
// and learning-rate schedules.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "nn/optimizer.h"
#include "nn/parameter.h"
#include "nn/scheduler.h"

namespace pathrank::nn {
namespace {

/// A one-entry gradient set for `p`, every element `fill`.
Gradients GradOf(const Parameter& p, float fill) {
  Gradients grads(1, Matrix(p.value.rows(), p.value.cols()));
  grads[0].Fill(fill);
  return grads;
}

TEST(Sgd, PlainStepIsAxpy) {
  Parameter p("w", 1, 2);
  p.value.Fill(1.0f);
  Sgd sgd(0.1);
  sgd.Step({&p}, GradOf(p, 0.5f));
  EXPECT_NEAR(p.value.at(0, 0), 0.95f, 1e-6f);
}

TEST(Sgd, MomentumAccumulates) {
  Parameter p("w", 1, 1);
  p.value.Fill(0.0f);
  Sgd sgd(1.0, 0.9);
  sgd.Step({&p}, GradOf(p, 1.0f));  // v=1, w=-1
  EXPECT_NEAR(p.value.at(0, 0), -1.0f, 1e-6f);
  sgd.Step({&p}, GradOf(p, 1.0f));  // v=1.9, w=-2.9
  EXPECT_NEAR(p.value.at(0, 0), -2.9f, 1e-6f);
}

TEST(Sgd, FrozenParameterUntouched) {
  Parameter p("w", 1, 1);
  p.value.Fill(3.0f);
  p.frozen = true;
  Sgd sgd(0.5);
  sgd.Step({&p}, GradOf(p, 1.0f));
  EXPECT_EQ(p.value.at(0, 0), 3.0f);
}

TEST(Adam, RejectsMismatchedGradientSet) {
  Parameter p("w", 2, 2);
  Adam adam(0.1);
  EXPECT_THROW(adam.Step({&p}, {}), std::logic_error);
  EXPECT_THROW(adam.Step({&p}, Gradients(1, Matrix(1, 2))),
               std::logic_error);
}

TEST(Adam, FirstStepHasUnitScale) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Parameter p("w", 1, 1);
  p.value.Fill(0.0f);
  Adam adam(0.01);
  adam.Step({&p}, GradOf(p, 123.0f));
  EXPECT_NEAR(p.value.at(0, 0), -0.01f, 1e-4f);
}

TEST(Adam, MinimisesQuadratic) {
  // f(w) = 0.5 * (w - 3)^2; gradient w - 3.
  Parameter p("w", 1, 1);
  p.value.Fill(0.0f);
  Adam adam(0.1);
  for (int i = 0; i < 500; ++i) {
    adam.Step({&p}, GradOf(p, p.value.at(0, 0) - 3.0f));
  }
  EXPECT_NEAR(p.value.at(0, 0), 3.0f, 0.05f);
}

TEST(Adam, FrozenParameterUntouched) {
  Parameter p("w", 2, 2);
  p.value.Fill(1.0f);
  p.frozen = true;
  Adam adam(0.1);
  adam.Step({&p}, GradOf(p, 5.0f));
  for (size_t i = 0; i < p.value.size(); ++i) {
    EXPECT_EQ(p.value.data()[i], 1.0f);
  }
}

TEST(Adam, WeightDecayShrinksWeights) {
  Parameter p("w", 1, 1);
  p.value.Fill(10.0f);
  Adam adamw(0.1, 0.9, 0.999, 1e-8, 0.1);
  adamw.Step({&p}, GradOf(p, 0.0f));
  EXPECT_LT(p.value.at(0, 0), 10.0f);
}

TEST(Clip, NormAboveThresholdIsScaled) {
  Parameter p("w", 1, 2);
  Gradients grads = GradOf(p, 0.0f);
  grads[0].at(0, 0) = 3.0f;
  grads[0].at(0, 1) = 4.0f;  // norm 5
  const double pre = ClipGradientNorm({&p}, 1.0, &grads);
  EXPECT_NEAR(pre, 5.0, 1e-9);
  EXPECT_NEAR(std::sqrt(grads[0].SquaredNorm()), 1.0, 1e-6);
}

TEST(Clip, NormBelowThresholdUntouched) {
  Parameter p("w", 1, 2);
  Gradients grads = GradOf(p, 0.0f);
  grads[0].at(0, 0) = 0.3f;
  grads[0].at(0, 1) = 0.4f;
  ClipGradientNorm({&p}, 1.0, &grads);
  EXPECT_NEAR(grads[0].at(0, 0), 0.3f, 1e-7f);
}

TEST(Clip, FrozenGradientsSpendNoBudget) {
  Parameter frozen("f", 1, 1);
  frozen.frozen = true;
  Parameter p("w", 1, 1);
  Gradients grads{Matrix(1, 1), Matrix(1, 1)};
  grads[0].Fill(100.0f);
  grads[1].Fill(0.5f);
  EXPECT_NEAR(ClipGradientNorm({&frozen, &p}, 1.0, &grads), 0.5, 1e-9);
  EXPECT_EQ(grads[1].at(0, 0), 0.5f);
}

TEST(ZeroGradients, SizesAndClearsAll) {
  Parameter a("a", 2, 2);
  Parameter b("b", 1, 4);
  Gradients grads{Matrix(1, 1)};
  grads[0].Fill(1.0f);
  ZeroGradients({&a, &b}, &grads);
  ASSERT_EQ(grads.size(), 2u);
  EXPECT_TRUE(grads[0].SameShape(a.value));
  EXPECT_TRUE(grads[1].SameShape(b.value));
  EXPECT_DOUBLE_EQ(grads[0].SquaredNorm(), 0.0);
  grads[1].Fill(2.0f);
  ZeroGradients({&a, &b}, &grads);
  EXPECT_DOUBLE_EQ(grads[1].SquaredNorm(), 0.0);
}

TEST(ZeroGradients, LeavesFrozenEntriesEmpty) {
  Parameter frozen("f", 3, 4);
  frozen.frozen = true;
  Parameter p("w", 1, 2);
  Gradients grads{Matrix(3, 4), Matrix(1, 2)};
  ZeroGradients({&frozen, &p}, &grads);
  EXPECT_EQ(grads[0].size(), 0u);
  EXPECT_TRUE(grads[1].SameShape(p.value));
  // The optimizers accept the empty frozen entry and leave it alone.
  Adam adam(0.1);
  adam.Step({&frozen, &p}, grads);
  Sgd sgd(0.1);
  sgd.Step({&frozen, &p}, grads);
}

TEST(Schedule, ConstantIsConstant) {
  ScheduleConfig cfg;
  cfg.type = ScheduleType::kConstant;
  cfg.base_lr = 0.003;
  EXPECT_DOUBLE_EQ(LearningRateAt(cfg, 0), 0.003);
  EXPECT_DOUBLE_EQ(LearningRateAt(cfg, 100), 0.003);
}

TEST(Schedule, StepDecayHalves) {
  ScheduleConfig cfg;
  cfg.type = ScheduleType::kStepDecay;
  cfg.base_lr = 1.0;
  cfg.decay = 0.5;
  cfg.step_every = 2;
  EXPECT_DOUBLE_EQ(LearningRateAt(cfg, 0), 1.0);
  EXPECT_DOUBLE_EQ(LearningRateAt(cfg, 1), 1.0);
  EXPECT_DOUBLE_EQ(LearningRateAt(cfg, 2), 0.5);
  EXPECT_DOUBLE_EQ(LearningRateAt(cfg, 4), 0.25);
}

TEST(Schedule, CosineAnnealsToMin) {
  ScheduleConfig cfg;
  cfg.type = ScheduleType::kCosine;
  cfg.base_lr = 1.0;
  cfg.min_lr = 0.1;
  cfg.total_epochs = 11;
  EXPECT_NEAR(LearningRateAt(cfg, 0), 1.0, 1e-12);
  EXPECT_NEAR(LearningRateAt(cfg, 10), 0.1, 1e-12);
  EXPECT_NEAR(LearningRateAt(cfg, 5), 0.55, 1e-12);  // midpoint
  // Monotone decreasing.
  for (int e = 1; e <= 10; ++e) {
    EXPECT_LE(LearningRateAt(cfg, e), LearningRateAt(cfg, e - 1) + 1e-12);
  }
}

}  // namespace
}  // namespace pathrank::nn
