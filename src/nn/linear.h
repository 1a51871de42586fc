// Fully-connected layer Y = X W + b. The layer holds only its parameters:
// Forward and Backward are const (safe from many threads at once); Backward
// takes the input the matching Forward read and accumulates into the
// caller's gradients.
#pragma once

#include <string>

#include "nn/parameter.h"

namespace pathrank::nn {

/// Affine layer.
class LinearLayer {
 public:
  LinearLayer(size_t input_size, size_t output_size, pathrank::Rng& rng,
              const std::string& name_prefix = "fc");

  /// Skip-init construction (weights left zero, to be copied into).
  LinearLayer(size_t input_size, size_t output_size, SkipInit,
              const std::string& name_prefix = "fc");

  /// Y[B x out] = X[B x in] W + b.
  void Forward(const Matrix& x, Matrix* y) const;

  /// Backpropagates `d_y` through the Forward that read `x`: accumulates
  /// dW, db into `grads` (Parameters() order) and writes dX (skipped when
  /// `d_x` is null).
  void Backward(const Matrix& x, const Matrix& d_y, GradientSpan grads,
                Matrix* d_x) const;

  ParameterList Parameters() { return {&w_, &b_}; }
  ConstParameterList Parameters() const { return {&w_, &b_}; }
  size_t input_size() const { return w_.value.rows(); }
  size_t output_size() const { return w_.value.cols(); }

 private:
  Parameter w_;  // [in x out]
  Parameter b_;  // [1 x out]
};

}  // namespace pathrank::nn
