#include "nn/parameter.h"

#include <cmath>

#include "common/logging.h"

namespace pathrank::nn {

void ZeroGradients(const ParameterList& params, Gradients* grads) {
  grads->resize(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i]->frozen) {
      (*grads)[i] = Matrix();  // nothing accumulates into or reads it
    } else {
      (*grads)[i].Resize(params[i]->value.rows(), params[i]->value.cols());
    }
  }
}

double GradientSquaredNorm(const ParameterList& params,
                           const Gradients& grads) {
  PR_CHECK(grads.size() == params.size()) << "gradient set size mismatch";
  double sum = 0.0;
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i]->frozen) continue;
    sum += grads[i].SquaredNorm();
  }
  return sum;
}

double ClipGradientNorm(const ParameterList& params, double max_norm,
                        Gradients* grads) {
  const double norm = std::sqrt(GradientSquaredNorm(params, *grads));
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (size_t i = 0; i < params.size(); ++i) {
      if (params[i]->frozen) continue;
      (*grads)[i].Scale(scale);
    }
  }
  return norm;
}

}  // namespace pathrank::nn
