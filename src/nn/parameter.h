// Named trainable parameters, and the caller-owned gradient sets that
// Backward passes accumulate into. Layers expose their parameters through
// Parameters(); a gradient set holds one Matrix per parameter in that same
// order, so any number of threads can backpropagate through one shared
// model, each into its own set.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "nn/matrix.h"

namespace pathrank::nn {

/// One trainable tensor.
struct Parameter {
  std::string name;
  Matrix value;
  /// Frozen parameters are skipped by optimizers and gradient clipping
  /// (used by PR-A1 to keep the embedding matrix fixed).
  bool frozen = false;

  Parameter() = default;
  Parameter(std::string n, size_t rows, size_t cols)
      : name(std::move(n)), value(rows, cols) {}
};

/// Non-owning list of parameters (layers own their Parameter members).
using ParameterList = std::vector<Parameter*>;

/// Read-only view of a parameter list — the inference/serving side of the
/// API (snapshots, checkpointing) walks parameters without mutation
/// rights.
using ConstParameterList = std::vector<const Parameter*>;

/// Gradients of a parameter list: entry i has the shape of parameter i.
using Gradients = std::vector<Matrix>;

/// One layer's slice of a gradient set, in the layer's Parameters() order.
using GradientSpan = std::span<Matrix>;

/// Tag selecting a construction path that skips random weight
/// initialisation. Used by snapshot builders and checkpoint loads whose
/// values are immediately overwritten (CopyParametersFrom, LoadModel),
/// saving O(vocab x dim) RNG draws.
struct SkipInit {};
inline constexpr SkipInit kSkipInit{};

/// Sizes `grads` to the shapes of `params` and zeroes every entry. A frozen
/// parameter's entry is left empty: Backward skips it and the optimizers
/// and clipping never read it, so an O(vocab x dim) frozen embedding costs
/// no zero-fill per step.
void ZeroGradients(const ParameterList& params, Gradients* grads);

/// Sum of squared gradient norms across a set. Frozen parameters are
/// excluded: optimizers never apply their gradients, so they must not
/// consume clip budget either.
double GradientSquaredNorm(const ParameterList& params,
                           const Gradients& grads);

/// Scales all non-frozen gradients so their global L2 norm is at most
/// `max_norm`. Returns the pre-clip norm.
double ClipGradientNorm(const ParameterList& params, double max_norm,
                        Gradients* grads);

}  // namespace pathrank::nn
