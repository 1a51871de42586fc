// Trainable token-embedding table, the model's vertex-embedding matrix B.
// Initialised from node2vec output (the paper's "spatial network
// embedding") and either frozen (PR-A1) or fine-tuned (PR-A2).
#pragma once

#include <cstdint>
#include <span>

#include "nn/parameter.h"
#include "nn/sequence_batch.h"

namespace pathrank::nn {

/// Embedding lookup with sparse gradient accumulation.
class EmbeddingLayer {
 public:
  /// Creates a [vocab_size x dim] table initialised U(-0.05, 0.05).
  EmbeddingLayer(size_t vocab_size, size_t dim, pathrank::Rng& rng);

  /// Skip-init construction: the table is allocated but left zero, for
  /// callers that overwrite it wholesale (snapshots, checkpoint loads).
  EmbeddingLayer(size_t vocab_size, size_t dim, SkipInit);

  /// Replaces the table content (e.g. with node2vec vectors); the matrix
  /// must be [vocab_size x dim].
  void LoadTable(const Matrix& table);

  /// Looks up timestep `t` of `batch` into `out` [batch_size x dim].
  /// Padding rows (t >= length) produce the embedding of token 0, but their
  /// gradients are masked out in AccumulateGrad.
  void Lookup(const SequenceBatch& batch, size_t t, Matrix* out) const;

  /// Accumulates d_out into `table_grad` [vocab_size x dim] for timestep
  /// `t`, skipping padded rows.
  void AccumulateGrad(const SequenceBatch& batch, size_t t,
                      const Matrix& d_out, Matrix* table_grad) const;

  /// Marks the table frozen (PR-A1) or trainable (PR-A2).
  void set_frozen(bool frozen) { table_.frozen = frozen; }
  bool frozen() const { return table_.frozen; }

  size_t vocab_size() const { return table_.value.rows(); }
  size_t dim() const { return table_.value.cols(); }

  Parameter& parameter() { return table_; }
  const Parameter& parameter() const { return table_; }
  const Matrix& table() const { return table_.value; }

 private:
  Parameter table_;
};

}  // namespace pathrank::nn
