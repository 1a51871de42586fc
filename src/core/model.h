// The PathRank scoring model (paper Fig. "PathRank Overview"):
//
//   vertex ids --EmbeddingLayer(B)--> x_1..x_Z --GRU--> h_Z --FC+sigmoid-->
//   estimated similarity score in (0, 1)
//
// Bidirectional mode runs a second chain over the reversed sequence and
// concatenates both final states (the figure's two GRU rows). The embedding
// matrix B is initialised from node2vec and frozen (PR-A1) or fine-tuned
// (PR-A2).
//
// Training and serving run one forward body, Forward[Full], which writes
// every activation into a caller-owned InferenceScratch. A recording
// scratch is the training tape that Backward[Full] reads back; gradients
// accumulate into a caller-owned gradient set. The model holds only its
// parameters, so any number of threads may run forward and backward passes
// through one shared const model, each with its own scratch and gradients.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/config.h"
#include "nn/embedding_layer.h"
#include "nn/linear.h"
#include "nn/recurrent.h"
#include "nn/sequence_batch.h"

namespace pathrank::core {

/// How a PathRankModel's weights are produced at construction.
enum class InitMode {
  kRandomInit,  // seeded random init (training from scratch)
  kSkipInit,    // weights left zero — for snapshots and checkpoint loads
                // whose values are copied in wholesale, skipping
                // O(vocab x dim) RNG draws
};

/// Caller-owned activation buffers of one model forward pass. Forward never
/// writes activations into the model, so one shared model plus one
/// InferenceScratch per thread gives race-free concurrent scoring. Buffers
/// are reshaped, not reallocated, when batch geometry repeats across calls.
///
/// With `record` set the scratch is a training tape: it keeps the input
/// batch and one gate slot per timestep, which Backward[Full] reads.
/// Otherwise each gate reuses one buffer across steps (serving).
struct InferenceScratch {
  bool record = false;
  nn::SequenceBatch batch;  // the recorded input (tape only)
  nn::SequenceBatch batch_rev;
  std::vector<nn::Matrix> x_steps;
  std::vector<nn::Matrix> x_steps_rev;
  nn::RecurrentScratch fwd_cell;
  nn::RecurrentScratch bwd_cell;
  nn::Matrix repr_fwd;
  nn::Matrix repr_bwd;
  nn::Matrix concat_h;
  nn::Matrix logits;
  nn::Matrix aux_length_logits;
  nn::Matrix aux_time_logits;
};

/// Trainable path-scoring network.
class PathRankModel {
 public:
  /// Builds the network for `vocab_size` vertices. Throws
  /// std::invalid_argument when `embedding_dim` or `hidden_size` is zero
  /// (such a model could not be saved and loaded back).
  PathRankModel(size_t vocab_size, const PathRankConfig& config,
                InitMode init = InitMode::kRandomInit);

  /// Initialises the embedding matrix B from pre-trained vectors
  /// [vocab_size x embedding_dim] (the spatial network embedding).
  void InitializeEmbedding(const nn::Matrix& table);

  /// All model outputs for one batch. Auxiliary vectors are empty unless
  /// `multi_task` is enabled.
  struct Outputs {
    std::vector<float> scores;      // estimated similarity, in (0, 1)
    std::vector<float> aux_length;  // normalised path length, in (0, 1)
    std::vector<float> aux_time;    // normalised travel time, in (0, 1)
  };

  /// Scores a batch of vertex sequences; returns one score per row. Every
  /// activation lands in `scratch`; a recording scratch becomes the tape
  /// for a following Backward. Scores do not depend on `record`. `batch`
  /// may be `scratch->batch` itself, which a tape then records uncopied.
  std::vector<float> Forward(const nn::SequenceBatch& batch,
                             InferenceScratch* scratch) const;

  /// Forward pass that also produces the auxiliary-head outputs.
  Outputs ForwardFull(const nn::SequenceBatch& batch,
                      InferenceScratch* scratch) const;

  /// Backpropagates d(loss)/d(score) through the Forward that `tape`
  /// recorded and accumulates parameter gradients into `grads`, a set
  /// sized by nn::ZeroGradients over Parameters(). Throws
  /// std::logic_error when `tape` did not record.
  void Backward(const InferenceScratch& tape,
                std::span<const float> d_scores, nn::Gradients* grads) const;

  /// Backward including auxiliary-head gradients (multi-task training).
  /// Empty aux gradients are treated as zero.
  void BackwardFull(const InferenceScratch& tape,
                    std::span<const float> d_scores,
                    std::span<const float> d_aux_length,
                    std::span<const float> d_aux_time,
                    nn::Gradients* grads) const;

  /// All trainable parameters (embedding respects the PR-A1 freeze).
  nn::ParameterList Parameters();

  /// Read-only parameter walk, same order as the mutable overload — the
  /// basis for snapshots and checkpointing of const models.
  nn::ConstParameterList Parameters() const;

  /// Copies every parameter value from `other` (must share architecture).
  /// Used to build serving snapshots.
  void CopyParametersFrom(const PathRankModel& other);

  const PathRankConfig& config() const { return config_; }
  size_t vocab_size() const { return embedding_->vocab_size(); }

  /// Total parameter count (documentation/diagnostics).
  size_t NumParameters() const;

 private:
  PathRankConfig config_;
  std::unique_ptr<nn::EmbeddingLayer> embedding_;
  std::unique_ptr<nn::RecurrentLayer> fwd_cell_;
  std::unique_ptr<nn::RecurrentLayer> bwd_cell_;  // null when unidirectional
  std::unique_ptr<nn::LinearLayer> head_;
  std::unique_ptr<nn::LinearLayer> aux_length_head_;  // multi-task only
  std::unique_ptr<nn::LinearLayer> aux_time_head_;    // multi-task only
};

}  // namespace pathrank::core
