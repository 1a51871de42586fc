#include "nn/embedding_layer.h"

#include <cstring>

namespace pathrank::nn {

EmbeddingLayer::EmbeddingLayer(size_t vocab_size, size_t dim,
                               pathrank::Rng& rng)
    : table_("embedding", vocab_size, dim) {
  UniformInit(&table_.value, 0.05f, rng);
}

EmbeddingLayer::EmbeddingLayer(size_t vocab_size, size_t dim, SkipInit)
    : table_("embedding", vocab_size, dim) {}

void EmbeddingLayer::LoadTable(const Matrix& table) {
  PR_CHECK(table.rows() == table_.value.rows() &&
           table.cols() == table_.value.cols())
      << "embedding table shape mismatch: " << table.ShapeString() << " vs "
      << table_.value.ShapeString();
  table_.value = table;
}

void EmbeddingLayer::Lookup(const SequenceBatch& batch, size_t t,
                            Matrix* out) const {
  const size_t b_size = batch.batch_size;
  const size_t d = dim();
  out->ResizeNoZero(b_size, d);  // every row is overwritten below
  for (size_t b = 0; b < b_size; ++b) {
    const auto id = static_cast<size_t>(batch.id_at(b, t));
    PR_CHECK(id < vocab_size()) << "token id out of range";
    std::memcpy(out->row(b), table_.value.row(id), d * sizeof(float));
  }
}

void EmbeddingLayer::AccumulateGrad(const SequenceBatch& batch, size_t t,
                                    const Matrix& d_out,
                                    Matrix* table_grad) const {
  PR_CHECK(table_grad->SameShape(table_.value)) << "embedding gradient shape";
  const size_t d = dim();
  for (size_t b = 0; b < batch.batch_size; ++b) {
    if (static_cast<int32_t>(t) >= batch.lengths[b]) continue;  // padding
    const auto id = static_cast<size_t>(batch.id_at(b, t));
    float* grad_row = table_grad->row(id);
    const float* src = d_out.row(b);
    for (size_t c = 0; c < d; ++c) grad_row[c] += src[c];
  }
}

}  // namespace pathrank::nn
