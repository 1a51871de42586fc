// Padded mini-batch of vertex-id sequences — the input format of the
// recurrent layers. Row b holds sequence b left-aligned and padded with 0;
// `lengths[b]` gives the true length. Masking inside the recurrent layers
// makes the final hidden state of row b equal the state after step
// lengths[b], regardless of padding.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace pathrank::nn {

/// One padded batch of token (vertex) id sequences.
struct SequenceBatch {
  size_t batch_size = 0;
  size_t max_len = 0;
  /// Row-major [batch_size x max_len] padded token ids.
  std::vector<int32_t> ids;
  /// True sequence lengths, each in [1, max_len].
  std::vector<int32_t> lengths;

  int32_t id_at(size_t b, size_t t) const { return ids[b * max_len + t]; }

  /// Builds a padded batch from ragged sequences.
  static SequenceBatch FromSequences(
      const std::vector<std::vector<int32_t>>& sequences) {
    SequenceBatch batch;
    batch.batch_size = sequences.size();
    for (const auto& s : sequences) {
      PR_CHECK(!s.empty()) << "empty sequence in batch";
      batch.max_len = std::max(batch.max_len, s.size());
    }
    batch.ids.assign(batch.batch_size * batch.max_len, 0);
    batch.lengths.resize(batch.batch_size);
    for (size_t b = 0; b < batch.batch_size; ++b) {
      batch.lengths[b] = static_cast<int32_t>(sequences[b].size());
      for (size_t t = 0; t < sequences[b].size(); ++t) {
        batch.ids[b * batch.max_len + t] = sequences[b][t];
      }
    }
    return batch;
  }

  /// Rows [begin, end) as their own batch, padded to the longest of them.
  SequenceBatch Rows(size_t begin, size_t end) const {
    PR_CHECK(begin < end && end <= batch_size) << "row range out of bounds";
    SequenceBatch rows;
    rows.batch_size = end - begin;
    rows.lengths.assign(lengths.begin() + static_cast<std::ptrdiff_t>(begin),
                        lengths.begin() + static_cast<std::ptrdiff_t>(end));
    for (const int32_t len : rows.lengths) {
      rows.max_len = std::max(rows.max_len, static_cast<size_t>(len));
    }
    rows.ids.resize(rows.batch_size * rows.max_len);
    for (size_t b = 0; b < rows.batch_size; ++b) {
      const int32_t* src = &ids[(begin + b) * max_len];
      std::copy(src, src + rows.max_len, &rows.ids[b * rows.max_len]);
    }
    return rows;
  }

  /// Reversed copy (prefix of each row reversed in place, padding kept at
  /// the tail) — used by the backward direction of bidirectional models.
  SequenceBatch Reversed() const {
    SequenceBatch rev = *this;
    for (size_t b = 0; b < batch_size; ++b) {
      const size_t len = static_cast<size_t>(lengths[b]);
      for (size_t t = 0; t < len / 2; ++t) {
        std::swap(rev.ids[b * max_len + t], rev.ids[b * max_len + len - 1 - t]);
      }
    }
    return rev;
  }
};

}  // namespace pathrank::nn
