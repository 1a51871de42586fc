// Thread-safe ranking service: one immutable ModelSnapshot shared by a
// pool of scoring replicas, dispatched round-robin behind per-replica
// locks (the cuBERT multi-instance pattern). Because the snapshot's
// inference path is const, a "replica" is just per-caller scratch state —
// no parameter copies — so the pool is cheap to size at one replica per
// expected concurrent caller.
//
// Thread-safety contract: Rank / ScoreBatch may be called
// concurrently from any number of threads on one shared engine. Scores
// are bitwise identical to the single-threaded path for any thread or
// replica count (the inference kernels are deterministic and replicas
// share the exact same parameters).
//
// Hot-swap contract: SwapSnapshot atomically replaces the served model.
// Every scoring call captures the snapshot pointer exactly once at entry,
// so each response is computed entirely on one snapshot — never a mix —
// and in-flight requests finish on the snapshot they started with. The old
// snapshot is freed when the last in-flight request drops its reference.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "core/model.h"
#include "data/candidate_generation.h"
#include "graph/road_network.h"
#include "routing/path.h"
#include "serving/model_snapshot.h"

namespace pathrank::serving {

/// One ranked candidate.
struct ScoredPath {
  routing::Path path;
  double score = 0.0;
};

/// One (source, destination) ranking request.
struct RankQuery {
  graph::VertexId source = graph::kInvalidVertex;
  graph::VertexId destination = graph::kInvalidVertex;
};

/// Engine construction options.
struct ServingOptions {
  /// Scoring replicas (scratch + lock). 0 = one per global pool thread.
  size_t num_replicas = 0;
  /// Candidate strategy used by Rank when no per-call config is
  /// given (defaults to D-TkDI, the paper's deployment strategy).
  data::CandidateGenConfig candidates;
};

/// Replica-pool serving facade. The engine borrows the network (caller
/// keeps it alive) and shares ownership of the snapshot.
class ServingEngine {
 public:
  ServingEngine(const graph::RoadNetwork& network,
                std::shared_ptr<const ModelSnapshot> snapshot,
                const ServingOptions& options = {});

  /// Convenience: captures a snapshot of `model` at construction. Later
  /// training of `model` does not affect this engine.
  ServingEngine(const graph::RoadNetwork& network,
                const core::PathRankModel& model,
                const ServingOptions& options = {});

  ~ServingEngine();
  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Generates candidates for (source, destination) and returns them
  /// sorted by descending estimated score. Thread-safe.
  std::vector<ScoredPath> Rank(graph::VertexId source,
                               graph::VertexId destination) const;
  std::vector<ScoredPath> Rank(graph::VertexId source,
                               graph::VertexId destination,
                               const data::CandidateGenConfig& gen) const;

  /// Scores externally supplied candidate paths (sorted descending).
  /// Thread-safe.
  std::vector<ScoredPath> ScoreBatch(
      const std::vector<routing::Path>& paths) const;

  /// Atomically replaces the served snapshot and returns the previous one.
  /// In-flight requests finish on the snapshot they captured at entry; new
  /// requests score on `next`. The old snapshot is destroyed when its last
  /// in-flight request completes (or when the caller drops the returned
  /// handle, whichever is later). Thread-safe; callable under full load.
  std::shared_ptr<const ModelSnapshot> SwapSnapshot(
      std::shared_ptr<const ModelSnapshot> next) EXCLUDES(snapshot_mu_);

  /// The currently served snapshot (a new swap may supersede it at any
  /// time; the returned handle stays valid regardless).
  std::shared_ptr<const ModelSnapshot> shared_snapshot() const
      EXCLUDES(snapshot_mu_) {
    common::MutexLock lock(snapshot_mu_);
    return snapshot_;
  }
  /// Number of SwapSnapshot calls since construction.
  uint64_t swap_count() const {
    return swap_count_.load(std::memory_order_relaxed);
  }
  const graph::RoadNetwork& network() const { return *network_; }
  size_t num_replicas() const { return replicas_.size(); }
  const ServingOptions& options() const { return options_; }

 private:
  struct Replica;

  /// Scores a prepared SequenceBatch on the current snapshot, row for row
  /// (no sorting) — the raw scoring primitive under ScoreBatch. Runs the
  /// kernels serially on the calling thread (parallelism lives across
  /// callers).
  std::vector<float> ScoreSequences(const nn::SequenceBatch& batch) const;

  const graph::RoadNetwork* network_;
  /// Guarded by a mutex rather than std::atomic<shared_ptr>: the critical
  /// section is one refcounted copy (noise next to a forward pass), and
  /// libstdc++'s lock-bit _Sp_atomic protocol is opaque to TSan, which
  /// the CI thread-sanitizer gate runs against. Never held while taking
  /// a replica lock (the snapshot handle is copied out first), hence the
  /// rank before the replicas.
  mutable common::Mutex snapshot_mu_{common::LockRank::kEngineSnapshot,
                                     "engine.snapshot"};
  std::shared_ptr<const ModelSnapshot> snapshot_ GUARDED_BY(snapshot_mu_);
  std::atomic<uint64_t> swap_count_{0};
  ServingOptions options_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  mutable std::atomic<uint32_t> round_robin_{0};
};

}  // namespace pathrank::serving
