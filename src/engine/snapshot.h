#ifndef APCM_ENGINE_SNAPSHOT_H_
#define APCM_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/be/expression.h"
#include "src/index/matcher.h"

namespace apcm::engine {

/// One generation of the StreamEngine's matching state, swapped RCU-style.
///
/// A snapshot is built off the hot path (on the engine's maintenance pool)
/// over the live subscription set captured as handles: the master list and
/// every snapshot share one immutable copy of each expression (see
/// ExpressionHandle). It is then published with a shared_ptr swap.
/// Processing rounds copy the shared_ptr, so a rebuild that publishes
/// mid-round never invalidates the matcher an in-flight round is using —
/// the old generation, and every expression its matcher points at, stays
/// alive until its last reference drops.
///
/// The subscription *set* of a snapshot is immutable. The matcher object is
/// not: MatchBatch updates matcher-internal counters and adaptive state,
/// and the engine applies PCM deltas (AddIncremental / RemoveIncremental)
/// to the newest snapshot so subscription churn is visible before the next
/// rebuild lands. All such mutation is serialized by the engine's
/// processing lock; the background builder only ever touches a snapshot
/// that has not been published yet.
struct EngineSnapshot {
  /// Handles to the expressions `matcher` was built over (matchers keep
  /// pointers to them; see Matcher::Build). Expressions added later through
  /// the PCM delta path are held by the matcher itself.
  std::vector<ExpressionHandle> built_subs;
  /// The matcher built over built_subs.
  std::unique_ptr<Matcher> matcher;
  /// Engine change-sequence number the build covered: every subscription
  /// add/remove with seq <= covered_seq is reflected in the built index.
  uint64_t covered_seq = 0;
  /// Highest change applied to `matcher`, >= covered_seq once the engine
  /// has handed PCM deltas to this generation. Guarded by the engine's
  /// processing lock.
  uint64_t applied_seq = 0;
};

/// Holds the engine's current snapshot behind a light mutex. Readers copy
/// the shared_ptr (Load) and work on their copy; the background builder
/// publishes a new generation with Store. The mutex protects only the
/// pointer swap, never the (potentially expensive) build or match work.
class SnapshotHolder {
 public:
  SnapshotHolder() = default;

  SnapshotHolder(const SnapshotHolder&) = delete;
  SnapshotHolder& operator=(const SnapshotHolder&) = delete;

  /// Returns the current generation (null before the first publish).
  std::shared_ptr<EngineSnapshot> Load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snapshot_;
  }

  /// Publishes `snapshot` as the current generation.
  void Store(std::shared_ptr<EngineSnapshot> snapshot) {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_ = std::move(snapshot);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<EngineSnapshot> snapshot_;
};

}  // namespace apcm::engine

#endif  // APCM_ENGINE_SNAPSHOT_H_
