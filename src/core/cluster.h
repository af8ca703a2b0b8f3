#ifndef APCM_CORE_CLUSTER_H_
#define APCM_CORE_CLUSTER_H_

#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/be/event.h"
#include "src/be/expression.h"
#include "src/index/matcher.h"

namespace apcm::core {

/// The compressed representation of one group of subscriptions — the core
/// data structure of PCM.
///
/// Subscriptions in the cluster occupy *slots* 0..size()-1 of a bitmap. The
/// cluster stores:
///  * a per-attribute dictionary of the *distinct* predicates its
///    subscriptions use, so each distinct predicate is evaluated once per
///    event regardless of how many subscriptions share it;
///  * for every distinct predicate, the set of slots containing it — as a
///    dense bitmask, or as a short slot list when few subscriptions share it
///    (`sparse_threshold`), which saves memory and word traffic;
///  * for every constrained attribute, an *absence mask*: the union of slots
///    constraining that attribute. A conjunction fails if it constrains an
///    attribute the event does not carry, so absence masks eliminate whole
///    swaths of subscriptions with one and-not per missing attribute.
///
/// Matching an event is two phases over a caller-provided result buffer of
/// words() 64-bit words:
///  1. ComputeAbsence: keep only subscriptions whose entire attribute set is
///     present in the event (a conjunction fails on any missing attribute).
///     Computed by counting, iterating the event's ~tens of present
///     attributes rather than the cluster's potentially hundreds of missing
///     ones: per-slot epoch-stamped counters tally how many of a
///     subscription's attributes the event covers; slots reaching their
///     attribute count become set bits of `result`. Clusters are first
///     rejected in O(|required|) via required_attributes(). This phase
///     depends only on the event's *attribute set*, so consecutive events
///     with equal signatures can share its output (what OSR enables).
///  2. MatchPresent: for every cluster attribute the event carries, evaluate
///     the distinct predicates; each failing predicate and-nots its slot
///     mask out of the result. Surviving bits are matches.
class CompressedCluster {
 public:
  struct Options {
    /// Predicates shared by at most this many slots store an explicit slot
    /// list instead of a width-sized bitmask.
    uint32_t sparse_threshold = 4;
  };

  /// How many distinct predicates landed in each slot-set representation —
  /// introspection for tests and reports.
  struct SlotSetStats {
    uint32_t sparse = 0;
    uint32_t dense = 0;
    uint32_t run = 0;
  };

  /// Builds the compressed form of `exprs` (≤ a few thousand; the cluster
  /// builder enforces the configured cluster size). Pointers must outlive
  /// the cluster. Slot i corresponds to exprs[i].
  static CompressedCluster Build(
      const std::vector<const BooleanExpression*>& exprs,
      const Options& options);

  /// Build with default options.
  static CompressedCluster Build(
      const std::vector<const BooleanExpression*>& exprs) {
    return Build(exprs, Options());
  }

  /// Number of subscriptions (slots).
  uint32_t size() const { return num_subs_; }
  /// Result buffer size in 64-bit words. Padded to a multiple of
  /// bitmap::kWordBlock so the vector kernels stream whole blocks with no
  /// tail loop; bits at or above size() are always zero.
  uint64_t words() const { return words_; }
  /// Subscription id at a slot. Requires slot < size().
  SubscriptionId SubIdAt(uint32_t slot) const { return sub_ids_[slot]; }

  /// The member expressions, slot-ordered (pointers owned by the caller of
  /// Build). Used by compaction to regroup clusters.
  const std::vector<const BooleanExpression*>& members() const {
    return subs_;
  }

  /// Phase 1. Writes the attribute-coverage survivor bitmap into `result`
  /// (words() words). Returns false if every slot is already eliminated;
  /// `result` is then unspecified (a cluster rejected by
  /// required_attributes() leaves it untouched).
  /// Uses a small thread-local counter scratch internally; safe to call
  /// concurrently from multiple threads on the same cluster.
  bool ComputeAbsence(const Event& event, uint64_t* result,
                      MatcherStats* stats) const;

  /// Phase 2. Requires `result` to hold a phase-1 output for this event's
  /// attribute signature. Returns false if every slot is eliminated.
  bool MatchPresent(const Event& event, uint64_t* result,
                    MatcherStats* stats) const;

  /// Convenience: both phases. Surviving bits of `result` are matches.
  bool MatchCompressed(const Event& event, uint64_t* result,
                       MatcherStats* stats) const {
    if (!ComputeAbsence(event, result, stats)) return false;
    return MatchPresent(event, result, stats);
  }

  /// Uncompressed alternative: short-circuit evaluation of each subscription
  /// individually, writing matches as set bits of `result` (same contract as
  /// MatchCompressed so callers can switch modes per cluster — A-PCM's
  /// adaptivity). Returns false if no slot matched, with `result` then
  /// unspecified as for ComputeAbsence.
  bool MatchLazy(const Event& event, uint64_t* result,
                 MatcherStats* stats) const;

  /// Appends the subscription ids of set slots in `result` to `matches`
  /// (ascending slot order).
  void CollectMatches(const uint64_t* result,
                      std::vector<SubscriptionId>* matches) const;

  /// Compression metrics: predicates across all subscriptions vs. distinct
  /// predicates stored.
  uint64_t total_predicates() const { return total_predicates_; }
  uint64_t distinct_predicates() const { return preds_.size(); }

  /// Representation breakdown of the distinct-predicate slot sets.
  SlotSetStats slot_set_stats() const;

  /// Attributes constrained by *every* subscription in the cluster. If any
  /// of them is absent from an event, no subscription can match, so both
  /// evaluation modes reject the whole cluster in O(|required|) — signature
  /// clustering makes this the dominant fast path.
  const std::vector<AttributeId>& required_attributes() const {
    return required_attrs_;
  }

  /// Sorted attributes constrained by at least one subscription.
  std::vector<AttributeId> Attributes() const;

  /// Approximate heap bytes of the compressed structures.
  uint64_t MemoryBytes() const;

  /// Writes the compressed structure (little-endian binary) to `out`.
  /// Subscriptions themselves are not stored — only their ids; pair the
  /// index file with the subscription trace it was built from.
  Status Serialize(std::ostream& out) const;

  /// Reads a cluster written by Serialize. `subs_by_id` must map every
  /// stored subscription id to its (live, outliving) expression; the
  /// deserialized cluster validates ids against it.
  static StatusOr<CompressedCluster> Deserialize(
      std::istream& in,
      const std::unordered_map<SubscriptionId, const BooleanExpression*>&
          subs_by_id);

 private:
  /// Distinct predicates of one attribute: preds_[pred_begin, pred_end).
  struct Group {
    AttributeId attr;
    uint32_t pred_begin;
    uint32_t pred_end;
    uint32_t attr_slots_begin;  ///< into attr_slot_arena_: slots constraining
    uint32_t attr_slots_end;    ///< this attribute
  };

  /// Slot-set representation of one distinct predicate — a hybrid container
  /// flattened into shared arenas (one allocation per cluster rather than
  /// per predicate): a short explicit slot list, a dense width-sized
  /// bitmask, or (start, length) run pairs when the slots form few
  /// contiguous ranges, which range predicates over sorted clusters do.
  struct SlotSet {
    enum class Kind : uint8_t { kSparse = 0, kDense = 1, kRun = 2 };
    uint32_t offset = 0;  ///< into sparse_slots_ / mask_words_ / run_arena_
    uint32_t count = 0;   ///< sparse: #slots; run: #runs; dense: unused
    Kind kind = Kind::kSparse;
  };

  void ClearSlots(const SlotSet& set, uint64_t* result,
                  MatcherStats* stats) const;

  /// True iff the event carries every required attribute.
  bool HasRequiredAttributes(const Event& event) const;

  uint32_t num_subs_ = 0;
  uint64_t words_ = 0;
  uint64_t total_predicates_ = 0;
  std::vector<SubscriptionId> sub_ids_;
  std::vector<const BooleanExpression*> subs_;  // for the lazy path
  std::vector<Group> groups_;                   // sorted by attr
  std::vector<AttributeId> required_attrs_;     // sorted
  std::vector<Predicate> preds_;                // distinct, in group order
  std::vector<SlotSet> pred_slots_;             // parallel to preds_
  std::vector<uint64_t> mask_words_;            // dense masks arena
  std::vector<uint32_t> sparse_slots_;          // sparse slot lists arena
  std::vector<uint32_t> run_arena_;             // (start, len) run pairs
  std::vector<uint32_t> attr_slot_arena_;       // per-group slot lists
  std::vector<uint16_t> attr_counts_;           // per slot: #attrs of its sub
  std::vector<uint32_t> always_alive_;          // slots with 0 predicates
};

}  // namespace apcm::core

#endif  // APCM_CORE_CLUSTER_H_
