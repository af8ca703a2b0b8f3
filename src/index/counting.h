#ifndef APCM_INDEX_COUNTING_H_
#define APCM_INDEX_COUNTING_H_

#include <vector>

#include "src/be/value.h"
#include "src/index/interval_index.h"
#include "src/index/matcher.h"

namespace apcm::index {

/// The classic counting algorithm (Yan & Garcia-Molina style): an inverted
/// index from attributes to predicate intervals; matching stabs each event
/// attribute's interval index and counts satisfied predicates per
/// subscription. A subscription matches when its counter reaches its
/// predicate count. Counters are epoch-stamped so no per-event reset of the
/// (potentially multi-million-entry) counter array is needed.
class CountingMatcher : public Matcher {
 public:
  /// `domain` is the value domain used to decompose kNe / open-ended
  /// predicates into closed intervals; it must cover every value that can
  /// appear in events and predicates (the workload catalog's domain).
  explicit CountingMatcher(ValueInterval domain) : domain_(domain) {}

  std::string Name() const override { return "counting"; }

  using Matcher::Build;
  void Build(std::span<const BooleanExpression* const> subscriptions) override;

  void Match(const Event& event,
             std::vector<SubscriptionId>* matches) override;

  const MatcherStats& stats() const override { return stats_; }
  uint64_t MemoryBytes() const override;

 private:
  ValueInterval domain_;
  /// One interval index per attribute id (dense; empty for unused attrs).
  std::vector<IntervalIndex> per_attribute_;
  /// payload -> owning subscription; payloads are predicate-instance ids.
  std::vector<SubscriptionId> payload_owner_;
  /// Required hit count per subscription (its predicate count).
  std::vector<uint32_t> required_;
  /// Subscriptions with zero predicates match everything.
  std::vector<SubscriptionId> match_all_;
  /// Epoch-stamped hit counters, one per subscription.
  std::vector<uint32_t> counters_;
  std::vector<uint32_t> counter_epoch_;
  uint32_t epoch_ = 0;
  MatcherStats stats_;
};

}  // namespace apcm::index

#endif  // APCM_INDEX_COUNTING_H_
