#ifndef APCM_INDEX_SCAN_H_
#define APCM_INDEX_SCAN_H_

#include "src/index/matcher.h"

namespace apcm::index {

/// The naive baseline: evaluates every subscription against every event with
/// per-expression short-circuit. This is the "state-of-the-art sequential"
/// floor of the paper's headline comparison (the abstract's ~36 events/s at
/// five million expressions) and the ground truth every other matcher is
/// cross-validated against in the test suite.
class ScanMatcher : public Matcher {
 public:
  std::string Name() const override { return "scan"; }

  using Matcher::Build;
  void Build(std::span<const BooleanExpression* const> subscriptions) override {
    subscriptions_.assign(subscriptions.begin(), subscriptions.end());
  }

  void Match(const Event& event,
             std::vector<SubscriptionId>* matches) override;

  const MatcherStats& stats() const override { return stats_; }
  /// Only the pointer list: SCAN has no index structures.
  uint64_t MemoryBytes() const override {
    return subscriptions_.capacity() * sizeof(const BooleanExpression*);
  }

 private:
  std::vector<const BooleanExpression*> subscriptions_;
  MatcherStats stats_;
};

}  // namespace apcm::index

#endif  // APCM_INDEX_SCAN_H_
