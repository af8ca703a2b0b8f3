#include "src/index/counting.h"

#include <algorithm>

#include "src/base/macros.h"

namespace apcm::index {

void CountingMatcher::Build(
    std::span<const BooleanExpression* const> subscriptions) {
  // Subscription ids index the counter arrays directly, so they must be
  // dense; the workload generator and engine guarantee this.
  SubscriptionId max_id = 0;
  AttributeId max_attr = 0;
  for (const BooleanExpression* sub : subscriptions) {
    max_id = std::max(max_id, sub->id());
    for (const auto& pred : sub->predicates()) {
      max_attr = std::max(max_attr, pred.attribute());
    }
  }
  const size_t num_slots = subscriptions.empty() ? 0 : size_t{max_id} + 1;
  required_.assign(num_slots, 0);
  counters_.assign(num_slots, 0);
  counter_epoch_.assign(num_slots, 0);
  per_attribute_.clear();
  per_attribute_.resize(subscriptions.empty() ? 0 : size_t{max_attr} + 1);
  payload_owner_.clear();
  match_all_.clear();

  std::vector<ValueInterval> intervals;
  for (const BooleanExpression* sub : subscriptions) {
    required_[sub->id()] = static_cast<uint32_t>(sub->size());
    if (sub->predicates().empty()) {
      match_all_.push_back(sub->id());
      continue;
    }
    for (const auto& pred : sub->predicates()) {
      // One payload per (subscription, predicate) instance. A predicate's
      // decomposition intervals are disjoint, so a stab hits at most one —
      // the counter is incremented at most once per predicate.
      const auto payload = static_cast<uint32_t>(payload_owner_.size());
      payload_owner_.push_back(sub->id());
      intervals.clear();
      pred.AppendIntervals(domain_, &intervals);
      for (const ValueInterval& interval : intervals) {
        per_attribute_[pred.attribute()].Add(interval, payload);
      }
    }
  }
  for (IntervalIndex& index : per_attribute_) index.Build();
  std::sort(match_all_.begin(), match_all_.end());
}

void CountingMatcher::Match(const Event& event,
                            std::vector<SubscriptionId>* matches) {
  matches->clear();
  ++epoch_;
  const uint32_t epoch = epoch_;
  uint64_t stabs = 0;
  for (const Event::Entry& entry : event.entries()) {
    if (entry.attr >= per_attribute_.size()) continue;
    per_attribute_[entry.attr].Stab(entry.value, [&](uint32_t payload) {
      ++stabs;
      const SubscriptionId owner = payload_owner_[payload];
      if (counter_epoch_[owner] != epoch) {
        counter_epoch_[owner] = epoch;
        counters_[owner] = 0;
      }
      if (++counters_[owner] == required_[owner]) {
        matches->push_back(owner);
      }
    });
  }
  matches->insert(matches->end(), match_all_.begin(), match_all_.end());
  std::sort(matches->begin(), matches->end());
  stats_.events_matched++;
  stats_.predicate_evals += stabs;  // each stab hit ≈ one predicate check
  stats_.candidates_checked += stabs;
  stats_.matches_emitted += matches->size();
}

uint64_t CountingMatcher::MemoryBytes() const {
  uint64_t bytes = payload_owner_.capacity() * sizeof(SubscriptionId) +
                   required_.capacity() * sizeof(uint32_t) +
                   counters_.capacity() * sizeof(uint32_t) +
                   counter_epoch_.capacity() * sizeof(uint32_t);
  for (const IntervalIndex& index : per_attribute_) {
    bytes += index.MemoryBytes();
  }
  return bytes;
}

}  // namespace apcm::index
