#include "src/index/kindex.h"

#include <algorithm>
#include <bit>

#include "src/base/bit_ops.h"
#include "src/base/macros.h"

namespace apcm::index {

uint64_t KIndexMatcher::CellFor(Value v) const {
  v = std::clamp(v, domain_.lo, domain_.hi);
  // Subtract in uint64 so huge spans (hi - lo exceeding int64) cannot
  // overflow; two's-complement wraparound yields the correct offset.
  const uint64_t offset =
      static_cast<uint64_t>(v) - static_cast<uint64_t>(domain_.lo);
  return offset >> cell_shift_;
}

void KIndexMatcher::Build(
    std::span<const BooleanExpression* const> subscriptions) {
  APCM_CHECK(!domain_.Empty());
  // Width() wraps to 0 when the domain spans the full 64-bit space; that
  // means 2^64 values, i.e. 64 bits of cell address.
  const uint64_t width = domain_.Width();
  int bits;
  if (width == 0) {
    bits = 64;
  } else if (width == 1) {
    bits = 0;
  } else {
    bits = 64 - std::countl_zero(width - 1);  // ceil(log2(width))
  }
  levels_ = std::min({bits, max_depth_, 63});  // 1ULL << levels_ must be safe
  cell_shift_ = bits - levels_;

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
  match_all_.clear();

  const uint64_t num_leaves = 1ULL << levels_;
  std::vector<ValueInterval> intervals;
  std::vector<std::pair<uint64_t, uint64_t>> cell_ranges;
  for (const BooleanExpression* sub : subscriptions) {
    required_[sub->id()] = static_cast<uint32_t>(sub->size());
    if (sub->predicates().empty()) {
      match_all_.push_back(sub->id());
      continue;
    }
    for (const auto& pred : sub->predicates()) {
      intervals.clear();
      pred.AppendIntervals(domain_, &intervals);
      // Convert to cell granularity and coalesce: cell rounding can make
      // disjoint value intervals share a cell, and a predicate must be
      // posted at most once per cell so each event attribute produces at
      // most one (verified) hit per predicate.
      cell_ranges.clear();
      for (const ValueInterval& interval : intervals) {
        cell_ranges.emplace_back(CellFor(interval.lo), CellFor(interval.hi));
      }
      std::sort(cell_ranges.begin(), cell_ranges.end());
      size_t merged = 0;
      for (size_t i = 1; i < cell_ranges.size(); ++i) {
        if (cell_ranges[i].first <= cell_ranges[merged].second + 1) {
          cell_ranges[merged].second =
              std::max(cell_ranges[merged].second, cell_ranges[i].second);
        } else {
          cell_ranges[++merged] = cell_ranges[i];
        }
      }
      if (!cell_ranges.empty()) cell_ranges.resize(merged + 1);

      auto& attr_map = per_attribute_[pred.attribute()];
      const Posting posting{&pred, sub->id()};
      for (const auto& [lc, rc] : cell_ranges) {
        // Canonical segment-tree decomposition of cells [lc, rc].
        uint64_t lo = lc + num_leaves;
        uint64_t hi = rc + num_leaves + 1;
        while (lo < hi) {
          if (lo & 1) attr_map[lo++].push_back(posting);
          if (hi & 1) attr_map[--hi].push_back(posting);
          lo >>= 1;
          hi >>= 1;
        }
      }
    }
  }
  std::sort(match_all_.begin(), match_all_.end());
}

void KIndexMatcher::Match(const Event& event,
                          std::vector<SubscriptionId>* matches) {
  matches->clear();
  ++epoch_;
  const uint32_t epoch = epoch_;
  const uint64_t num_leaves = 1ULL << levels_;
  for (const Event::Entry& entry : event.entries()) {
    if (entry.attr >= per_attribute_.size()) continue;
    const auto& attr_map = per_attribute_[entry.attr];
    if (attr_map.empty()) continue;
    // Probe every node on the root-to-leaf path of the value's cell.
    for (NodeId node = CellFor(entry.value) + num_leaves; node >= 1;
         node >>= 1) {
      auto it = attr_map.find(node);
      if (it == attr_map.end()) continue;
      for (const Posting& posting : it->second) {
        stats_.predicate_evals++;
        if (!posting.predicate->Eval(entry.value)) continue;
        const SubscriptionId owner = posting.owner;
        if (counter_epoch_[owner] != epoch) {
          counter_epoch_[owner] = epoch;
          counters_[owner] = 0;
        }
        if (++counters_[owner] == required_[owner]) {
          matches->push_back(owner);
        }
      }
    }
  }
  matches->insert(matches->end(), match_all_.begin(), match_all_.end());
  std::sort(matches->begin(), matches->end());
  stats_.events_matched++;
  stats_.matches_emitted += matches->size();
}

uint64_t KIndexMatcher::MemoryBytes() const {
  uint64_t bytes = required_.capacity() * sizeof(uint32_t) +
                   counters_.capacity() * sizeof(uint32_t) +
                   counter_epoch_.capacity() * sizeof(uint32_t);
  for (const auto& attr_map : per_attribute_) {
    bytes += attr_map.size() * (sizeof(NodeId) + sizeof(std::vector<Posting>) +
                                16 /* hash bucket overhead */);
    for (const auto& [node, postings] : attr_map) {
      bytes += postings.capacity() * sizeof(Posting);
    }
  }
  return bytes;
}

}  // namespace apcm::index
