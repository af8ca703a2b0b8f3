#ifndef APCM_INDEX_KINDEX_H_
#define APCM_INDEX_KINDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/be/value.h"
#include "src/index/matcher.h"

namespace apcm::index {

/// Reconstruction of the k-index of Whang et al. (VLDB'09), the standard
/// inverted-list matcher for computational advertising, adapted to ordinal
/// range predicates: predicates are posted under canonical segment-tree
/// nodes of their value interval (O(log W) postings per predicate), events
/// probe the O(log W) nodes on their value's root-to-leaf path, and each
/// posting hit is verified against the exact predicate before counting.
/// A subscription with k predicates matches when its verified-hit counter
/// reaches k (the "k" partitioning of the original: a subscription whose k
/// exceeds the event's attribute count can never accumulate k hits and is
/// skipped implicitly).
class KIndexMatcher : public Matcher {
 public:
  /// `domain` bounds the segment hierarchy; values outside are clamped.
  /// `max_depth` caps the hierarchy depth (leaves then cover multiple
  /// values; verification keeps results exact).
  explicit KIndexMatcher(ValueInterval domain, int max_depth = 16)
      : domain_(domain), max_depth_(max_depth) {}

  std::string Name() const override { return "k-index"; }

  using Matcher::Build;
  void Build(std::span<const BooleanExpression* const> subscriptions) override;

  void Match(const Event& event,
             std::vector<SubscriptionId>* matches) override;

  const MatcherStats& stats() const override { return stats_; }
  uint64_t MemoryBytes() const override;

 private:
  /// Heap-ordered node id within the virtual segment tree of one attribute.
  using NodeId = uint64_t;

  /// Maps a value to its leaf cell in [0, 2^levels_).
  uint64_t CellFor(Value v) const;

  ValueInterval domain_;
  int max_depth_;
  int levels_ = 0;        ///< depth of the virtual tree (leaves = 2^levels_)
  int cell_shift_ = 0;    ///< log2 of values per leaf cell

  struct Posting {
    const Predicate* predicate;  ///< verified on hit; owned by caller's subs
    SubscriptionId owner;
  };
  /// Per attribute: node id -> postings.
  std::vector<std::unordered_map<NodeId, std::vector<Posting>>> per_attribute_;
  std::vector<uint32_t> required_;
  std::vector<SubscriptionId> match_all_;
  std::vector<uint32_t> counters_;
  std::vector<uint32_t> counter_epoch_;
  uint32_t epoch_ = 0;
  MatcherStats stats_;
};

}  // namespace apcm::index

#endif  // APCM_INDEX_KINDEX_H_
