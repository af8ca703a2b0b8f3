#ifndef APCM_INDEX_BETREE_H_
#define APCM_INDEX_BETREE_H_

#include <memory>
#include <vector>

#include "src/be/value.h"
#include "src/index/matcher.h"

namespace apcm::index {

/// Tuning knobs of the BE-Tree.
struct BETreeOptions {
  /// A cluster node is split (space-cut) when its local expression list
  /// exceeds this capacity.
  uint32_t max_leaf_capacity = 16;
  /// Minimum number of expressions sharing an attribute for that attribute
  /// to be worth a partition.
  uint32_t min_partition_size = 4;
  /// Maximum depth of a p-node's value-clustering hierarchy.
  int max_cluster_depth = 12;
};

/// Reconstruction of the BE-Tree (Sadoghi & Jacobsen, SIGMOD'11) — the prior
/// state-of-the-art sequential matcher that A-PCM compares against.
///
/// Two-phase space cutting, as in the paper:
///  * Phase 1 (partitioning): an overflowing cluster node picks the
///    attribute that appears in most of its expressions (and is unused on
///    the path) and creates a partition node (p-node) for it; expressions
///    constraining that attribute move into the p-node, the rest stay local.
///  * Phase 2 (clustering): inside a p-node, expressions are clustered by
///    their predicate's value interval on the partition attribute: a binary
///    hierarchy halves the domain recursively, and an expression lands at
///    the deepest bucket whose range fully contains its interval (so a
///    matching event's value is guaranteed to lie on the bucket's path).
///
/// Matching descends: at each cluster node it evaluates the local
/// expressions with short-circuit, then for every p-node whose attribute the
/// event carries, walks the single root-to-leaf bucket path containing the
/// event's value, recursing into each bucket's cluster node.
class BETreeMatcher : public Matcher {
 public:
  explicit BETreeMatcher(BETreeOptions options = {});
  ~BETreeMatcher() override;

  std::string Name() const override { return "be-tree"; }

  using Matcher::Build;
  void Build(std::span<const BooleanExpression* const> subscriptions) override;

  void Match(const Event& event,
             std::vector<SubscriptionId>* matches) override;

  const MatcherStats& stats() const override { return stats_; }
  uint64_t MemoryBytes() const override;

  /// Structural counters for tests and the design ablation.
  struct Shape {
    uint64_t cluster_nodes = 0;
    uint64_t partition_nodes = 0;
    uint64_t buckets = 0;
    uint64_t max_depth = 0;
  };
  Shape ComputeShape() const;

 private:
  struct Bucket;
  struct PNode;
  struct CNode;

  void Insert(CNode* node, const BooleanExpression* expr,
              std::vector<AttributeId>* used_attrs);
  void MaybeSplit(CNode* node, std::vector<AttributeId>* used_attrs);
  void MatchCNode(const CNode& node, const Event& event,
                  std::vector<SubscriptionId>* matches);
  void Walk(uint64_t* bytes, Shape* shape) const;

  BETreeOptions options_;
  ValueInterval domain_{0, 0};
  std::unique_ptr<CNode> root_;
  MatcherStats stats_;
};

}  // namespace apcm::index

#endif  // APCM_INDEX_BETREE_H_
