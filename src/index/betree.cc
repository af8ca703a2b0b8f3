#include "src/index/betree.h"

#include <algorithm>
#include <unordered_map>

#include "src/base/macros.h"

namespace apcm::index {

// ---- node structures --------------------------------------------------

struct BETreeMatcher::CNode {
  /// Expressions held locally (not yet pushed into a partition).
  std::vector<const BooleanExpression*> exprs;
  /// Partitions created by space cuts, in creation order.
  std::vector<std::unique_ptr<PNode>> pnodes;
};

struct BETreeMatcher::Bucket {
  ValueInterval range;
  CNode content;
  std::unique_ptr<Bucket> left;   // lower half of range
  std::unique_ptr<Bucket> right;  // upper half of range
};

struct BETreeMatcher::PNode {
  AttributeId attr = 0;
  Bucket root;
};

namespace {

/// Hull of the values that can satisfy `pred`, clipped to `domain`; empty if
/// no in-domain value can satisfy it.
ValueInterval PlacementInterval(const Predicate& pred, ValueInterval domain) {
  std::vector<ValueInterval> intervals;
  pred.AppendIntervals(domain, &intervals);
  if (intervals.empty()) return ValueInterval{1, 0};  // empty
  return ValueInterval{intervals.front().lo, intervals.back().hi};
}

const Predicate* FindPredicate(const BooleanExpression& expr,
                               AttributeId attr) {
  // Predicates are attribute-sorted.
  auto it = std::lower_bound(
      expr.predicates().begin(), expr.predicates().end(), attr,
      [](const Predicate& p, AttributeId a) { return p.attribute() < a; });
  if (it == expr.predicates().end() || it->attribute() != attr) return nullptr;
  return &*it;
}

}  // namespace

BETreeMatcher::BETreeMatcher(BETreeOptions options) : options_(options) {}

BETreeMatcher::~BETreeMatcher() = default;

void BETreeMatcher::Build(
    std::span<const BooleanExpression* const> subscriptions) {
  // The clustering hierarchy needs a finite value domain; derive it from the
  // subscription set (the hull of all predicate operands). Events may carry
  // values outside this hull — descent clamps them, which is correct because
  // every placement interval is clipped to the hull (see Match).
  Value lo = 0;
  Value hi = 0;
  bool any = false;
  for (const BooleanExpression* sub : subscriptions) {
    for (const auto& pred : sub->predicates()) {
      Value plo = pred.v1();
      Value phi = pred.op() == Op::kBetween ? pred.v2() : pred.v1();
      if (pred.op() == Op::kIn) {
        plo = pred.values().front();
        phi = pred.values().back();
      }
      if (!any) {
        lo = plo;
        hi = phi;
        any = true;
      } else {
        lo = std::min(lo, plo);
        hi = std::max(hi, phi);
      }
    }
  }
  domain_ = any ? ValueInterval{lo, hi} : ValueInterval{0, 0};

  root_ = std::make_unique<CNode>();
  std::vector<AttributeId> used_attrs;
  for (const BooleanExpression* sub : subscriptions) {
    Insert(root_.get(), sub, &used_attrs);
    APCM_DCHECK(used_attrs.empty());
  }
}

void BETreeMatcher::Insert(CNode* node, const BooleanExpression* expr,
                           std::vector<AttributeId>* used_attrs) {
  // Route into the first existing partition whose attribute the expression
  // constrains with a placeable (non-empty) interval.
  for (const auto& pnode : node->pnodes) {
    const Predicate* pred = FindPredicate(*expr, pnode->attr);
    if (pred == nullptr) continue;
    const ValueInterval placement = PlacementInterval(*pred, domain_);
    if (placement.Empty()) continue;  // unsatisfiable in-domain: stay local
    // Phase-2 clustering: descend to the deepest bucket fully containing
    // the placement interval, creating children lazily.
    Bucket* bucket = &pnode->root;
    for (int depth = 0; depth < options_.max_cluster_depth; ++depth) {
      const ValueInterval range = bucket->range;
      if (range.Width() <= 1) break;
      const Value mid = range.lo + static_cast<Value>((range.Width() - 1) / 2);
      if (placement.hi <= mid) {
        if (bucket->left == nullptr) {
          bucket->left = std::make_unique<Bucket>();
          bucket->left->range = ValueInterval{range.lo, mid};
        }
        bucket = bucket->left.get();
      } else if (placement.lo > mid) {
        if (bucket->right == nullptr) {
          bucket->right = std::make_unique<Bucket>();
          bucket->right->range = ValueInterval{mid + 1, range.hi};
        }
        bucket = bucket->right.get();
      } else {
        break;  // spans the midpoint: this bucket is the tightest fit
      }
    }
    used_attrs->push_back(pnode->attr);
    Insert(&bucket->content, expr, used_attrs);
    used_attrs->pop_back();
    return;
  }
  node->exprs.push_back(expr);
  MaybeSplit(node, used_attrs);
}

void BETreeMatcher::MaybeSplit(CNode* node,
                               std::vector<AttributeId>* used_attrs) {
  while (node->exprs.size() > options_.max_leaf_capacity) {
    // Phase-1 partitioning: score attributes by how many local expressions
    // constrain them; skip attributes already used on the path or already
    // partitioned at this node.
    std::unordered_map<AttributeId, uint32_t> scores;
    for (const BooleanExpression* expr : node->exprs) {
      for (const Predicate& pred : expr->predicates()) {
        scores[pred.attribute()]++;
      }
    }
    for (const auto& pnode : node->pnodes) scores.erase(pnode->attr);
    for (AttributeId attr : *used_attrs) scores.erase(attr);

    AttributeId best_attr = 0;
    uint32_t best_score = 0;
    for (const auto& [attr, score] : scores) {
      if (score > best_score ||
          (score == best_score && best_score > 0 && attr < best_attr)) {
        best_attr = attr;
        best_score = score;
      }
    }
    if (best_score < options_.min_partition_size) return;  // not worth a cut

    auto pnode = std::make_unique<PNode>();
    pnode->attr = best_attr;
    pnode->root.range = domain_;
    node->pnodes.push_back(std::move(pnode));

    // Redistribute: re-insert the local list through the routing logic so
    // expressions constraining best_attr move into the new partition.
    std::vector<const BooleanExpression*> local;
    local.swap(node->exprs);
    bool moved_any = false;
    for (const BooleanExpression* expr : local) {
      const Predicate* pred = FindPredicate(*expr, best_attr);
      if (pred != nullptr && !PlacementInterval(*pred, domain_).Empty()) {
        moved_any = true;
        Insert(node, expr, used_attrs);  // routes into the new partition
      } else {
        node->exprs.push_back(expr);
      }
    }
    if (!moved_any) return;  // defensive: nothing placeable, stop cutting
  }
}

void BETreeMatcher::MatchCNode(const CNode& node, const Event& event,
                               std::vector<SubscriptionId>* matches) {
  uint64_t evals = 0;
  for (const BooleanExpression* expr : node.exprs) {
    ++stats_.candidates_checked;
    if (expr->MatchesCounting(event, &evals)) {
      matches->push_back(expr->id());
    }
  }
  stats_.predicate_evals += evals;
  for (const auto& pnode : node.pnodes) {
    const Value* value = event.Find(pnode->attr);
    if (value == nullptr) continue;  // partition attr absent: cannot match
    const Value v = std::clamp(*value, domain_.lo, domain_.hi);
    const Bucket* bucket = &pnode->root;
    while (bucket != nullptr) {
      MatchCNode(bucket->content, event, matches);
      const ValueInterval range = bucket->range;
      if (range.Width() <= 1) break;
      const Value mid = range.lo + static_cast<Value>((range.Width() - 1) / 2);
      bucket = v <= mid ? bucket->left.get() : bucket->right.get();
    }
  }
}

void BETreeMatcher::Match(const Event& event,
                          std::vector<SubscriptionId>* matches) {
  APCM_CHECK(root_ != nullptr);
  matches->clear();
  MatchCNode(*root_, event, matches);
  std::sort(matches->begin(), matches->end());
  stats_.events_matched++;
  stats_.matches_emitted += matches->size();
}

// Single traversal computing both the byte footprint and the structural
// shape; the public accessors each project one of the two.
void BETreeMatcher::Walk(uint64_t* bytes, Shape* shape) const {
  auto walk_cnode = [&](auto&& self, const CNode& node,
                        uint64_t depth) -> void {
    shape->cluster_nodes++;
    shape->max_depth = std::max(shape->max_depth, depth);
    *bytes += sizeof(CNode) +
              node.exprs.capacity() * sizeof(const BooleanExpression*) +
              node.pnodes.capacity() * sizeof(std::unique_ptr<PNode>);
    for (const auto& pnode : node.pnodes) {
      shape->partition_nodes++;
      *bytes += sizeof(PNode);
      auto walk_bucket = [&](auto&& bself, const Bucket& bucket) -> void {
        shape->buckets++;
        *bytes += sizeof(Bucket);
        self(self, bucket.content, depth + 1);
        if (bucket.left) bself(bself, *bucket.left);
        if (bucket.right) bself(bself, *bucket.right);
      };
      walk_bucket(walk_bucket, pnode->root);
    }
  };
  if (root_ != nullptr) walk_cnode(walk_cnode, *root_, 0);
}

uint64_t BETreeMatcher::MemoryBytes() const {
  uint64_t bytes = 0;
  Shape shape;
  Walk(&bytes, &shape);
  return bytes;
}

BETreeMatcher::Shape BETreeMatcher::ComputeShape() const {
  uint64_t bytes = 0;
  Shape shape;
  Walk(&bytes, &shape);
  return shape;
}

}  // namespace apcm::index
