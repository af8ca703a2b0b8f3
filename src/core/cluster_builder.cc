#include "src/core/cluster_builder.h"

#include <algorithm>
#include <unordered_map>

#include "src/base/macros.h"

namespace apcm::core {
namespace {

/// No-predicate (match-all) subscriptions get this pivot so they share one
/// cluster group that is never pruned.
constexpr AttributeId kNoPivot = static_cast<AttributeId>(-1);

/// Lexicographic attribute-then-operand comparison used for signature
/// ordering; identical subscriptions end up adjacent.
bool SignatureLess(const BooleanExpression& a, const BooleanExpression& b) {
  const auto& pa = a.predicates();
  const auto& pb = b.predicates();
  const size_t n = std::min(pa.size(), pb.size());
  for (size_t i = 0; i < n; ++i) {
    if (pa[i].attribute() != pb[i].attribute()) {
      return pa[i].attribute() < pb[i].attribute();
    }
  }
  if (pa.size() != pb.size()) return pa.size() < pb.size();
  for (size_t i = 0; i < n; ++i) {
    if (pa[i].op() != pb[i].op()) return pa[i].op() < pb[i].op();
    if (pa[i].v1() != pb[i].v1()) return pa[i].v1() < pb[i].v1();
    if (pa[i].v2() != pb[i].v2()) return pa[i].v2() < pb[i].v2();
  }
  return false;
}

/// The least frequent attribute of `sub` under `frequency`; ties break
/// toward the larger attribute id (deterministic).
AttributeId PivotOf(const BooleanExpression& sub,
                    const std::unordered_map<AttributeId, uint64_t>& frequency) {
  if (sub.predicates().empty()) return kNoPivot;
  AttributeId pivot = sub.predicates().front().attribute();
  uint64_t pivot_freq = frequency.at(pivot);
  for (const Predicate& pred : sub.predicates()) {
    const uint64_t freq = frequency.at(pred.attribute());
    if (freq < pivot_freq ||
        (freq == pivot_freq && pred.attribute() > pivot)) {
      pivot = pred.attribute();
      pivot_freq = freq;
    }
  }
  return pivot;
}

}  // namespace

const char* ClusterStrategyName(ClusterStrategy strategy) {
  switch (strategy) {
    case ClusterStrategy::kPivot:
      return "pivot";
    case ClusterStrategy::kSignature:
      return "signature";
    case ClusterStrategy::kInsertionOrder:
      return "insertion-order";
  }
  return "?";
}

std::vector<CompressedCluster> BuildClusters(
    const std::vector<BooleanExpression>& subscriptions,
    const ClusterBuilderOptions& options) {
  std::vector<const BooleanExpression*> pointers;
  pointers.reserve(subscriptions.size());
  for (const auto& sub : subscriptions) pointers.push_back(&sub);
  return BuildClustersFromPointers(pointers, options);
}

std::vector<CompressedCluster> BuildClustersFromPointers(
    std::span<const BooleanExpression* const> subscriptions,
    const ClusterBuilderOptions& options) {
  APCM_CHECK(options.cluster_size >= 1);
  const auto n = static_cast<uint32_t>(subscriptions.size());
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;

  std::vector<AttributeId> pivots;  // parallel to subscriptions (kPivot only)
  switch (options.strategy) {
    case ClusterStrategy::kInsertionOrder:
      break;
    case ClusterStrategy::kSignature:
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        if (SignatureLess(*subscriptions[a], *subscriptions[b])) return true;
        if (SignatureLess(*subscriptions[b], *subscriptions[a])) return false;
        return a < b;
      });
      break;
    case ClusterStrategy::kPivot: {
      std::unordered_map<AttributeId, uint64_t> frequency;
      for (const BooleanExpression* sub : subscriptions) {
        for (const Predicate& pred : sub->predicates()) {
          frequency[pred.attribute()]++;
        }
      }
      pivots.resize(n, kNoPivot);
      for (uint32_t i = 0; i < n; ++i) {
        pivots[i] = PivotOf(*subscriptions[i], frequency);
      }
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        if (pivots[a] != pivots[b]) return pivots[a] < pivots[b];
        if (SignatureLess(*subscriptions[a], *subscriptions[b])) return true;
        if (SignatureLess(*subscriptions[b], *subscriptions[a])) return false;
        return a < b;
      });
      break;
    }
  }

  std::vector<CompressedCluster> clusters;
  clusters.reserve(n / options.cluster_size + 1);
  std::vector<const BooleanExpression*> group;
  group.reserve(options.cluster_size);
  size_t begin = 0;
  while (begin < order.size()) {
    size_t end = std::min(order.size(), begin + size_t{options.cluster_size});
    if (options.strategy == ClusterStrategy::kPivot) {
      // Never span a pivot boundary: every member must contain the pivot so
      // the required-attribute prune covers the whole cluster.
      const AttributeId pivot = pivots[order[begin]];
      size_t boundary = begin + 1;
      while (boundary < end && pivots[order[boundary]] == pivot) ++boundary;
      end = boundary;
    }
    group.clear();
    for (size_t i = begin; i < end; ++i) {
      group.push_back(subscriptions[order[i]]);
    }
    clusters.push_back(
        CompressedCluster::Build(group, options.cluster_options));
    begin = end;
  }
  return clusters;
}

}  // namespace apcm::core
