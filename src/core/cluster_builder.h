#ifndef APCM_CORE_CLUSTER_BUILDER_H_
#define APCM_CORE_CLUSTER_BUILDER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/cluster.h"

namespace apcm::core {

/// How subscriptions are grouped into clusters before compression.
enum class ClusterStrategy {
  /// Group by *pivot*: each subscription's least frequent attribute
  /// (frequency measured over the subscription set, the classic
  /// least-frequent-key rule). Clusters never span pivot boundaries, so
  /// every subscription in a cluster contains the pivot attribute — the
  /// cluster's required_attributes() prune rejects the whole cluster in
  /// O(1) whenever an event lacks the (rare) pivot. Within a pivot group,
  /// subscriptions are signature-sorted for predicate sharing. The default.
  kPivot,
  /// Sort subscriptions by their attribute-set signature only (no pivot
  /// boundaries). Ablation: sharing without the pivot prune.
  kSignature,
  /// Group in subscription-id order. The ablation control: same cluster
  /// sizes, no similarity — isolates how much of PCM's win is clustering.
  kInsertionOrder,
};

/// Returns a printable name ("pivot" / "signature" / "insertion-order").
const char* ClusterStrategyName(ClusterStrategy strategy);

struct ClusterBuilderOptions {
  /// Maximum subscriptions per cluster (bitmap width).
  uint32_t cluster_size = 1024;
  ClusterStrategy strategy = ClusterStrategy::kPivot;
  CompressedCluster::Options cluster_options;
};

/// Partitions `subscriptions` into clusters per the strategy and compresses
/// each. Every subscription lands in exactly one cluster.
std::vector<CompressedCluster> BuildClusters(
    const std::vector<BooleanExpression>& subscriptions,
    const ClusterBuilderOptions& options);

/// Pointer-based variant: PcmMatcher::Build and the regrouping in
/// PcmMatcher::Compact. The clusters keep the pointers (not the span), so
/// the pointees must outlive them.
std::vector<CompressedCluster> BuildClustersFromPointers(
    std::span<const BooleanExpression* const> subscriptions,
    const ClusterBuilderOptions& options);

}  // namespace apcm::core

#endif  // APCM_CORE_CLUSTER_BUILDER_H_
