#ifndef APCM_CLUSTER_PARTITION_H_
#define APCM_CLUSTER_PARTITION_H_

#include <cstdint>
#include <vector>

namespace apcm::cluster {

/// Consistent-hash layout of the cluster tier (DESIGN.md §3.13): a fixed
/// ring of `num_partitions` virtual partitions, each owned by one backend
/// slot. A subscription's partition is a splitmix64 hash of its id modulo
/// P: the hash never changes, only the partition -> slot ownership table
/// does, so adding or removing a backend moves whole partitions (about P/N
/// of them) instead of rehashing every subscription.
///
/// Slots are stable indices: removing a backend marks its slot dead and
/// reassigns its partitions, it never renumbers the survivors. All methods
/// are deterministic — the router's re-partition plan is a pure function of
/// the topology history, which the differential oracle relies on.
///
/// Not thread-safe; owned and mutated by the router's I/O thread.
class PartitionMap {
 public:
  /// One partition changing owners during a topology change.
  struct Move {
    uint32_t partition = 0;
    uint32_t from = 0;  ///< old owner slot
    uint32_t to = 0;    ///< new owner slot
  };

  /// `num_backends` initial live slots (0..num_backends-1); partitions are
  /// dealt round-robin so the initial layout is balanced.
  PartitionMap(uint32_t num_partitions, uint32_t num_backends);

  /// The owning partition of subscription `id`: splitmix64(id) % P, with
  /// `id` first narrowed to the 32-bit SubscriptionId. Stable across
  /// topology changes and processes.
  static uint32_t PartitionOf(uint64_t id, uint32_t num_partitions);

  uint32_t num_partitions() const {
    return static_cast<uint32_t>(owner_.size());
  }
  /// Total slots ever created (live + dead).
  uint32_t num_slots() const { return static_cast<uint32_t>(alive_.size()); }
  uint32_t num_live() const { return live_; }
  bool slot_alive(uint32_t slot) const { return alive_[slot]; }

  /// Owner slot of `partition` / of subscription `id`.
  uint32_t owner(uint32_t partition) const { return owner_[partition]; }
  uint32_t OwnerOf(uint64_t id) const {
    return owner_[PartitionOf(id, num_partitions())];
  }

  /// Partitions currently owned by `slot`, ascending.
  std::vector<uint32_t> PartitionsOf(uint32_t slot) const;

  /// Adds a live slot and rebalances: the new slot steals partitions from
  /// the most-loaded live slots until it holds its fair share (P / live).
  /// Returns the moves, ascending by partition.
  std::vector<Move> AddSlot();

  /// Marks `slot` dead and deals its partitions to the least-loaded live
  /// slots. Returns the moves, ascending by partition. Must leave at least
  /// one live slot (CHECKed by the caller).
  std::vector<Move> RemoveSlot(uint32_t slot);

 private:
  std::vector<uint32_t> owner_;  ///< partition -> slot
  std::vector<bool> alive_;      ///< slot -> liveness
  uint32_t live_ = 0;
};

}  // namespace apcm::cluster

#endif  // APCM_CLUSTER_PARTITION_H_
