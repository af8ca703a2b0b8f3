#ifndef APCM_STORE_CHECKPOINT_H_
#define APCM_STORE_CHECKPOINT_H_

/// \file
/// Matcher checkpoint image: a point-in-time capture of the engine's durable
/// subscription state, named by the WAL sequence it covers. Recovery loads
/// the newest intact checkpoint and replays only WAL records with
/// `seq > wal_seq`. Like the WAL codec this is pure bytes-in/bytes-out;
/// file placement and the atomic-rename protocol live in DurableStore.
///
/// Layout (little-endian):
///
///     "APCMCKP1" | u64 wal_seq | u32 next_sub_id
///     u32 nsubs     | per sub:   u32 id | predicates
///     u32 nprios    | per entry: u32 id | f64 priority
///     u32 ngroups   | per group: u32 external | u32 n | u32 internals...
///     u8 has_index  | index section (see below)
///     u32 masked_crc32c(everything above)
///
/// Index section by `has_index`:
///
///     0  none
///     1  index_kind bytes | index_image bytes
///     2  index_kind bytes | u32 nshards | per shard: image bytes
///
/// The optional index section embeds a serialized matcher image (the
/// cluster_serialization v2 format via PcmMatcher::SaveIndex) so recovery
/// can skip the initial full rebuild when the engine runs a compatible
/// matcher kind. Form 2 (one image per hash shard) was written by engines
/// that partitioned their index; it is no longer written. Decoding still
/// accepts and validates it but drops the images, so such a checkpoint
/// recovers its subscriptions through a full rebuild instead of sending
/// recovery back to an older checkpoint whose WAL may already be pruned.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/be/expression.h"

namespace apcm::store {

struct CheckpointState {
  /// Every WAL record with seq <= wal_seq is reflected in this image.
  uint64_t wal_seq = 0;
  /// Engine id allocator watermark at capture time.
  SubscriptionId next_sub_id = 1;
  /// Live (non-tombstoned) subscriptions, ascending id. The engine captures
  /// its own handles here (no expression is copied); decoding creates one
  /// handle per entry, which recovery moves into the engine's master list.
  std::vector<ExpressionHandle> subscriptions;
  /// Non-default delivery priorities, ascending id.
  std::vector<std::pair<SubscriptionId, double>> priorities;
  /// DNF alias groups: external id -> internal disjunct ids, ascending.
  std::vector<std::pair<SubscriptionId, std::vector<SubscriptionId>>>
      dnf_groups;
  /// Matcher kind name the image was built for ("" = no image embedded).
  std::string index_kind;
  /// Serialized matcher index (PcmMatcher::SaveIndex stream bytes).
  std::string index_image;
};

/// Serializes `state` with magic and trailing checksum.
std::string EncodeCheckpoint(const CheckpointState& state);

/// Parses and fully validates a checkpoint image; any corruption — bad
/// magic, bad checksum, structural nonsense — is an IOError (the caller
/// falls back to an older checkpoint, never crashes).
StatusOr<CheckpointState> DecodeCheckpoint(std::string_view data);

}  // namespace apcm::store

#endif  // APCM_STORE_CHECKPOINT_H_
