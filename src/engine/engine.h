#ifndef APCM_ENGINE_ENGINE_H_
#define APCM_ENGINE_ENGINE_H_

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/base/thread_pool.h"
#include "src/base/timer.h"
#include "src/core/osr.h"
#include "src/engine/admin_server.h"
#include "src/engine/event_queue.h"
#include "src/engine/event_trace.h"
#include "src/engine/matcher_factory.h"
#include "src/engine/snapshot.h"
#include "src/engine/trace_ring.h"

namespace apcm::store {
class DurableStore;
struct WalRecord;
}  // namespace apcm::store

namespace apcm::engine {

/// Engine-level counters. Every field is safe to read at any time from any
/// thread, live or quiesced: scalar counters are relaxed atomics and the
/// latency/depth distributions are ShardedHistograms (striped recording,
/// merge-on-read — see src/base/metrics.h and DESIGN.md §3.5). The same
/// values are exported through the engine's MetricsRegistry for scraping.
struct EngineStats {
  std::atomic<uint64_t> events_published{0};
  std::atomic<uint64_t> events_processed{0};
  std::atomic<uint64_t> matches_delivered{0};
  std::atomic<uint64_t> batches_processed{0};
  std::atomic<uint64_t> rebuilds{0};
  /// Subscription changes absorbed without a rebuild (PCM delta path).
  std::atomic<uint64_t> incremental_updates{0};
  /// Snapshot rebuilds triggered by the delta-fraction threshold.
  std::atomic<uint64_t> compactions{0};
  /// Publishes rejected by BackpressurePolicy::kReject (queue full).
  std::atomic<uint64_t> publishes_rejected{0};
  /// Publishes that found the queue full under BackpressurePolicy::kBlock
  /// and had to run/wait on a processing round before enqueueing.
  std::atomic<uint64_t> publishes_blocked{0};
  /// Matcher work counters (MatcherStats deltas), accumulated once per
  /// round under the processing lock so they are readable while the live
  /// matcher keeps mutating its own counters mid-round.
  std::atomic<uint64_t> matcher_predicate_evals{0};
  std::atomic<uint64_t> matcher_bitmap_words{0};
  std::atomic<uint64_t> matcher_candidates_checked{0};
  std::atomic<uint64_t> matcher_matches_emitted{0};
  /// (cluster, event) pairs evaluated (MatcherStats::cluster_visits; PCM
  /// family only, 0 for the baselines).
  std::atomic<uint64_t> matcher_cluster_visits{0};
  /// Wall time per processed batch, nanoseconds.
  ShardedHistogram batch_latency_ns;
  /// Publish-queue depth sampled at the start of every processing round.
  ShardedHistogram queue_depth;
  /// Wall time of each background snapshot build (rebuild or compaction),
  /// nanoseconds from schedule-execution to publish.
  ShardedHistogram rebuild_latency_ns;
};

/// What Publish does when the bounded publish queue is full.
enum class BackpressurePolicy {
  /// The publishing thread helps drain: it runs (or waits for) a processing
  /// round and retries. Publish never fails; latency absorbs the pressure.
  kBlock,
  /// TryPublish returns kResourceExhausted and leaves the event with the
  /// caller (shed load / retry upstream). Publish must not be used with
  /// this policy — it CHECK-fails on rejection.
  kReject,
};

struct EngineOptions {
  MatcherKind kind = MatcherKind::kAPcm;
  MatcherConfig matcher;
  /// Events handed to the matcher per MatchBatch call.
  uint32_t batch_size = 256;
  /// OSR window; 0/1 disables re-ordering. The window is an integer multiple
  /// of batches in practice (a window is flushed as consecutive batches).
  core::OsrOptions osr;
  /// A publish that brings the queue to this many buffered events triggers
  /// a processing round (at least the OSR window). Flush() processes any
  /// remainder.
  uint32_t buffer_capacity = 1024;
  /// Hard bound of the publish queue; 0 sizes it at 2 * buffer_capacity.
  /// Publishing into a full queue applies `backpressure`. A nonzero value
  /// below the (effective) buffer_capacity is rejected by
  /// ValidateEngineOptions: the buffer could then never fill, so automatic
  /// round triggering would silently degrade to Flush-driven flow control.
  uint32_t queue_capacity = 0;
  /// Behavior of Publish/TryPublish on a full queue.
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// For PCM-family matchers, subscription changes are applied via the
  /// matcher's incremental delta path, and a replacement snapshot is built
  /// in the background once the delta fraction exceeds this threshold. 0
  /// forces full (background) rebuilds on every change (and is the only
  /// behavior for non-PCM matchers).
  double incremental_rebuild_threshold = 0.25;
  /// When > 0, each delivery is truncated to the `top_k` matches with the
  /// highest priority (ties broken by lower id first). Priorities default
  /// to 0 and are set per subscription with SetPriority — e.g. campaign
  /// bids in ad serving. 0 delivers every match.
  uint32_t top_k = 0;
  /// Embedded admin HTTP server on 127.0.0.1 serving GET /metrics
  /// (Prometheus), /metrics.json, /report, /trace, and /healthz.
  /// 0 (default) = disabled, > 0 = fixed port, -1 = kernel-assigned
  /// ephemeral port (read it back with StreamEngine::admin_port(); meant
  /// for tests). A failed bind logs a warning and leaves the engine
  /// running without the server.
  int admin_port = 0;
  /// Capacity of the round-level trace ring (rounded up to a power of two;
  /// the ring keeps the most recent spans). 0 disables tracing.
  uint32_t trace_capacity = 4096;
  /// End-to-end event tracing: 1 in this many admitted events (rounded up
  /// to a power of two) is followed read -> admit -> queue -> match ->
  /// deliver -> write, feeding apcm_stage_latency_ns{stage=...} and
  /// `event_stage` trace-ring spans. 0 disables per-event tracing entirely
  /// (no extra atomics anywhere on the event path); 1 traces every event.
  uint32_t trace_sample_every = 64;
  /// A traced event slower than this end to end emits one structured
  /// warning log line with its stage breakdown. 0 disables the slow log.
  int64_t trace_slo_ns = 0;
  /// Durable subscriptions (DESIGN §3.12). When non-empty, every
  /// subscription mutation (add, DNF add, remove, priority) is appended to
  /// a CRC-framed write-ahead log in this directory BEFORE it is applied,
  /// and periodic checkpoints bound recovery time; construction replays
  /// newest-checkpoint + WAL-tail and continues with the recovered state
  /// (including the id allocator — recovered and new ids never collide).
  /// Empty (default) = persistence fully off: no store is created and the
  /// mutation path is byte-for-byte the in-memory one.
  std::string data_dir;
  /// fsync the WAL after every N appended records (group sync). 1 (default)
  /// = every record, the full durability contract; N > 1 trades the last
  /// < N acknowledged mutations on power loss for append throughput; 0 =
  /// never on the append path (only wal_sync_interval_ms / shutdown).
  uint32_t wal_sync_every = 1;
  /// Additionally fsync when this many milliseconds have passed since the
  /// last sync (checked on append). 0 disables the timer.
  int64_t wal_sync_interval_ms = 0;
  /// Write a checkpoint (and truncate the log) after this many WAL records,
  /// on the background maintenance thread. 0 = only explicit Checkpoint()
  /// calls.
  uint64_t checkpoint_every_ops = 16384;
  /// Embed a serialized matcher index image in checkpoints (PCM-family
  /// only) so recovery can skip the initial full rebuild.
  bool checkpoint_index = true;
  /// Bitmap kernel instruction set: "" or "auto" (default) keeps the
  /// process-wide runtime selection (best supported level, or the APCM_SIMD
  /// environment override); "scalar" / "avx2" / "avx512" force a level.
  /// The kernel table is process-global, so this applies beyond the engine;
  /// a level the host cannot run is rejected by ValidateEngineOptions.
  std::string simd;
};

/// Rejects nonsensical engine configurations instead of letting them
/// silently misbehave: a zero batch_size (no round could ever match
/// anything) and a nonzero queue_capacity smaller than the effective
/// buffer_capacity (max of buffer_capacity, osr.window_size, batch_size —
/// the queue could then never reach the round trigger). StreamEngine
/// construction CHECK-fails on an invalid config; call this first to surface
/// the error as a Status.
Status ValidateEngineOptions(const EngineOptions& options);

/// End-to-end streaming facade over the matchers: manages the subscription
/// set (with incremental add/remove and background snapshot rebuilds),
/// buffers and re-orders the event stream (OSR), batches it through the
/// configured matcher, and delivers results through a callback.
///
/// Delivery contract: for every published event, the callback fires exactly
/// once with the event's id and its sorted match list. Within one processing
/// round, callbacks fire in ascending event-id order regardless of the OSR
/// processing order, and rounds are serialized (the callback is never
/// invoked concurrently with itself). A subscription change is reflected in
/// every round that starts after the call returns; in particular, removed
/// subscriptions stop matching from the next round.
///
/// Threading model (see DESIGN.md §3.4): the engine is safe for concurrent
/// use from any number of threads. Publishers enqueue into a bounded MPSC
/// queue; whichever thread fills the queue to `buffer_capacity` (or calls
/// Flush) becomes the processor for that round, matching against an
/// immutable reference-counted snapshot of the index. Subscription
/// mutations update the master state immediately, reach the live snapshot
/// through the PCM delta path at the next round start, and trigger
/// compaction/rebuild as a background task that publishes a fresh snapshot
/// when ready — subscription churn never stops the world.
///
/// Blocking behavior: Publish may block (policy kBlock) when the queue is
/// full, and may run a full processing round inline (invoking callbacks)
/// when its push reaches `buffer_capacity`. Flush blocks until every queued
/// event is delivered and background maintenance has quiesced.
/// AddSubscription / RemoveSubscription / SetPriority only take short
/// internal locks and never wait on matching or rebuilds. The callback runs
/// inside the processing round and must not call Publish or Flush on the
/// same engine (subscription mutations are fine).
class StreamEngine {
 public:
  using MatchCallback = std::function<void(
      uint64_t event_id, const std::vector<SubscriptionId>& matches)>;

  StreamEngine(EngineOptions options, MatchCallback callback);
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Registers a subscription built from `predicates`; returns its engine-
  /// assigned id. The change reaches the matcher before the next processed
  /// round. Fails if two predicates share an attribute.
  StatusOr<SubscriptionId> AddSubscription(std::vector<Predicate> predicates);

  /// Registers a subscription in disjunctive normal form: it matches an
  /// event iff any of `disjuncts` (each a conjunction) matches. Internally
  /// each disjunct is a separate conjunction; deliveries report the single
  /// returned id, deduplicated. Fails on an empty disjunct list or an
  /// invalid disjunct (nothing is registered on failure).
  StatusOr<SubscriptionId> AddDisjunctiveSubscription(
      std::vector<std::vector<Predicate>> disjuncts);

  /// Unregisters `id`. NotFound if the id was never assigned or was already
  /// removed.
  Status RemoveSubscription(SubscriptionId id);

  /// Sets the delivery priority of `id` (see EngineOptions::top_k). May be
  /// called any time; takes effect from the next processed round. NotFound
  /// for unknown/removed ids.
  Status SetPriority(SubscriptionId id, double priority);

  /// Enqueues `event`; returns its id (dense, starting at 0). May process
  /// buffered events (invoking callbacks) when the buffer fills, and may
  /// block while the queue is full (BackpressurePolicy::kBlock). With
  /// kReject, use TryPublish instead — Publish CHECK-fails on rejection.
  uint64_t Publish(Event event);

  /// Like Publish, but surfaces backpressure: returns kResourceExhausted —
  /// leaving nothing enqueued — when the queue is full under
  /// BackpressurePolicy::kReject.
  StatusOr<uint64_t> TryPublish(Event event);

  /// TryPublish carrying transport-side ingress context: a caller-assigned
  /// trace id and the socket-read timestamp, so a sampled event's trace
  /// covers the wire (see EventTracer / IngressTrace). Identical semantics
  /// otherwise.
  StatusOr<uint64_t> TryPublish(Event event, const IngressTrace& ingress);

  /// Processes all buffered events and waits for background snapshot
  /// rebuilds to quiesce. After Flush returns (and absent concurrent
  /// publishers), every published event has been delivered.
  void Flush();

  /// Persists the live subscription set to a trace file ("*.txt" = text
  /// format, otherwise binary). Attribute names are synthesized as
  /// "a<id>" with the engine's configured domain (the engine itself is
  /// id-based). DNF groups are flattened into their disjuncts.
  Status SaveSubscriptions(const std::string& path) const;

  /// Bulk-registers every subscription from a trace file; engine ids are
  /// newly assigned (the trace's ids are not preserved). Returns how many
  /// were added. Partially applied on mid-file errors is prevented by
  /// validating the full file first (with persistence on, a WAL I/O error
  /// can still stop the load partway — everything already acknowledged is
  /// durable).
  StatusOr<size_t> LoadSubscriptions(const std::string& path);

  /// Synchronously writes a durable checkpoint covering every acknowledged
  /// mutation and truncates the WAL behind it. FailedPrecondition without
  /// a data_dir or while another checkpoint is in flight. Periodic
  /// checkpoints (checkpoint_every_ops) run this on the maintenance pool.
  Status Checkpoint();

  /// True when EngineOptions::data_dir persistence is active.
  bool durable() const { return store_ != nullptr; }

  /// Number of live (non-removed) subscriptions.
  size_t num_subscriptions() const;

  /// Counters. Every field — scalars and histograms — is safe to read at
  /// any time from any thread (see EngineStats).
  const EngineStats& stats() const { return stats_; }

  /// The engine's live metrics: every EngineStats counter, the queue-depth
  /// / rebuild-in-flight / subscription gauges, and the latency histograms,
  /// under stable "apcm_*" names. Safe to Collect()/render from any thread
  /// at any time; the admin server's /metrics endpoint scrapes exactly
  /// this registry.
  const MetricsRegistry& metrics_registry() const { return metrics_; }
  MetricsRegistry& metrics_registry() { return metrics_; }

  /// Round-level flight recorder: round start/end, snapshot rebuild
  /// schedule/publish, backpressure events, and sampled per-event stage
  /// spans (see TraceRing). Always safe to Snapshot()/ToJson() concurrently
  /// with live traffic.
  const TraceRing& trace() const { return trace_; }

  /// Sampled end-to-end event tracer (see EventTracer). Transports use it
  /// to stamp read/write stages and register owed socket writes; disabled
  /// (trace_sample_every == 0) it answers Sampled() == false for every id.
  EventTracer& tracer() { return tracer_; }
  const EventTracer& tracer() const { return tracer_; }

  /// Per-cluster matcher hot spots of the current snapshot, most expensive
  /// first (profiled matchers only; empty otherwise — see
  /// Matcher::CollectHotspots). Safe to call at any time; counters are
  /// sampled live. `k` truncates the ranking (0 = everything).
  std::vector<HotspotEntry> CollectHotspots(size_t k = 0) const;

  /// Current publish-queue depth (events buffered, not yet drained).
  size_t queue_depth() const { return queue_.depth(); }

  /// True while a background snapshot build is in flight.
  bool rebuild_inflight() const;

  /// Bound port of the embedded admin server, or 0 when disabled (see
  /// EngineOptions::admin_port).
  int admin_port() const;

  /// The current snapshot's matcher counters (null before the first round).
  /// The pointer is valid until the next snapshot rebuild publishes, and
  /// the counters mutate during rounds — read it from a quiesced engine.
  /// For live scraping use the accumulated `matcher_*` counters in stats()
  /// / the registry instead.
  const MatcherStats* matcher_stats() const;

 private:
  /// One subscription mutation, identified by its position in the engine's
  /// total change order. The log holds every change newer than the oldest
  /// snapshot still catching up; entries covered by a published snapshot
  /// are pruned.
  struct SubChange {
    enum Kind : uint8_t { kAdd, kRemove };
    uint64_t seq;
    Kind kind;
    SubscriptionId id;
  };

  StatusOr<SubscriptionId> AddSubscriptionLocked(
      std::vector<Predicate> predicates);
  /// Pure in-memory registration of a fully built expression: master list,
  /// id allocator, change log. The shared tail of the live mutation path
  /// (after its WAL append) and WAL replay.
  SubscriptionId RegisterSubscriptionLocked(BooleanExpression expr);
  /// Handles of every live (non-tombstoned) master-list entry, ascending id.
  /// Requires state_mu_.
  std::vector<ExpressionHandle> LiveSubscriptionsLocked() const;
  /// Checks that `id` names a removable subscription without mutating
  /// anything — the live path must validate BEFORE logging the removal.
  Status ValidateRemoveLocked(SubscriptionId id) const;
  /// In-memory removal of a validated id (single or whole DNF group).
  void ApplyRemoveLocked(SubscriptionId id);
  /// Appends `record` to the WAL when persistence is on; no-op Status::OK
  /// otherwise. On error the caller must not apply the mutation.
  Status AppendWalLocked(store::WalRecord* record);
  /// Opens the durable store and replays checkpoint + WAL tail into the
  /// in-memory state. Constructor-only (no locks; aborts the process if the
  /// store directory cannot be opened — refusing to silently run
  /// non-durably).
  void RecoverFromStore();
  /// Applies one replayed WAL record; false stops replay (corrupt or
  /// inconsistent record — everything before it stays applied).
  bool ReplayWalRecordLocked(store::WalRecord record);
  /// Counts one durable mutation toward checkpoint_every_ops and schedules
  /// a background checkpoint at the threshold. Requires state_mu_.
  void CountDurableOpLocked();
  /// Capture + write + truncate; expects checkpoint_inflight_ already set
  /// and clears it when done.
  Status RunCheckpoint();
  /// Master-list lookup by id (the list is id-sorted; ids are monotone).
  const ExpressionHandle* FindSubscriptionLocked(SubscriptionId id) const;
  /// Schedules a background snapshot build over the live subscription set,
  /// unless one is already in flight. `compaction` selects which stats
  /// counter the publish increments. Requires state_mu_.
  void ScheduleRebuildLocked(bool compaction);
  /// Installs `next` as the current snapshot and prunes master state the
  /// build covered. Runs on the maintenance pool.
  void PublishSnapshot(std::shared_ptr<EngineSnapshot> next, bool compaction,
                       int64_t build_ns);
  /// Returns a snapshot with every change up to the call applied: hands
  /// outstanding deltas to a PCM snapshot, or schedules a full rebuild and
  /// waits for it. Requires process_mu_.
  std::shared_ptr<EngineSnapshot> SyncSnapshotLocked();
  /// Drains the queue and matches + delivers one round. Requires
  /// process_mu_.
  void ProcessLocked();
  /// Registers every engine metric (counter bridges onto stats_, gauges,
  /// histogram snapshots) into metrics_. Constructor-only.
  void RegisterMetrics();
  /// Builds and starts the admin server when options_.admin_port != 0.
  /// Constructor-only.
  void StartAdminServer();

  EngineOptions options_;
  MatchCallback callback_;
  /// Construction instant; /healthz reports the elapsed time as uptime.
  WallTimer uptime_;

  /// Write-side master state, guarded by state_mu_. Mutations are short and
  /// never wait on matching or building.
  mutable std::mutex state_mu_;
  /// Id-sorted, tombstoned entries included. The handles are shared with
  /// the snapshots, so dropping one here frees the expression only once no
  /// snapshot can still match it.
  std::vector<ExpressionHandle> subscriptions_;
  /// Removed id -> change seq of the removal. Entries (and their master-
  /// list slots) are erased once a snapshot covering the removal publishes.
  std::unordered_map<SubscriptionId, uint64_t> tombstones_;
  std::deque<SubChange> change_log_;
  uint64_t change_seq_ = 0;
  /// DNF bookkeeping: internal disjunct id -> external id (only non-identity
  /// entries stored), and external id -> all its internal ids.
  std::unordered_map<SubscriptionId, SubscriptionId> dnf_alias_;
  std::unordered_map<SubscriptionId, std::vector<SubscriptionId>> dnf_groups_;
  /// Non-zero delivery priorities (sparse; see EngineOptions::top_k).
  std::unordered_map<SubscriptionId, double> priorities_;
  SubscriptionId next_sub_id_ = 0;
  bool rebuild_inflight_ = false;
  std::shared_future<void> rebuild_done_;

  /// Durable subscription store (null = persistence off). Declared before
  /// rebuild_pool_: background checkpoints touch it, so it must outlive the
  /// pool's destructor drain.
  std::unique_ptr<store::DurableStore> store_;
  /// WAL records since the last checkpoint; guarded by state_mu_.
  uint64_t ops_since_checkpoint_ = 0;
  /// At most one checkpoint at a time; guarded by state_mu_.
  bool checkpoint_inflight_ = false;

  /// Current index generation (RCU-style swap; see SnapshotHolder).
  SnapshotHolder snapshot_;

  /// Publish side: bounded MPSC queue with its own internal lock.
  BoundedEventQueue queue_;

  /// Processing side: at most one round at a time. Guards the round scratch
  /// below, all matcher use, and callback invocation.
  std::mutex process_mu_;
  std::vector<Event> round_events_;
  std::vector<uint64_t> round_ids_;

  EngineStats stats_;

  /// Scrape surface (see metrics_registry()); populated in the constructor
  /// with bridges onto stats_ / queue_ / state, never mutated afterwards.
  MetricsRegistry metrics_;

  /// Round-level flight recorder (lock-free; see trace()).
  TraceRing trace_;

  /// Sampled per-event stage tracer; records into trace_ and the labeled
  /// stage histograms owned by metrics_. Declared after both.
  EventTracer tracer_;

  /// Maintenance pool: one OS worker executing background snapshot builds.
  /// Declared after every member its queued builds touch (snapshot_, state,
  /// stats_) so those are still alive while its destructor drains.
  ThreadPool rebuild_pool_{2};

  /// Embedded admin endpoint (null when disabled). Declared last — its
  /// handlers read every other member, so it must stop first.
  std::unique_ptr<AdminServer> admin_;
};

}  // namespace apcm::engine

#endif  // APCM_ENGINE_ENGINE_H_
