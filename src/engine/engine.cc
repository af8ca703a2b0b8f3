#include "src/engine/engine.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "src/base/failpoint.h"
#include "src/base/logging.h"
#include "src/base/macros.h"
#include "src/base/string_util.h"
#include "src/base/timer.h"
#include "src/bitmap/kernels.h"
#include "src/core/pcm.h"
#include "src/engine/exposition.h"
#include "src/engine/report.h"
#include "src/store/durable_store.h"
#include "src/workload/trace.h"

// Injected by the build (src/engine/CMakeLists.txt) for apcm_build_info.
#ifndef APCM_VERSION
#define APCM_VERSION "unknown"
#endif

namespace apcm::engine {

namespace {

EngineOptions NormalizeOptions(EngineOptions options) {
  const Status valid = ValidateEngineOptions(options);
  if (!valid.ok()) {
    LogError("invalid EngineOptions", {{"error", valid.ToString()}});
  }
  APCM_CHECK(valid.ok());
  // A window must fit in the buffer or it could never fill.
  options.buffer_capacity = std::max(
      {options.buffer_capacity, options.osr.window_size, options.batch_size});
  if (options.queue_capacity == 0) {
    options.queue_capacity = 2 * options.buffer_capacity;
  }
  return options;
}

/// The pointer list Matcher::Build and PcmMatcher::LoadIndex take, over
/// expressions that `handles` keeps alive.
std::vector<const BooleanExpression*> ExpressionPointers(
    const std::vector<ExpressionHandle>& handles) {
  std::vector<const BooleanExpression*> pointers;
  pointers.reserve(handles.size());
  for (const ExpressionHandle& handle : handles) {
    pointers.push_back(handle.get());
  }
  return pointers;
}

}  // namespace

Status ValidateEngineOptions(const EngineOptions& options) {
  if (options.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (!options.simd.empty() && options.simd != "auto") {
    auto level = bitmap::ParseSimdLevel(options.simd);
    if (!level.ok()) return level.status();
    const auto supported = bitmap::SupportedSimdLevels();
    if (std::find(supported.begin(), supported.end(), *level) ==
        supported.end()) {
      return Status::InvalidArgument("simd level '" + options.simd +
                                     "' is not supported on this host");
    }
  }
  if (options.wal_sync_interval_ms < 0) {
    return Status::InvalidArgument("wal_sync_interval_ms must be >= 0");
  }
  // Mirror NormalizeOptions: the working buffer grows to hold a full OSR
  // window and at least one batch.
  const uint32_t effective_buffer = std::max(
      {options.buffer_capacity, options.osr.window_size, options.batch_size});
  if (options.queue_capacity != 0 &&
      options.queue_capacity < effective_buffer) {
    return Status::InvalidArgument(
        "queue_capacity (" + std::to_string(options.queue_capacity) +
        ") is smaller than the effective buffer_capacity (" +
        std::to_string(effective_buffer) +
        "); the buffer could never fill, so rounds would only run on Flush");
  }
  return Status::OK();
}

StreamEngine::StreamEngine(EngineOptions options, MatchCallback callback)
    : options_(NormalizeOptions(std::move(options))),
      callback_(std::move(callback)),
      queue_(options_.queue_capacity),
      trace_(options_.trace_capacity),
      tracer_(EventTracer::Options{options_.trace_sample_every,
                                   options_.trace_slo_ns},
              &trace_) {
  APCM_CHECK(callback_ != nullptr);
  if (!options_.simd.empty() && options_.simd != "auto") {
    // Validated above; the set can only fail if support changed since, which
    // it cannot within one process.
    APCM_CHECK(bitmap::SetActiveSimdLevel(
                   *bitmap::ParseSimdLevel(options_.simd))
                   .ok());
  }
  round_events_.reserve(options_.buffer_capacity);
  round_ids_.reserve(options_.buffer_capacity);
  // Recovery runs before the scrape/admin surface exists: by the time
  // anything can observe the engine, the recovered state is installed.
  RecoverFromStore();
  RegisterMetrics();
  StartAdminServer();
}

StreamEngine::~StreamEngine() {
  // The admin server stops first (declared last): its handlers read every
  // other member. Then rebuild_pool_ drains any queued build, which still
  // touches snapshot_/state/stats_ — all alive at that point.
  if (admin_ != nullptr) admin_->Stop();
}

void StreamEngine::RegisterMetrics() {
  auto counter = [this](const char* name, const char* help,
                        const std::atomic<uint64_t>& value) {
    metrics_.AddCounterFn(name, help, [&value] {
      return value.load(std::memory_order_relaxed);
    });
  };
  counter("apcm_events_published_total",
          "Events accepted by Publish/TryPublish.",
          stats_.events_published);
  counter("apcm_events_processed_total",
          "Events matched and delivered through the callback.",
          stats_.events_processed);
  counter("apcm_matches_delivered_total",
          "Total (event, subscription) matches delivered.",
          stats_.matches_delivered);
  counter("apcm_batches_processed_total",
          "Matcher batches executed.", stats_.batches_processed);
  counter("apcm_rebuilds_total",
          "Full background snapshot rebuilds published.", stats_.rebuilds);
  counter("apcm_incremental_updates_total",
          "Subscription changes absorbed via the PCM delta path.",
          stats_.incremental_updates);
  counter("apcm_compactions_total",
          "Delta-threshold-triggered snapshot compactions published.",
          stats_.compactions);
  counter("apcm_publishes_blocked_total",
          "Publishes that hit a full queue and helped drain a round.",
          stats_.publishes_blocked);
  counter("apcm_publishes_rejected_total",
          "Publishes rejected with ResourceExhausted (kReject policy).",
          stats_.publishes_rejected);
  counter("apcm_matcher_predicate_evals_total",
          "Individual predicate evaluations (per-round matcher deltas).",
          stats_.matcher_predicate_evals);
  counter("apcm_matcher_bitmap_words_total",
          "64-bit bitmap words touched (per-round matcher deltas).",
          stats_.matcher_bitmap_words);
  counter("apcm_matcher_candidates_checked_total",
          "Candidate expressions examined (per-round matcher deltas).",
          stats_.matcher_candidates_checked);
  counter("apcm_matcher_matches_emitted_total",
          "Matches emitted by the matcher (per-round deltas).",
          stats_.matcher_matches_emitted);
  counter("apcm_matcher_cluster_visits_total",
          "(cluster, event) pairs evaluated by PCM-family matchers "
          "(per-round deltas).",
          stats_.matcher_cluster_visits);
  if (failpoint::kEnabled) {
    metrics_.AddCounterFn(
        "apcm_failpoint_hits_total",
        "Failpoint actions fired, process-wide (APCM_FAILPOINTS builds).",
        [] { return failpoint::TotalHits(); });
  }
  metrics_.AddCounterFn("apcm_trace_spans_total",
                        "Spans appended to the round trace ring.",
                        [this] { return trace_.total_recorded(); });
  metrics_.AddGaugeFn(
      "apcm_subscriptions_live", "Live (non-removed) subscriptions.",
      [this] { return static_cast<int64_t>(num_subscriptions()); });
  metrics_.AddGaugeFn(
      "apcm_queue_depth", "Events buffered in the publish queue.",
      [this] { return static_cast<int64_t>(queue_.depth()); });
  metrics_.AddGaugeFn(
      "apcm_simd_level",
      "Active bitmap kernel ISA (0 = scalar, 1 = AVX2, 2 = AVX-512).",
      [] { return static_cast<int64_t>(bitmap::ActiveSimdLevel()); });
  metrics_.AddGaugeFn(
      "apcm_rebuild_inflight",
      "1 while a background snapshot build is in flight.",
      [this] { return static_cast<int64_t>(rebuild_inflight() ? 1 : 0); });
  auto histogram = [this](const char* name, const char* help,
                          const ShardedHistogram& value) {
    metrics_.AddHistogramFn(name, help,
                            [&value] { return value.Snapshot(); });
  };
  histogram("apcm_batch_latency_ns",
            "Wall time per processed batch, nanoseconds.",
            stats_.batch_latency_ns);
  histogram("apcm_round_queue_depth",
            "Publish-queue depth drained at the start of each round.",
            stats_.queue_depth);
  histogram("apcm_rebuild_latency_ns",
            "Background snapshot build wall time, nanoseconds.",
            stats_.rebuild_latency_ns);
  // End-to-end event tracing: one labeled latency series per pipeline stage
  // plus the end-to-end "total". Registered even with tracing disabled so
  // the scrape schema is stable (the series just stay empty).
  for (uint32_t s = 0; s <= EventTracer::kNumStages; ++s) {
    ShardedHistogram* stage_histogram = metrics_.AddHistogramWithLabels(
        "apcm_stage_latency_ns",
        "stage=\"" + std::string(EventTracer::StageName(s)) + "\"",
        "Per-stage latency of sampled events, nanoseconds (stage=\"total\" "
        "is end to end; see EventTracer).");
    tracer_.set_stage_histogram(s, stage_histogram);
  }
  metrics_.AddCounterFn(
      "apcm_trace_spans_dropped_total",
      "Trace-ring spans overwritten by newer spans before being read.",
      [this] { return trace_.dropped(); });
  metrics_.AddCounterFn(
      "apcm_traces_completed_total",
      "Sampled event traces finalized with their full stage breakdown.",
      [this] { return tracer_.completed(); });
  metrics_.AddCounterFn(
      "apcm_trace_slots_stolen_total",
      "Sampled admissions that reclaimed the slot of an unfinished trace.",
      [this] { return tracer_.slots_stolen(); });
  if (store_ != nullptr) {
    auto store_counter = [this](const char* name, const char* help,
                                uint64_t store::StoreStats::*field) {
      metrics_.AddCounterFn(name, help,
                            [this, field] { return store_->stats().*field; });
    };
    store_counter("apcm_wal_appends_total",
                  "Subscription mutations appended to the WAL.",
                  &store::StoreStats::appends);
    store_counter("apcm_wal_append_errors_total",
                  "WAL appends that failed (the store is poisoned after one).",
                  &store::StoreStats::append_errors);
    store_counter("apcm_wal_bytes_total", "Bytes appended to WAL segments.",
                  &store::StoreStats::bytes);
    store_counter("apcm_wal_fsyncs_total",
                  "fsync calls issued against the active WAL segment.",
                  &store::StoreStats::fsyncs);
    store_counter("apcm_wal_rotations_total",
                  "WAL segment rotations (one per checkpoint).",
                  &store::StoreStats::rotations);
    store_counter("apcm_wal_torn_tail_total",
                  "Torn or corrupt WAL tails clipped during recovery.",
                  &store::StoreStats::torn_tails);
    store_counter("apcm_wal_truncations_total",
                  "Obsolete WAL/checkpoint files deleted after checkpoints.",
                  &store::StoreStats::truncated_files);
    store_counter("apcm_checkpoints_total",
                  "Checkpoints written successfully.",
                  &store::StoreStats::checkpoints);
    store_counter("apcm_checkpoint_errors_total",
                  "Checkpoint writes that failed (non-fatal; WAL keeps "
                  "growing).",
                  &store::StoreStats::checkpoint_errors);
    store_counter("apcm_recovery_records_total",
                  "WAL records replayed by the last recovery.",
                  &store::StoreStats::recovered_records);
    store_counter("apcm_recovery_skipped_checkpoints_total",
                  "Corrupt checkpoints skipped over by the last recovery.",
                  &store::StoreStats::skipped_checkpoints);
    auto store_gauge = [this](const char* name, const char* help,
                              uint64_t store::StoreStats::*field) {
      metrics_.AddGaugeFn(name, help, [this, field] {
        return static_cast<int64_t>(store_->stats().*field);
      });
    };
    store_gauge("apcm_wal_last_seq", "Highest WAL sequence number appended.",
                &store::StoreStats::last_seq);
    store_gauge("apcm_wal_unsynced_records",
                "Appended records not yet covered by an fsync.",
                &store::StoreStats::unsynced_records);
    store_gauge("apcm_checkpoint_last_seq",
                "WAL sequence covered by the newest checkpoint.",
                &store::StoreStats::checkpoint_seq);
    store_gauge("apcm_checkpoint_bytes",
                "Size of the newest checkpoint file, bytes.",
                &store::StoreStats::checkpoint_bytes);
    metrics_.AddGaugeFn(
        "apcm_recovery_duration_us",
        "Wall time of the last startup recovery, microseconds.",
        [this] { return store_->stats().recovery_us; });
    metrics_.AddGaugeFn(
        "apcm_checkpoint_lag_ops",
        "Durable mutations applied since the last checkpoint trigger.",
        [this] {
          std::lock_guard<std::mutex> lock(state_mu_);
          return static_cast<int64_t>(ops_since_checkpoint_);
        });
  }
  metrics_
      .AddGaugeWithLabels(
          "apcm_build_info",
          std::string("version=\"") + APCM_VERSION + "\",simd=\"" +
              bitmap::SimdLevelName(bitmap::ActiveSimdLevel()) +
              "\",failpoints=\"" + (failpoint::kEnabled ? "on" : "off") +
              "\"",
          "Always 1; build and runtime identity ride in the labels.")
      ->Set(1);
}

void StreamEngine::StartAdminServer() {
  if (options_.admin_port == 0) return;
  admin_ = std::make_unique<AdminServer>();
  admin_->Handle("/metrics", [this](std::string_view) {
    return AdminResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                         RenderPrometheus(metrics_)};
  });
  admin_->Handle("/metrics.json", [this](std::string_view) {
    return AdminResponse{200, "application/json",
                         RenderMetricsJson(metrics_)};
  });
  admin_->Handle("/report", [this](std::string_view) {
    return AdminResponse{200, "text/plain; charset=utf-8",
                         RenderReport(*this)};
  });
  admin_->Handle("/trace", [this](std::string_view) {
    return AdminResponse{200, "application/json", trace_.ToJson()};
  });
  admin_->Handle("/subscriptions", [this](std::string_view) {
    // Every DNF disjunct is its own master-list entry, so the live count is
    // also the number of indexed conjunctions.
    const std::string live = std::to_string(num_subscriptions());
    return AdminResponse{
        200, "application/json",
        "{\"total\":" + live + ",\"conjunctions\":" + live + "}\n"};
  });
  admin_->Handle("/healthz", [this](std::string_view) {
    return AdminResponse{
        200, "text/plain; charset=utf-8",
        StringPrintf("ok\nuptime_seconds=%.3f\n", uptime_.ElapsedSeconds())};
  });
  // Matcher hot spots: where the matching budget goes, by cluster, most
  // expensive first. `?k=N` truncates the ranking (default 10, k=0 = all).
  admin_->Handle("/hotspots", [this](std::string_view query) {
    size_t k = 10;
    if (query.substr(0, 2) == "k=") {
      k = static_cast<size_t>(
          std::strtoull(std::string(query.substr(2)).c_str(), nullptr, 10));
    }
    const std::vector<HotspotEntry> hotspots = CollectHotspots(k);
    std::string body = "{\"hotspots\":[";
    bool first = true;
    for (const HotspotEntry& h : hotspots) {
      if (!first) body += ',';
      first = false;
      body += StringPrintf(
          "{\"cluster\":%u,\"subscriptions\":%u,"
          "\"example_sub\":%llu,\"batches\":%llu,\"ns\":%llu,"
          "\"predicate_evals\":%llu,\"candidates_checked\":%llu}",
          h.cluster, h.subscriptions,
          static_cast<unsigned long long>(h.example_sub),
          static_cast<unsigned long long>(h.batches),
          static_cast<unsigned long long>(h.ns),
          static_cast<unsigned long long>(h.predicate_evals),
          static_cast<unsigned long long>(h.candidates_checked));
    }
    body += "]}\n";
    return AdminResponse{200, "application/json", std::move(body)};
  });
  // Durable-store status: WAL/checkpoint counters, policy, and the active
  // directory. Always registered; answers {"enabled":false} when the engine
  // runs without a data_dir.
  admin_->Handle("/storage", [this](std::string_view) {
    if (store_ == nullptr) {
      return AdminResponse{200, "application/json", "{\"enabled\":false}\n"};
    }
    const store::StoreStats stats = store_->stats();
    uint64_t lag = 0;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      lag = ops_since_checkpoint_;
    }
    std::string body = StringPrintf(
        "{\"enabled\":true,\"dir\":\"%s\",\"dead\":%s,"
        "\"wal_sync_every\":%u,\"wal_sync_interval_ms\":%lld,"
        "\"checkpoint_every_ops\":%llu,\"checkpoint_lag_ops\":%llu,"
        "\"last_seq\":%llu,\"unsynced_records\":%llu,"
        "\"appends\":%llu,\"append_errors\":%llu,\"bytes\":%llu,"
        "\"fsyncs\":%llu,\"rotations\":%llu,"
        "\"checkpoints\":%llu,\"checkpoint_errors\":%llu,"
        "\"checkpoint_seq\":%llu,\"checkpoint_bytes\":%llu,"
        "\"truncated_files\":%llu,\"torn_tails\":%llu,"
        "\"recovered_records\":%llu,\"skipped_checkpoints\":%llu,"
        "\"recovery_us\":%llu}\n",
        store_->dir().c_str(), store_->dead() ? "true" : "false",
        store_->options().sync_every,
        static_cast<long long>(store_->options().sync_interval_ms),
        static_cast<unsigned long long>(options_.checkpoint_every_ops),
        static_cast<unsigned long long>(lag),
        static_cast<unsigned long long>(stats.last_seq),
        static_cast<unsigned long long>(stats.unsynced_records),
        static_cast<unsigned long long>(stats.appends),
        static_cast<unsigned long long>(stats.append_errors),
        static_cast<unsigned long long>(stats.bytes),
        static_cast<unsigned long long>(stats.fsyncs),
        static_cast<unsigned long long>(stats.rotations),
        static_cast<unsigned long long>(stats.checkpoints),
        static_cast<unsigned long long>(stats.checkpoint_errors),
        static_cast<unsigned long long>(stats.checkpoint_seq),
        static_cast<unsigned long long>(stats.checkpoint_bytes),
        static_cast<unsigned long long>(stats.truncated_files),
        static_cast<unsigned long long>(stats.torn_tails),
        static_cast<unsigned long long>(stats.recovered_records),
        static_cast<unsigned long long>(stats.skipped_checkpoints),
        static_cast<unsigned long long>(stats.recovery_us));
    return AdminResponse{200, "application/json", std::move(body)};
  });
  // Lists registered failpoints with hit counts; arms/disarms them via
  // `?arm=name=spec` / `?disarm=name` / `?disarm=all` (the raw query string
  // is the spec — it is not URL-decoded). Compiled-out builds always answer
  // with enabled:false and reject arming.
  admin_->Handle("/failpoints", [](std::string_view query) {
    if (!query.empty()) {
      if (!failpoint::kEnabled) {
        return AdminResponse{
            400, "text/plain; charset=utf-8",
            "failpoints compiled out; rebuild with -DAPCM_FAILPOINTS=ON\n"};
      }
      Status applied = Status::OK();
      if (query.substr(0, 4) == "arm=") {
        applied = failpoint::ConfigureFromSpec(query.substr(4));
      } else if (query.substr(0, 7) == "disarm=") {
        const std::string_view target = query.substr(7);
        if (target == "all") {
          failpoint::DisarmAll();
        } else {
          applied = failpoint::Configure(target, "off");
        }
      } else {
        applied = Status::InvalidArgument(
            "unknown query '" + std::string(query) +
            "'; use arm=name=spec, disarm=name, or disarm=all");
      }
      if (!applied.ok()) {
        return AdminResponse{400, "text/plain; charset=utf-8",
                             applied.ToString() + "\n"};
      }
    }
    std::string body = std::string("{\"enabled\":") +
                       (failpoint::kEnabled ? "true" : "false") +
                       ",\"failpoints\":[";
    bool first = true;
    for (const failpoint::PointInfo& point : failpoint::List()) {
      if (!first) body += ',';
      first = false;
      body += "{\"name\":\"" + point.name + "\",\"spec\":\"" + point.spec +
              "\",\"hits\":" + std::to_string(point.hits) + "}";
    }
    body += "]}\n";
    return AdminResponse{200, "application/json", std::move(body)};
  });
  const Status started =
      admin_->Start(options_.admin_port < 0 ? 0 : options_.admin_port);
  if (!started.ok()) {
    LogWarning("admin server failed to start; continuing without it",
               {{"error", started.ToString()}});
    admin_.reset();
  }
}

bool StreamEngine::rebuild_inflight() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return rebuild_inflight_;
}

int StreamEngine::admin_port() const {
  return admin_ == nullptr ? 0 : admin_->port();
}

StatusOr<SubscriptionId> StreamEngine::AddSubscription(
    std::vector<Predicate> predicates) {
  std::lock_guard<std::mutex> lock(state_mu_);
  return AddSubscriptionLocked(std::move(predicates));
}

StatusOr<SubscriptionId> StreamEngine::AddSubscriptionLocked(
    std::vector<Predicate> predicates) {
  const SubscriptionId id = next_sub_id_;
  APCM_ASSIGN_OR_RETURN(
      BooleanExpression expr,
      BooleanExpression::Create(id, std::move(predicates)));
  if (store_ != nullptr) {
    store::WalRecord record;
    record.kind = store::WalRecord::Kind::kAdd;
    record.id = id;
    record.disjuncts.push_back(expr.predicates());
    APCM_RETURN_NOT_OK(AppendWalLocked(&record));
  }
  return RegisterSubscriptionLocked(std::move(expr));
}

SubscriptionId StreamEngine::RegisterSubscriptionLocked(
    BooleanExpression expr) {
  const SubscriptionId id = expr.id();
  APCM_CHECK(id == next_sub_id_);
  ++next_sub_id_;
  // The one copy of this expression: every snapshot, delta handoff and
  // checkpoint capture shares this handle.
  subscriptions_.push_back(
      std::make_shared<const BooleanExpression>(std::move(expr)));
  change_log_.push_back({++change_seq_, SubChange::kAdd, id});
  return id;
}

std::vector<ExpressionHandle> StreamEngine::LiveSubscriptionsLocked() const {
  std::vector<ExpressionHandle> live;
  live.reserve(subscriptions_.size() - tombstones_.size());
  for (const ExpressionHandle& sub : subscriptions_) {
    if (!tombstones_.contains(sub->id())) live.push_back(sub);
  }
  return live;
}

StatusOr<SubscriptionId> StreamEngine::AddDisjunctiveSubscription(
    std::vector<std::vector<Predicate>> disjuncts) {
  if (disjuncts.empty()) {
    return Status::InvalidArgument("a DNF subscription needs >= 1 disjunct");
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  // Build every disjunct expression (with its final id) before mutating any
  // state, so failure is atomic — and so the whole group can go into ONE
  // WAL record: replay can then never observe half a group.
  std::vector<BooleanExpression> exprs;
  exprs.reserve(disjuncts.size());
  for (size_t i = 0; i < disjuncts.size(); ++i) {
    APCM_ASSIGN_OR_RETURN(
        BooleanExpression expr,
        BooleanExpression::Create(
            next_sub_id_ + static_cast<SubscriptionId>(i),
            std::move(disjuncts[i])));
    exprs.push_back(std::move(expr));
  }
  if (store_ != nullptr) {
    store::WalRecord record;
    record.kind = store::WalRecord::Kind::kAddDnf;
    record.id = next_sub_id_;
    for (const BooleanExpression& expr : exprs) {
      record.disjuncts.push_back(expr.predicates());
    }
    APCM_RETURN_NOT_OK(AppendWalLocked(&record));
  }
  SubscriptionId external = kInvalidSubscriptionId;
  std::vector<SubscriptionId> internals;
  for (BooleanExpression& expr : exprs) {
    const SubscriptionId internal =
        RegisterSubscriptionLocked(std::move(expr));
    internals.push_back(internal);
    if (external == kInvalidSubscriptionId) {
      external = internal;
    } else {
      dnf_alias_.emplace(internal, external);
    }
  }
  if (internals.size() > 1) {
    dnf_groups_.emplace(external, std::move(internals));
  }
  return external;
}

Status StreamEngine::ValidateRemoveLocked(SubscriptionId id) const {
  if (auto alias = dnf_alias_.find(id); alias != dnf_alias_.end()) {
    return Status::NotFound(
        "id " + std::to_string(id) +
        " is an internal disjunct; remove the subscription id " +
        std::to_string(alias->second));
  }
  if (dnf_groups_.contains(id)) return Status::OK();
  if (id >= next_sub_id_ || tombstones_.contains(id)) {
    return Status::NotFound("subscription " + std::to_string(id) +
                            " is not registered");
  }
  if (FindSubscriptionLocked(id) == nullptr) {
    return Status::NotFound("subscription " + std::to_string(id) +
                            " was already removed");
  }
  return Status::OK();
}

void StreamEngine::ApplyRemoveLocked(SubscriptionId id) {
  if (auto group = dnf_groups_.find(id); group != dnf_groups_.end()) {
    // Remove every disjunct of the DNF group.
    const std::vector<SubscriptionId> internals = std::move(group->second);
    dnf_groups_.erase(group);
    for (SubscriptionId internal : internals) {
      dnf_alias_.erase(internal);
      tombstones_.emplace(internal, ++change_seq_);
      change_log_.push_back({change_seq_, SubChange::kRemove, internal});
    }
    priorities_.erase(id);
    return;
  }
  tombstones_.emplace(id, ++change_seq_);
  change_log_.push_back({change_seq_, SubChange::kRemove, id});
  priorities_.erase(id);
}

Status StreamEngine::RemoveSubscription(SubscriptionId id) {
  std::lock_guard<std::mutex> lock(state_mu_);
  // Validate before logging: a rejected remove must leave no WAL trace.
  APCM_RETURN_NOT_OK(ValidateRemoveLocked(id));
  if (store_ != nullptr) {
    store::WalRecord record;
    record.kind = store::WalRecord::Kind::kRemove;
    record.id = id;
    APCM_RETURN_NOT_OK(AppendWalLocked(&record));
  }
  ApplyRemoveLocked(id);
  return Status::OK();
}

const ExpressionHandle* StreamEngine::FindSubscriptionLocked(
    SubscriptionId id) const {
  // subscriptions_ is id-sorted (ids are monotone and pruning preserves
  // order).
  auto it = std::lower_bound(
      subscriptions_.begin(), subscriptions_.end(), id,
      [](const ExpressionHandle& sub, SubscriptionId target) {
        return sub->id() < target;
      });
  if (it == subscriptions_.end() || (*it)->id() != id) return nullptr;
  return &*it;
}

Status StreamEngine::SaveSubscriptions(const std::string& path) const {
  // Only the handles are captured under state_mu_; the trace is assembled
  // and written off-lock.
  std::vector<ExpressionHandle> live;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    live = LiveSubscriptionsLocked();
  }
  workload::Workload snapshot;
  snapshot.subscriptions.reserve(live.size());
  AttributeId max_attr = 0;
  bool any_attr = false;
  for (const ExpressionHandle& sub : live) {
    snapshot.subscriptions.push_back(*sub);
    for (const Predicate& pred : sub->predicates()) {
      max_attr = std::max(max_attr, pred.attribute());
      any_attr = true;
    }
  }
  if (any_attr) {
    for (AttributeId a = 0; a <= max_attr; ++a) {
      APCM_RETURN_NOT_OK(snapshot.catalog
                             .AddAttribute("a" + std::to_string(a),
                                           options_.matcher.domain.lo,
                                           options_.matcher.domain.hi)
                             .status());
    }
  }
  if (path.size() > 4 && path.compare(path.size() - 4, 4, ".txt") == 0) {
    return workload::SaveText(snapshot, path);
  }
  return workload::SaveBinary(snapshot, path);
}

StatusOr<size_t> StreamEngine::LoadSubscriptions(const std::string& path) {
  auto loaded = path.size() > 4 &&
                        path.compare(path.size() - 4, 4, ".txt") == 0
                    ? workload::LoadText(path)
                    : workload::LoadBinary(path);
  APCM_RETURN_NOT_OK(loaded.status());
  // The trace loader already validated every expression, so the only way a
  // registration can fail below is a WAL I/O error — surfaced, with the
  // already-acknowledged prefix kept (it is durable).
  std::lock_guard<std::mutex> lock(state_mu_);
  for (const BooleanExpression& sub : loaded->subscriptions) {
    APCM_RETURN_NOT_OK(AddSubscriptionLocked(sub.predicates()).status());
  }
  return loaded->subscriptions.size();
}

Status StreamEngine::SetPriority(SubscriptionId id, double priority) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (id >= next_sub_id_ || tombstones_.contains(id)) {
    return Status::NotFound("subscription " + std::to_string(id) +
                            " is not registered");
  }
  if (store_ != nullptr) {
    store::WalRecord record;
    record.kind = store::WalRecord::Kind::kPriority;
    record.id = id;
    record.priority = priority;
    APCM_RETURN_NOT_OK(AppendWalLocked(&record));
  }
  if (priority == 0) {
    priorities_.erase(id);
  } else {
    priorities_[id] = priority;
  }
  return Status::OK();
}

Status StreamEngine::AppendWalLocked(store::WalRecord* record) {
  if (store_ == nullptr) return Status::OK();
  APCM_RETURN_NOT_OK(store_->Append(record));
  CountDurableOpLocked();
  return Status::OK();
}

void StreamEngine::CountDurableOpLocked() {
  if (options_.checkpoint_every_ops == 0) return;
  if (++ops_since_checkpoint_ < options_.checkpoint_every_ops) return;
  if (checkpoint_inflight_) return;
  // Claim the slot here (not in the job) so a burst of mutations between
  // submit and execution cannot queue duplicate checkpoints.
  checkpoint_inflight_ = true;
  ops_since_checkpoint_ = 0;
  rebuild_pool_.Submit([this] {
    const Status done = RunCheckpoint();
    if (!done.ok()) {
      LogWarning("background checkpoint failed",
                 {{"error", done.ToString()}});
    }
  });
}

Status StreamEngine::Checkpoint() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (store_ == nullptr) {
      return Status::FailedPrecondition(
          "no data_dir configured; nothing to checkpoint");
    }
    if (checkpoint_inflight_) {
      return Status::FailedPrecondition("a checkpoint is already in flight");
    }
    checkpoint_inflight_ = true;
  }
  return RunCheckpoint();
}

Status StreamEngine::RunCheckpoint() {
  store::CheckpointState state;
  {
    // Rotate under state_mu_: mutations order WAL appends under the same
    // lock, so the fresh segment's base equals exactly the captured seq —
    // the retiring segments hold nothing newer than this image.
    std::lock_guard<std::mutex> lock(state_mu_);
    StatusOr<uint64_t> rotated = store_->RotateWal();
    if (!rotated.ok()) {
      checkpoint_inflight_ = false;
      return rotated.status();
    }
    state.wal_seq = *rotated;
    state.next_sub_id = next_sub_id_;
    // Handles only: the expressions are shared, immutable, and encoded
    // off-lock below.
    state.subscriptions = LiveSubscriptionsLocked();
    state.priorities.assign(priorities_.begin(), priorities_.end());
    std::sort(state.priorities.begin(), state.priorities.end());
    for (const auto& [external, internals] : dnf_groups_) {
      state.dnf_groups.emplace_back(external, internals);
    }
    std::sort(state.dnf_groups.begin(), state.dnf_groups.end());
    ops_since_checkpoint_ = 0;
  }
  // Optional index image, built off-lock over the captured handles
  // (mutations keep flowing into the new segment meanwhile). PCM-family
  // matchers only — the image must be loadable by a matching config.
  if (options_.checkpoint_index) {
    std::unique_ptr<Matcher> matcher =
        CreateMatcher(options_.kind, options_.matcher);
    if (auto* pcm = dynamic_cast<core::PcmMatcher*>(matcher.get())) {
      pcm->Build(ExpressionPointers(state.subscriptions));
      std::ostringstream image(std::ios::binary);
      const Status saved = pcm->SaveIndex(image);
      if (saved.ok()) {
        state.index_kind = std::string(MatcherKindName(options_.kind));
        state.index_image = std::move(image).str();
      } else {
        LogWarning("checkpoint index image skipped",
                   {{"error", saved.ToString()}});
      }
    }
  }
  const Status written = store_->WriteCheckpoint(state);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    checkpoint_inflight_ = false;
  }
  if (written.ok() && LogEnabled(LogLevel::kDebug)) {
    LogDebug("checkpoint written",
             {{"wal_seq", state.wal_seq},
              {"live_subs", state.subscriptions.size()},
              {"index_bytes", state.index_image.size()}});
  }
  return written;
}

void StreamEngine::RecoverFromStore() {
  if (options_.data_dir.empty()) return;
  store::StoreOptions store_options;
  store_options.dir = options_.data_dir;
  store_options.sync_every = options_.wal_sync_every;
  store_options.sync_interval_ms = options_.wal_sync_interval_ms;
  store::RecoveryInfo recovery;
  StatusOr<std::unique_ptr<store::DurableStore>> opened =
      store::DurableStore::Open(std::move(store_options), &recovery);
  if (!opened.ok()) {
    LogError("cannot open durable store; refusing to run non-durably",
             {{"dir", options_.data_dir},
              {"error", opened.status().ToString()}});
  }
  APCM_CHECK(opened.ok());
  store_ = std::move(*opened);

  // 1. Base state from the newest intact checkpoint.
  store::CheckpointState& ckpt = recovery.checkpoint;
  if (recovery.had_checkpoint) {
    next_sub_id_ = ckpt.next_sub_id;
    // Checkpoint entries ascend by id; their decoded handles become the
    // master list as they are.
    for (ExpressionHandle& sub : ckpt.subscriptions) {
      if (sub->id() >= next_sub_id_) next_sub_id_ = sub->id() + 1;
      subscriptions_.push_back(std::move(sub));
    }
    for (const auto& [id, priority] : ckpt.priorities) {
      priorities_[id] = priority;
    }
    for (const auto& [external, internals] : ckpt.dnf_groups) {
      for (const SubscriptionId internal : internals) {
        if (internal != external) dnf_alias_.emplace(internal, external);
      }
      dnf_groups_.emplace(external, internals);
    }
    // 2. Pre-built index image: install it as the initial snapshot so the
    // first round skips the full rebuild. Replayed WAL records then catch
    // up through the regular delta path (their change seqs are > 0).
    if (!ckpt.index_kind.empty() &&
        ckpt.index_kind == MatcherKindName(options_.kind)) {
      std::vector<ExpressionHandle> built = subscriptions_;  // shared
      std::unique_ptr<Matcher> matcher =
          CreateMatcher(options_.kind, options_.matcher);
      if (auto* pcm = dynamic_cast<core::PcmMatcher*>(matcher.get())) {
        std::istringstream image(ckpt.index_image, std::ios::binary);
        const Status loaded = pcm->LoadIndex(ExpressionPointers(built), image);
        if (loaded.ok()) {
          auto snap = std::make_shared<EngineSnapshot>();
          // The expressions the index points at.
          snap->built_subs = std::move(built);
          snap->matcher = std::move(matcher);
          snap->covered_seq = 0;
          snap->applied_seq = 0;
          snapshot_.Store(std::move(snap));
        } else {
          LogWarning("checkpoint index image rejected; will rebuild",
                     {{"error", loaded.ToString()}});
        }
      }
    }
  }

  // 3. WAL tail replay through the same in-memory apply helpers the live
  // mutation path uses, so replayed and original execution agree exactly.
  size_t replayed = 0;
  for (store::WalRecord& record : recovery.records) {
    if (!ReplayWalRecordLocked(std::move(record))) break;
    ++replayed;
  }
  LogInfo("durable store recovered",
          {{"dir", options_.data_dir},
           {"had_checkpoint", recovery.had_checkpoint},
           {"wal_records", recovery.records.size()},
           {"replayed", replayed},
           {"live_subs", subscriptions_.size() - tombstones_.size()},
           {"torn_tails", recovery.torn_tails},
           {"duration_us", recovery.duration_us}});
}

bool StreamEngine::ReplayWalRecordLocked(store::WalRecord record) {
  switch (record.kind) {
    case store::WalRecord::Kind::kAdd: {
      if (record.id != next_sub_id_ || record.disjuncts.size() != 1) {
        LogError("WAL replay: inconsistent add record; stopping replay",
                 {{"seq", record.seq},
                  {"id", record.id},
                  {"expected_id", next_sub_id_}});
        return false;
      }
      StatusOr<BooleanExpression> expr = BooleanExpression::Create(
          record.id, std::move(record.disjuncts[0]));
      if (!expr.ok()) {
        LogError("WAL replay: invalid expression; stopping replay",
                 {{"seq", record.seq}, {"error", expr.status().ToString()}});
        return false;
      }
      RegisterSubscriptionLocked(*std::move(expr));
      return true;
    }
    case store::WalRecord::Kind::kAddDnf: {
      if (record.id != next_sub_id_ || record.disjuncts.empty()) {
        LogError("WAL replay: inconsistent DNF record; stopping replay",
                 {{"seq", record.seq},
                  {"id", record.id},
                  {"expected_id", next_sub_id_}});
        return false;
      }
      std::vector<BooleanExpression> exprs;
      exprs.reserve(record.disjuncts.size());
      for (size_t i = 0; i < record.disjuncts.size(); ++i) {
        StatusOr<BooleanExpression> expr = BooleanExpression::Create(
            record.id + static_cast<SubscriptionId>(i),
            std::move(record.disjuncts[i]));
        if (!expr.ok()) {
          LogError("WAL replay: invalid disjunct; stopping replay",
                   {{"seq", record.seq},
                    {"error", expr.status().ToString()}});
          return false;
        }
        exprs.push_back(*std::move(expr));
      }
      SubscriptionId external = kInvalidSubscriptionId;
      std::vector<SubscriptionId> internals;
      for (BooleanExpression& expr : exprs) {
        const SubscriptionId internal =
            RegisterSubscriptionLocked(std::move(expr));
        internals.push_back(internal);
        if (external == kInvalidSubscriptionId) {
          external = internal;
        } else {
          dnf_alias_.emplace(internal, external);
        }
      }
      if (internals.size() > 1) {
        dnf_groups_.emplace(external, std::move(internals));
      }
      return true;
    }
    case store::WalRecord::Kind::kRemove: {
      const Status valid = ValidateRemoveLocked(record.id);
      if (!valid.ok()) {
        LogError("WAL replay: invalid remove; stopping replay",
                 {{"seq", record.seq},
                  {"id", record.id},
                  {"error", valid.ToString()}});
        return false;
      }
      ApplyRemoveLocked(record.id);
      return true;
    }
    case store::WalRecord::Kind::kPriority: {
      if (record.id >= next_sub_id_ || tombstones_.contains(record.id)) {
        LogError("WAL replay: priority for unknown id; stopping replay",
                 {{"seq", record.seq}, {"id", record.id}});
        return false;
      }
      if (record.priority == 0) {
        priorities_.erase(record.id);
      } else {
        priorities_[record.id] = record.priority;
      }
      return true;
    }
  }
  LogError("WAL replay: unknown record kind; stopping replay",
           {{"seq", record.seq}});
  return false;
}

size_t StreamEngine::num_subscriptions() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  // Every tombstone still occupies a master slot until a covering snapshot
  // publishes and prunes both together, so the difference is exact.
  return subscriptions_.size() - tombstones_.size();
}

const MatcherStats* StreamEngine::matcher_stats() const {
  std::shared_ptr<EngineSnapshot> snap = snapshot_.Load();
  return snap == nullptr ? nullptr : &snap->matcher->stats();
}

std::vector<HotspotEntry> StreamEngine::CollectHotspots(size_t k) const {
  std::vector<HotspotEntry> entries;
  std::shared_ptr<EngineSnapshot> snap = snapshot_.Load();
  if (snap == nullptr) return entries;
  snap->matcher->CollectHotspots(&entries);
  std::sort(entries.begin(), entries.end(),
            [](const HotspotEntry& a, const HotspotEntry& b) {
              if (a.ns != b.ns) return a.ns > b.ns;
              return a.predicate_evals > b.predicate_evals;
            });
  if (k != 0 && entries.size() > k) entries.resize(k);
  return entries;
}

uint64_t StreamEngine::Publish(Event event) {
  StatusOr<uint64_t> id = TryPublish(std::move(event));
  APCM_CHECK(id.ok());  // kReject callers must use TryPublish
  return *id;
}

StatusOr<uint64_t> StreamEngine::TryPublish(Event event) {
  return TryPublish(std::move(event), IngressTrace{});
}

StatusOr<uint64_t> StreamEngine::TryPublish(Event event,
                                            const IngressTrace& ingress) {
  // Chaos seam: simulate a full queue at admission. Under kReject this
  // mirrors the real rejection path (counter, trace span, ResourceExhausted)
  // so callers exercise their retry/park logic; under kBlock it only counts
  // the hit — blocking on a fake rejection could deadlock a helper-less
  // caller.
  APCM_FAILPOINT_INJECT("engine.publish.admit", {
    if (options_.backpressure == BackpressurePolicy::kReject) {
      stats_.publishes_rejected.fetch_add(1, std::memory_order_relaxed);
      trace_.Record(TraceRing::Kind::kBackpressureReject, queue_.depth());
      return Status::ResourceExhausted(
          "publish queue is full (injected failpoint); Flush or retry later");
    }
  });
  for (;;) {
    if (std::optional<BoundedEventQueue::PushResult> pushed =
            queue_.TryPush(std::move(event))) {
      stats_.events_published.fetch_add(1, std::memory_order_relaxed);
      // Claim the trace slot before any processing trigger below: the round
      // that drains this event may run (and finalize-race) immediately.
      tracer_.Admit(pushed->id, ingress, tracer_.NowNs());
      if (pushed->depth >= options_.buffer_capacity) {
        // This publish filled the buffer: become the processor, unless a
        // round is already running (the backlog stays bounded by the queue
        // capacity and the next trigger picks it up).
        if (process_mu_.try_lock()) {
          ProcessLocked();
          process_mu_.unlock();
        }
      }
      return pushed->id;
    }
    // Queue full. TryPush left `event` untouched, so it survives the retry
    // loop.
    if (options_.backpressure == BackpressurePolicy::kReject) {
      stats_.publishes_rejected.fetch_add(1, std::memory_order_relaxed);
      trace_.Record(TraceRing::Kind::kBackpressureReject, queue_.depth());
      return Status::ResourceExhausted(
          "publish queue is full (" + std::to_string(queue_.capacity()) +
          " events); Flush or retry later");
    }
    stats_.publishes_blocked.fetch_add(1, std::memory_order_relaxed);
    trace_.Record(TraceRing::Kind::kBackpressureBlock, queue_.depth());
    // Block by helping: wait for the in-flight round (if any) and then
    // drain the queue ourselves. Each loop iteration frees a full queue's
    // worth of space, so progress is guaranteed.
    {
      std::lock_guard<std::mutex> lock(process_mu_);
      ProcessLocked();
    }
  }
}

void StreamEngine::Flush() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(process_mu_);
      ProcessLocked();
    }
    // Quiesce background maintenance so post-Flush state (stats, snapshot)
    // is deterministic for single-caller flows.
    std::shared_future<void> pending;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (rebuild_inflight_) pending = rebuild_done_;
    }
    if (pending.valid()) {
      pending.wait();
      continue;  // the publish may have raced a concurrent round; re-check
    }
    if (queue_.depth() == 0) break;
  }
  // Flush is the natural quiesce point: at debug level, dump the flight
  // recorder so post-mortems of a drained engine need no admin endpoint.
  if (LogEnabled(LogLevel::kDebug)) {
    LogDebug("engine trace at flush: " + trace_.ToJson());
  }
}

void StreamEngine::ScheduleRebuildLocked(bool compaction) {
  if (rebuild_inflight_) return;
  rebuild_inflight_ = true;
  // Capture the live subscription set now, under state_mu_, as handles
  // shared with the master list (no expression is copied): the build runs
  // on the maintenance worker over this immutable set while writers keep
  // mutating the master list.
  auto next = std::make_shared<EngineSnapshot>();
  next->built_subs = LiveSubscriptionsLocked();
  next->covered_seq = change_seq_;
  next->applied_seq = change_seq_;
  const size_t live_subs = next->built_subs.size();
  trace_.Record(TraceRing::Kind::kRebuildSchedule, live_subs,
                compaction ? 1 : 0);
  if (LogEnabled(LogLevel::kDebug)) {
    LogDebug("snapshot build scheduled", {{"live_subs", live_subs},
                                          {"compaction", compaction},
                                          {"covers_seq", next->covered_seq}});
  }
  rebuild_done_ =
      rebuild_pool_
          .SubmitWithFuture([this, next = std::move(next), compaction] {
            // Chaos seam: stall the full build while writers keep mutating
            // the master list it was captured from.
            APCM_FAILPOINT("engine.rebuild.start");
            WallTimer timer;
            next->matcher = CreateMatcher(options_.kind, options_.matcher);
            APCM_CHECK(next->matcher != nullptr);
            next->matcher->Build(ExpressionPointers(next->built_subs));
            PublishSnapshot(next, compaction, timer.ElapsedNanos());
          })
          .share();
}

void StreamEngine::PublishSnapshot(std::shared_ptr<EngineSnapshot> next,
                                   bool compaction, int64_t build_ns) {
  // Chaos seam: hold a finished build just before it becomes visible;
  // rounds keep matching against the previous snapshot plus deltas.
  APCM_FAILPOINT("engine.rebuild.publish");
  const uint64_t version = next->covered_seq;
  snapshot_.Store(std::move(next));
  std::lock_guard<std::mutex> lock(state_mu_);
  // Prune everything the published build covered: log entries, tombstoned
  // master slots, and the tombstone records themselves. Later entries stay
  // until a future snapshot covers them.
  while (!change_log_.empty() && change_log_.front().seq <= version) {
    change_log_.pop_front();
  }
  std::erase_if(subscriptions_, [&](const ExpressionHandle& sub) {
    auto it = tombstones_.find(sub->id());
    return it != tombstones_.end() && it->second <= version;
  });
  std::erase_if(tombstones_,
                [&](const auto& entry) { return entry.second <= version; });
  rebuild_inflight_ = false;
  if (compaction) {
    stats_.compactions.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.rebuilds.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.rebuild_latency_ns.Record(build_ns);
  trace_.Record(TraceRing::Kind::kRebuildPublish,
                static_cast<uint64_t>(build_ns), compaction ? 1 : 0);
  if (LogEnabled(LogLevel::kDebug)) {
    LogDebug("snapshot published", {{"build_ns", build_ns},
                                    {"compaction", compaction},
                                    {"covered_seq", version}});
  }
}

std::shared_ptr<EngineSnapshot> StreamEngine::SyncSnapshotLocked() {
  for (;;) {
    std::shared_ptr<EngineSnapshot> snap = snapshot_.Load();
    std::vector<SubChange> changes;
    std::vector<ExpressionHandle> add_exprs;
    std::shared_future<void> build_done;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      const uint64_t base = snap == nullptr ? 0 : snap->applied_seq;
      if (snap != nullptr && base == change_seq_) return snap;
      auto* delta_matcher =
          snap == nullptr
              ? nullptr
              : dynamic_cast<IncrementalMatcher*>(snap->matcher.get());
      const bool incremental = delta_matcher != nullptr &&
                               options_.incremental_rebuild_threshold > 0;
      if (!incremental) {
        // First build, non-incremental matcher, or threshold 0: the round
        // needs a full rebuild covering every change up to now. Schedule
        // (if not already in flight) and wait outside the lock.
        ScheduleRebuildLocked(/*compaction=*/false);
        build_done = rebuild_done_;
      } else {
        // Delta handoff: collect the changes this snapshot has not seen,
        // in change order, with handles to the added expressions.
        for (const SubChange& change : change_log_) {
          if (change.seq <= base) continue;
          changes.push_back(change);
          if (change.kind == SubChange::kAdd) {
            const ExpressionHandle* sub = FindSubscriptionLocked(change.id);
            APCM_CHECK(sub != nullptr);
            add_exprs.push_back(*sub);
          }
        }
      }
    }
    if (build_done.valid()) {
      build_done.wait();
      continue;  // reload; more changes may have landed during the build
    }
    // Chaos seam: change-log apply boundary — a stall here lets background
    // compactions race the delta application they will supersede.
    APCM_FAILPOINT("engine.apply_delta");
    // Apply the deltas to the snapshot matcher. Serialized by process_mu_;
    // the background builder never touches a published snapshot.
    auto* inc = static_cast<IncrementalMatcher*>(snap->matcher.get());
    size_t next_add = 0;
    for (const SubChange& change : changes) {
      if (change.kind == SubChange::kAdd) {
        inc->AddIncremental(std::move(add_exprs[next_add++]));
      } else {
        APCM_CHECK(inc->RemoveIncremental(change.id).ok());
      }
      snap->applied_seq = change.seq;
    }
    stats_.incremental_updates.fetch_add(changes.size(),
                                         std::memory_order_relaxed);
    if (!changes.empty() &&
        inc->DeltaFraction() > options_.incremental_rebuild_threshold) {
      // Too much delta state: fold it into a fresh snapshot off the hot
      // path. Rounds keep matching against the delta-laden snapshot until
      // the compacted one publishes.
      std::lock_guard<std::mutex> lock(state_mu_);
      ScheduleRebuildLocked(/*compaction=*/true);
    }
    return snap;
  }
}

void StreamEngine::ProcessLocked() {
  queue_.DrainAll(&round_events_, &round_ids_);
  if (round_events_.empty()) return;
  stats_.queue_depth.Record(static_cast<int64_t>(round_events_.size()));
  trace_.Record(TraceRing::Kind::kRoundStart, round_events_.size());
  if (tracer_.enabled()) {
    // All events of this round left the queue at the same drain; one clock
    // read covers every sampled id.
    const int64_t t_queue = tracer_.NowNs();
    for (uint64_t id : round_ids_) {
      if (tracer_.Sampled(id)) {
        tracer_.RecordStage(id, EventTracer::kQueue, t_queue);
      }
    }
  }
  std::shared_ptr<EngineSnapshot> snap = SyncSnapshotLocked();
  // Matcher counters mutate throughout the round; the per-round delta is
  // folded into stats_ afterwards so scrapers never touch the live object.
  const MatcherStats matcher_before = snap->matcher->stats();

  // Copy the delivery-time maps once per round so mutator threads can keep
  // churning aliases/priorities while this round delivers.
  std::unordered_map<SubscriptionId, SubscriptionId> alias;
  std::unordered_map<SubscriptionId, double> priorities;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    alias = dnf_alias_;
    if (options_.top_k > 0) priorities = priorities_;
  }

  const std::vector<uint32_t> order =
      core::ReorderStream(round_events_, options_.osr);
  std::vector<std::vector<SubscriptionId>> results_by_buffer_index(
      round_events_.size());

  std::vector<Event> batch;
  std::vector<std::vector<SubscriptionId>> batch_results;
  for (size_t pos = 0; pos < order.size(); pos += options_.batch_size) {
    const size_t end =
        std::min(order.size(), pos + size_t{options_.batch_size});
    batch.clear();
    // Moved, not copied: after ReorderStream, round_events_ is only counted.
    for (size_t i = pos; i < end; ++i) {
      batch.push_back(std::move(round_events_[order[i]]));
    }
    WallTimer timer;
    snap->matcher->MatchBatch(batch, &batch_results);
    stats_.batch_latency_ns.Record(timer.ElapsedNanos());
    stats_.batches_processed.fetch_add(1, std::memory_order_relaxed);
    if (tracer_.enabled()) {
      const int64_t t_match = tracer_.NowNs();
      for (size_t i = pos; i < end; ++i) {
        const uint64_t id = round_ids_[order[i]];
        if (tracer_.Sampled(id)) {
          tracer_.RecordStage(id, EventTracer::kMatch, t_match);
        }
      }
    }
    for (size_t i = pos; i < end; ++i) {
      results_by_buffer_index[order[i]] = std::move(batch_results[i - pos]);
    }
  }

  // Deliver in ascending event-id order (== drain order). DNF disjunct ids
  // are translated to their external subscription id and deduplicated.
  uint64_t round_matches = 0;
  for (size_t i = 0; i < round_events_.size(); ++i) {
    auto& matches = results_by_buffer_index[i];
    if (!alias.empty() && !matches.empty()) {
      for (SubscriptionId& id : matches) {
        auto it = alias.find(id);
        if (it != alias.end()) id = it->second;
      }
      std::sort(matches.begin(), matches.end());
      matches.erase(std::unique(matches.begin(), matches.end()),
                    matches.end());
    }
    if (options_.top_k > 0 && matches.size() > options_.top_k) {
      // Keep the top_k highest-priority matches; within the prefix, restore
      // ascending-id order so the delivery contract stays uniform.
      auto priority_of = [&priorities](SubscriptionId id) {
        auto it = priorities.find(id);
        return it == priorities.end() ? 0.0 : it->second;
      };
      std::partial_sort(
          matches.begin(), matches.begin() + options_.top_k, matches.end(),
          [&](SubscriptionId a, SubscriptionId b) {
            const double pa = priority_of(a);
            const double pb = priority_of(b);
            if (pa != pb) return pa > pb;
            return a < b;
          });
      matches.resize(options_.top_k);
      std::sort(matches.begin(), matches.end());
    }
    stats_.events_processed.fetch_add(1, std::memory_order_relaxed);
    stats_.matches_delivered.fetch_add(matches.size(),
                                       std::memory_order_relaxed);
    round_matches += matches.size();
    callback_(round_ids_[i], matches);
    if (tracer_.Sampled(round_ids_[i])) {
      // Releases the delivery reference Admit created. A transport that owes
      // socket writes added its own references inside the callback, so the
      // trace finalizes only after the last flush (or right here when the
      // event is engine-local / nobody subscribed its matches).
      tracer_.CompleteStage(round_ids_[i], EventTracer::kDeliver,
                            tracer_.NowNs());
    }
  }

  const MatcherStats& matcher_after = snap->matcher->stats();
  stats_.matcher_predicate_evals.fetch_add(
      matcher_after.predicate_evals - matcher_before.predicate_evals,
      std::memory_order_relaxed);
  stats_.matcher_bitmap_words.fetch_add(
      matcher_after.bitmap_words - matcher_before.bitmap_words,
      std::memory_order_relaxed);
  stats_.matcher_candidates_checked.fetch_add(
      matcher_after.candidates_checked - matcher_before.candidates_checked,
      std::memory_order_relaxed);
  stats_.matcher_matches_emitted.fetch_add(
      matcher_after.matches_emitted - matcher_before.matches_emitted,
      std::memory_order_relaxed);
  stats_.matcher_cluster_visits.fetch_add(
      matcher_after.cluster_visits - matcher_before.cluster_visits,
      std::memory_order_relaxed);

  trace_.Record(TraceRing::Kind::kRoundEnd, round_events_.size(),
                round_matches);
  if (LogEnabled(LogLevel::kDebug)) {
    LogDebug("round delivered", {{"events", round_events_.size()},
                                 {"matches", round_matches}});
  }
  round_events_.clear();
  round_ids_.clear();
}

}  // namespace apcm::engine
