// The traced layer ladder: the run's inputs replayed at the workload's
// open-loop rate through
//   L0  Matcher::MatchBatch (CreateMatcher with the engine's default kind
//       and config),
//   L1  StreamEngine Publish -> callback,
//   L2  EventServer over loopback,
//   L3  ClusterRouter over in-process backends,
// plus saturation and one-outstanding probes per layer. A layer's own cost
// is the difference between adjacent rungs. Existing counters and
// histograms are read back through metrics_registry(); none are added.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <cstdio>
#include <filesystem>

#include "perfbench/src/bench.h"
#include "src/be/parser.h"
#include "src/engine/engine.h"
#include "src/engine/event_trace.h"
#include "src/engine/matcher_factory.h"

namespace perfbench {

using apcm::Status;
using apcm::engine::EngineOptions;
using apcm::engine::StreamEngine;

namespace {

constexpr size_t kBatch = 256;
constexpr size_t kCountedBatches = 16;
constexpr int kL3Backends = 3;
// Ladder accounting tolerances (README.md gives the measured ranges):
// the L2 rung's notify p50 may differ from the forked SUT's by this share,
constexpr double kRungTolerance = 0.5;
// and over the L2 open-loop events the engine's tracer sampled, the mean
// of their summed stages must be this share of their mean notify latency:
// the stages cover the server's part of each event's path, so at most all
// of it, and at least a quarter.
constexpr double kStageShareMin = 0.25;
constexpr double kStageShareMax = 1.02;

double Us(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

double P(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return Quantile(v, q);
}

double PerEvent(double count, uint64_t events) {
  return count / static_cast<double>(std::max<uint64_t>(events, 1));
}

/// Due times of the open-loop schedule: event i at i / rate.
int64_t Due(int64_t start, double rate, uint64_t i) {
  return start + static_cast<int64_t>(1e9 / rate * static_cast<double>(i));
}

std::string StageLabel(uint32_t stage) {
  return "stage=\"" +
         std::string(apcm::engine::EventTracer::StageName(stage)) + "\"";
}

// ---------------------------------------------------------------------------
// L0: the matcher alone.

struct L0Result {
  std::vector<double> paced_us;  ///< per event: due -> its batch returned
  uint64_t mismatched = 0;
};

Status RunL0(const WorkloadConfig& config, const Inputs& in, double seconds,
             SpanLog* spans, Metrics* out, L0Result* r0) {
  PinCpus(/*sut=*/true);  // MatchBatch runs on this thread
  const EngineOptions defaults;
  auto matcher = apcm::engine::CreateMatcher(defaults.kind, defaults.matcher);
  int64_t t = NowNs();
  matcher->Build(in.subs);
  const double build_s = static_cast<double>(NowNs() - t) * 1e-9;
  spans->Add("core.build", 0, t, NowNs());
  const double index_mb = static_cast<double>(matcher->MemoryBytes()) / 1048576.0;

  // Saturation: 256-event batches back to back. Work counters cover the
  // first kCountedBatches batches only, so the counted events are the same
  // on every run of a seed.
  std::vector<Event> batch;
  std::vector<std::vector<apcm::SubscriptionId>> results;
  const apcm::MatcherStats before = matcher->stats();
  apcm::MatcherStats after;
  std::vector<double> batch_us;
  uint64_t events = 0, k = 0;
  const int64_t sat_end = NowNs() + static_cast<int64_t>(std::min(seconds, 2.0) * 1e9);
  int64_t busy = 0;
  while (NowNs() < sat_end || batch_us.size() < kCountedBatches) {
    batch.clear();
    for (size_t i = 0; i < kBatch; ++i) batch.push_back(in.EventAt(k++));
    t = NowNs();
    matcher->MatchBatch(batch, &results);
    const int64_t d = NowNs() - t;
    spans->Add("core.match_batch", batch_us.size(), t, t + d);
    busy += d;
    batch_us.push_back(Us(d));
    events += kBatch;
    if (batch_us.size() == kCountedBatches) after = matcher->stats();
  }
  const double evs = static_cast<double>(events);
  const double counted = static_cast<double>(kCountedBatches * kBatch);
  out->insert(out->end(), {
      {"core.build_s", build_s, "s", "L0 Build over the stable set"},
      {"core.index_mb", index_mb, "MB", "L0 MemoryBytes after Build"},
      {"core.match_batch_us_p50", P(batch_us, 0.5), "us",
       "per 256-event MatchBatch, n=" + std::to_string(batch_us.size())},
      {"core.match_batch_us_p99", P(batch_us, 0.99), "us",
       "per 256-event MatchBatch, n=" + std::to_string(batch_us.size())},
      {"core.events_per_s", evs / (static_cast<double>(busy) * 1e-9), "1/s",
       "L0 saturation, 256-event batches"},
      {"core.pred_evals_per_event",
       static_cast<double>(after.predicate_evals - before.predicate_evals) / counted,
       "count", "per event, MatcherStats delta over 16 batches"},
      {"core.candidates_per_event",
       static_cast<double>(after.candidates_checked - before.candidates_checked) / counted,
       "count", "per event, MatcherStats delta over 16 batches"},
      {"bitmap.words_per_event",
       static_cast<double>(after.bitmap_words - before.bitmap_words) / counted,
       "count", "per event, MatcherStats delta over 16 batches"},
      {"core.matches_per_event",
       static_cast<double>(after.matches_emitted - before.matches_emitted) / counted,
       "count", "per event, MatcherStats delta over 16 batches"},
  });

  // Paced rung: whatever is due is matched as one batch, as a draining
  // pump would; every result is checked against the reference.
  const int64_t start = NowNs() + 1'000'000;
  const uint64_t n = static_cast<uint64_t>(seconds * config.publish_rate);
  std::vector<int64_t> due;
  for (uint64_t i = 0; i < n;) {
    const int64_t first_due = Due(start, config.publish_rate, i);
    SleepUntil(first_due);
    const int64_t now = NowNs();
    batch.clear();
    due.clear();
    const uint64_t from = i;
    while (i < n && Due(start, config.publish_rate, i) <= now) {
      batch.push_back(in.EventAt(i));
      due.push_back(Due(start, config.publish_rate, i));
      ++i;
    }
    t = NowNs();
    matcher->MatchBatch(batch, &results);
    const int64_t done = NowNs();
    spans->Add("core.paced_batch", from, t, done);
    for (size_t j = 0; j < batch.size(); ++j) {
      r0->paced_us.push_back(Us(done - due[j]));
      const auto& ref = in.ref[in.PoolAt(from + j)];
      if (!std::equal(results[j].begin(), results[j].end(), ref.begin(), ref.end())) {
        ++r0->mismatched;
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// L1: the engine, with a pump that drains like EventServer's.

struct L1Result {
  std::vector<double> paced_us;
  uint64_t mismatched = 0;
};

Status RunL1(const WorkloadConfig& config, const Inputs& in, double seconds,
             SpanLog* spans, Metrics* out, L1Result* r1) {
  const EngineOptions options;
  const uint64_t n = static_cast<uint64_t>(seconds * config.publish_rate);
  const uint64_t sat_events = static_cast<uint64_t>(config.publish_rate * 2);
  std::vector<int64_t> callback_ns(n + sat_events + 8, 0);
  std::vector<uint32_t> pool_of(callback_ns.size(), 0);
  std::atomic<uint64_t> callbacks{0};
  std::atomic<uint64_t> mismatched{0};
  const uint32_t nsubs = static_cast<uint32_t>(in.subs.size());
  StreamEngine engine(options, [&](uint64_t id,
                                   const std::vector<apcm::SubscriptionId>& m) {
    if (id >= callback_ns.size()) return;
    callback_ns[id] = NowNs();
    // Stable-set ids are 0..n-1 (added first); churn ids follow.
    const auto& ref = in.ref[pool_of[id]];
    size_t g = 0;
    bool ok = true;
    for (apcm::SubscriptionId s : m) {
      if (s >= nsubs) continue;
      if (g >= ref.size() || ref[g] != s) ok = false;
      ++g;
    }
    if (!ok || g != ref.size()) mismatched.fetch_add(1);
    callbacks.fetch_add(1, std::memory_order_release);
  });
  for (const BooleanExpression& s : in.subs) {
    auto id = engine.AddSubscription(s.predicates());
    if (!id.ok()) return id.status();
  }
  // Priming event: the first round builds the first snapshot.
  uint64_t k = 0;
  pool_of[0] = in.PoolAt(k);
  engine.Publish(in.EventAt(k++));
  engine.Flush();

  std::mutex pump_mu;
  std::condition_variable pump_cv;
  bool pump_stop = false;
  PinCpus(/*sut=*/true);  // the pump thread drains on the layer's CPUs
  std::thread pump([&] {
    std::unique_lock<std::mutex> lock(pump_mu);
    while (!pump_stop) {
      if (engine.queue_depth() > 0) {
        lock.unlock();
        engine.Flush();
        lock.lock();
      } else {
        pump_cv.wait_for(lock, std::chrono::milliseconds(5));
      }
    }
  });
  auto kick = [&] {
    std::lock_guard<std::mutex> lock(pump_mu);
    pump_cv.notify_one();
  };

  PinCpus(/*sut=*/false);
  const uint64_t compactions0 = engine.stats().compactions.load();
  std::vector<double> add_us, remove_us;
  std::vector<int64_t> due_of(callback_ns.size(), 0);
  std::deque<apcm::SubscriptionId> live;
  uint64_t next_expr = 0;
  const int64_t start = NowNs() + 1'000'000;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  uint64_t i = 0, j = 0;
  for (;;) {
    const int64_t de = Due(start, config.publish_rate, i);
    const int64_t dc = config.churn_rate > 0 ? Due(start, config.churn_rate, j) : INT64_MAX;
    if (std::min(de, dc) >= end || i >= n) break;
    if (de <= dc) {
      SleepUntil(de);
      // One publisher: engine event ids are dense in publish order, so
      // the id is k. Recording before Publish orders it before the
      // callback through the engine's queue.
      pool_of[k] = in.PoolAt(k);
      due_of[k] = de;
      const int64_t t = NowNs();
      const uint64_t id = engine.Publish(in.EventAt(k++));
      spans->Add("engine.publish", id, t, NowNs());
      kick();
      ++i;
    } else {
      SleepUntil(dc);
      const int64_t t = NowNs();
      if (live.size() < config.churn_live) {
        auto id = engine.AddSubscription(
            in.churn[next_expr++ % in.churn.size()].predicates());
        if (!id.ok()) return id.status();
        live.push_back(id.value());
        add_us.push_back(Us(NowNs() - t));
        spans->Add("engine.add_subscription", id.value(), t, NowNs());
      } else {
        const apcm::SubscriptionId id = live.front();
        live.pop_front();
        APCM_RETURN_NOT_OK(engine.RemoveSubscription(id));
        remove_us.push_back(Us(NowNs() - t));
        spans->Add("engine.remove_subscription", id, t, NowNs());
      }
      ++j;
    }
  }
  const uint64_t paced_last = k;
  WaitFor([&] { return callbacks.load(std::memory_order_acquire) >= paced_last; }, 30);
  const int64_t sat_start = NowNs();
  for (uint64_t s = 0; s < sat_events; ++s) {
    pool_of[k] = in.PoolAt(k);
    engine.Publish(in.EventAt(k++));
    kick();
  }
  WaitFor([&] { return callbacks.load(std::memory_order_acquire) >= k; }, 60);
  const double sat_s = static_cast<double>(NowNs() - sat_start) * 1e-9;
  {
    std::lock_guard<std::mutex> lock(pump_mu);
    pump_stop = true;
    pump_cv.notify_one();
  }
  pump.join();
  engine.Flush();

  for (uint64_t id = 1; id < paced_last; ++id) {
    if (callback_ns[id] != 0 && due_of[id] != 0) {
      r1->paced_us.push_back(Us(callback_ns[id] - due_of[id]));
      spans->Add("engine.publish_to_callback", id, due_of[id], callback_ns[id]);
    }
  }
  r1->mismatched = mismatched.load();
  const apcm::Histogram rebuild =
      HistogramOf(engine.metrics_registry(), "apcm_rebuild_latency_ns");
  out->insert(out->end(), {
      {"engine.publish_to_callback_us_p50", P(r1->paced_us, 0.5), "us",
       "per event, L1 due -> callback, n=" + std::to_string(r1->paced_us.size())},
      {"engine.publish_to_callback_us_p99", P(r1->paced_us, 0.99), "us",
       "per event, L1 due -> callback, n=" + std::to_string(r1->paced_us.size())},
      {"engine.events_per_s", static_cast<double>(sat_events) / sat_s, "1/s",
       "L1 saturation, one publisher + pump"},
      {"engine.add_sub_us_p50", P(add_us, 0.5), "us",
       "per AddSubscription, L1, n=" + std::to_string(add_us.size())},
      {"engine.remove_sub_us_p50", P(remove_us, 0.5), "us",
       "per RemoveSubscription, L1, n=" + std::to_string(remove_us.size())},
      {"engine.compactions",
       static_cast<double>(engine.stats().compactions.load() - compactions0),
       "count", "L1 compactions during the paced replay"},
      {"engine.rebuild_ms_mean", rebuild.Mean() * 1e-6, "ms",
       "per snapshot build, L1 lifetime, n=" + std::to_string(rebuild.count())},
      {"engine.rebuild_ms_max", static_cast<double>(rebuild.max()) * 1e-6, "ms",
       "per snapshot build, L1 lifetime"},
  });
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Store: the churn op sequence against a fresh durable and a fresh
// in-memory engine; the difference is the store's own cost.

Status RunStoreProbe(const WorkloadConfig& config, const Inputs& in,
                     double seconds, const std::string& data_dir,
                     SpanLog* spans, Metrics* out) {
  const uint64_t ops = std::max<uint64_t>(
      500, static_cast<uint64_t>(seconds * config.churn_rate));
  std::vector<double> add_us[2];
  double fsyncs = 0, wal_bytes = 0, checkpoints = 0, checkpoint_ms = 0;
  for (int durable = 0; durable < 2; ++durable) {
    EngineOptions options;
    if (durable) options.data_dir = data_dir;
    StreamEngine engine(options, [](uint64_t, const auto&) {});
    std::deque<apcm::SubscriptionId> live;
    uint64_t next_expr = 0;
    for (uint64_t op = 0; op < ops; ++op) {
      const int64_t t = NowNs();
      if (live.size() < config.churn_live) {
        auto id = engine.AddSubscription(
            in.churn[next_expr++ % in.churn.size()].predicates());
        if (!id.ok()) return id.status();
        live.push_back(id.value());
        add_us[durable].push_back(Us(NowNs() - t));
        if (durable) spans->Add("store.add_subscription", op, t, NowNs());
      } else {
        APCM_RETURN_NOT_OK(engine.RemoveSubscription(live.front()));
        live.pop_front();
      }
    }
    if (durable) {
      const auto& reg = engine.metrics_registry();
      fsyncs = static_cast<double>(CounterOf(reg, "apcm_wal_fsyncs_total"));
      wal_bytes = static_cast<double>(CounterOf(reg, "apcm_wal_bytes_total"));
      engine.Flush();
      checkpoints = static_cast<double>(CounterOf(reg, "apcm_checkpoints_total"));
      const int64_t t = NowNs();
      APCM_RETURN_NOT_OK(engine.Checkpoint());
      checkpoint_ms = static_cast<double>(NowNs() - t) * 1e-6;
      spans->Add("store.checkpoint", 0, t, NowNs());
    }
  }
  const std::string n = std::to_string(add_us[1].size());
  out->insert(out->end(), {
      {"store.add_sub_us_p50", P(add_us[1], 0.5) - P(add_us[0], 0.5), "us",
       "per AddSubscription, durable minus in-memory L1, n=" + n},
      {"store.add_sub_us_p99", P(add_us[1], 0.99) - P(add_us[0], 0.99), "us",
       "per AddSubscription, durable minus in-memory L1, n=" + n},
      {"store.fsyncs_per_op", fsyncs / static_cast<double>(ops), "count",
       "per churn op, apcm_wal_fsyncs_total"},
      {"store.wal_bytes_per_op", wal_bytes / static_cast<double>(ops), "B",
       "per churn op, apcm_wal_bytes_total"},
      {"store.checkpoints", checkpoints, "count",
       "background checkpoints over the churn ops"},
      {"store.checkpoint_ms", checkpoint_ms, "ms", "one timed Checkpoint()"},
  });
  return Status::OK();
}

// ---------------------------------------------------------------------------
// L2 / L3: the served system over loopback, in this process.

struct WireResult {
  double notify_p50_us = 0;
  /// L2: over the open-loop events the engine's stage tracer sampled, the
  /// mean due -> PROGRESS latency and the mean of the summed stages.
  double sampled_notify_mean_us = 0;
  double sampled_stage_sum_us = 0;
  std::vector<double> rtt_us;
};

Status RunWire(const WorkloadConfig& config, const Inputs& in, double seconds,
               int backends, SpanLog* spans, Metrics* out,
               WireResult* result) {
  const bool cluster = backends > 0;
  PinCpus(/*sut=*/true);
  InProcessSut sut(config, backends);
  APCM_RETURN_NOT_OK(sut.Start());
  PinCpus(/*sut=*/false);
  Session session(config, in, sut.port(), spans);
  APCM_RETURN_NOT_OK(session.Setup());
  WaitFor([&] { return sut.Quiet(); }, 120);

  auto net_counters = [&](std::string_view name) {
    double sum = 0;
    for (size_t i = 0; i < sut.num_servers(); ++i) {
      sum += static_cast<double>(
          CounterOf(sut.server(i).engine().metrics_registry(), name));
    }
    return sum;
  };
  const char* kNet[] = {"apcm_net_frames_out_total", "apcm_net_bytes_out_total",
                        "apcm_net_wakeups_total",
                        "apcm_net_backpressure_events_total"};
  double net0[4];
  for (int i = 0; i < 4; ++i) net0[i] = net_counters(kNet[i]);
  auto& engine = sut.server(0).engine();
  const uint64_t batches0 = engine.stats().batches_processed.load();
  const uint64_t processed0 = engine.stats().events_processed.load();
  const uint64_t rejected0 = engine.stats().publishes_rejected.load();
  apcm::MetricsRegistry* router = sut.router_registry();
  const char* kCluster[] = {"apcm_cluster_fanout_frames_total",
                            "apcm_cluster_progress_frames_total",
                            "apcm_cluster_backpressure_events_total"};
  double cl0[3] = {0, 0, 0};
  if (router != nullptr) {
    for (int i = 0; i < 3; ++i) cl0[i] = static_cast<double>(CounterOf(*router, kCluster[i]));
  }
  // Stage histograms over the open loop only: (sum, count) per stage from
  // kAdmit on, before and after it.
  auto stage_totals = [&] {
    std::vector<std::pair<double, uint64_t>> totals;
    for (uint32_t s = apcm::engine::EventTracer::kAdmit;
         s < apcm::engine::EventTracer::kNumStages; ++s) {
      const apcm::Histogram h = HistogramOf(engine.metrics_registry(),
                                            "apcm_stage_latency_ns", StageLabel(s));
      totals.push_back({h.sum(), h.count()});
    }
    return totals;
  };
  const auto stage0 = stage_totals();
  std::atomic<bool> sampling{router != nullptr};
  int64_t merge_max = 0, unacked_max = 0;
  std::thread sampler([&] {
    while (sampling.load()) {
      merge_max = std::max<int64_t>(merge_max, CounterOf(*router, "apcm_cluster_merge_buffer_events"));
      unacked_max = std::max<int64_t>(unacked_max, CounterOf(*router, "apcm_cluster_unacked_publishes"));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const Session::OpenLoop open = session.RunOpenLoop(seconds);
  // RunOpenLoop drained its events; read before the probes below add more.
  const auto stage1 = stage_totals();
  sampling.store(false);
  sampler.join();
  const uint64_t ev = open.events;
  double net1[4];
  for (int i = 0; i < 4; ++i) net1[i] = net_counters(kNet[i]);
  const Session::Verdict verdict = session.Verify();
  if (verdict.failed != 0) {
    return Status::Internal(std::string(cluster ? "L3" : "L2") + ": " +
                            std::to_string(verdict.failed) + " failures");
  }
  result->notify_p50_us = WindowedQuantile(open.notify_us, 0.5);
  double sampled_sum = 0;
  uint64_t sampled = 0;
  for (size_t i = 0; i < open.notify_us.size(); ++i) {
    if (engine.tracer().Sampled(open.event_ids[i])) {
      sampled_sum += open.notify_us[i];
      ++sampled;
    }
  }
  result->sampled_notify_mean_us = sampled_sum / static_cast<double>(std::max<uint64_t>(sampled, 1));
  // Every sampled event passes admit; later stages may be skipped (no
  // MATCH frame owed, no write stage), so the per-event sum divides every
  // stage's total by the admitted count.
  double stage_total = 0;
  for (size_t i = 0; i < stage1.size(); ++i) stage_total += stage1[i].first - stage0[i].first;
  result->sampled_stage_sum_us =
      stage_total / static_cast<double>(std::max<uint64_t>(stage1[0].second - stage0[0].second, 1)) * 1e-3;
  result->rtt_us = session.PublishRtts(2000);

  if (!cluster) {
    const double batches =
        static_cast<double>(engine.stats().batches_processed.load() - batches0);
    const double processed =
        static_cast<double>(engine.stats().events_processed.load() - processed0);
    const auto& reg = engine.metrics_registry();
    const apcm::Histogram frames_per_wakeup =
        HistogramOf(reg, "apcm_net_frames_per_wakeup");
    const std::vector<double> sub_rtt = session.SubscribeRtts(200);
    out->insert(out->end(), {
        {"engine.events_per_batch", processed / std::max(batches, 1.0), "count",
         "per MatchBatch, L2 open loop"},
        {"engine.queue_depth_p99",
         static_cast<double>(HistogramOf(reg, "apcm_round_queue_depth").ValueAtQuantile(0.99)),
         "count", "per round, L2 lifetime, bucketed"},
        {"engine.rejected_per_event",
         PerEvent(static_cast<double>(engine.stats().publishes_rejected.load() - rejected0), ev),
         "count", "per event, L2 open loop"},
        {"net.publish_rtt_us_p50", Quantile(result->rtt_us, 0.5), "us",
         "per RPC, one outstanding, n=" + std::to_string(result->rtt_us.size())},
        {"net.publish_rtt_us_p99", Quantile(result->rtt_us, 0.99), "us",
         "per RPC, one outstanding, n=" + std::to_string(result->rtt_us.size())},
        {"net.subscribe_rtt_us_p50", Quantile(sub_rtt, 0.5), "us",
         "per RPC, one outstanding, n=" + std::to_string(sub_rtt.size())},
        {"net.frames_out_per_event", PerEvent(net1[0] - net0[0], ev), "count",
         "per event, L2 open loop"},
        {"net.bytes_out_per_event", PerEvent(net1[1] - net0[1], ev), "B",
         "per event, L2 open loop"},
        {"net.frames_per_wakeup", frames_per_wakeup.Mean(), "count",
         "per reactor wakeup, L2 lifetime mean"},
        {"net.wakeups_per_event", PerEvent(net1[2] - net0[2], ev), "count",
         "per event, L2 open loop"},
        {"net.backpressure_per_event", PerEvent(net1[3] - net0[3], ev), "count",
         "per event, L2 open loop"},
    });
    // Means, not bucketed percentiles: stage means add up to the mean end
    // to end, and the read stage (identically 0, it anchors t0) is left out.
    for (uint32_t s = apcm::engine::EventTracer::kAdmit;
         s < apcm::engine::EventTracer::kNumStages; ++s) {
      const std::string stage(apcm::engine::EventTracer::StageName(s));
      const size_t i = s - apcm::engine::EventTracer::kAdmit;
      const uint64_t n = stage1[i].second - stage0[i].second;
      out->push_back({"engine.stage_" + stage + "_us_mean",
                      (stage1[i].first - stage0[i].first) /
                          static_cast<double>(std::max<uint64_t>(n, 1)) * 1e-3,
                      "us", "per sampled event, L2 open loop, n=" + std::to_string(n)});
    }
  } else {
    double cl1[3];
    for (int i = 0; i < 3; ++i) cl1[i] = static_cast<double>(CounterOf(*router, kCluster[i]));
    out->insert(out->end(), {
        {"cluster.fanout_frames_per_event", PerEvent(cl1[0] - cl0[0], ev), "count",
         "per event, L3 open loop"},
        {"cluster.progress_frames_per_event", PerEvent(cl1[1] - cl0[1], ev), "count",
         "per event, L3 open loop"},
        {"cluster.merge_buffer_events_max", static_cast<double>(merge_max), "count",
         "gauge max, sampled every 1 ms, L3 open loop"},
        {"cluster.unacked_publishes_max", static_cast<double>(unacked_max), "count",
         "gauge max, sampled every 1 ms, L3 open loop"},
        {"cluster.backpressure_per_event", PerEvent(cl1[2] - cl0[2], ev), "count",
         "per event, L3 open loop"},
    });
  }
  return Status::OK();
}

}  // namespace

uint64_t CounterOf(const apcm::MetricsRegistry& registry,
                   std::string_view name) {
  for (const apcm::MetricSample& s : registry.Collect()) {
    if (s.name != name) continue;
    return s.type == apcm::MetricSample::Type::kGauge
               ? static_cast<uint64_t>(std::max<int64_t>(s.gauge_value, 0))
               : s.counter_value;
  }
  return 0;
}

apcm::Histogram HistogramOf(const apcm::MetricsRegistry& registry,
                            std::string_view name, std::string_view labels) {
  for (const apcm::MetricSample& s : registry.Collect()) {
    if (s.name == name && s.labels == labels) return s.histogram;
  }
  return apcm::Histogram();
}

Status RunLadder(const WorkloadConfig& config, const Inputs& in,
                 double rung_seconds, const std::string& scratch_dir,
                 double e2e_notify_p50_us, SpanLog* spans, Metrics* out) {
  std::filesystem::create_directories(scratch_dir);
  const std::string scratch = std::filesystem::absolute(scratch_dir).string();
  auto fresh = [&](const char* name) {
    const std::string dir = scratch + "/" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  };

  // be: the expression parser over the workload's own texts.
  {
    apcm::Catalog catalog;
    for (const std::string& a : SchemaFor(config)) catalog.GetOrAddAttribute(a);
    apcm::Parser parser(&catalog);
    const size_t n = std::min<size_t>(in.sub_texts.size(), 20'000);
    const int64_t t = NowNs();
    for (size_t i = 0; i < n; ++i) {
      auto parsed = parser.ParseExpression(i, in.sub_texts[i]);
      if (!parsed.ok()) return parsed.status();
    }
    const int64_t d = NowNs() - t;
    spans->Add("be.parse", 0, t, t + d);
    out->push_back({"be.parse_us_per_sub", Us(d) / static_cast<double>(n), "us",
                    "per expression, " + std::to_string(n) + " texts"});
  }

  L0Result r0;
  APCM_RETURN_NOT_OK(RunL0(config, in, rung_seconds, spans, out, &r0));
  L1Result r1;
  APCM_RETURN_NOT_OK(RunL1(config, in, rung_seconds, spans, out, &r1));
  if (r0.mismatched + r1.mismatched != 0) {
    return Status::Internal("L0/L1 results differ from the reference");
  }
  APCM_RETURN_NOT_OK(
      RunStoreProbe(config, in, rung_seconds, fresh("store"), spans, out));
  WireResult l2, l3;
  APCM_RETURN_NOT_OK(RunWire(config, in, rung_seconds, 0, spans, out, &l2));
  APCM_RETURN_NOT_OK(
      RunWire(config, in, rung_seconds, kL3Backends, spans, out, &l3));
  out->insert(out->end(), {
      {"cluster.publish_rtt_us_p50",
       Quantile(l3.rtt_us, 0.5) - Quantile(l2.rtt_us, 0.5), "us",
       "per RPC, L3 minus L2, one outstanding"},
      {"cluster.publish_rtt_us_p99",
       Quantile(l3.rtt_us, 0.99) - Quantile(l2.rtt_us, 0.99), "us",
       "per RPC, L3 minus L2, one outstanding"},
  });

  // Ladder accounting: rung p50s and their differences, the stage split,
  // and how much of the served system's notify p50 the rungs explain. The
  // rung differences add up to the L2 rung by construction; what is
  // checked is the in-process L2 rung against the forked SUT, and the
  // server-side stage split against the L2 rung's mean.
  const double l0 = P(r0.paced_us, 0.5);
  const double l1 = P(r1.paced_us, 0.5);
  const double accounted = l2.notify_p50_us / std::max(e2e_notify_p50_us, 1e-9);
  const double stage_share =
      l2.sampled_stage_sum_us / std::max(l2.sampled_notify_mean_us, 1e-9);
  out->insert(out->end(), {
      {"ladder.l0_us_p50", l0, "us", "per event, due -> MatchBatch returned"},
      {"ladder.l1_us_p50", l1, "us", "per event, due -> engine callback"},
      {"ladder.l2_us_p50", l2.notify_p50_us, "us", "per event, due -> PROGRESS, EventServer"},
      {"ladder.l3_us_p50", l3.notify_p50_us, "us", "per event, due -> PROGRESS, ClusterRouter"},
      {"ladder.engine_us_p50", l1 - l0, "us", "L1 - L0"},
      {"ladder.net_us_p50", l2.notify_p50_us - l1, "us", "L2 - L1"},
      {"ladder.cluster_us_p50", l3.notify_p50_us - l2.notify_p50_us, "us", "L3 - L2"},
      {"ladder.stage_sum_us_mean", l2.sampled_stage_sum_us, "us",
       "per traced event, L2 open loop, sum of its stages"},
      {"ladder.l2_us_mean", l2.sampled_notify_mean_us, "us",
       "per traced event, L2 open loop, due -> PROGRESS"},
      {"ladder.e2e_notify_us_p50", e2e_notify_p50_us, "us",
       "notify p50 of this run's forked SUT"},
      {"ladder.accounted_frac", accounted, "ratio",
       "L2 rung p50 / e2e notify p50"},
      {"ladder.stage_share", stage_share, "ratio",
       "ladder.stage_sum_us_mean / ladder.l2_us_mean"},
  });
  const bool rungs_ok = std::abs(accounted - 1) <= kRungTolerance;
  const bool stages_ok =
      stage_share >= kStageShareMin && stage_share <= kStageShareMax;
  std::printf("# ladder p50s: L0 %.1f  L1 %.1f  L2 %.1f  L3 %.1f us; "
              "L2 rung / e2e notify p50 = %.2f (tolerance 1 +- %.2f: %s); "
              "traced events' stage sum %.1f / notify %.1f us = %.2f (tolerance %.2f..%.2f: %s)\n",
              l0, l1, l2.notify_p50_us, l3.notify_p50_us, accounted, kRungTolerance,
              rungs_ok ? "within" : "OUTSIDE", l2.sampled_stage_sum_us,
              l2.sampled_notify_mean_us, stage_share,
              kStageShareMin, kStageShareMax, stages_ok ? "within" : "OUTSIDE");
  std::filesystem::remove_all(scratch);
  if (!rungs_ok || !stages_ok) {
    return Status::Internal("ladder accounting outside its tolerance");
  }
  return Status::OK();
}

}  // namespace perfbench
