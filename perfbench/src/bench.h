// Shared declarations of the perfbench load generator: workload table,
// seeded inputs with their reference match sets, the wire-level generator,
// the system-under-test process, and the traced layer ladder.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/be/catalog.h"
#include "src/be/event.h"
#include "src/be/expression.h"
#include "src/net/frame.h"
#include "src/net/server.h"

namespace perfbench {

using apcm::BooleanExpression;
using apcm::Event;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One named workload. Open-loop rates are pinned to 10-20% of the
/// closed-loop saturation measured on the reference host (see README.md).
struct WorkloadConfig {
  const char* name;
  bool window_book;      ///< single-window book (fanout-net) instead of BEGen
  uint32_t subs;         ///< stable subscription set
  uint32_t churn_pool;   ///< expressions the churn stream cycles through
  uint32_t churn_live;   ///< churn subscriptions kept live in steady state
  int sub_conns;         ///< subscriber connections the stable set is split over
  double publish_rate;   ///< open-loop publishes per second
  double churn_rate;     ///< open-loop SUBSCRIBE + UNSUBSCRIBE per second
};

const WorkloadConfig* FindWorkload(std::string_view name);

/// Attribute schema pinned into every SUT server ("a0".."aN-1").
std::vector<std::string> SchemaFor(const WorkloadConfig& config);

/// Seeded inputs of one run and their reference match sets.
struct Inputs {
  apcm::Catalog catalog;
  std::vector<BooleanExpression> subs;   ///< stable set, ids 0..n-1
  std::vector<std::string> sub_texts;    ///< Parser-grammar text of subs
  std::vector<BooleanExpression> churn;  ///< churn pool, ids 0..m-1
  std::vector<std::string> churn_texts;
  std::vector<Event> events;             ///< event pool
  std::vector<uint32_t> order;           ///< publish order over the pool
  /// Per pool event: ascending stable-set / churn-pool indices it matches.
  std::vector<std::vector<uint32_t>> ref;
  std::vector<std::vector<uint32_t>> churn_ref;
  double gen_s = 0;  ///< wall time of generation + reference computation

  const Event& EventAt(uint64_t k) const {
    return events[order[k % order.size()]];
  }
  uint32_t PoolAt(uint64_t k) const { return order[k % order.size()]; }
};

apcm::StatusOr<Inputs> MakeInputs(const WorkloadConfig& config,
                                  uint64_t seed);

/// Reference matcher: every expression whose rarest attribute the event
/// carries is evaluated with BooleanExpression::Matches (a sound filter: a
/// conjunction can only match an event that carries all its attributes).
std::vector<std::vector<uint32_t>> ReferenceMatches(
    const std::vector<BooleanExpression>& subs,
    const std::vector<Event>& events, int threads);

// ---------------------------------------------------------------------------
// Spans (traced runs only).

struct Span {
  const char* name;
  uint64_t id;      ///< event id (or op / batch index) shared by its spans
  int64_t start_ns;
  int64_t end_ns;
};

/// In-memory span log, written out once at the end of a traced run.
class SpanLog {
 public:
  /// Spans beyond `capacity` are dropped; the log never reallocates.
  void Reserve(size_t capacity) { spans_.reserve(capacity); }
  void Add(const char* name, uint64_t id, int64_t start_ns, int64_t end_ns) {
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back(Span{name, id, start_ns, end_ns});
    }
  }
  bool Write(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Wire-level generator.

/// One loopback connection speaking the frame protocol. The sender side
/// never waits for an ACK: responses are matched to requests by seq, which
/// the reader thread stamps into preallocated arrays.
struct Conn {
  explicit Conn(size_t capacity);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd = -1;
  apcm::net::FrameDecoder decoder;
  uint64_t next_seq = 1;  ///< sender side only
  // Reader side. Response slot seq (1-based) is written once.
  std::vector<int64_t> resp_ns;
  std::vector<uint64_t> resp_value;
  std::vector<uint8_t> resp_error;
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> errors{0};
  // Deques, not vectors: growth never copies, so the reader never stalls
  // on a reallocation while frames wait in the socket.
  /// PROGRESS watermarks (event id covered + 1) with their arrival time.
  std::deque<std::pair<uint64_t, int64_t>> progress;
  std::atomic<uint64_t> watermark{0};
  /// MATCH notifications flattened to (event id, client sub id).
  std::deque<std::pair<uint64_t, uint64_t>> matches;
  std::atomic<bool> broken{false};

  /// Encodes `frame` with the next seq and writes it (blocking). Returns
  /// the seq, or 0 when the connection failed or the slots ran out.
  uint64_t Send(apcm::net::Frame& frame);
  int64_t RespNs(uint64_t seq) const {
    return seq < resp_ns.size() ? resp_ns[seq] : 0;
  }
};

/// Connects to 127.0.0.1:port with `capacity` response slots.
apcm::StatusOr<std::unique_ptr<Conn>> Dial(int port, size_t capacity);

/// Reader thread: one epoll loop over every connection.
class Reader {
 public:
  explicit Reader(const std::vector<Conn*>& conns);
  ~Reader();
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Holds the reader off the connections' vectors while the caller reads
  /// them.
  std::unique_lock<std::mutex> Pause();

 private:
  void Loop();
  std::mutex mu_;
  int epfd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Time at which every follower's watermark covered event id `id`, or 0.
int64_t NotifyNs(const std::vector<Conn*>& followers, uint64_t id);

/// Waits until `pred` holds or `timeout_s` passes; true when it held.
template <typename Pred>
bool WaitFor(Pred pred, double timeout_s) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (!pred()) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// Pins the calling thread (and the threads it creates later) to the SUT's
/// CPUs (every CPU but the last) or to the generator's (the last one), so
/// the two never preempt each other. Rungs of the layer ladder keep the
/// same split: the layer's threads on the SUT's CPUs.
void PinCpus(bool sut);

/// Sleeps until the absolute steady-clock time `t_ns`.
void SleepUntil(int64_t t_ns);

/// A publish issued by the generator.
struct PubRec {
  Conn* conn;
  uint64_t seq;
  uint32_t pool;     ///< event pool index (reference row)
  int64_t due_ns;    ///< open loop: schedule slot; closed loop: send time
  int64_t sent_ns;
  int phase;  ///< 0 set-up, 1 open loop, 2 closed loop, 3 round-trip probe
};

/// A churn subscription's lifetime on the churn connection.
struct Incarnation {
  uint32_t expr;         ///< churn pool index
  uint64_t add_seq = 0;
  uint64_t rm_seq = 0;   ///< 0 while still live
  int64_t add_due = 0, add_sent = 0;
  int64_t rm_due = 0, rm_sent = 0;
};

/// Client sub ids >= this on the churn connection name incarnations.
inline constexpr uint64_t kChurnIdBase = uint64_t{1} << 40;

/// A generator session against one SUT port: connections, reader, the
/// records of every request it issued, and the oracle over them.
class Session {
 public:
  Session(const WorkloadConfig& config, const Inputs& inputs, int port,
          SpanLog* spans);
  ~Session();

  /// Opens connections, FOLLOWs, subscribes the stable set (pipelined),
  /// and publishes one priming event so the lazily built first index
  /// exists before the clock of any measured phase starts.
  apcm::Status Setup();

  struct OpenLoop {
    uint64_t events = 0;  ///< publishes sent
    std::vector<double> ack_us, notify_us;  ///< per event, in due order
    std::vector<uint64_t> event_ids;        ///< server event id per notify_us
    std::vector<double> sub_ack_us;         ///< per churn op, in due order
    double lag_p99_us = 0;
    double backlog_growth = 0;
    /// Every publish was ACKed and covered by every follower's PROGRESS.
    /// When not, Verify() counts the failures.
    bool complete = false;
    /// The generator kept its schedule and no backlog built up.
    bool valid = false;
  };
  /// Paced publishes plus the churn stream for `seconds`.
  OpenLoop RunOpenLoop(double seconds);

  /// Windowed publishers on `publishers` connections: `warmup_s`
  /// unmeasured, then `seconds` measured. Returns events/s counted once
  /// ACKed and covered by every watermark.
  double RunClosedLoop(double warmup_s, double seconds, int publishers,
                       size_t window, bool traced);

  /// Waits for every outstanding response and watermark, then checks
  /// every delivered notification against the reference.
  struct Verdict {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatched_events = 0;
    uint64_t checked_events = 0;
    Verdict& operator+=(const Verdict& o) {
      attempted += o.attempted;
      failed += o.failed;
      mismatched_events += o.mismatched_events;
      checked_events += o.checked_events;
      return *this;
    }
  };
  Verdict Verify();

  /// Sequential one-outstanding round trips (ladder rungs L2/L3).
  std::vector<double> PublishRtts(int count);
  std::vector<double> SubscribeRtts(int count);

  /// Plants one wrong delivered match, which the oracle must report.
  void PlantMismatch() { plant_mismatch_ = true; }

 private:
  uint64_t Publish(Conn* conn, uint64_t k, int64_t due, int phase);
  bool Drain(double timeout_s);

  const WorkloadConfig& config_;
  const Inputs& inputs_;
  int port_;
  SpanLog* spans_;
  std::vector<std::unique_ptr<Conn>> subs_conns_;
  std::unique_ptr<Conn> pub_;
  std::unique_ptr<Conn> churn_;
  std::vector<Conn*> followers_;  ///< the subscriber connections
  std::vector<Conn*> all_;        ///< followers, publisher, churn
  std::unique_ptr<Reader> reader_;
  std::deque<PubRec> pubs_;       ///< deque: senders never stall on growth
  std::deque<Incarnation> incs_;  ///< deque: references stay valid
  uint64_t next_event_ = 0;  ///< publish-order cursor
  uint64_t next_churn_expr_ = 0;
  uint64_t max_event_id_ = 0;
  bool plant_mismatch_ = false;
};

// ---------------------------------------------------------------------------
// System under test, run in its own process.

/// Serves the workload's SUT (one EventServer) until told to stop; the
/// `--serve` entry point.
int ServeMain(const WorkloadConfig& config, int cmd_fd, int resp_fd);

/// Parent-side handle on a SUT process started by fork + exec.
class SutProcess {
 public:
  SutProcess() = default;
  ~SutProcess();
  SutProcess(const SutProcess&) = delete;
  SutProcess& operator=(const SutProcess&) = delete;

  apcm::Status Start(const std::string& self_exe, const WorkloadConfig& config);
  int port() const { return port_; }
  int64_t start_ns() const { return start_ns_; }
  /// Blocks until every engine in the SUT has no snapshot build in flight.
  apcm::Status Quiesce();
  /// SUT process user+sys CPU microseconds and peak RSS (VmHWM) in KiB.
  apcm::Status Usage(double* cpu_us, double* hwm_kb);
  void Stop();

 private:
  apcm::StatusOr<std::string> Command(char cmd);
  pid_t pid_ = -1;
  int cmd_fd_ = -1;
  int resp_fd_ = -1;
  int port_ = 0;
  int64_t start_ns_ = 0;
};

/// The in-process SUT: one EventServer built like the served one (ladder
/// rung L2, and the `--serve` process), or a ClusterRouter over `backends`
/// such servers (rung L3).
class InProcessSut {
 public:
  InProcessSut(const WorkloadConfig& config, int backends);
  ~InProcessSut();
  apcm::Status Start();
  int port() const;
  /// No snapshot build in flight and an empty publish queue everywhere.
  bool Quiet() const;
  apcm::net::EventServer& server(size_t i) { return *servers_[i]; }
  size_t num_servers() const { return servers_.size(); }
  /// The router's registry, or null for a single server.
  apcm::MetricsRegistry* router_registry();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::vector<std::unique_ptr<apcm::net::EventServer>> servers_;
};

// ---------------------------------------------------------------------------
// Results.

/// Named metrics in print order: value, unit, scope (what one sample is).
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string scope;
};
using Metrics = std::vector<Metric>;

double Quantile(const std::vector<double>& sorted, double q);
/// Mean of the values between the lower and the upper quartile (the
/// middle three of five).
double InterquartileMean(std::vector<double> values);

/// Open-loop latencies are summarised per window: the phase is cut into
/// kWindows equal parts, and a percentile is the kWindowQuantile quantile
/// of the windows' percentiles, i.e. it comes from the best windows. On a
/// shared host, CPU steal from other tenants comes in bursts that slow
/// whole windows, often most of a run; this keeps the windows it spared.
inline constexpr size_t kWindows = 10;
inline constexpr double kWindowQuantile = 0.1;
double WindowedQuantile(const std::vector<double>& in_order, double q);

/// Traced run: replays the inputs down L0..L3 and appends per-layer
/// metrics. `e2e_notify_p50_us` comes from the same run's open loop.
apcm::Status RunLadder(const WorkloadConfig& config, const Inputs& inputs,
                       double rung_seconds, const std::string& scratch_dir,
                       double e2e_notify_p50_us, SpanLog* spans,
                       Metrics* out);

/// Metric value lookups over MetricsRegistry::Collect().
uint64_t CounterOf(const apcm::MetricsRegistry& registry,
                   std::string_view name);
apcm::Histogram HistogramOf(const apcm::MetricsRegistry& registry,
                            std::string_view name,
                            std::string_view labels = {});

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
