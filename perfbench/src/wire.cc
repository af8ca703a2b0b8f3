// The wire-level generator: loopback connections on the frame protocol, a
// single epoll reader, open-loop and windowed senders, and the oracle that
// checks every delivered notification against the reference.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/net/client.h"

namespace perfbench {

using apcm::Status;
using apcm::StatusOr;
using apcm::net::Frame;
using apcm::net::FrameType;

namespace {

constexpr size_t kPublishSlots = size_t{1} << 21;
// Open-loop validity: the generator kept its schedule and no backlog built.
constexpr double kMaxLagP99Us = 20'000;
constexpr double kMaxGrowth = 3.0;
constexpr size_t kSetupWindow = 2048;

double Us(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

/// Every request sent on `conns` has its response (or a connection broke).
bool AllResponded(const std::vector<Conn*>& conns) {
  for (const Conn* c : conns) {
    if (c->broken.load()) return true;
    if (c->responses.load(std::memory_order_acquire) < c->next_seq - 1) {
      return false;
    }
  }
  return true;
}

}  // namespace

void PinCpus(bool sut) {
  const unsigned ncpu = std::thread::hardware_concurrency();
  if (ncpu < 2) return;
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  for (unsigned c = sut ? 0 : ncpu - 1; c < (sut ? ncpu - 1 : ncpu); ++c) {
    CPU_SET(c, &cpus);
  }
  ::sched_setaffinity(0, sizeof(cpus), &cpus);
}

void SleepUntil(int64_t t_ns) {
  timespec ts{};
  ts.tv_sec = t_ns / 1'000'000'000;
  ts.tv_nsec = t_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double InterquartileMean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 4;
  double sum = 0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return values.empty() ? 0 : sum / static_cast<double>(values.size() - 2 * cut);
}

double WindowedQuantile(const std::vector<double>& in_order, double q) {
  const size_t w = in_order.size() / kWindows;
  std::vector<double> per_window;
  for (size_t i = 0; w > 0 && i < kWindows; ++i) {
    std::vector<double> window(in_order.begin() + i * w,
                               in_order.begin() + (i + 1) * w);
    std::sort(window.begin(), window.end());
    per_window.push_back(Quantile(window, q));
  }
  std::sort(per_window.begin(), per_window.end());
  return Quantile(per_window, kWindowQuantile);
}

// ---------------------------------------------------------------------------

Conn::Conn(size_t capacity)
    : resp_ns(capacity + 1, 0),
      resp_value(capacity + 1, 0),
      resp_error(capacity + 1, 0) {}

Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

uint64_t Conn::Send(Frame& frame) {
  if (broken.load(std::memory_order_relaxed) || next_seq >= resp_ns.size()) {
    return 0;
  }
  frame.seq = next_seq;
  const std::string bytes = apcm::net::EncodeFrame(frame);
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      broken.store(true);
      return 0;
    }
    off += static_cast<size_t>(n);
  }
  return next_seq++;
}

StatusOr<std::unique_ptr<Conn>> Dial(int port, size_t capacity) {
  APCM_ASSIGN_OR_RETURN(int fd, apcm::net::DialTcp("127.0.0.1", port));
  auto conn = std::make_unique<Conn>(capacity);
  conn->fd = fd;
  return conn;
}

Reader::Reader(const std::vector<Conn*>& conns) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  for (Conn* c : conns) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = c;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, c->fd, &ev);
  }
  thread_ = std::thread([this] { Loop(); });
}

Reader::~Reader() {
  stop_.store(true);
  thread_.join();
  ::close(epfd_);
}

std::unique_lock<std::mutex> Reader::Pause() {
  return std::unique_lock<std::mutex>(mu_);
}

void Reader::Loop() {
  std::vector<char> buf(1 << 16);
  epoll_event events[16];
  while (!stop_.load(std::memory_order_acquire)) {
    // Polls without blocking: an idle vCPU halts, and waking it is slow and
    // varies with the host's load. With a blocking wait, match-100k's ack
    // p50 read 120-245 us across SUT instances; polling, 100-120 us.
    const int n = ::epoll_wait(epfd_, events, 16, 0);
    if (n <= 0) {
      std::this_thread::yield();
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < n; ++i) {
      Conn* c = static_cast<Conn*>(events[i].data.ptr);
      for (;;) {
        const ssize_t r = ::recv(c->fd, buf.data(), buf.size(), MSG_DONTWAIT);
        if (r < 0 && errno == EINTR) continue;
        if (r <= 0) {
          if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
            c->broken.store(true);
            ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c->fd, nullptr);
          }
          break;
        }
        const int64_t t = NowNs();
        c->decoder.Append(buf.data(), static_cast<size_t>(r));
        for (;;) {
          auto next = c->decoder.Next();
          if (!next.ok()) {
            c->broken.store(true);
            ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c->fd, nullptr);
            break;
          }
          if (!next.value().has_value()) break;
          Frame& f = *next.value();
          switch (f.type) {
            case FrameType::kAck:
            case FrameType::kError:
            case FrameType::kPong:
              if (f.seq < c->resp_ns.size()) {
                c->resp_ns[f.seq] = t;
                c->resp_value[f.seq] = f.value;
                c->resp_error[f.seq] = f.type == FrameType::kError;
                if (f.type == FrameType::kError) {
                  c->errors.fetch_add(1, std::memory_order_relaxed);
                }
              }
              c->responses.fetch_add(1, std::memory_order_release);
              break;
            case FrameType::kMatch:
              for (uint64_t sub : f.matches) c->matches.push_back({f.event_id, sub});
              break;
            case FrameType::kProgress:
              c->progress.push_back({f.event_id + 1, t});
              c->watermark.store(f.event_id + 1, std::memory_order_release);
              break;
            default:
              break;
          }
        }
      }
    }
  }
}

int64_t NotifyNs(const std::vector<Conn*>& followers, uint64_t id) {
  int64_t latest = 0;
  for (const Conn* c : followers) {
    auto it = std::lower_bound(
        c->progress.begin(), c->progress.end(), id + 1,
        [](const std::pair<uint64_t, int64_t>& p, uint64_t v) {
          return p.first < v;
        });
    if (it == c->progress.end()) return 0;
    latest = std::max(latest, it->second);
  }
  return latest;
}

// ---------------------------------------------------------------------------

Session::Session(const WorkloadConfig& config, const Inputs& inputs, int port,
                 SpanLog* spans)
    : config_(config), inputs_(inputs), port_(port), spans_(spans) {}

Session::~Session() {
  reader_.reset();  // joins before the connections it reads go away
}

Status Session::Setup() {
  const size_t share = inputs_.subs.size() / config_.sub_conns + 1024;
  for (int c = 0; c < config_.sub_conns; ++c) {
    APCM_ASSIGN_OR_RETURN(auto conn, Dial(port_, share));
    followers_.push_back(conn.get());
    subs_conns_.push_back(std::move(conn));
  }
  APCM_ASSIGN_OR_RETURN(pub_, Dial(port_, kPublishSlots));
  APCM_ASSIGN_OR_RETURN(churn_, Dial(port_, kPublishSlots));
  all_ = followers_;
  all_.push_back(pub_.get());
  all_.push_back(churn_.get());
  reader_ = std::make_unique<Reader>(all_);

  for (Conn* c : followers_) {
    Frame follow;
    follow.type = FrameType::kFollow;
    if (c->Send(follow) == 0) return Status::IOError("FOLLOW send failed");
  }
  for (size_t i = 0; i < inputs_.subs.size(); ++i) {
    Conn* c = followers_[i % followers_.size()];
    while (c->next_seq - 1 - c->responses.load(std::memory_order_acquire) >=
           kSetupWindow) {
      if (c->broken.load()) return Status::IOError("subscriber connection broke");
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    Frame sub;
    sub.type = FrameType::kSubscribe;
    sub.sub_id = i;
    sub.expression = inputs_.sub_texts[i];
    if (c->Send(sub) == 0) return Status::IOError("SUBSCRIBE send failed");
  }
  if (!WaitFor([&] { return AllResponded(followers_); }, 120)) {
    return Status::IOError("timed out waiting for SUBSCRIBE ACKs");
  }
  for (Conn* c : followers_) {
    if (c->broken.load()) return Status::IOError("subscriber connection broke");
    if (c->errors.load() != 0) return Status::Internal("SUBSCRIBE refused");
  }
  // Priming publish: the engine builds its first snapshot at the first
  // round, so set-up ends only once one event has been fully processed.
  Publish(pub_.get(), next_event_++, 0, 0);
  if (!Drain(120)) return Status::IOError("priming publish never completed");
  return Status::OK();
}

uint64_t Session::Publish(Conn* conn, uint64_t k, int64_t due, int phase) {
  Frame f;
  f.type = FrameType::kPublish;
  f.event = inputs_.EventAt(k);
  const int64_t sent = NowNs();
  const uint64_t seq = conn->Send(f);
  pubs_.push_back(PubRec{conn, seq, inputs_.PoolAt(k), due != 0 ? due : sent,
                         sent, phase});
  return seq;
}

bool Session::Drain(double timeout_s) {
  if (!WaitFor([&] { return AllResponded(all_); }, timeout_s)) return false;
  uint64_t goal = 0;
  {
    auto lock = reader_->Pause();
    for (const PubRec& r : pubs_) {
      if (r.seq != 0 && r.conn->resp_ns[r.seq] != 0 && !r.conn->resp_error[r.seq]) {
        goal = std::max(goal, r.conn->resp_value[r.seq] + 1);
      }
    }
  }
  max_event_id_ = goal == 0 ? 0 : goal - 1;
  const bool covered = WaitFor(
      [&] {
        for (Conn* c : followers_) {
          if (c->broken.load()) return true;
          if (c->watermark.load(std::memory_order_acquire) < goal) return false;
        }
        return true;
      },
      timeout_s);
  if (!covered) return false;
  // Barrier for the churn connection's MATCH frames: its PONG is queued
  // after every MATCH the server enqueued before reading the PING.
  Frame ping;
  ping.type = FrameType::kPing;
  const uint64_t seq = churn_->Send(ping);
  return seq != 0 &&
         WaitFor([&] { return churn_->responses.load(std::memory_order_acquire) >= seq; },
                 timeout_s);
}

Session::OpenLoop Session::RunOpenLoop(double seconds) {
  const size_t first = pubs_.size();
  const size_t first_inc = incs_.size();
  const int64_t start = NowNs() + 2'000'000;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);

  std::thread churner([&] {
    if (config_.churn_rate <= 0) return;
    const double period = 1e9 / config_.churn_rate;
    std::deque<size_t> live;
    for (uint64_t j = 0;; ++j) {
      const int64_t due = start + static_cast<int64_t>(period * static_cast<double>(j));
      if (due >= end) break;
      SleepUntil(due);
      Frame f;
      if (live.size() < config_.churn_live) {
        Incarnation inc;
        inc.expr = static_cast<uint32_t>(next_churn_expr_++ % inputs_.churn.size());
        f.type = FrameType::kSubscribe;
        f.sub_id = kChurnIdBase + incs_.size();
        f.expression = inputs_.churn_texts[inc.expr];
        inc.add_due = due;
        inc.add_sent = NowNs();
        inc.add_seq = churn_->Send(f);
        live.push_back(incs_.size());
        incs_.push_back(inc);
      } else {
        Incarnation& inc = incs_[live.front()];
        f.type = FrameType::kUnsubscribe;
        f.sub_id = kChurnIdBase + live.front();
        live.pop_front();
        inc.rm_due = due;
        inc.rm_sent = NowNs();
        inc.rm_seq = churn_->Send(f);
      }
    }
  });
  const double period = 1e9 / config_.publish_rate;
  for (uint64_t i = 0;; ++i) {
    const int64_t due = start + static_cast<int64_t>(period * static_cast<double>(i));
    if (due >= end) break;
    SleepUntil(due);
    Publish(pub_.get(), next_event_++, due, 1);
  }
  churner.join();

  OpenLoop out;
  out.events = pubs_.size() - first;
  if (!Drain(30)) return out;  // incomplete: Verify() counts what is missing
  auto lock = reader_->Pause();
  std::vector<double> lag;
  for (size_t i = first; i < pubs_.size(); ++i) {
    const PubRec& r = pubs_[i];
    lag.push_back(Us(r.sent_ns - r.due_ns));
    const int64_t ack = r.conn->RespNs(r.seq);
    if (ack == 0 || r.conn->resp_error[r.seq]) continue;
    const uint64_t id = r.conn->resp_value[r.seq];
    out.ack_us.push_back(Us(ack - r.due_ns));
    const int64_t notify = NotifyNs(followers_, id);
    if (notify == 0) continue;
    out.notify_us.push_back(Us(notify - r.due_ns));
    out.event_ids.push_back(id);
    if (spans_ != nullptr) {
      spans_->Add("gen.send_wait", id, r.due_ns, r.sent_ns);
      spans_->Add("server.publish_ack", id, r.sent_ns, ack);
      spans_->Add("server.notify", id, r.sent_ns, notify);
    }
  }
  std::vector<std::pair<int64_t, double>> ops;  // (due, latency) of churn ops
  for (size_t i = first_inc; i < incs_.size(); ++i) {
    const Incarnation& inc = incs_[i];
    if (const int64_t t = churn_->RespNs(inc.add_seq); t != 0) {
      ops.push_back({inc.add_due, Us(t - inc.add_due)});
      if (spans_ != nullptr) spans_->Add("server.subscribe", i, inc.add_sent, t);
    }
    if (inc.rm_seq == 0) continue;
    if (const int64_t t = churn_->RespNs(inc.rm_seq); t != 0) {
      ops.push_back({inc.rm_due, Us(t - inc.rm_due)});
      if (spans_ != nullptr) spans_->Add("server.unsubscribe", i, inc.rm_sent, t);
    }
  }
  std::sort(ops.begin(), ops.end());
  for (const auto& op : ops) out.sub_ack_us.push_back(op.second);
  std::sort(lag.begin(), lag.end());
  out.lag_p99_us = Quantile(lag, 0.99);
  // Backlog check: median notify latency of the last window of the phase
  // against the first (a growing queue shows up as a ratio >> 1).
  const size_t w = out.notify_us.size() / kWindows;
  if (w > 0) {
    std::vector<double> head(out.notify_us.begin(), out.notify_us.begin() + w);
    std::vector<double> tail(out.notify_us.end() - w, out.notify_us.end());
    out.backlog_growth = Median(tail) / std::max(Median(head), 1e-3);
  }
  out.complete = out.notify_us.size() == out.events;
  out.valid = out.lag_p99_us < kMaxLagP99Us && out.backlog_growth < kMaxGrowth;
  return out;
}

double Session::RunClosedLoop(double warmup_s, double seconds, int publishers,
                              size_t window, bool traced) {
  Conn* conns[2] = {pub_.get(), churn_.get()};
  publishers = std::clamp(publishers, 1, 2);
  const int64_t begin = NowNs();
  const int64_t start = begin + static_cast<int64_t>(warmup_s * 1e9);
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::deque<PubRec>> recs(publishers);
  std::vector<std::deque<Span>> spans(publishers);
  std::atomic<uint64_t> cursor{next_event_};
  std::vector<std::thread> threads;
  for (int p = 0; p < publishers; ++p) {
    threads.emplace_back([&, p] {
      Conn* c = conns[p];
      const uint64_t base = c->responses.load(std::memory_order_acquire);
      uint64_t sent = 0;
      Frame f;
      f.type = FrameType::kPublish;
      while (NowNs() < end) {
        if (sent - (c->responses.load(std::memory_order_acquire) - base) >= window) {
          // Sleep, not yield: the reader shares this CPU and decodes the
          // responses that reopen the window.
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          continue;
        }
        const uint64_t k = cursor.fetch_add(1, std::memory_order_relaxed);
        f.event = inputs_.EventAt(k);
        const int64_t t = NowNs();
        const uint64_t seq = c->Send(f);
        if (seq == 0) break;
        recs[p].push_back(PubRec{c, seq, inputs_.PoolAt(k), t, t, 2});
        if (traced) spans[p].push_back(Span{"gen.closed_send", k, t, NowNs()});
        ++sent;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  next_event_ = cursor.load();
  const size_t first = pubs_.size();
  for (auto& r : recs) pubs_.insert(pubs_.end(), r.begin(), r.end());
  if (spans_ != nullptr) {
    for (auto& list : spans) {
      for (const Span& s : list) spans_->Add(s.name, s.id, s.start_ns, s.end_ns);
    }
  }
  if (!Drain(30)) return 0;
  // Completion time of each event: ACKed and covered by every watermark.
  // Under saturation the engine completes whole rounds (up to a full
  // queue) at once, so the rate is taken between the first and the last
  // completion instants of the measured span, over the events completing
  // after the first one.
  auto lock = reader_->Pause();
  std::vector<int64_t> done;
  for (size_t i = first; i < pubs_.size(); ++i) {
    const PubRec& r = pubs_[i];
    const int64_t ack = r.conn->RespNs(r.seq);
    if (ack == 0 || r.conn->resp_error[r.seq]) continue;
    const int64_t notify = NotifyNs(followers_, r.conn->resp_value[r.seq]);
    if (notify != 0) done.push_back(std::max(ack, notify));
  }
  std::sort(done.begin(), done.end());
  constexpr int64_t kBurstNs = 1'000'000;
  const auto a = std::lower_bound(done.begin(), done.end(), start);
  const auto b = std::lower_bound(done.begin(), done.end(), end);
  if (b - a < 2 || *(b - 1) - *a <= kBurstNs) return 0;
  const auto after = std::upper_bound(a, b, *a + kBurstNs);
  return static_cast<double>(b - after) /
         (static_cast<double>(*(b - 1) - *a) * 1e-9);
}

Session::Verdict Session::Verify() {
  Verdict v;
  const bool drained = Drain(30);
  auto lock = reader_->Pause();
  // Index publishes by server event id.
  std::vector<int64_t> rec_of(max_event_id_ + 1, -1);
  for (size_t i = 0; i < pubs_.size(); ++i) {
    const PubRec& r = pubs_[i];
    if (r.phase != 0) ++v.attempted;
    const int64_t ack = r.conn->RespNs(r.seq);
    if (r.seq == 0 || ack == 0 || r.conn->resp_error[r.seq]) {
      ++v.failed;
      continue;
    }
    const uint64_t id = r.conn->resp_value[r.seq];
    if (id < rec_of.size()) rec_of[id] = static_cast<int64_t>(i);
  }
  if (plant_mismatch_ && !followers_.empty()) {
    // One wrong match: the first event delivered a subscription that the
    // reference says it does not match.
    for (size_t id = 0; id < rec_of.size(); ++id) {
      if (rec_of[id] < 0) continue;
      const auto& expected = inputs_.ref[pubs_[rec_of[id]].pool];
      uint64_t bogus = 0;
      while (std::binary_search(expected.begin(), expected.end(), bogus)) {
        bogus += followers_.size();
      }
      followers_[0]->matches.push_back({id, bogus});
      break;
    }
  }
  std::vector<uint8_t> bad(rec_of.size(), 0);
  // Events whose PROGRESS never arrived on every follower.
  std::vector<int64_t> notify_of(rec_of.size(), 0);
  for (uint64_t id = 0; id < rec_of.size(); ++id) {
    if (rec_of[id] < 0) continue;
    notify_of[id] = NotifyNs(followers_, id);
    if (notify_of[id] == 0) bad[id] = 1;
  }
  // Stable set: every delivered set equals the reference exactly.
  const size_t nconn = followers_.size();
  for (size_t ci = 0; ci < nconn; ++ci) {
    auto& got = followers_[ci]->matches;
    std::sort(got.begin(), got.end());
    size_t pos = 0;
    for (uint64_t id = 0; id < rec_of.size(); ++id) {
      const size_t from = pos;
      while (pos < got.size() && got[pos].first == id) ++pos;
      if (rec_of[id] < 0) {
        if (pos != from) bad[id] = 1;
        continue;
      }
      const auto& expected = inputs_.ref[pubs_[rec_of[id]].pool];
      size_t g = from;
      for (uint32_t s : expected) {
        if (s % nconn != ci) continue;
        if (g >= pos || got[g].second != s) {
          bad[id] = 1;
          break;
        }
        ++g;
      }
      if (g != pos) bad[id] = 1;
    }
    if (pos < got.size()) ++v.failed;  // matches for unknown events
  }
  // Churn connection: exact outside each incarnation's in-flight windows.
  auto& churned = churn_->matches;
  std::sort(churned.begin(), churned.end());
  for (const auto& [id, client] : churned) {
    const uint64_t i = client - kChurnIdBase;
    if (client < kChurnIdBase || i >= incs_.size() || id >= rec_of.size() ||
        rec_of[id] < 0) {
      ++v.failed;
      continue;
    }
    const Incarnation& inc = incs_[i];
    const PubRec& r = pubs_[rec_of[id]];
    const auto& expected = inputs_.churn_ref[r.pool];
    const int64_t rm_ack = inc.rm_seq == 0 ? INT64_MAX : churn_->RespNs(inc.rm_seq);
    const bool dead = notify_of[id] < inc.add_sent || r.sent_ns > rm_ack;
    if (dead || !std::binary_search(expected.begin(), expected.end(), inc.expr)) {
      bad[id] = 1;
    }
  }
  std::vector<std::vector<size_t>> incs_of(inputs_.churn.size());
  for (size_t i = 0; i < incs_.size(); ++i) incs_of[incs_[i].expr].push_back(i);
  for (uint64_t id = 0; id < rec_of.size(); ++id) {
    if (rec_of[id] < 0) continue;
    const PubRec& r = pubs_[rec_of[id]];
    for (uint32_t k : inputs_.churn_ref[r.pool]) {
      for (size_t i : incs_of[k]) {
        const Incarnation& inc = incs_[i];
        const int64_t add_ack = churn_->RespNs(inc.add_seq);
        const int64_t rm_sent = inc.rm_seq == 0 ? INT64_MAX : inc.rm_sent;
        if (add_ack == 0 || r.sent_ns <= add_ack || notify_of[id] >= rm_sent) {
          continue;  // not definitely live for this event
        }
        const std::pair<uint64_t, uint64_t> want{id, kChurnIdBase + i};
        if (!std::binary_search(churned.begin(), churned.end(), want)) bad[id] = 1;
      }
    }
  }
  auto op_failed = [&](uint64_t seq) {
    return seq == 0 || churn_->RespNs(seq) == 0 || churn_->resp_error[seq] != 0;
  };
  for (const Incarnation& inc : incs_) {
    ++v.attempted;
    if (op_failed(inc.add_seq)) ++v.failed;
    if (inc.rm_sent == 0) continue;
    ++v.attempted;
    if (op_failed(inc.rm_seq)) ++v.failed;
  }
  for (uint64_t id = 0; id < rec_of.size(); ++id) {
    if (rec_of[id] < 0) continue;
    ++v.checked_events;
    if (bad[id]) ++v.mismatched_events;
  }
  v.failed += v.mismatched_events;
  if (!drained) ++v.failed;
  return v;
}

std::vector<double> Session::PublishRtts(int count) {
  std::vector<double> rtts;
  for (int i = 0; i < count; ++i) {
    const int64_t t0 = NowNs();
    const uint64_t seq = Publish(pub_.get(), next_event_++, 0, 3);
    if (seq == 0 ||
        !WaitFor([&] { return pub_->responses.load(std::memory_order_acquire) >= seq; }, 10)) {
      break;
    }
    rtts.push_back(Us(pub_->resp_ns[seq] - t0));
  }
  std::sort(rtts.begin(), rtts.end());
  return rtts;
}

std::vector<double> Session::SubscribeRtts(int count) {
  std::vector<double> rtts;
  const uint64_t base = kChurnIdBase + (uint64_t{1} << 30);
  for (int i = 0; i < count; ++i) {
    Frame f;
    f.type = FrameType::kSubscribe;
    f.sub_id = base + static_cast<uint64_t>(i);
    f.expression = inputs_.churn_texts[static_cast<size_t>(i) % inputs_.churn_texts.size()];
    const int64_t t0 = NowNs();
    const uint64_t seq = churn_->Send(f);
    if (seq == 0 ||
        !WaitFor([&] { return churn_->responses.load(std::memory_order_acquire) >= seq; }, 10)) {
      break;
    }
    rtts.push_back(Us(churn_->resp_ns[seq] - t0));
  }
  for (size_t i = 0; i < rtts.size(); ++i) {
    Frame f;
    f.type = FrameType::kUnsubscribe;
    f.sub_id = base + i;
    churn_->Send(f);
  }
  std::sort(rtts.begin(), rtts.end());
  return rtts;
}

}  // namespace perfbench
