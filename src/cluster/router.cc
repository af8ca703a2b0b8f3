#include "src/cluster/router.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/base/failpoint.h"
#include "src/base/logging.h"
#include "src/base/macros.h"
#include "src/engine/exposition.h"
#include "src/net/net_io.h"

namespace apcm::cluster {

using net::Frame;
using net::FrameType;

namespace {

/// Idle poll interval; most wakeups arrive through the self-pipe.
constexpr int kPollIntervalMs = 20;
/// Per-connection read budget per loop pass.
constexpr size_t kReadBudgetBytes = 256 * 1024;
/// How long Stop() keeps flushing write queues before giving up.
constexpr auto kStopFlushDeadline = std::chrono::seconds(3);
/// Retained change-log depth (the full history's tail; seq numbers keep
/// counting past it).
constexpr size_t kChangeLogDepth = 1024;

void SetNonBlocking(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ClusterRouter::ClusterRouter(ClusterOptions options)
    : options_(std::move(options)) {
  m_backends_ = metrics_.AddGauge("apcm_cluster_backends",
                                  "Backends in the live topology.");
  m_clients_ =
      metrics_.AddGauge("apcm_cluster_clients", "Live client connections.");
  m_subscriptions_ = metrics_.AddGauge(
      "apcm_cluster_subscriptions",
      "Registered subscriptions across the whole topology.");
  m_frontier_ = metrics_.AddGauge(
      "apcm_cluster_frontier_events",
      "Global events fully merged and released to clients.");
  m_merge_buffer_ = metrics_.AddGauge(
      "apcm_cluster_merge_buffer_events",
      "Events holding buffered matches ahead of the merge frontier.");
  m_unacked_ = metrics_.AddGauge(
      "apcm_cluster_unacked_publishes",
      "Publishes admitted but not yet ACKed by every backend.");
  m_publishes_ = metrics_.AddCounter("apcm_cluster_publishes_total",
                                     "Publishes admitted from clients.");
  m_fanout_frames_ = metrics_.AddCounter(
      "apcm_cluster_fanout_frames_total",
      "PUBLISH frames sent to backends (fan-out plus resync replay).");
  m_client_acks_ = metrics_.AddCounter(
      "apcm_cluster_publish_acks_total",
      "Publishes ACKed to clients after every backend admitted them.");
  m_matches_merged_ = metrics_.AddCounter(
      "apcm_cluster_matches_merged_total",
      "Per-subscription match notifications merged from backends.");
  m_progress_frames_ = metrics_.AddCounter(
      "apcm_cluster_progress_frames_total",
      "PROGRESS watermarks forwarded to following clients.");
  m_repartitions_ = metrics_.AddCounter(
      "apcm_cluster_repartitions_total",
      "Topology changes (backend adds and removes) completed.");
  m_reconnects_ = metrics_.AddCounter(
      "apcm_cluster_backend_reconnects_total",
      "Backend connections lost and scheduled for resync.");
  m_backpressure_ = metrics_.AddCounter(
      "apcm_cluster_backpressure_events_total",
      "Times client reads paused on the unacked-publish bound.");
  m_slow_consumers_ = metrics_.AddCounter(
      "apcm_cluster_slow_consumer_disconnects_total",
      "Clients dropped because their write queue overflowed.");
  // Client sockets ride the shared epoll reactor; its instrument set lands
  // in the router's registry alongside the cluster series.
  reactor_metrics_.Register(metrics_);
  reactor_metrics_.bytes_in = metrics_.AddCounter(
      "apcm_net_bytes_in_total", "Bytes read from client connections.");
  reactor_metrics_.bytes_out = metrics_.AddCounter(
      "apcm_net_bytes_out_total", "Bytes written to client connections.");
  metrics_.AddGaugeFn("apcm_cluster_change_seq",
                      "Latest subscription change-log sequence number.",
                      [this] {
                        std::lock_guard<std::mutex> lock(snapshot_mu_);
                        return static_cast<int64_t>(snapshot_.change_seq);
                      });
}

ClusterRouter::~ClusterRouter() { Stop(); }

Status ClusterRouter::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) {
    return Status::InvalidArgument("cluster router already started");
  }
  if (options_.backends.empty()) {
    return Status::InvalidArgument("cluster needs at least one backend");
  }
  if (options_.backends.size() > 64) {
    return Status::InvalidArgument(
        "at most 64 backend slots (the publish ACK mask is 64-bit)");
  }
  if (options_.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  if (options_.io_threads < 1 || options_.io_threads > 64) {
    return Status::InvalidArgument("io_threads must be in [1, 64]");
  }

  map_ = std::make_unique<PartitionMap>(
      options_.num_partitions,
      static_cast<uint32_t>(options_.backends.size()));
  backends_.clear();
  for (size_t i = 0; i < options_.backends.size(); ++i) {
    backends_.push_back(std::make_unique<Backend>(
        options_.backends[i], static_cast<uint32_t>(i),
        options_.max_frame_bytes));
  }
  auto abort_backends = [this] {
    for (auto& b : backends_) {
      if (b->connected()) {
        ::close(b->fd);
        b->fd = -1;
      }
    }
    backends_.clear();
    map_.reset();
  };
  // A router that cannot reach its topology must not accept clients: every
  // backend connects (with retry) before the listen socket opens.
  for (auto& b : backends_) {
    Status connected = ConnectBackend(b.get());
    if (!connected.ok()) {
      Status failed(connected.code(),
                    "backend " + b->addr.host + ":" +
                        std::to_string(b->addr.port) + ": " +
                        connected.message());
      abort_backends();
      return failed;
    }
  }

  if (::pipe(wake_fds_) != 0) {
    const std::string error = std::strerror(errno);
    abort_backends();
    return Status::Internal("pipe: " + error);
  }
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);

  // The client-facing side is the shared epoll reactor (DESIGN.md §3.14):
  // it owns accept sharding, framing, and write batching, and posts decoded
  // frames into the inbox the router thread drains.
  net::ReactorOptions ropts;
  ropts.io_threads = options_.io_threads;
  ropts.port = options_.port;
  ropts.reuseport = options_.reuseport_accept;
  ropts.max_write_queue_bytes = options_.max_write_queue_bytes;
  ropts.max_frame_bytes = options_.max_frame_bytes;
  ropts.metrics = &reactor_metrics_;
  reactor_ = std::make_unique<net::Reactor>(
      ropts, static_cast<net::Reactor::Handler*>(this));
  phase_.store(Phase::kRunning, std::memory_order_relaxed);
  Status listening = reactor_->Start();
  if (!listening.ok()) {
    reactor_.reset();
    ::close(wake_fds_[0]);
    ::close(wake_fds_[1]);
    wake_fds_[0] = wake_fds_[1] = -1;
    abort_backends();
    return listening;
  }
  port_ = reactor_->port();
  {
    std::lock_guard<std::mutex> cmd_lock(command_mu_);
    commands_closed_ = false;
  }
  started_ = true;
  RefreshSnapshot();
  io_thread_ = std::thread([this] { IoLoop(); });
  StartAdmin();
  LogInfo("cluster router listening",
          {{"addr", "127.0.0.1"},
           {"port", port_},
           {"backends", backends_.size()},
           {"partitions", options_.num_partitions}});
  return Status::OK();
}

void ClusterRouter::Stop() {
  // lifecycle_mu_ held throughout: concurrent Stop() calls serialize, and
  // the I/O thread never takes this mutex, so the join cannot deadlock.
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_) return;
  phase_.store(Phase::kStopping, std::memory_order_release);
  WakeIoLoop();
  io_thread_.join();
  // Client write queues flush inside the reactor (same 3s deadline the old
  // loop enforced), then every client socket closes. Callbacks fired during
  // this window still post to the inbox; it is discarded below.
  if (reactor_ != nullptr) {
    reactor_->Stop(3000);
    reactor_.reset();
  }
  clients_.clear();
  pending_events_.clear();
  {
    std::lock_guard<std::mutex> inbox_lock(inbox_mu_);
    inbox_.clear();
  }
  if (admin_) admin_->Stop();
  {
    // Commands that slipped in after the loop's last drain would block
    // their caller forever; fail them and close the queue.
    std::lock_guard<std::mutex> cmd_lock(command_mu_);
    commands_closed_ = true;
    for (Command* cmd : commands_) {
      cmd->result = Status::FailedPrecondition("cluster router is stopping");
      cmd->done = true;
    }
    commands_.clear();
  }
  command_cv_.notify_all();

  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
  started_ = false;
  port_ = 0;
  LogInfo("cluster router stopped");
}

int ClusterRouter::admin_port() const { return admin_ ? admin_->port() : 0; }

Status ClusterRouter::AddBackend(const BackendAddress& addr) {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_) {
      return Status::FailedPrecondition("cluster router is not started");
    }
  }
  Command cmd;
  cmd.kind = Command::Kind::kAddBackend;
  cmd.addr = addr;
  {
    std::lock_guard<std::mutex> lock(command_mu_);
    if (commands_closed_) {
      return Status::FailedPrecondition("cluster router is stopping");
    }
    commands_.push_back(&cmd);
  }
  WakeIoLoop();
  std::unique_lock<std::mutex> lock(command_mu_);
  command_cv_.wait(lock, [&cmd] { return cmd.done; });
  return cmd.result;
}

Status ClusterRouter::RemoveBackend(uint32_t slot) {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_) {
      return Status::FailedPrecondition("cluster router is not started");
    }
  }
  Command cmd;
  cmd.kind = Command::Kind::kRemoveBackend;
  cmd.slot = slot;
  {
    std::lock_guard<std::mutex> lock(command_mu_);
    if (commands_closed_) {
      return Status::FailedPrecondition("cluster router is stopping");
    }
    commands_.push_back(&cmd);
  }
  WakeIoLoop();
  std::unique_lock<std::mutex> lock(command_mu_);
  command_cv_.wait(lock, [&cmd] { return cmd.done; });
  return cmd.result;
}

ClusterStatus ClusterRouter::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void ClusterRouter::WakeIoLoop() {
  const char byte = 0;
  // Nonblocking; EAGAIN means the pipe already holds a wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

// ---------------------------------------------------------------------------
// I/O loop

void ClusterRouter::IoLoop() {
  std::vector<pollfd> pfds;
  std::vector<Backend*> polled_backends;
  std::chrono::steady_clock::time_point stop_deadline{};
  bool stop_seen = false;
  for (;;) {
    const Phase phase = phase_.load(std::memory_order_acquire);
    if (phase == Phase::kStopping) {
      {
        // Fail topology commands still waiting: their quiesce can never
        // complete once the loop is shutting down.
        std::lock_guard<std::mutex> lock(command_mu_);
        for (Command* cmd : commands_) {
          cmd->result =
              Status::FailedPrecondition("cluster router is stopping");
          cmd->done = true;
        }
        commands_.clear();
      }
      command_cv_.notify_all();
      if (!stop_seen) {
        stop_seen = true;
        stop_deadline = std::chrono::steady_clock::now() + kStopFlushDeadline;
      }
      // Client queues flush inside the reactor (Stop() drives that after
      // the join); only the backend channel drains here.
      bool flushed = true;
      for (auto& b : backends_) {
        if (b->connected() && !b->outbox.empty()) flushed = false;
      }
      if (flushed || std::chrono::steady_clock::now() >= stop_deadline) break;
    } else {
      ExecuteCommands();
    }

    pfds.clear();
    polled_backends.clear();
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    for (auto& b : backends_) {
      if (!b->connected()) continue;
      short events = POLLIN;
      if (!b->outbox.empty()) events |= POLLOUT;
      pfds.push_back({b->fd, events, 0});
      polled_backends.push_back(b.get());
    }

    ::poll(pfds.data(), pfds.size(), kPollIntervalMs);

    if (pfds[0].revents & POLLIN) {
      char sink[256];
      while (::read(wake_fds_[0], sink, sizeof(sink)) > 0) {
      }
    }
    for (size_t i = 0; i < polled_backends.size(); ++i) {
      Backend* b = polled_backends[i];
      const short revents = pfds[1 + i].revents;
      if (!b->connected()) continue;  // doomed earlier this pass
      if (revents & (POLLOUT | POLLERR | POLLHUP)) {
        if (!FlushBackend(b)) continue;
        if ((revents & (POLLERR | POLLHUP)) && !(revents & POLLIN)) {
          DoomBackend(b, "backend hung up");
          continue;
        }
      }
      if (revents & POLLIN) ReadBackend(b);
    }

    ProcessClientEvents();
    if (phase == Phase::kRunning) {
      ReconnectBackends(NowMs());
      MaybeResumeClients();
    }
    RefreshSnapshot();
  }

  // Exit: the backend channel closes here; client sockets belong to the
  // reactor and close in Stop().
  for (auto& b : backends_) {
    if (b->connected()) {
      ::close(b->fd);
      b->fd = -1;
    }
  }
  RefreshSnapshot();
}

// ---------------------------------------------------------------------------
// Client gateway

void ClusterRouter::OnAccept(const net::Reactor::ConnPtr& conn) {
  ClientEvent event;
  event.kind = ClientEvent::Kind::kAccept;
  event.conn = conn;
  PostClientEvent(std::move(event));
}

void ClusterRouter::OnFrame(const net::Reactor::ConnPtr& conn, Frame frame) {
  ClientEvent event;
  event.kind = ClientEvent::Kind::kFrame;
  event.conn = conn;
  event.frame = std::move(frame);
  PostClientEvent(std::move(event));
}

void ClusterRouter::OnConnectionClosed(const net::Reactor::ConnPtr& conn,
                                       net::CloseReason reason) {
  ClientEvent event;
  event.kind = ClientEvent::Kind::kClosed;
  event.conn = conn;
  event.reason = reason;
  PostClientEvent(std::move(event));
}

void ClusterRouter::PostClientEvent(ClientEvent event) {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_.push_back(std::move(event));
  }
  WakeIoLoop();
}

void ClusterRouter::ProcessClientEvents() {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    while (!inbox_.empty()) {
      pending_events_.push_back(std::move(inbox_.front()));
      inbox_.pop_front();
    }
  }
  const Phase phase = phase_.load(std::memory_order_acquire);
  while (!pending_events_.empty()) {
    if (clients_paused_ && phase == Phase::kRunning &&
        pending_events_.front().kind == ClientEvent::Kind::kFrame) {
      // Backpressure: frames (and everything queued behind them) wait for
      // the unacked window to half-drain; the FIFO preserves order.
      return;
    }
    ClientEvent event = std::move(pending_events_.front());
    pending_events_.pop_front();
    switch (event.kind) {
      case ClientEvent::Kind::kAccept:
        if (phase != Phase::kRunning) {
          reactor_->Doom(event.conn, net::CloseReason::kShutdown);
          break;
        }
        HandleClientAccepted(event.conn);
        break;
      case ClientEvent::Kind::kFrame: {
        if (phase != Phase::kRunning) break;  // shutdown drops queued input
        ClientConn* conn = FindClient(event.conn->id());
        if (conn == nullptr) break;  // doomed or already closed
        DispatchClientFrame(conn, std::move(event.frame));
        break;
      }
      case ClientEvent::Kind::kClosed:
        HandleClientClosed(event.conn, event.reason);
        break;
    }
  }
}

void ClusterRouter::HandleClientAccepted(const net::Reactor::ConnPtr& rconn) {
  auto conn = std::make_unique<ClientConn>();
  conn->rconn = rconn;
  conn->id = rconn->id();
  if (clients_paused_) reactor_->PauseRead(rconn);
  if (LogEnabled(LogLevel::kDebug)) {
    LogDebug("client accepted", {{"conn", conn->id}});
  }
  clients_.emplace(conn->id, std::move(conn));
}

void ClusterRouter::HandleClientClosed(const net::Reactor::ConnPtr& rconn,
                                       net::CloseReason reason) {
  auto it = clients_.find(rconn->id());
  if (it == clients_.end()) return;
  std::unique_ptr<ClientConn> conn = std::move(it->second);
  clients_.erase(it);
  if (reason == net::CloseReason::kSlowConsumer) {
    m_slow_consumers_->Increment();
  }
  // Unregister the connection's subscriptions from their owners. Pending
  // (un-ACKed) registrations are cleaned up when their ACK arrives and
  // finds the origin gone.
  size_t removed = 0;
  for (const auto& [client_sub, global_sub] : conn->subs) {
    auto sub = subs_.find(global_sub);
    if (sub == subs_.end()) continue;
    BackendOp internal;
    SendUnsubscribe(backends_[sub->second.owner].get(), global_sub, internal);
    AppendChange(ChangeRecord::Kind::kRemove, global_sub, sub->second.owner,
                 sub->second.owner);
    subs_.erase(sub);
    ++removed;
  }
  if (LogEnabled(LogLevel::kDebug)) {
    LogDebug("client closed", {{"conn", conn->id},
                               {"reason", net::CloseReasonName(reason)},
                               {"subs_removed", removed}});
  }
}

void ClusterRouter::DispatchClientFrame(ClientConn* conn, Frame frame) {
  switch (frame.type) {
    case FrameType::kPublish:
      HandleClientPublish(conn, std::move(frame));
      return;
    case FrameType::kSubscribe:
      HandleClientSubscribe(conn, frame);
      return;
    case FrameType::kUnsubscribe:
      HandleClientUnsubscribe(conn, frame);
      return;
    case FrameType::kPing: {
      Frame pong;
      pong.type = FrameType::kPong;
      pong.seq = frame.seq;
      EnqueueClient(conn, pong);
      return;
    }
    case FrameType::kFollow:
      // Router-level followers get the *merge frontier* as their watermark
      // — composable with another router tier on top.
      conn->follower = true;
      SendClientAck(conn, frame.seq, 0);
      return;
    case FrameType::kUnknown:
      SendClientError(conn, frame.seq,
                      Status::Unimplemented(
                          "frame type " + std::to_string(frame.raw_type) +
                          " is not supported by this router"));
      return;
    case FrameType::kMatch:
    case FrameType::kAck:
    case FrameType::kError:
    case FrameType::kPong:
    case FrameType::kProgress:
      SendClientError(conn, frame.seq,
                      Status::InvalidArgument(
                          std::string(net::FrameTypeName(frame.type)) +
                          " frames are server-to-client only"));
      DoomClient(conn, net::CloseReason::kProtocolError);
      return;
  }
}

void ClusterRouter::HandleClientPublish(ClientConn* conn, Frame frame) {
  const uint64_t global_id = next_global_event_++;
  Inflight pub;
  pub.global_id = global_id;
  pub.event = std::move(frame.event);
  pub.origin_conn = conn->id;
  pub.client_seq = frame.seq;
  pub.trace_id = frame.trace_id;
  pub.awaiting_mask = LiveMask();
  inflight_.push_back(std::move(pub));
  ++unacked_publishes_;
  m_publishes_->Increment();
  // Chaos seam: stall or reorder the fan-out against backend reads.
  APCM_FAILPOINT("cluster.publish.fanout");
  const Inflight& admitted = inflight_.back();
  for (auto& b : backends_) {
    if (!b->in_topology) continue;
    // A disconnected member still owes an ACK (its mask bit is set); the
    // resync replay delivers the event once it is back.
    if (b->connected()) SendPublish(b.get(), admitted);
  }
  if (!clients_paused_ &&
      unacked_publishes_ >= options_.max_inflight_publishes) {
    // Router-level backpressure: stop reading every client until the
    // slowest backend catches up on ACKs. TCP pushes back from here;
    // frames the reactor already decoded wait in the inbox.
    clients_paused_ = true;
    PauseClientReads();
    m_backpressure_->Increment();
    if (LogEnabled(LogLevel::kDebug)) {
      LogDebug("client reads paused on unacked publishes",
               {{"unacked", unacked_publishes_}});
    }
  }
}

void ClusterRouter::HandleClientSubscribe(ClientConn* conn,
                                          const Frame& frame) {
  if (conn->subs.contains(frame.sub_id)) {
    SendClientError(conn, frame.seq,
                    Status::AlreadyExists("subscription id " +
                                          std::to_string(frame.sub_id) +
                                          " is already registered"));
    return;
  }
  const uint64_t global_sub = next_global_sub_++;
  // Local mapping first so pipelined duplicates are caught; rolled back if
  // the owner rejects the expression.
  conn->subs.emplace(frame.sub_id, global_sub);
  Backend* owner = backends_[map_->OwnerOf(global_sub)].get();
  BackendOp origin;
  origin.client_conn = conn->id;
  origin.client_seq = frame.seq;
  origin.client_sub_id = frame.sub_id;
  SendSubscribe(owner, global_sub, frame.expression, origin);
}

void ClusterRouter::HandleClientUnsubscribe(ClientConn* conn,
                                            const Frame& frame) {
  auto it = conn->subs.find(frame.sub_id);
  if (it == conn->subs.end()) {
    SendClientError(conn, frame.seq,
                    Status::NotFound("subscription id " +
                                     std::to_string(frame.sub_id) +
                                     " is not registered on this connection"));
    return;
  }
  const uint64_t global_sub = it->second;
  conn->subs.erase(it);
  // The sub may still be pending registration (subscribe un-ACKed): the
  // owner's FIFO serializes this behind it either way.
  uint32_t owner_slot = map_->OwnerOf(global_sub);
  auto sub = subs_.find(global_sub);
  if (sub != subs_.end()) owner_slot = sub->second.owner;
  BackendOp origin;
  origin.client_conn = conn->id;
  origin.client_seq = frame.seq;
  origin.client_sub_id = frame.sub_id;
  SendUnsubscribe(backends_[owner_slot].get(), global_sub, origin);
}

bool ClusterRouter::EnqueueClient(ClientConn* conn, const Frame& frame) {
  if (conn->doomed) return false;
  // The reactor enforces the write-queue bound and dooms slow consumers
  // itself (CloseReason::kSlowConsumer arrives via the inbox).
  return reactor_->Enqueue(conn->rconn, frame);
}

void ClusterRouter::SendClientAck(ClientConn* conn, uint64_t seq,
                                  uint64_t value) {
  Frame frame;
  frame.type = FrameType::kAck;
  frame.seq = seq;
  frame.value = value;
  EnqueueClient(conn, frame);
}

void ClusterRouter::SendClientError(ClientConn* conn, uint64_t seq,
                                    const Status& status) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.seq = seq;
  frame.code = status.code();
  frame.message = status.message();
  EnqueueClient(conn, frame);
}

void ClusterRouter::DoomClient(ClientConn* conn, net::CloseReason reason) {
  if (conn->doomed) return;
  conn->doomed = true;
  reactor_->Doom(conn->rconn, reason);  // teardown completes via kClosed
}

ClusterRouter::ClientConn* ClusterRouter::FindClient(uint64_t conn_id) {
  if (conn_id == 0) return nullptr;
  auto it = clients_.find(conn_id);
  if (it == clients_.end() || it->second->doomed) return nullptr;
  return it->second.get();
}

void ClusterRouter::PauseClientReads() {
  for (auto& [id, conn] : clients_) {
    if (!conn->doomed) reactor_->PauseRead(conn->rconn);
  }
}

void ClusterRouter::ResumeClientReads() {
  if (clients_paused_) return;  // the backpressure pause is still in force
  for (auto& [id, conn] : clients_) {
    if (!conn->doomed) reactor_->ResumeRead(conn->rconn);
  }
}

void ClusterRouter::MaybeResumeClients() {
  if (!clients_paused_) return;
  if (unacked_publishes_ > options_.max_inflight_publishes / 2) return;
  clients_paused_ = false;
  ResumeClientReads();
  // Frames that queued up behind the pause resume from the inbox on the
  // next ProcessClientEvents pass.
}

// ---------------------------------------------------------------------------
// Backend channel

Status ClusterRouter::ConnectBackend(Backend* backend) {
  APCM_CHECK(!backend->connected());
  // Chaos seam: fail a (re)connect before it touches the dialer.
  APCM_FAILPOINT_INJECT("cluster.connect", {
    return Status::IOError("injected backend connect failure (cluster.connect)");
  });
  net::RetryOptions retry = options_.backend_retry;
  retry.jitter_seed += backend->slot + 1;  // decorrelate the slots' jitter
  // First connect of a session (startup or join) gets the full retry
  // budget — the caller is blocked on it anyway. Reconnects run on the I/O
  // thread, which must not stall behind a down backend's backoff sleeps:
  // single attempt per pass, paced by retry_after_ms.
  if (backend->reconnects > 0) retry.max_attempts = 1;
  StatusOr<int> fd =
      net::DialTcpWithRetry(backend->addr.host, backend->addr.port, retry);
  if (!fd.ok()) return fd.status();
  SetNonBlocking(*fd);
  backend->fd = *fd;
  backend->decoder.Reset();
  backend->outbox.clear();
  backend->next_seq = 1;
  backend->offset_known = false;
  backend->id_offset = 0;
  backend->retry_after_ms = 0;

  // Session rebuild, in dependency order. Responses to the old connection
  // are gone; publishes replay from the inflight window and FOLLOW is
  // re-issued fresh, so only subscribe/unsubscribe ops carry over.
  std::deque<BackendOp> pending;
  for (BackendOp& op : backend->ops) {
    if (op.kind == OpKind::kSubscribe || op.kind == OpKind::kUnsubscribe) {
      pending.push_back(std::move(op));
    }
  }
  backend->ops.clear();

  // 1. FOLLOW, so every replayed and future event yields a PROGRESS
  //    watermark.
  Frame follow;
  follow.type = FrameType::kFollow;
  follow.seq = backend->next_seq++;
  EnqueueBackend(backend, follow);
  BackendOp follow_op;
  follow_op.kind = OpKind::kFollow;
  follow_op.seq = follow.seq;
  backend->ops.push_back(std::move(follow_op));

  // 2. Re-register every subscription this slot owns (ascending global id:
  //    the rebuild is deterministic).
  std::vector<uint64_t> owned;
  for (const auto& [global_sub, sub] : subs_) {
    if (sub.owner == backend->slot) owned.push_back(global_sub);
  }
  std::sort(owned.begin(), owned.end());
  for (uint64_t global_sub : owned) {
    BackendOp internal;
    SendSubscribe(backend, global_sub, subs_[global_sub].expression, internal);
  }

  // 3. Re-send subscribe/unsubscribe ops that were pending at the break, in
  //    their original order (an unsubscribe may target a sub step 2 just
  //    re-registered — the FIFO keeps that correct).
  for (BackendOp& op : pending) {
    if (op.kind == OpKind::kSubscribe) {
      SendSubscribe(backend, op.global_id, op.expression, op);
    } else {
      SendUnsubscribe(backend, op.global_id, op);
    }
  }

  // 4. Replay the retained window past this backend's notified watermark.
  //    The first ACK re-anchors id_offset; MATCH/PROGRESS frames stay
  //    dropped until then (offset_known is false), which is safe precisely
  //    because everything past the watermark is being reprocessed here.
  uint64_t replayed = 0;
  for (const Inflight& pub : inflight_) {
    if (pub.global_id < backend->notified_count) continue;
    SendPublish(backend, pub);
    ++replayed;
  }
  if (backend->reconnects > 0) {
    LogInfo("backend resynced", {{"slot", backend->slot},
                                 {"subs", owned.size()},
                                 {"pending_ops", pending.size()},
                                 {"replayed", replayed}});
  }
  return Status::OK();
}

void ClusterRouter::DoomBackend(Backend* backend, const char* reason) {
  if (!backend->connected()) return;
  LogWarning("backend connection lost; scheduling resync",
             {{"slot", backend->slot},
              {"port", backend->addr.port},
              {"reason", reason}});
  ::close(backend->fd);
  backend->fd = -1;
  backend->outbox.clear();
  backend->decoder.Reset();
  backend->offset_known = false;
  ++backend->reconnects;
  m_reconnects_->Increment();
  backend->retry_after_ms = NowMs();  // retry on the next loop pass
}

void ClusterRouter::ReconnectBackends(int64_t now_ms) {
  for (auto& b : backends_) {
    if (!b->in_topology || b->connected()) continue;
    if (now_ms < b->retry_after_ms) continue;
    Status connected = ConnectBackend(b.get());
    if (!connected.ok()) {
      // DialTcpWithRetry already backed off between attempts; wait one more
      // full window before burning another round.
      b->retry_after_ms = NowMs() + options_.backend_retry.max_backoff_ms;
      LogWarning("backend reconnect failed; will retry",
                 {{"slot", b->slot}, {"error", connected.ToString()}});
    }
  }
}

void ClusterRouter::ReadBackend(Backend* backend) {
  if (!backend->connected()) return;
  // Chaos seam: sever the backend channel at the read boundary.
  APCM_FAILPOINT_INJECT("cluster.backend.recv", {
    DoomBackend(backend, "injected recv failure (cluster.backend.recv)");
    return;
  });
  char buf[16 * 1024];
  size_t budget = kReadBudgetBytes;
  while (budget > 0) {
    const ssize_t n =
        net::InstrumentedRecv(net::IoSide::kClient, backend->fd, buf,
                              std::min(sizeof(buf), budget), 0);
    if (n == 0) {
      DoomBackend(backend, "backend closed connection");
      break;
    }
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        DoomBackend(backend, "recv from backend failed");
      }
      break;
    }
    budget -= static_cast<size_t>(n);
    backend->decoder.Append(buf, static_cast<size_t>(n));
  }
  while (backend->connected()) {
    StatusOr<std::optional<Frame>> next = backend->decoder.Next();
    if (!next.ok()) {
      DoomBackend(backend, "protocol error from backend");
      return;
    }
    if (!next->has_value()) return;
    HandleBackendFrame(backend, std::move(**next));
  }
}

void ClusterRouter::HandleBackendFrame(Backend* backend, Frame frame) {
  switch (frame.type) {
    case FrameType::kAck:
    case FrameType::kError: {
      if (backend->ops.empty()) {
        DoomBackend(backend, "response with no request outstanding");
        return;
      }
      BackendOp op = std::move(backend->ops.front());
      backend->ops.pop_front();
      if (op.seq != frame.seq) {
        // The FIFO and the wire disagree: this session cannot be trusted.
        DoomBackend(backend, "response correlation drift");
        return;
      }
      if (frame.type == FrameType::kAck) {
        HandleBackendAck(backend, op, frame);
      } else {
        HandleBackendError(backend, op, frame);
      }
      return;
    }
    case FrameType::kMatch: {
      // Pre-anchor frames carry the previous session's numbering; drop
      // them — the replay regenerates everything past the watermark.
      if (!backend->offset_known) return;
      const uint64_t global = frame.event_id + backend->id_offset;
      // Cross-session straggler: an event admitted on the *old* connection
      // can still be mid-pipeline in the backend engine and deliver its
      // MATCH after the new session anchored. Its old backend id maps below
      // the notified watermark under the new offset (legit frames never do:
      // a MATCH always precedes its event's PROGRESS), and the replayed
      // admission of the same event regenerates the match correctly.
      if (global < backend->notified_count) return;
      BufferMatch(global, frame.matches);
      return;
    }
    case FrameType::kProgress: {
      if (!backend->offset_known) return;
      const uint64_t notified = frame.event_id + backend->id_offset + 1;
      if (notified > backend->notified_count) {
        backend->notified_count = std::min(notified, next_global_event_);
        AdvanceFrontier();
      }
      return;
    }
    case FrameType::kPong:
    case FrameType::kUnknown:
      // PONG: we never ping backends, but tolerate it. Unknown: a newer
      // backend may emit frame types this router does not know; ignoring
      // them is the forward-compatible stance.
      return;
    case FrameType::kPublish:
    case FrameType::kSubscribe:
    case FrameType::kUnsubscribe:
    case FrameType::kPing:
    case FrameType::kFollow:
      DoomBackend(backend, "client-to-server frame from backend");
      return;
  }
}

void ClusterRouter::HandleBackendAck(Backend* backend, const BackendOp& op,
                                     const Frame& frame) {
  switch (op.kind) {
    case OpKind::kFollow:
      return;
    case OpKind::kPublish: {
      if (!backend->offset_known) {
        // Anchor: the backend assigns event ids densely in our send order,
        // so one ACK fixes the whole session's mapping.
        backend->id_offset = op.global_id - frame.value;
        backend->offset_known = true;
      } else if (frame.value + backend->id_offset != op.global_id) {
        DoomBackend(backend, "publish ack id drift");
        return;
      }
      Inflight* pub = FindInflight(op.global_id);
      if (pub == nullptr) return;  // retired by an earlier session's ack
      const uint64_t bit = uint64_t{1} << backend->slot;
      if ((pub->awaiting_mask & bit) == 0) return;  // resync duplicate
      pub->awaiting_mask &= ~bit;
      if (pub->awaiting_mask != 0) return;
      // Every partition durably admitted the event: the cluster-level ACK.
      --unacked_publishes_;
      if (!pub->errored) {
        if (ClientConn* origin = FindClient(pub->origin_conn)) {
          SendClientAck(origin, pub->client_seq, pub->global_id);
          m_client_acks_->Increment();
        }
      }
      TrimInflight();
      return;
    }
    case OpKind::kSubscribe: {
      if (op.client_conn == 0) return;  // replay/cutover: registry is ahead
      ClientConn* origin = FindClient(op.client_conn);
      if (origin == nullptr) {
        // Client vanished between request and ACK: undo on the backend.
        BackendOp internal;
        SendUnsubscribe(backend, op.global_id, internal);
        return;
      }
      GlobalSub sub;
      sub.client_conn = op.client_conn;
      sub.client_sub_id = op.client_sub_id;
      sub.expression = op.expression;
      sub.owner = backend->slot;
      sub.registered_at = next_global_event_;
      subs_.emplace(op.global_id, std::move(sub));
      AppendChange(ChangeRecord::Kind::kAdd, op.global_id, backend->slot,
                   backend->slot);
      // The router's sub id, not the backend's engine id: MATCH resolution
      // happens here.
      SendClientAck(origin, op.client_seq, op.global_id);
      return;
    }
    case OpKind::kUnsubscribe: {
      if (op.client_conn == 0) return;
      auto it = subs_.find(op.global_id);
      if (it != subs_.end()) {
        AppendChange(ChangeRecord::Kind::kRemove, op.global_id,
                     it->second.owner, it->second.owner);
        subs_.erase(it);
      }
      if (ClientConn* origin = FindClient(op.client_conn)) {
        SendClientAck(origin, op.client_seq, 0);
      }
      return;
    }
  }
}

void ClusterRouter::HandleBackendError(Backend* backend, const BackendOp& op,
                                       const Frame& frame) {
  Status status(frame.code, frame.message);
  switch (op.kind) {
    case OpKind::kFollow:
      // A backend that cannot FOLLOW cannot drive the merge frontier.
      LogWarning("backend rejected FOLLOW",
                 {{"slot", backend->slot}, {"error", status.ToString()}});
      DoomBackend(backend, "follow rejected");
      return;
    case OpKind::kPublish: {
      LogWarning("backend rejected publish", {{"slot", backend->slot},
                                              {"event", op.global_id},
                                              {"error", status.ToString()}});
      Inflight* pub = FindInflight(op.global_id);
      if (pub == nullptr) return;
      if (!pub->errored) {
        pub->errored = true;
        if (ClientConn* origin = FindClient(pub->origin_conn)) {
          SendClientError(origin, pub->client_seq, status);
        }
      }
      const uint64_t bit = uint64_t{1} << backend->slot;
      if ((pub->awaiting_mask & bit) == 0) return;
      pub->awaiting_mask &= ~bit;
      if (pub->awaiting_mask == 0) {
        --unacked_publishes_;
        TrimInflight();
      }
      return;
    }
    case OpKind::kSubscribe: {
      if (op.client_conn == 0) {
        LogWarning("internal subscribe failed",
                   {{"slot", backend->slot},
                    {"sub", op.global_id},
                    {"error", status.ToString()}});
        return;
      }
      if (ClientConn* origin = FindClient(op.client_conn)) {
        // Roll the speculative local mapping back.
        auto it = origin->subs.find(op.client_sub_id);
        if (it != origin->subs.end() && it->second == op.global_id) {
          origin->subs.erase(it);
        }
        SendClientError(origin, op.client_seq, status);
      }
      return;
    }
    case OpKind::kUnsubscribe: {
      if (op.client_conn == 0) return;  // NotFound after a resync is benign
      subs_.erase(op.global_id);  // keep the registry consistent either way
      if (ClientConn* origin = FindClient(op.client_conn)) {
        SendClientError(origin, op.client_seq, status);
      }
      return;
    }
  }
}

void ClusterRouter::EnqueueBackend(Backend* backend, const Frame& frame) {
  if (!backend->connected()) return;
  const std::string wire = EncodeFrame(frame);
  if (backend->outbox.size() + wire.size() > options_.max_write_queue_bytes) {
    // Cheaper to resync than to buffer without bound: the replay window
    // regenerates whatever this drop loses.
    DoomBackend(backend, "backend write queue overflow");
    return;
  }
  backend->outbox += wire;
}

void ClusterRouter::SendPublish(Backend* backend, const Inflight& publish) {
  Frame frame;
  frame.type = FrameType::kPublish;
  frame.seq = backend->next_seq++;
  frame.event = publish.event;
  frame.trace_id = publish.trace_id;
  EnqueueBackend(backend, frame);
  BackendOp op;
  op.kind = OpKind::kPublish;
  op.seq = frame.seq;
  op.global_id = publish.global_id;
  op.client_conn = publish.origin_conn;
  op.client_seq = publish.client_seq;
  backend->ops.push_back(std::move(op));
  m_fanout_frames_->Increment();
}

void ClusterRouter::SendSubscribe(Backend* backend, uint64_t global_sub,
                                  const std::string& expression,
                                  const BackendOp& origin) {
  BackendOp op = origin;
  op.kind = OpKind::kSubscribe;
  op.global_id = global_sub;
  op.expression = expression;
  op.seq = 0;
  if (backend->connected()) {
    Frame frame;
    frame.type = FrameType::kSubscribe;
    frame.seq = backend->next_seq++;
    frame.sub_id = global_sub;  // doubles as the backend-side client sub id
    frame.expression = expression;
    op.seq = frame.seq;
    EnqueueBackend(backend, frame);
  }
  // Disconnected: the op queues unsent; ConnectBackend re-sends it with a
  // fresh seq during the session rebuild.
  backend->ops.push_back(std::move(op));
}

void ClusterRouter::SendUnsubscribe(Backend* backend, uint64_t global_sub,
                                    const BackendOp& origin) {
  BackendOp op = origin;
  op.kind = OpKind::kUnsubscribe;
  op.global_id = global_sub;
  op.seq = 0;
  if (backend->connected()) {
    Frame frame;
    frame.type = FrameType::kUnsubscribe;
    frame.seq = backend->next_seq++;
    frame.sub_id = global_sub;
    op.seq = frame.seq;
    EnqueueBackend(backend, frame);
  }
  backend->ops.push_back(std::move(op));
}

bool ClusterRouter::FlushBackend(Backend* backend) {
  if (!backend->connected()) return false;
  // Chaos seam: sever the backend channel at the write boundary.
  APCM_FAILPOINT_INJECT("cluster.backend.send", {
    DoomBackend(backend, "injected send failure (cluster.backend.send)");
    return false;
  });
  while (!backend->outbox.empty()) {
    const ssize_t n = net::InstrumentedSend(net::IoSide::kClient, backend->fd,
                                            backend->outbox.data(),
                                            backend->outbox.size(),
                                            MSG_NOSIGNAL);
    if (n > 0) {
      backend->outbox.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    DoomBackend(backend, "send to backend failed");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Merge + frontier

void ClusterRouter::BufferMatch(uint64_t global_event,
                                const std::vector<uint64_t>& subs) {
  if (global_event < released_count_) return;  // late duplicate, already out
  if (subs.empty()) return;
  std::vector<uint64_t>& bucket = merge_buffer_[global_event];
  bucket.insert(bucket.end(), subs.begin(), subs.end());
  m_matches_merged_->Increment(subs.size());
}

void ClusterRouter::AdvanceFrontier() {
  uint64_t frontier = next_global_event_;
  for (const auto& b : backends_) {
    if (b->in_topology) frontier = std::min(frontier, b->notified_count);
  }
  if (frontier <= released_count_) return;
  while (released_count_ < frontier) {
    ReleaseEvent(released_count_);
    ++released_count_;
  }
  TrimInflight();
  // Publish the new frontier before any follower can see it: the reactor
  // may write the PROGRESS below at once, and a client that reads it and
  // then calls Snapshot() must not find an older released_count.
  RefreshSnapshot();
  // One coalesced PROGRESS per advance for router-level followers: the
  // watermark contract ("everything <= event_id is fully delivered") holds
  // for any granularity.
  Frame progress;
  progress.type = FrameType::kProgress;
  progress.event_id = released_count_ - 1;
  for (auto& [id, conn] : clients_) {
    if (!conn->follower) continue;
    EnqueueClient(conn.get(), progress);
    m_progress_frames_->Increment();
  }
}

void ClusterRouter::ReleaseEvent(uint64_t global_event) {
  // Chaos seam: delay a release to stress ordering under merge pressure.
  APCM_FAILPOINT("cluster.merge.release");
  auto buffered = merge_buffer_.find(global_event);
  if (buffered == merge_buffer_.end()) return;  // no subscriber matched
  std::vector<uint64_t> globals = std::move(buffered->second);
  merge_buffer_.erase(buffered);
  // Resync replay can contribute the same (event, sub) twice; collapse.
  std::sort(globals.begin(), globals.end());
  globals.erase(std::unique(globals.begin(), globals.end()), globals.end());

  std::vector<std::pair<ClientConn*, uint64_t>> targets;
  targets.reserve(globals.size());
  for (uint64_t global_sub : globals) {
    auto it = subs_.find(global_sub);
    if (it == subs_.end()) continue;  // unsubscribed mid-flight
    // Replay re-matches old events against an engine that now also holds
    // subscriptions registered after them; those matches never existed in
    // the global order and are filtered here.
    if (it->second.registered_at > global_event) continue;
    ClientConn* conn = FindClient(it->second.client_conn);
    if (conn == nullptr) continue;
    targets.emplace_back(conn, it->second.client_sub_id);
  }
  std::sort(targets.begin(), targets.end());
  Frame frame;
  frame.type = FrameType::kMatch;
  frame.event_id = global_event;
  for (size_t i = 0; i < targets.size();) {
    ClientConn* conn = targets[i].first;
    frame.matches.clear();
    for (; i < targets.size() && targets[i].first == conn; ++i) {
      frame.matches.push_back(targets[i].second);
    }
    frame.matches.erase(
        std::unique(frame.matches.begin(), frame.matches.end()),
        frame.matches.end());
    EnqueueClient(conn, frame);
  }
}

void ClusterRouter::TrimInflight() {
  // An entry retires once it is fully ACKed *and* the frontier passed it:
  // no backend can need it for replay anymore (resync only replays ids at
  // or past a watermark, and every watermark is >= the frontier).
  while (!inflight_.empty() && inflight_.front().awaiting_mask == 0 &&
         inflight_.front().global_id < released_count_) {
    inflight_.pop_front();
  }
}

ClusterRouter::Inflight* ClusterRouter::FindInflight(uint64_t global_id) {
  if (inflight_.empty() || global_id < inflight_.front().global_id) {
    return nullptr;
  }
  const uint64_t index = global_id - inflight_.front().global_id;
  if (index >= inflight_.size()) return nullptr;
  Inflight* pub = &inflight_[static_cast<size_t>(index)];
  APCM_CHECK(pub->global_id == global_id);  // the deque is dense, ascending
  return pub;
}

// ---------------------------------------------------------------------------
// Topology commands

void ClusterRouter::ExecuteCommands() {
  for (;;) {
    Command* cmd = nullptr;
    {
      std::lock_guard<std::mutex> lock(command_mu_);
      if (commands_.empty()) return;
      cmd = commands_.front();
      commands_.pop_front();
    }
    // Quiesce: client reads stop while a command runs (the old loop simply
    // did not poll them); frames the reactor already decoded wait in the
    // inbox until the cutover completes.
    PauseClientReads();
    Status result = cmd->kind == Command::Kind::kAddBackend
                        ? ExecuteAddBackend(cmd->addr)
                        : ExecuteRemoveBackend(cmd->slot);
    ResumeClientReads();
    {
      std::lock_guard<std::mutex> lock(command_mu_);
      cmd->result = std::move(result);
      cmd->done = true;
    }
    command_cv_.notify_all();
  }
}

Status ClusterRouter::ExecuteAddBackend(const BackendAddress& addr) {
  if (backends_.size() >= 64) {
    return Status::InvalidArgument(
        "cluster is at its 64-slot limit (the publish ACK mask is 64-bit)");
  }
  const int64_t deadline = NowMs() + options_.command_timeout_ms;
  // Quiesce: clients are not read while a command runs, so the stream
  // drains to full resolution — every publish ACKed, every match released.
  APCM_RETURN_NOT_OK(
      PumpBackendsUntil([this] { return Quiescent(); }, deadline));

  const uint32_t slot = static_cast<uint32_t>(backends_.size());
  backends_.push_back(
      std::make_unique<Backend>(addr, slot, options_.max_frame_bytes));
  Backend* joined = backends_.back().get();
  // Vacuously notified of everything so far: the slot never sees events
  // from before it joined, and must not hold the frontier back for them.
  joined->notified_count = next_global_event_;
  Status connected = ConnectBackend(joined);
  if (!connected.ok()) {
    backends_.pop_back();
    return Status(connected.code(), "backend " + addr.host + ":" +
                                        std::to_string(addr.port) + ": " +
                                        connected.message());
  }
  const std::vector<PartitionMap::Move> moves = map_->AddSlot();
  APCM_CHECK(map_->num_slots() == backends_.size());
  // Chaos seam: crash or stall between the join and the cutover.
  APCM_FAILPOINT("cluster.repartition.cutover");
  Status moved = MoveSubscriptions(moves, deadline);
  ++repartitions_done_;
  m_repartitions_->Increment();
  LogInfo("backend joined", {{"slot", slot},
                             {"host", addr.host},
                             {"port", addr.port},
                             {"partitions_moved", moves.size()}});
  RefreshSnapshot();
  return moved;
}

Status ClusterRouter::ExecuteRemoveBackend(uint32_t slot) {
  if (slot >= backends_.size()) {
    return Status::NotFound("no backend slot " + std::to_string(slot));
  }
  Backend* victim = backends_[slot].get();
  if (!victim->in_topology) {
    return Status::NotFound("backend slot " + std::to_string(slot) +
                            " was already removed");
  }
  if (map_->num_live() <= 1) {
    return Status::FailedPrecondition("cannot remove the last backend");
  }
  const int64_t deadline = NowMs() + options_.command_timeout_ms;
  APCM_RETURN_NOT_OK(
      PumpBackendsUntil([this] { return Quiescent(); }, deadline));

  // Out of the topology first: the frontier and future fan-outs no longer
  // include it, and a failure past this point degrades balance, never
  // coverage (each subscription keeps exactly one owner throughout).
  victim->in_topology = false;
  const std::vector<PartitionMap::Move> moves = map_->RemoveSlot(slot);
  // Chaos seam: crash or stall between the drain and the cutover.
  APCM_FAILPOINT("cluster.repartition.cutover");
  Status moved = MoveSubscriptions(moves, deadline);

  if (victim->connected()) {
    FlushBackend(victim);  // best-effort: the UNSUBSCRIBEs were pumped
    if (victim->connected()) {
      ::close(victim->fd);
      victim->fd = -1;
    }
  }
  victim->ops.clear();
  victim->outbox.clear();
  victim->decoder.Reset();
  ++repartitions_done_;
  m_repartitions_->Increment();
  LogInfo("backend removed", {{"slot", slot},
                              {"partitions_moved", moves.size()}});
  RefreshSnapshot();
  return moved;
}

Status ClusterRouter::MoveSubscriptions(
    const std::vector<PartitionMap::Move>& moves, int64_t deadline_ms) {
  if (moves.empty()) return Status::OK();
  std::map<uint32_t, std::vector<uint64_t>> by_partition;
  for (const auto& [global_sub, sub] : subs_) {
    by_partition[PartitionMap::PartitionOf(global_sub,
                                           map_->num_partitions())]
        .push_back(global_sub);
  }
  size_t moved = 0;
  for (const PartitionMap::Move& mv : moves) {
    auto bucket = by_partition.find(mv.partition);
    if (bucket == by_partition.end()) continue;
    std::sort(bucket->second.begin(), bucket->second.end());
    for (uint64_t global_sub : bucket->second) {
      GlobalSub& sub = subs_[global_sub];
      APCM_CHECK(sub.owner == mv.from);
      BackendOp internal;
      SendSubscribe(backends_[mv.to].get(), global_sub, sub.expression,
                    internal);
      // Cut over the moment the SUBSCRIBE is queued: the new owner's
      // connection FIFO guarantees it registers the subscription before it
      // sees any later publish, and the old owner's FIFO guarantees the
      // UNSUBSCRIBE below lands before any later publish there — so no
      // event is ever matched by zero or two owners.
      sub.owner = mv.to;
      AppendChange(ChangeRecord::Kind::kMove, global_sub, mv.from, mv.to);
      SendUnsubscribe(backends_[mv.from].get(), global_sub, internal);
      ++moved;
    }
  }
  // Completion (not correctness) gate: drain the cutover traffic so the
  // command returns with the topology fully settled.
  auto drained = [this] {
    for (const auto& b : backends_) {
      if (b->in_topology && !b->connected()) return false;
      if (b->connected() && !b->ops.empty()) return false;
    }
    return true;
  };
  APCM_RETURN_NOT_OK(PumpBackendsUntil(drained, deadline_ms));
  LogInfo("subscriptions repartitioned",
          {{"partitions", moves.size()}, {"subscriptions", moved}});
  return Status::OK();
}

Status ClusterRouter::PumpBackendsUntil(const std::function<bool()>& done,
                                        int64_t deadline_ms) {
  std::vector<pollfd> pfds;
  std::vector<Backend*> polled;
  while (!done()) {
    if (phase_.load(std::memory_order_acquire) != Phase::kRunning) {
      return Status::FailedPrecondition("cluster router is stopping");
    }
    const int64_t now = NowMs();
    if (now >= deadline_ms) {
      return Status::IOError(
          "topology change timed out waiting for the stream to drain");
    }
    ReconnectBackends(now);
    pfds.clear();
    polled.clear();
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    for (auto& b : backends_) {
      if (!b->connected()) continue;
      short events = POLLIN;
      if (!b->outbox.empty()) events |= POLLOUT;
      pfds.push_back({b->fd, events, 0});
      polled.push_back(b.get());
    }
    ::poll(pfds.data(), pfds.size(), kPollIntervalMs);
    if (pfds[0].revents & POLLIN) {
      char sink[256];
      while (::read(wake_fds_[0], sink, sizeof(sink)) > 0) {
      }
    }
    for (size_t i = 0; i < polled.size(); ++i) {
      Backend* b = polled[i];
      const short revents = pfds[1 + i].revents;
      if (!b->connected()) continue;
      if (revents & (POLLOUT | POLLERR | POLLHUP)) {
        if (!FlushBackend(b)) continue;
        if ((revents & (POLLERR | POLLHUP)) && !(revents & POLLIN)) {
          DoomBackend(b, "backend hung up");
          continue;
        }
      }
      if (revents & POLLIN) ReadBackend(b);
    }
  }
  return Status::OK();
}

bool ClusterRouter::Quiescent() const {
  for (const auto& b : backends_) {
    if (!b->in_topology) continue;
    if (!b->connected() || !b->ops.empty() || !b->outbox.empty()) return false;
  }
  return unacked_publishes_ == 0 && merge_buffer_.empty() &&
         released_count_ == next_global_event_;
}

void ClusterRouter::AppendChange(ChangeRecord::Kind kind, uint64_t sub,
                                 uint32_t from, uint32_t to) {
  ChangeRecord record;
  record.seq = next_change_seq_++;
  record.kind = kind;
  record.sub = sub;
  record.from = from;
  record.to = to;
  change_log_.push_back(record);
  if (change_log_.size() > kChangeLogDepth) change_log_.pop_front();
}

uint64_t ClusterRouter::LiveMask() const {
  uint64_t mask = 0;
  for (const auto& b : backends_) {
    if (b->in_topology) mask |= uint64_t{1} << b->slot;
  }
  return mask;
}

// ---------------------------------------------------------------------------
// Observability

void ClusterRouter::RefreshSnapshot() {
  ClusterStatus status;
  uint32_t live = 0;
  for (const auto& b : backends_) {
    ClusterStatus::BackendStatus bs;
    bs.slot = b->slot;
    bs.host = b->addr.host;
    bs.port = b->addr.port;
    bs.in_topology = b->in_topology;
    bs.connected = b->connected();
    bs.notified_count = b->notified_count;
    bs.pending_ops = b->ops.size();
    bs.reconnects = b->reconnects;
    bs.partitions =
        b->in_topology ? map_->PartitionsOf(b->slot).size() : 0;
    if (b->in_topology) ++live;
    status.backends.push_back(std::move(bs));
  }
  status.next_global_event = next_global_event_;
  status.released_count = released_count_;
  status.unacked_publishes = unacked_publishes_;
  status.merge_buffer_events = merge_buffer_.size();
  status.subscriptions = subs_.size();
  status.clients = clients_.size();
  status.repartitions = repartitions_done_;
  status.change_seq = next_change_seq_ - 1;

  m_backends_->Set(live);
  m_clients_->Set(static_cast<int64_t>(clients_.size()));
  m_subscriptions_->Set(static_cast<int64_t>(subs_.size()));
  m_frontier_->Set(static_cast<int64_t>(released_count_));
  m_merge_buffer_->Set(static_cast<int64_t>(merge_buffer_.size()));
  m_unacked_->Set(static_cast<int64_t>(unacked_publishes_));

  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(status);
}

std::string ClusterRouter::RenderClusterJson() const {
  const ClusterStatus s = Snapshot();
  std::string body = "{\"backends\":[";
  for (size_t i = 0; i < s.backends.size(); ++i) {
    const ClusterStatus::BackendStatus& b = s.backends[i];
    if (i > 0) body += ',';
    body += "{\"slot\":" + std::to_string(b.slot) + ",\"host\":\"" +
            engine::JsonEscape(b.host) +
            "\",\"port\":" + std::to_string(b.port) + ",\"in_topology\":" +
            (b.in_topology ? "true" : "false") + ",\"connected\":" +
            (b.connected ? "true" : "false") +
            ",\"notified_count\":" + std::to_string(b.notified_count) +
            ",\"pending_ops\":" + std::to_string(b.pending_ops) +
            ",\"reconnects\":" + std::to_string(b.reconnects) +
            ",\"partitions\":" + std::to_string(b.partitions) + "}";
  }
  body += "],\"next_global_event\":" + std::to_string(s.next_global_event) +
          ",\"released_count\":" + std::to_string(s.released_count) +
          ",\"unacked_publishes\":" + std::to_string(s.unacked_publishes) +
          ",\"merge_buffer_events\":" + std::to_string(s.merge_buffer_events) +
          ",\"subscriptions\":" + std::to_string(s.subscriptions) +
          ",\"clients\":" + std::to_string(s.clients) +
          ",\"repartitions\":" + std::to_string(s.repartitions) +
          ",\"change_seq\":" + std::to_string(s.change_seq) + "}\n";
  return body;
}

void ClusterRouter::StartAdmin() {
  if (options_.admin_port == 0) return;
  admin_ = std::make_unique<engine::AdminServer>();
  admin_->Handle("/metrics", [this](std::string_view) {
    return engine::AdminResponse{200,
                                 "text/plain; version=0.0.4; charset=utf-8",
                                 engine::RenderPrometheus(metrics_)};
  });
  admin_->Handle("/metrics.json", [this](std::string_view) {
    return engine::AdminResponse{200, "application/json",
                                 engine::RenderMetricsJson(metrics_)};
  });
  admin_->Handle("/cluster", [this](std::string_view) {
    return engine::AdminResponse{200, "application/json",
                                 RenderClusterJson()};
  });
  admin_->Handle("/healthz", [this](std::string_view) {
    return engine::AdminResponse{200, "text/plain; charset=utf-8", "ok\n"};
  });
  // Engine convention: negative = kernel-assigned ephemeral port.
  Status started =
      admin_->Start(options_.admin_port < 0 ? 0 : options_.admin_port);
  if (!started.ok()) {
    LogWarning("cluster admin server failed to start",
               {{"error", started.ToString()}});
    admin_.reset();
  }
}

}  // namespace apcm::cluster
