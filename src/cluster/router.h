#ifndef APCM_CLUSTER_ROUTER_H_
#define APCM_CLUSTER_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/be/event.h"
#include "src/cluster/partition.h"
#include "src/engine/admin_server.h"
#include "src/net/client.h"
#include "src/net/frame.h"
#include "src/net/reactor.h"

namespace apcm::cluster {

/// One backend EventServer endpoint.
struct BackendAddress {
  std::string host = "127.0.0.1";
  int port = 0;
};

struct ClusterOptions {
  /// Initial backend topology (at least 1, at most 64 slots over the
  /// router's lifetime — slot liveness rides in a 64-bit ACK mask).
  std::vector<BackendAddress> backends;
  /// TCP port for client connections on 127.0.0.1 (0 = kernel-assigned).
  int port = 0;
  /// I/O threads for the client-facing reactor (1..64). Client sockets are
  /// served by the same epoll reactor that backs `net::EventServer`; the
  /// router's own thread keeps the backend channel and all stream state.
  int io_threads = 1;
  /// Shard the client listen socket across I/O threads with SO_REUSEPORT
  /// (falls back to a single accept thread where unsupported).
  bool reuseport_accept = true;
  /// Virtual partitions on the consistent-hash ring (see PartitionMap).
  /// More partitions = finer rebalance granularity; must not change over a
  /// cluster's life.
  uint32_t num_partitions = 64;
  /// Per-connection bound on buffered outgoing bytes (clients and
  /// backends); overflow dooms the connection (slow-consumer policy for
  /// clients, resync for backends).
  size_t max_write_queue_bytes = 4u << 20;
  /// Per-frame payload cap enforced on incoming frames.
  size_t max_frame_bytes = net::kMaxPayloadBytes;
  /// Dial policy for backend connects and reconnects.
  net::RetryOptions backend_retry;
  /// Localhost admin HTTP port (/cluster, /metrics, /healthz);
  /// 0 = disabled, negative = kernel-assigned ephemeral (engine convention).
  int admin_port = 0;
  /// Publishes admitted but not yet ACKed by every backend before client
  /// reads pause (router-level backpressure, resumed at half this bound).
  size_t max_inflight_publishes = 1024;
  /// Deadline for one topology change (quiesce + cutover).
  int command_timeout_ms = 30000;

  ClusterOptions() {
    backend_retry.max_attempts = 10;
    backend_retry.initial_backoff_ms = 20;
    backend_retry.max_backoff_ms = 500;
  }
};

/// Point-in-time view of the cluster for tests and the /cluster endpoint.
struct ClusterStatus {
  struct BackendStatus {
    uint32_t slot = 0;
    std::string host;
    int port = 0;
    bool in_topology = false;
    bool connected = false;
    uint64_t notified_count = 0;  ///< global events fully notified
    uint64_t pending_ops = 0;
    uint64_t reconnects = 0;
    uint64_t partitions = 0;  ///< partitions currently owned
  };
  std::vector<BackendStatus> backends;
  uint64_t next_global_event = 0;
  uint64_t released_count = 0;  ///< frontier: events merged + delivered
  uint64_t unacked_publishes = 0;
  uint64_t merge_buffer_events = 0;
  uint64_t subscriptions = 0;
  uint64_t clients = 0;
  uint64_t repartitions = 0;
  uint64_t change_seq = 0;
};

/// Router/front-end tier of the cluster (DESIGN.md §3.13). Owns the client
/// connections and consistent-hash-partitions subscriptions across N
/// backend `EventServer` processes, speaking the same frame protocol on
/// both sides:
///
///   - SUBSCRIBE: the router assigns a global subscription id, maps it to a
///     partition (PartitionMap, a stable hash of the id), and
///     registers it on the owning backend. The global id doubles as the
///     "client-chosen" sub id on the backend connection, so MATCH frames
///     come back self-describing.
///   - PUBLISH: fanned to every backend (each backend hosts many
///     partitions; every partition must see every event). The client is
///     ACKed only once *every* backend has ACKed — the router's ACK keeps
///     the single-node "durable admission promise", now across the whole
///     topology.
///   - MATCH: per-backend match streams are k-way-merged back into one
///     ascending-event-id stream per client. Backends emit one PROGRESS
///     watermark per processed event (FOLLOW handshake); the merge frontier
///     is the minimum watermark over the topology, and an event's merged
///     MATCH notifications are released exactly once, in global order, when
///     the frontier passes it.
///
/// Global event ids are dense from 0 in publish order — identical to a
/// single engine fed the same stream, which is what the differential oracle
/// (cluster_router_test) asserts. Each backend connection carries publishes
/// in that same order, so `global id = backend event id + offset`; the
/// offset is learned from the first publish ACK after each (re)connect.
///
/// Topology changes (AddBackend/RemoveBackend) quiesce the stream (pause
/// client reads, drain every in-flight publish to full resolution), then
/// re-partition through the seq-numbered change log: each moved
/// subscription is registered on its new owner, recorded, and only then
/// removed from the old owner — an atomic per-subscription cutover, so no
/// event can be matched by zero or two owners.
///
/// A broken backend connection resyncs on reconnect: re-FOLLOW,
/// re-SUBSCRIBE every owned subscription, re-send still-pending
/// subscribe/unsubscribe ops, and re-publish every event past the backend's
/// notified watermark (retained in the replay window until the frontier
/// passes them). Duplicate MATCHes from reprocessing dedupe in the merge
/// buffer, so delivered match sets are unchanged.
///
/// Threading splits along the trust boundary. Client sockets live on the
/// shared epoll reactor (`net::Reactor`, DESIGN.md §3.14) — N I/O threads
/// own accept, framing, and write batching, and feed decoded frames into a
/// mutexed inbox. The router's own thread drains that inbox, runs a poll
/// loop over the backend connections and a self-wake pipe, and owns every
/// piece of stream state (inflight window, merge buffer, topology).
/// Outgoing client frames go through the reactor's thread-safe Enqueue.
/// AddBackend/RemoveBackend may be called from any thread; they post a
/// command the router thread executes and block until it completes.
class ClusterRouter : private net::Reactor::Handler {
 public:
  explicit ClusterRouter(ClusterOptions options);
  ~ClusterRouter();

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// Connects every backend (with retry), then binds 127.0.0.1:port and
  /// launches the I/O thread (and the admin server when configured).
  Status Start();

  /// Flushes client write queues best-effort and shuts down (idempotent).
  void Stop();

  /// The bound client port once Start succeeded, else 0.
  int port() const { return port_; }
  /// The bound admin port (0 when disabled).
  int admin_port() const;

  /// Adds a backend to the live topology: quiesces the stream, connects,
  /// steals a fair share of partitions, and replays the moved
  /// subscriptions to the new owner through the change log. Blocks until
  /// the cutover completes (command_timeout_ms).
  Status AddBackend(const BackendAddress& addr);

  /// Removes slot `slot` from the topology after draining: its partitions
  /// and subscriptions move to the survivors, then the connection closes.
  /// The last live backend cannot be removed.
  Status RemoveBackend(uint32_t slot);

  /// Snapshot of topology and stream state (safe from any thread).
  ClusterStatus Snapshot() const;

  MetricsRegistry& metrics_registry() { return metrics_; }

 private:
  enum class Phase : int { kRunning = 0, kStopping = 1 };

  /// Request kinds the router has outstanding on a backend connection.
  /// Responses (ACK/ERROR/PONG) arrive in request order, so a FIFO per
  /// backend is the whole correlation state.
  enum class OpKind : uint8_t {
    kPublish,
    kSubscribe,
    kUnsubscribe,
    kFollow,
  };

  struct BackendOp {
    OpKind kind = OpKind::kFollow;
    uint64_t seq = 0;        ///< seq sent to the backend
    uint64_t global_id = 0;  ///< publish: global event id; subs: global sub
    uint64_t client_conn = 0;  ///< origin client conn id (0 = internal)
    uint64_t client_seq = 0;
    uint64_t client_sub_id = 0;
    std::string expression;  ///< kSubscribe: retained for resync replay
  };

  struct Backend {
    BackendAddress addr;
    uint32_t slot = 0;
    bool in_topology = true;
    int fd = -1;
    net::FrameDecoder decoder;
    std::string outbox;
    uint64_t next_seq = 1;
    std::deque<BackendOp> ops;  ///< FIFO of outstanding requests
    /// True until the first publish ACK after (re)connect fixes id_offset;
    /// MATCH/PROGRESS frames are dropped meanwhile (they may carry event
    /// ids from the previous connection's numbering — everything past the
    /// notified watermark is re-sent, so nothing is lost).
    bool offset_known = false;
    uint64_t id_offset = 0;  ///< global id = backend event id + id_offset
    /// Global events this backend has fully notified (MATCH frames all
    /// received): the PROGRESS watermark + 1, in global numbering.
    uint64_t notified_count = 0;
    uint64_t reconnects = 0;
    int64_t retry_after_ms = 0;  ///< steady-clock ms; 0 = not waiting

    Backend(BackendAddress address, uint32_t s, size_t max_frame_bytes)
        : addr(std::move(address)), slot(s), decoder(max_frame_bytes) {}
    bool connected() const { return fd >= 0; }
  };

  /// Router-side view of one client connection. The socket, decoder, and
  /// write queue live inside the reactor; this holds only the protocol
  /// state the router thread owns.
  struct ClientConn {
    net::Reactor::ConnPtr rconn;
    uint64_t id = 0;
    /// Doom requested; the reactor's kClosed event finishes the teardown.
    bool doomed = false;
    bool follower = false;
    /// client-chosen sub id -> global sub id.
    std::unordered_map<uint64_t, uint64_t> subs;
  };

  /// One reactor callback, replayed on the router thread in arrival order
  /// (per-connection order is exact: the reactor serializes a connection's
  /// callbacks on its owner thread, and the inbox is a single FIFO).
  struct ClientEvent {
    enum class Kind : uint8_t { kAccept, kFrame, kClosed };
    Kind kind = Kind::kAccept;
    net::Reactor::ConnPtr conn;
    net::Frame frame;
    net::CloseReason reason = net::CloseReason::kPeerClosed;
  };

  /// One registered subscription, owned by `owner`'s partition.
  struct GlobalSub {
    uint64_t client_conn = 0;
    uint64_t client_sub_id = 0;
    std::string expression;
    uint32_t owner = 0;  ///< backend slot
    /// next_global_event_ at registration: the first global event this
    /// subscription may match. Resync replay re-publishes events to an
    /// engine that now holds subscriptions registered *after* them; the
    /// merge layer filters those early matches so the delivered stream is
    /// identical to a single engine fed the same request order.
    uint64_t registered_at = 0;
  };

  /// A published event between admission and retirement: awaiting backend
  /// ACKs (awaiting_mask) and retained for resync replay until the merge
  /// frontier passes it.
  struct Inflight {
    uint64_t global_id = 0;
    Event event;
    uint64_t origin_conn = 0;  ///< client conn id (0 once the client died)
    uint64_t client_seq = 0;
    uint64_t trace_id = 0;       ///< client-supplied trace id (0 = none)
    uint64_t awaiting_mask = 0;  ///< bit per slot still owed an ACK
    bool errored = false;        ///< some backend rejected; no client ACK
  };

  /// Seq-numbered subscription change log entry (the re-partition path and
  /// /cluster debugging). kMove records carry both owners.
  struct ChangeRecord {
    uint64_t seq = 0;
    enum class Kind : uint8_t { kAdd, kRemove, kMove } kind = Kind::kAdd;
    uint64_t sub = 0;
    uint32_t from = 0;
    uint32_t to = 0;
  };

  struct Command {
    enum class Kind { kAddBackend, kRemoveBackend } kind = Kind::kAddBackend;
    BackendAddress addr;
    uint32_t slot = 0;
    Status result;
    bool done = false;
  };

  // I/O loop ----------------------------------------------------------------
  void IoLoop();
  void WakeIoLoop();

  // Client gateway ----------------------------------------------------------
  // Reactor::Handler overrides run on reactor I/O threads; they only post
  // to the inbox and wake the router thread.
  void OnAccept(const net::Reactor::ConnPtr& conn) override;
  void OnFrame(const net::Reactor::ConnPtr& conn, net::Frame frame) override;
  void OnConnectionClosed(const net::Reactor::ConnPtr& conn,
                          net::CloseReason reason) override;
  void PostClientEvent(ClientEvent event);
  /// Drains the inbox and replays client events on the router thread.
  /// Frames stop at the backpressure pause (FIFO order holds; they resume
  /// from the same queue).
  void ProcessClientEvents();
  void HandleClientAccepted(const net::Reactor::ConnPtr& rconn);
  void HandleClientClosed(const net::Reactor::ConnPtr& rconn,
                          net::CloseReason reason);
  void DispatchClientFrame(ClientConn* conn, net::Frame frame);
  void HandleClientPublish(ClientConn* conn, net::Frame frame);
  void HandleClientSubscribe(ClientConn* conn, const net::Frame& frame);
  void HandleClientUnsubscribe(ClientConn* conn, const net::Frame& frame);
  bool EnqueueClient(ClientConn* conn, const net::Frame& frame);
  void SendClientAck(ClientConn* conn, uint64_t seq, uint64_t value);
  void SendClientError(ClientConn* conn, uint64_t seq, const Status& status);
  void DoomClient(ClientConn* conn, net::CloseReason reason);
  ClientConn* FindClient(uint64_t conn_id);
  /// Pauses reads on every live client (backpressure and topology-command
  /// quiesce both ride this).
  void PauseClientReads();
  /// Undoes PauseClientReads unless the backpressure pause is in force.
  void ResumeClientReads();
  /// Lifts the router-level publish backpressure pause once the unacked
  /// window has half-drained; queued frames resume from the inbox.
  void MaybeResumeClients();

  // Backend channel ---------------------------------------------------------
  /// Dials (with retry) and rebuilds the backend's session: FOLLOW, owned
  /// subscriptions, pending sub/unsub ops, and the replay window past its
  /// notified watermark. Used for the initial connect, reconnects, and
  /// joins alike. On dial failure schedules a later retry and returns it.
  Status ConnectBackend(Backend* backend);
  void DoomBackend(Backend* backend, const char* reason);
  void ReadBackend(Backend* backend);
  void HandleBackendFrame(Backend* backend, net::Frame frame);
  void HandleBackendAck(Backend* backend, const BackendOp& op,
                        const net::Frame& frame);
  void HandleBackendError(Backend* backend, const BackendOp& op,
                          const net::Frame& frame);
  void EnqueueBackend(Backend* backend, const net::Frame& frame);
  void SendPublish(Backend* backend, const Inflight& publish);
  void SendSubscribe(Backend* backend, uint64_t global_sub,
                     const std::string& expression, const BackendOp& origin);
  void SendUnsubscribe(Backend* backend, uint64_t global_sub,
                       const BackendOp& origin);
  bool FlushBackend(Backend* backend);
  /// Reconnects any doomed/disconnected topology member whose retry delay
  /// has elapsed.
  void ReconnectBackends(int64_t now_ms);

  // Merge + frontier --------------------------------------------------------
  void BufferMatch(uint64_t global_event, const std::vector<uint64_t>& subs);
  void AdvanceFrontier();
  void ReleaseEvent(uint64_t global_event);
  /// Retires fully-ACKed inflight entries the frontier has passed.
  void TrimInflight();
  Inflight* FindInflight(uint64_t global_id);

  // Topology commands -------------------------------------------------------
  void ExecuteCommands();
  Status ExecuteAddBackend(const BackendAddress& addr);
  Status ExecuteRemoveBackend(uint32_t slot);
  /// Drives backend I/O only (clients stay paused) until `done` returns
  /// true or the command deadline expires.
  Status PumpBackendsUntil(const std::function<bool()>& done,
                           int64_t deadline_ms);
  bool Quiescent() const;
  /// Moves every subscription of the given partition moves to its new
  /// owner: SUBSCRIBE on the new owner, record the move, UNSUBSCRIBE on the
  /// old — pumped to completion per batch.
  Status MoveSubscriptions(const std::vector<PartitionMap::Move>& moves,
                           int64_t deadline_ms);
  void AppendChange(ChangeRecord::Kind kind, uint64_t sub, uint32_t from,
                    uint32_t to);

  uint64_t LiveMask() const;
  void RefreshSnapshot();
  std::string RenderClusterJson() const;
  void StartAdmin();

  ClusterOptions options_;

  // Lifecycle.
  std::mutex lifecycle_mu_;
  bool started_ = false;
  std::atomic<Phase> phase_{Phase::kRunning};
  int wake_fds_[2] = {-1, -1};
  int port_ = 0;
  std::thread io_thread_;

  // Client gateway (reactor threads produce, router thread consumes).
  net::ReactorMetrics reactor_metrics_;
  std::unique_ptr<net::Reactor> reactor_;
  std::mutex inbox_mu_;
  std::deque<ClientEvent> inbox_;          // guarded by inbox_mu_
  std::deque<ClientEvent> pending_events_;  // router thread only

  // Topology + stream state (router thread only, except where noted).
  std::unique_ptr<PartitionMap> map_;
  std::vector<std::unique_ptr<Backend>> backends_;  ///< index = slot
  std::unordered_map<uint64_t, std::unique_ptr<ClientConn>> clients_;  ///< id
  uint64_t next_global_event_ = 0;
  uint64_t next_global_sub_ = 1;
  std::unordered_map<uint64_t, GlobalSub> subs_;  ///< by global sub id
  std::deque<Inflight> inflight_;  ///< ascending global_id
  uint64_t unacked_publishes_ = 0;
  bool clients_paused_ = false;
  /// global event id -> merged global sub ids (unsorted, may hold resync
  /// duplicates; deduped at release).
  std::map<uint64_t, std::vector<uint64_t>> merge_buffer_;
  uint64_t released_count_ = 0;  ///< frontier: events released in order
  std::deque<ChangeRecord> change_log_;
  uint64_t next_change_seq_ = 1;
  uint64_t repartitions_done_ = 0;

  // Commands (any thread -> I/O thread).
  std::mutex command_mu_;
  std::condition_variable command_cv_;
  std::deque<Command*> commands_;
  /// Set by Stop() after the I/O thread exits: a command enqueued past that
  /// point would never be drained, so enqueue fails fast instead.
  bool commands_closed_ = false;  // guarded by command_mu_

  // Snapshot for admin/tests (RefreshSnapshot under snapshot_mu_).
  mutable std::mutex snapshot_mu_;
  ClusterStatus snapshot_;

  // Metrics (registry outlives the I/O thread).
  MetricsRegistry metrics_;
  Gauge* m_backends_ = nullptr;
  Gauge* m_clients_ = nullptr;
  Gauge* m_subscriptions_ = nullptr;
  Gauge* m_frontier_ = nullptr;
  Gauge* m_merge_buffer_ = nullptr;
  Gauge* m_unacked_ = nullptr;
  Counter* m_publishes_ = nullptr;
  Counter* m_fanout_frames_ = nullptr;
  Counter* m_client_acks_ = nullptr;
  Counter* m_matches_merged_ = nullptr;
  Counter* m_progress_frames_ = nullptr;
  Counter* m_repartitions_ = nullptr;
  Counter* m_reconnects_ = nullptr;
  Counter* m_backpressure_ = nullptr;
  Counter* m_slow_consumers_ = nullptr;

  std::unique_ptr<engine::AdminServer> admin_;
};

}  // namespace apcm::cluster

#endif  // APCM_CLUSTER_ROUTER_H_
