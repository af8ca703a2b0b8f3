// Cluster-tier suite: the router in front of N backend EventServers must be
// observationally identical to one engine fed the same request stream. The
// differential oracle runs the same subscriptions and events through a
// single server and through clusters of size 1/2/3/5 — including across
// live AddBackend/RemoveBackend — and asserts the delivered match digests
// agree exactly. Failpoint scenarios (ctest -L chaos) sever backend
// connections mid-stream and require the resync replay to keep the digest
// unchanged.

#include "src/cluster/router.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/base/failpoint.h"
#include "src/base/rng.h"
#include "src/cluster/partition.h"
#include "src/engine/trace_ring.h"
#include "src/net/client.h"
#include "src/net/server.h"

namespace apcm::cluster {
namespace {

net::EventServerOptions SmallBackendOptions() {
  net::EventServerOptions options;
  options.engine.batch_size = 16;
  options.engine.osr.window_size = 0;
  options.engine.buffer_capacity = 16;
  options.engine.matcher.pcm.clustering.cluster_size = 32;
  // Every backend (and the single-engine oracle) must share one attribute
  // schema: each backend parses only its own partitions' subscription text,
  // so without a declared schema the on-demand name→id registration order
  // would diverge across backends while events carry raw attribute ids.
  for (int a = 0; a < 8; ++a) {
    options.attributes.push_back("a" + std::to_string(a));
  }
  return options;
}

uint64_t CounterValue(const MetricsRegistry& registry,
                      const std::string& name) {
  for (const MetricSample& sample : registry.Collect()) {
    if (sample.name == name) return sample.counter_value;
  }
  ADD_FAILURE() << "metric not registered: " << name;
  return 0;
}

/// Backends plus a router over them, torn down in dependency order.
class ClusterHarness {
 public:
  /// Starts one more backend EventServer and returns its port.
  int SpawnBackend(net::EventServerOptions backend = SmallBackendOptions()) {
    auto server = std::make_unique<net::EventServer>(std::move(backend));
    EXPECT_TRUE(server->Start().ok());
    const int port = server->port();
    servers_.push_back(std::move(server));
    return port;
  }

  /// Starts `n` backends and the router over them.
  Status StartCluster(int n, ClusterOptions options = ClusterOptions(),
                      const net::EventServerOptions& backend =
                          SmallBackendOptions()) {
    for (int i = 0; i < n; ++i) {
      options.backends.push_back({"127.0.0.1", SpawnBackend(backend)});
    }
    router_ = std::make_unique<ClusterRouter>(std::move(options));
    return router_->Start();
  }

  ~ClusterHarness() {
    if (router_) router_->Stop();
    for (auto& server : servers_) server->Stop();
  }

  ClusterRouter& router() { return *router_; }
  net::EventServer& server(size_t i) { return *servers_[i]; }
  size_t num_servers() const { return servers_.size(); }

 private:
  std::vector<std::unique_ptr<net::EventServer>> servers_;
  std::unique_ptr<ClusterRouter> router_;
};

/// Delivered match stream digest: publish index -> sorted client sub ids.
using Digest = std::map<size_t, std::vector<uint64_t>>;

/// Runs one scenario against any frame-protocol endpoint (single server or
/// router — the whole point is that both speak the same protocol): register
/// `expressions` under client sub ids 0..n-1, publish `batches` in order,
/// and collect the delivered matches into `digest`. `between(b)` runs
/// before batch `b` with the stream fully drained — the hook for topology
/// changes. Completion is watermark-driven (FOLLOW/PROGRESS), never
/// sleep-driven.
void RunScenario(int port, const std::vector<std::string>& expressions,
                 const std::vector<std::vector<Event>>& batches,
                 Digest* digest,
                 const std::function<void(size_t)>& between = {}) {
  net::Client subscriber;
  ASSERT_TRUE(subscriber.Connect("127.0.0.1", port).ok());
  ASSERT_TRUE(subscriber.Follow().ok());
  for (size_t i = 0; i < expressions.size(); ++i) {
    ASSERT_TRUE(subscriber.Subscribe(i, expressions[i]).ok())
        << expressions[i];
  }
  net::Client publisher;
  ASSERT_TRUE(publisher.Connect("127.0.0.1", port).ok());

  std::map<uint64_t, size_t> index_of;  // endpoint event id -> publish index
  size_t published = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  uint64_t watermark_goal = 0;  // events that must be fully delivered
  uint64_t watermarked = 0;     // events the watermark has covered so far
  auto drain_to_watermark = [&] {
    // Endpoint event ids are dense from 0 on both sides, so "the watermark
    // covers k events" is `last PROGRESS id + 1 >= k`.
    while (watermarked < watermark_goal) {
      auto progress = subscriber.PollProgress(/*timeout_ms=*/100);
      ASSERT_TRUE(progress.ok()) << progress.status().ToString();
      if (progress->has_value()) {
        watermarked = std::max(watermarked, **progress + 1);
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "stream never drained to watermark " << watermark_goal;
    }
  };

  for (size_t b = 0; b < batches.size(); ++b) {
    if (between) {
      drain_to_watermark();
      between(b);
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (const Event& event : batches[b]) {
      auto id = publisher.Publish(event);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      index_of[*id] = published++;
    }
    watermark_goal = published;
    drain_to_watermark();
  }

  // Every owed MATCH was enqueued before the watermark's PROGRESS frame on
  // this connection: drain what is buffered locally.
  for (;;) {
    auto match = subscriber.PollMatch(/*timeout_ms=*/0);
    ASSERT_TRUE(match.ok()) << match.status().ToString();
    if (!match->has_value()) break;
    auto indexed = index_of.find((*match)->event_id);
    ASSERT_TRUE(indexed != index_of.end())
        << "MATCH for unknown event id " << (*match)->event_id;
    std::vector<uint64_t>& row = (*digest)[indexed->second];
    row.insert(row.end(), (*match)->sub_ids.begin(), (*match)->sub_ids.end());
  }
  for (auto& [index, subs] : *digest) {
    std::sort(subs.begin(), subs.end());
    ASSERT_TRUE(std::adjacent_find(subs.begin(), subs.end()) == subs.end())
        << "duplicate match delivered for event " << index;
  }
}

/// Random subscription expressions and events in the shared a0..a7 space
/// (the net_server_test oracle's generator, seeded per scenario).
void MakeWorkload(uint64_t seed, int num_subs, int num_events,
                  std::vector<std::string>* expressions,
                  std::vector<Event>* events) {
  Rng rng(seed);
  auto make_conjunction = [&rng]() {
    static const char* kOps[] = {">=", "<=", ">", "<", "=", "!="};
    std::string text;
    std::set<uint64_t> used;
    const int preds = 1 + static_cast<int>(rng.Uniform(3));
    for (int p = 0; p < preds; ++p) {
      uint64_t attr = rng.Uniform(8);
      if (!used.insert(attr).second) continue;
      if (!text.empty()) text += " and ";
      text += "a" + std::to_string(attr) + " " + kOps[rng.Uniform(6)] + " " +
              std::to_string(rng.Uniform(100));
    }
    return text;
  };
  for (int i = 0; i < num_subs; ++i) {
    std::string text = make_conjunction();
    if (rng.Bernoulli(0.3)) text += " or " + make_conjunction();
    expressions->push_back(std::move(text));
  }
  for (int i = 0; i < num_events; ++i) {
    std::vector<Event::Entry> entries;
    uint64_t attr = rng.Uniform(3);
    while (attr < 8) {
      entries.push_back({static_cast<AttributeId>(attr),
                         static_cast<int64_t>(rng.Uniform(100))});
      attr += 1 + rng.Uniform(4);
    }
    events->push_back(Event::FromSorted(std::move(entries)));
  }
}

TEST(ClusterRouterTest, RoundTripAcrossThreeBackends) {
  ClusterHarness cluster;
  ASSERT_TRUE(cluster.StartCluster(3).ok());
  ASSERT_GT(cluster.router().port(), 0);

  net::Client subscriber;
  ASSERT_TRUE(subscriber.Connect("127.0.0.1", cluster.router().port()).ok());
  ASSERT_TRUE(subscriber.Ping().ok());
  ASSERT_TRUE(subscriber.Follow().ok());
  ASSERT_TRUE(subscriber.Subscribe(7, "a0 >= 10 and a1 < 50").ok());
  ASSERT_TRUE(subscriber.Subscribe(8, "a0 >= 100 or a1 = 3").ok());
  Status duplicate = subscriber.Subscribe(7, "a0 >= 0");
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);

  net::Client publisher;
  ASSERT_TRUE(publisher.Connect("127.0.0.1", cluster.router().port()).ok());
  // Global event ids are dense from 0 in publish order — the single-engine
  // numbering, assigned by the router.
  auto id0 = publisher.Publish(Event::Create({{0, 20}, {1, 30}}).value());
  ASSERT_TRUE(id0.ok()) << id0.status().ToString();
  EXPECT_EQ(*id0, 0u);
  auto id1 = publisher.Publish(Event::Create({{0, 20}, {1, 3}}).value());
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(*id1, 1u);
  auto id2 = publisher.Publish(Event::Create({{0, 5}, {1, 60}}).value());
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id2, 2u);

  // The frontier covers all three once every backend notified them.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    auto progress = subscriber.PollProgress(/*timeout_ms=*/100);
    ASSERT_TRUE(progress.ok());
    if (progress->has_value() && **progress >= *id2) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
  }
  std::map<uint64_t, std::vector<uint64_t>> received;
  for (;;) {
    auto match = subscriber.PollMatch(/*timeout_ms=*/0);
    ASSERT_TRUE(match.ok());
    if (!match->has_value()) break;
    received[(*match)->event_id] = (*match)->sub_ids;
  }
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received.at(*id0), (std::vector<uint64_t>{7}));
  EXPECT_EQ(received.at(*id1), (std::vector<uint64_t>{7, 8}));
  EXPECT_EQ(received.count(*id2), 0u);

  // Unsubscribe stops future matches; unknown ids are per-request errors.
  ASSERT_TRUE(subscriber.Unsubscribe(7).ok());
  ASSERT_TRUE(subscriber.Unsubscribe(8).ok());
  EXPECT_EQ(subscriber.Unsubscribe(99).code(), StatusCode::kNotFound);
  auto id3 = publisher.Publish(Event::Create({{0, 20}, {1, 3}}).value());
  ASSERT_TRUE(id3.ok());
  for (;;) {
    auto progress = subscriber.PollProgress(/*timeout_ms=*/100);
    ASSERT_TRUE(progress.ok());
    if (progress->has_value() && **progress >= *id3) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
  }
  auto late = subscriber.PollMatch(/*timeout_ms=*/0);
  ASSERT_TRUE(late.ok());
  EXPECT_FALSE(late->has_value());

  const ClusterStatus status = cluster.router().Snapshot();
  ASSERT_EQ(status.backends.size(), 3u);
  uint64_t partitions = 0;
  for (const auto& backend : status.backends) {
    EXPECT_TRUE(backend.in_topology);
    EXPECT_TRUE(backend.connected);
    partitions += backend.partitions;
  }
  EXPECT_EQ(partitions, 64u);  // every partition owned exactly once
  EXPECT_EQ(status.next_global_event, 4u);
  EXPECT_EQ(status.released_count, 4u);
  EXPECT_EQ(status.subscriptions, 0u);
  EXPECT_EQ(status.unacked_publishes, 0u);

  const MetricsRegistry& registry = cluster.router().metrics_registry();
  EXPECT_EQ(CounterValue(registry, "apcm_cluster_publishes_total"), 4u);
  EXPECT_EQ(CounterValue(registry, "apcm_cluster_fanout_frames_total"), 12u);
  EXPECT_EQ(CounterValue(registry, "apcm_cluster_publish_acks_total"), 4u);
  EXPECT_GE(CounterValue(registry, "apcm_cluster_matches_merged_total"), 3u);
}

// The tentpole acceptance: cluster-of-N delivers the exact match stream of
// a single engine, for N in {1, 2, 3, 5}.
TEST(ClusterRouterTest, DifferentialOracleAcrossClusterSizes) {
  std::vector<std::string> expressions;
  std::vector<Event> events;
  MakeWorkload(/*seed=*/42, /*num_subs=*/40, /*num_events=*/200,
               &expressions, &events);
  const std::vector<std::vector<Event>> batches = {events};

  Digest oracle;
  {
    net::EventServer single(SmallBackendOptions());
    ASSERT_TRUE(single.Start().ok());
    RunScenario(single.port(), expressions, batches, &oracle);
    single.Stop();
  }
  ASSERT_FALSE(oracle.empty());  // the workload does produce matches

  for (int n : {1, 2, 3, 5}) {
    SCOPED_TRACE("cluster of " + std::to_string(n));
    ClusterHarness cluster;
    ASSERT_TRUE(cluster.StartCluster(n).ok());
    Digest got;
    RunScenario(cluster.router().port(), expressions, batches, &got);
    EXPECT_EQ(got, oracle);
  }
}

// Live topology changes: grow 2 -> 3, then shrink away the original slot 0,
// with traffic before, between, and after. The digest must still equal the
// single-engine run — re-partitioning moves subscriptions, never matches.
TEST(ClusterRouterTest, LiveAddAndRemoveKeepTheStreamExact) {
  std::vector<std::string> expressions;
  std::vector<Event> events;
  MakeWorkload(/*seed=*/7, /*num_subs=*/30, /*num_events=*/180,
               &expressions, &events);
  std::vector<std::vector<Event>> batches(3);
  for (size_t i = 0; i < events.size(); ++i) {
    batches[i % 3].push_back(events[i]);
  }

  Digest oracle;
  {
    net::EventServer single(SmallBackendOptions());
    ASSERT_TRUE(single.Start().ok());
    RunScenario(single.port(), expressions, batches, &oracle);
    single.Stop();
  }
  ASSERT_FALSE(oracle.empty());

  ClusterHarness cluster;
  ASSERT_TRUE(cluster.StartCluster(2).ok());
  Digest got;
  RunScenario(
      cluster.router().port(), expressions, batches, &got,
      [&](size_t batch) {
        if (batch == 1) {
          // Grow mid-stream: the joining backend takes over ~1/3 of the
          // partitions (and their subscriptions).
          const int port = cluster.SpawnBackend();
          ASSERT_TRUE(cluster.router().AddBackend({"127.0.0.1", port}).ok());
        } else if (batch == 2) {
          // Shrink mid-stream: slot 0's partitions deal to the survivors.
          ASSERT_TRUE(cluster.router().RemoveBackend(0).ok());
        }
      });
  EXPECT_EQ(got, oracle);

  const ClusterStatus status = cluster.router().Snapshot();
  ASSERT_EQ(status.backends.size(), 3u);
  EXPECT_FALSE(status.backends[0].in_topology);
  EXPECT_TRUE(status.backends[1].in_topology);
  EXPECT_TRUE(status.backends[2].in_topology);
  EXPECT_EQ(status.repartitions, 2u);
  EXPECT_GT(status.change_seq, 0u);
  uint64_t partitions = 0;
  for (const auto& backend : status.backends) partitions += backend.partitions;
  EXPECT_EQ(partitions, 64u);
  const MetricsRegistry& registry = cluster.router().metrics_registry();
  EXPECT_EQ(CounterValue(registry, "apcm_cluster_repartitions_total"), 2u);
}

// Chaos: sever backend connections mid-stream (cluster.backend.recv) and
// let the resync replay regenerate the tail — the digest must not change.
// Resync duplicates must dedupe in the merge buffer, never double-deliver.
TEST(ClusterRouterTest, BackendLossResyncsWithoutDivergence) {
  if (!failpoint::kEnabled) {
    GTEST_SKIP() << "failpoints compiled out; build with -DAPCM_FAILPOINTS=ON";
  }
  failpoint::DisarmAll();
  std::vector<std::string> expressions;
  std::vector<Event> events;
  MakeWorkload(/*seed=*/1234, /*num_subs=*/25, /*num_events=*/120,
               &expressions, &events);
  std::vector<std::vector<Event>> batches(2);
  for (size_t i = 0; i < events.size(); ++i) {
    batches[i / (events.size() / 2 + 1)].push_back(events[i]);
  }

  Digest oracle;
  {
    net::EventServer single(SmallBackendOptions());
    ASSERT_TRUE(single.Start().ok());
    RunScenario(single.port(), expressions, batches, &oracle);
    single.Stop();
  }
  ASSERT_FALSE(oracle.empty());

  ClusterHarness cluster;
  ASSERT_TRUE(cluster.StartCluster(3).ok());
  Digest got;
  RunScenario(cluster.router().port(), expressions, batches, &got,
              [&](size_t batch) {
                if (batch == 1) {
                  // The next two backend reads doom their connections; the
                  // router reconnects, re-registers, and replays.
                  ASSERT_TRUE(failpoint::Configure("cluster.backend.recv",
                                                   "2*return")
                                  .ok());
                }
              });
  failpoint::DisarmAll();
  EXPECT_EQ(got, oracle);
  EXPECT_GE(failpoint::Hits("cluster.backend.recv"), 2u);

  const MetricsRegistry& registry = cluster.router().metrics_registry();
  EXPECT_GE(CounterValue(registry, "apcm_cluster_backend_reconnects_total"),
            2u);
  uint64_t reconnects = 0;
  for (const auto& backend : cluster.router().Snapshot().backends) {
    reconnects += backend.reconnects;
  }
  EXPECT_GE(reconnects, 2u);
}

/// Connects a raw TCP socket and performs one HTTP/1.0 GET.
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ClusterRouterTest, AdminEndpointServesClusterState) {
  ClusterOptions options;
  options.admin_port = -1;  // kernel-assigned, for tests
  ClusterHarness cluster;
  ASSERT_TRUE(cluster.StartCluster(2, std::move(options)).ok());
  const int admin_port = cluster.router().admin_port();
  ASSERT_GT(admin_port, 0);

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", cluster.router().port()).ok());
  ASSERT_TRUE(client.Subscribe(1, "a0 >= 0").ok());
  ASSERT_TRUE(client.Publish(Event::Create({{0, 1}}).value()).ok());

  const std::string health = HttpGet(admin_port, "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string topology = HttpGet(admin_port, "/cluster");
  EXPECT_NE(topology.find("200 OK"), std::string::npos);
  EXPECT_NE(topology.find("application/json"), std::string::npos);
  EXPECT_NE(topology.find("\"backends\":["), std::string::npos);
  EXPECT_NE(topology.find("\"connected\":true"), std::string::npos);
  EXPECT_NE(topology.find("\"subscriptions\":1"), std::string::npos);

  const std::string metrics = HttpGet(admin_port, "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("apcm_cluster_backends 2"), std::string::npos);
  EXPECT_NE(metrics.find("apcm_cluster_publishes_total"), std::string::npos);

  const std::string json = HttpGet(admin_port, "/metrics.json");
  EXPECT_NE(json.find("200 OK"), std::string::npos);
  EXPECT_NE(json.find("apcm_cluster_subscriptions"), std::string::npos);
}

// A client-supplied trace id survives the router: every backend's copy of
// the event is traced under the client's id, so one id follows the event
// across both hops.
TEST(ClusterRouterTest, PublishForwardsClientTraceIdToEveryBackend) {
  net::EventServerOptions backend = SmallBackendOptions();
  backend.engine.trace_sample_every = 1;
  ClusterHarness cluster;
  ASSERT_TRUE(cluster.StartCluster(2, ClusterOptions(), backend).ok());

  constexpr uint64_t kTraceId = 0x7EA5ED1DC0FFEE01ULL;
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", cluster.router().port()).ok());
  ASSERT_TRUE(
      client.Publish(Event::Create({{0, 1}}).value(), kTraceId).ok());

  auto traced_stages = [&](size_t i) {
    size_t stages = 0;
    for (const engine::TraceRing::Span& span :
         cluster.server(i).engine().trace().Snapshot()) {
      if (span.kind == engine::TraceRing::Kind::kEventStage &&
          span.a == kTraceId) {
        ++stages;
      }
    }
    return stages;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (size_t i = 0; i < cluster.num_servers(); ++i) {
    while (traced_stages(i) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GT(traced_stages(i), 0u)
        << "backend " << i << " holds no event_stage span for the trace id";
  }
}

// PartitionOf is the cluster's placement function; pin it bit for bit so
// subscription placement cannot move silently. The ids above 2^32 pin the
// narrowing to the 32-bit SubscriptionId (2^32 lands where 0 does).
TEST(PartitionMapTest, PartitionOfGolden) {
  struct Golden {
    uint64_t id;
    uint32_t partition;
  };
  const Golden golden[] = {
      {0x0ULL, 47u},         {0x1ULL, 1u},          {0x2ULL, 14u},
      {0x3ULL, 45u},         {0x7ULL, 23u},         {0x2aULL, 21u},
      {0x3fULL, 53u},        {0x40ULL, 3u},         {0x64ULL, 4u},
      {0x3e8ULL, 8u},        {0x3039ULL, 32u},      {0xffffULL, 54u},
      {0x10000ULL, 51u},     {0x100000ULL, 45u},    {0x75bcd15ULL, 57u},
      {0x7fffffffULL, 39u},  {0xfffffffeULL, 34u},  {0xffffffffULL, 0u},
      {0x100000000ULL, 47u}, {0x100000005ULL, 26u},
      {0x123456789abcdef0ULL, 42u},
  };
  for (const Golden& g : golden) {
    EXPECT_EQ(PartitionMap::PartitionOf(g.id, 64), g.partition)
        << "id 0x" << std::hex << g.id;
  }
}

TEST(ClusterRouterTest, TopologyGuardRails) {
  // An unreachable backend fails Start (bounded by the retry policy).
  {
    int dead_port;
    {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      ASSERT_GE(fd, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      socklen_t len = sizeof(addr);
      ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
                0);
      ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len),
                0);
      dead_port = ntohs(addr.sin_port);
      ::close(fd);  // nothing listens here now
    }
    ClusterOptions options;
    options.backends.push_back({"127.0.0.1", dead_port});
    options.backend_retry.max_attempts = 2;
    options.backend_retry.initial_backoff_ms = 1;
    ClusterRouter router(options);
    Status started = router.Start();
    EXPECT_FALSE(started.ok());
  }

  // Config validation before any connect.
  {
    ClusterRouter router(ClusterOptions{});
    EXPECT_EQ(router.Start().code(), StatusCode::kInvalidArgument);
  }
  {
    ClusterOptions options;
    options.backends.resize(65);
    ClusterRouter router(std::move(options));
    EXPECT_EQ(router.Start().code(), StatusCode::kInvalidArgument);
  }

  ClusterHarness cluster;
  ASSERT_TRUE(cluster.StartCluster(2).ok());
  // Removing an unknown or already-removed slot and removing the last
  // backend are rejected without touching the topology.
  EXPECT_EQ(cluster.router().RemoveBackend(9).code(), StatusCode::kNotFound);
  ASSERT_TRUE(cluster.router().RemoveBackend(1).ok());
  EXPECT_EQ(cluster.router().RemoveBackend(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(cluster.router().RemoveBackend(0).code(),
            StatusCode::kFailedPrecondition);

  cluster.router().Stop();
  cluster.router().Stop();  // idempotent
  EXPECT_EQ(cluster.router().AddBackend({"127.0.0.1", 1}).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace apcm::cluster
