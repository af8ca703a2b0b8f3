#include "src/core/pcm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/base/rng.h"
#include "tests/matcher_test_util.h"

namespace apcm::core {
namespace {

PcmOptions BaseOptions() {
  PcmOptions options;
  options.clustering.cluster_size = 64;
  return options;
}

TEST(PcmTest, HandWorkloadAllModes) {
  for (PcmMode mode :
       {PcmMode::kCompressed, PcmMode::kLazy, PcmMode::kAdaptive}) {
    PcmOptions options = BaseOptions();
    options.mode = mode;
    PcmMatcher matcher(options);
    const auto workload = HandWorkload();
    ExpectAgreesWithScan(matcher, workload);
  }
}

struct PcmParam {
  PcmMode mode;
  int threads;
  bool share_absence;
  uint32_t cluster_size;
  ClusterStrategy strategy = ClusterStrategy::kPivot;
};

class PcmRandomTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, PcmParam>> {};

TEST_P(PcmRandomTest, AgreesWithScan) {
  const auto [seed, param] = GetParam();
  PcmOptions options;
  options.mode = param.mode;
  options.num_threads = param.threads;
  options.share_absence_phase = param.share_absence;
  options.clustering.cluster_size = param.cluster_size;
  options.clustering.strategy = param.strategy;
  PcmMatcher matcher(options);
  const auto workload = workload::Generate(GnarlySpec(seed)).value();
  ExpectAgreesWithScan(matcher, workload);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PcmRandomTest,
    ::testing::Combine(
        ::testing::Values(91, 92),
        ::testing::Values(
            PcmParam{PcmMode::kCompressed, 1, true, 64},
            PcmParam{PcmMode::kCompressed, 1, false, 64},
            PcmParam{PcmMode::kCompressed, 4, true, 64},
            PcmParam{PcmMode::kLazy, 1, true, 64},
            PcmParam{PcmMode::kLazy, 3, true, 128},
            PcmParam{PcmMode::kAdaptive, 1, true, 64},
            PcmParam{PcmMode::kAdaptive, 4, true, 32},
            PcmParam{PcmMode::kCompressed, 1, true, 1},
            PcmParam{PcmMode::kCompressed, 2, true, 1000},
            // Signature and insertion-order grouping leave most clusters
            // without a required attribute: the unkeyed dispatch list.
            PcmParam{PcmMode::kCompressed, 1, true, 64,
                     ClusterStrategy::kSignature},
            PcmParam{PcmMode::kAdaptive, 3, true, 32,
                     ClusterStrategy::kSignature},
            PcmParam{PcmMode::kCompressed, 1, true, 64,
                     ClusterStrategy::kInsertionOrder},
            PcmParam{PcmMode::kAdaptive, 2, false, 64,
                     ClusterStrategy::kInsertionOrder})));

TEST(PcmTest, BatchMatchesSingleEventApi) {
  const auto workload = workload::Generate(GnarlySpec(93)).value();
  PcmOptions options = BaseOptions();
  PcmMatcher batch_matcher(options);
  batch_matcher.Build(workload.subscriptions);
  std::vector<std::vector<SubscriptionId>> batch_results;
  batch_matcher.MatchBatch(workload.events, &batch_results);

  PcmMatcher single_matcher(options);
  const auto single_results = RunMatcher(single_matcher, workload);
  EXPECT_EQ(batch_results, single_results);
}

TEST(PcmTest, AdaptiveConvergesToCheaperMode) {
  // Low match probability, no sharing: lazy short-circuit should win, so
  // after warmup most batches run lazy.
  workload::WorkloadSpec spec = GnarlySpec(94);
  spec.seeded_event_fraction = 0.0;  // nothing matches -> lazy exits fast
  spec.num_events = 64;
  const auto workload = workload::Generate(spec).value();
  PcmOptions options = BaseOptions();
  options.mode = PcmMode::kAdaptive;
  options.epsilon = 0.0;  // pure exploitation after warmup
  PcmMatcher matcher(options);
  matcher.Build(workload.subscriptions);
  std::vector<std::vector<SubscriptionId>> results;
  for (int round = 0; round < 20; ++round) {
    matcher.MatchBatch(workload.events, &results);
  }
  const auto counters = matcher.adaptive_counters();
  // Warmup samples both; afterwards one mode dominates. We only assert that
  // adaptation happened (both were tried) and a winner emerged.
  EXPECT_GT(counters.compressed_batches, 0u);
  EXPECT_GT(counters.lazy_batches, 0u);
  EXPECT_NE(counters.compressed_batches, counters.lazy_batches);
}

TEST(PcmTest, CompressionRatioAtLeastOne) {
  const auto workload = workload::Generate(GnarlySpec(95)).value();
  PcmMatcher matcher(BaseOptions());
  matcher.Build(workload.subscriptions);
  EXPECT_GE(matcher.CompressionRatio(), 1.0);
  EXPECT_GT(matcher.MemoryBytes(), 0u);
  EXPECT_FALSE(matcher.clusters().empty());
}

TEST(PcmTest, EmptySubscriptionSet) {
  PcmMatcher matcher(BaseOptions());
  matcher.Build(std::vector<BooleanExpression>{});
  std::vector<SubscriptionId> matches{99};
  matcher.Match(Event::Create({{0, 1}}).value(), &matches);
  EXPECT_TRUE(matches.empty());
}

TEST(PcmTest, EmptyBatch) {
  const auto workload = workload::Generate(GnarlySpec(96)).value();
  PcmMatcher matcher(BaseOptions());
  matcher.Build(workload.subscriptions);
  std::vector<std::vector<SubscriptionId>> results;
  matcher.MatchBatch({}, &results);
  EXPECT_TRUE(results.empty());
}

TEST(PcmTest, StatsAccumulateAcrossBatches) {
  const auto workload = workload::Generate(GnarlySpec(97)).value();
  PcmMatcher matcher(BaseOptions());
  matcher.Build(workload.subscriptions);
  std::vector<std::vector<SubscriptionId>> results;
  matcher.MatchBatch(workload.events, &results);
  const uint64_t events_after_one = matcher.stats().events_matched;
  matcher.MatchBatch(workload.events, &results);
  EXPECT_EQ(matcher.stats().events_matched, 2 * events_after_one);
}

TEST(PcmTest, DeterministicAcrossRuns) {
  const auto workload = workload::Generate(GnarlySpec(98)).value();
  auto run = [&] {
    PcmOptions options = BaseOptions();
    options.mode = PcmMode::kAdaptive;
    PcmMatcher matcher(options);
    matcher.Build(workload.subscriptions);
    std::vector<std::vector<SubscriptionId>> results;
    matcher.MatchBatch(workload.events, &results);
    matcher.MatchBatch(workload.events, &results);
    return results;
  };
  EXPECT_EQ(run(), run());
}

TEST(PcmTest, SharedAbsencePhaseWithIdenticalSignatureRuns) {
  // A stream of events with identical attribute sets (values differ):
  // sharing must not change results and must reduce work.
  workload::WorkloadSpec spec = GnarlySpec(99);
  spec.event_locality = 1.0;  // every event reuses the first attribute set
  spec.seeded_event_fraction = 0.0;
  const auto workload = workload::Generate(spec).value();

  auto run = [&](bool share) {
    PcmOptions options = BaseOptions();
    options.share_absence_phase = share;
    PcmMatcher matcher(options);
    matcher.Build(workload.subscriptions);
    std::vector<std::vector<SubscriptionId>> results;
    matcher.MatchBatch(workload.events, &results);
    return std::make_pair(results, matcher.stats().bitmap_words);
  };
  const auto [shared_results, shared_words] = run(true);
  const auto [plain_results, plain_words] = run(false);
  EXPECT_EQ(shared_results, plain_results);
  EXPECT_LT(shared_words, plain_words);
}

/// Subscriptions on attributes 0..9, and ten more that each also constrain
/// attribute 50, which no event of PinnedDispatchEvents carries. Pivot
/// clustering keeps the attribute-50 subscriptions in clusters of their own.
std::vector<BooleanExpression> PinnedDispatchSubscriptions() {
  std::vector<BooleanExpression> subs;
  SubscriptionId id = 0;
  for (AttributeId attr = 0; attr < 10; ++attr) {
    for (int i = 0; i < 20; ++i) {
      subs.push_back(BooleanExpression::Create(
                         id++, {Predicate(attr, Op::kLe, Value{i})})
                         .value());
    }
  }
  for (int i = 0; i < 10; ++i) {
    subs.push_back(BooleanExpression::Create(
                       id++, {Predicate(static_cast<AttributeId>(i), Op::kGe,
                                        Value{0}),
                              Predicate(50, Op::kEq, Value{i})})
                       .value());
  }
  return subs;
}

std::vector<Event> PinnedDispatchEvents() {
  std::vector<Event> events;
  for (Value v = 0; v < 12; ++v) {
    std::vector<Event::Entry> entries;
    for (AttributeId attr = 0; attr < 10; ++attr) {
      if ((attr + static_cast<AttributeId>(v)) % 3 != 0) {
        entries.push_back({attr, v});
      }
    }
    events.push_back(Event::Create(std::move(entries)).value());
  }
  return events;
}

bool Requires(const CompressedCluster& cluster, AttributeId attr) {
  const auto& required = cluster.required_attributes();
  return std::find(required.begin(), required.end(), attr) != required.end();
}

TEST(PcmDispatchTest, UnreachableClustersAreNeverProfiled) {
  const auto subs = PinnedDispatchSubscriptions();
  const auto events = PinnedDispatchEvents();
  PcmOptions options = BaseOptions();
  options.clustering.cluster_size = 8;
  options.hotspot_every = 1;  // profile every batch
  PcmMatcher matcher(options);
  matcher.Build(subs);
  size_t unreachable = 0;
  for (const CompressedCluster& cluster : matcher.clusters()) {
    if (Requires(cluster, 50)) ++unreachable;
  }
  ASSERT_GT(unreachable, 0u);
  std::vector<std::vector<SubscriptionId>> results;
  matcher.MatchBatch(events, &results);
  std::vector<SubscriptionId> matches;
  for (const Event& event : events) matcher.Match(event, &matches);

  std::vector<HotspotEntry> hotspots;
  matcher.CollectHotspots(&hotspots);
  EXPECT_FALSE(hotspots.empty());
  for (const HotspotEntry& entry : hotspots) {
    EXPECT_FALSE(Requires(matcher.clusters()[entry.cluster], 50))
        << "cluster " << entry.cluster << " requires an attribute no event "
        << "carries, yet was profiled in " << entry.batches << " batches";
  }
}

TEST(PcmDispatchTest, AdaptiveDecisionsCountDispatchedClustersOnly) {
  const auto subs = PinnedDispatchSubscriptions();
  const auto events = PinnedDispatchEvents();
  PcmOptions options = BaseOptions();
  options.clustering.cluster_size = 8;
  options.mode = PcmMode::kAdaptive;
  options.num_threads = 2;
  PcmMatcher matcher(options);
  matcher.Build(subs);
  // Every cluster here requires exactly one attribute: one of 0..9, or
  // attribute 50, which no event carries. A batch dispatches a cluster iff
  // some event carries its attribute.
  auto dispatched = [&](const Event* begin, const Event* end) {
    uint64_t count = 0;
    for (const CompressedCluster& cluster : matcher.clusters()) {
      bool reachable = false;
      for (AttributeId attr = 0; attr < 10; ++attr) {
        if (!Requires(cluster, attr)) continue;
        for (const Event* e = begin; e != end; ++e) {
          reachable = reachable || e->Has(attr);
        }
      }
      if (reachable) ++count;
    }
    return count;
  };
  uint64_t expected = 0;
  std::vector<SubscriptionId> matches;
  for (const Event& event : events) {
    matcher.Match(event, &matches);
    expected += dispatched(&event, &event + 1);
  }
  std::vector<std::vector<SubscriptionId>> results;
  matcher.MatchBatch(events, &results);
  expected += dispatched(events.data(), events.data() + events.size());

  const auto counters = matcher.adaptive_counters();
  EXPECT_LT(expected, matcher.clusters().size() * (events.size() + 1));
  EXPECT_EQ(counters.compressed_batches + counters.lazy_batches, expected);
}

/// The (cluster, event) pairs a PCM index over PinnedDispatchSubscriptions
/// must evaluate for `events`: every event for a cluster without required
/// attributes, else the events that carry its one required attribute.
uint64_t ReachedPairs(const std::vector<CompressedCluster>& clusters,
                      const std::vector<Event>& events) {
  uint64_t pairs = 0;
  for (const CompressedCluster& cluster : clusters) {
    const auto& required = cluster.required_attributes();
    EXPECT_LE(required.size(), 1u);
    for (const Event& event : events) {
      if (required.empty() || event.Has(required[0])) ++pairs;
    }
  }
  return pairs;
}

TEST(PcmDispatchTest, BatchVisitsOnlyReachedClusterEventPairs) {
  const auto subs = PinnedDispatchSubscriptions();
  const auto events = PinnedDispatchEvents();
  for (const ClusterStrategy strategy :
       {ClusterStrategy::kPivot, ClusterStrategy::kSignature}) {
    for (const int threads : {1, 3}) {
      PcmOptions options = BaseOptions();
      options.clustering.cluster_size = 8;
      options.clustering.strategy = strategy;
      options.num_threads = threads;
      PcmMatcher matcher(options);
      matcher.Build(subs);
      const uint64_t reached = ReachedPairs(matcher.clusters(), events);
      if (strategy == ClusterStrategy::kSignature) {
        // The row must exercise the unkeyed list.
        ASSERT_TRUE(std::any_of(
            matcher.clusters().begin(), matcher.clusters().end(),
            [](const CompressedCluster& cluster) {
              return cluster.required_attributes().empty();
            }));
      }
      // A batch of all events visits the same pairs as one-event calls.
      std::vector<std::vector<SubscriptionId>> results;
      matcher.MatchBatch(events, &results);
      const uint64_t batch_visits = matcher.stats().cluster_visits;
      std::vector<SubscriptionId> matches;
      for (const Event& event : events) matcher.Match(event, &matches);
      const uint64_t single_visits =
          matcher.stats().cluster_visits - batch_visits;
      EXPECT_EQ(batch_visits, reached)
          << ClusterStrategyName(strategy) << ", " << threads << " threads";
      EXPECT_EQ(single_visits, reached)
          << ClusterStrategyName(strategy) << ", " << threads << " threads";
      EXPECT_LT(reached, matcher.clusters().size() * events.size());
    }
  }
}

/// Matches every event one at a time and as one batch; both must equal a
/// scan over `live`.
void ExpectMatchesLive(
    PcmMatcher& matcher,
    const std::unordered_map<SubscriptionId, BooleanExpression>& live,
    const std::vector<Event>& events) {
  std::vector<std::vector<SubscriptionId>> expected;
  for (const Event& event : events) {
    std::vector<SubscriptionId> ids;
    for (const auto& [id, sub] : live) {
      if (sub.Matches(event)) ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    expected.push_back(std::move(ids));
  }
  std::vector<std::vector<SubscriptionId>> batch;
  matcher.MatchBatch(events, &batch);
  EXPECT_EQ(batch, expected);
  std::vector<SubscriptionId> matches;
  for (size_t i = 0; i < events.size(); ++i) {
    matcher.Match(events[i], &matches);
    EXPECT_EQ(matches, expected[i]) << "event " << i;
  }
}

TEST(PcmDispatchTest, AgreesWithScanAfterCompactWithChurn) {
  const auto workload = workload::Generate(GnarlySpec(101)).value();
  const size_t half = workload.subscriptions.size() / 2;
  const std::vector<BooleanExpression> base(
      workload.subscriptions.begin(),
      workload.subscriptions.begin() + static_cast<long>(half));
  for (PcmMode mode : {PcmMode::kCompressed, PcmMode::kAdaptive}) {
    PcmOptions options = BaseOptions();
    options.clustering.cluster_size = 16;
    options.mode = mode;
    options.num_threads = 2;
    options.delta_cluster_size = 16;
    PcmMatcher matcher(options);
    matcher.Build(base);
    std::unordered_map<SubscriptionId, BooleanExpression> live;
    for (const auto& sub : base) live.emplace(sub.id(), sub);
    Rng rng(1011);
    size_t next_add = half;
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 40 && next_add < workload.subscriptions.size();
           ++i) {
        const auto& sub = workload.subscriptions[next_add++];
        matcher.AddIncremental(Handle(sub));
        live.emplace(sub.id(), sub);
      }
      for (int i = 0; i < 20; ++i) {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.Uniform(live.size())));
        ASSERT_TRUE(matcher.RemoveIncremental(it->first).ok());
        live.erase(it);
      }
      matcher.Compact();
      ASSERT_FALSE(matcher.HasDeltaState());
      ExpectMatchesLive(matcher, live, workload.events);
    }
  }
}

TEST(PcmDispatchTest, AgreesWithScanAfterLoadIndex) {
  const auto workload = workload::Generate(GnarlySpec(102)).value();
  std::unordered_map<SubscriptionId, BooleanExpression> live;
  for (const auto& sub : workload.subscriptions) live.emplace(sub.id(), sub);
  PcmOptions options = BaseOptions();
  options.clustering.cluster_size = 16;
  PcmMatcher original(options);
  original.Build(workload.subscriptions);
  std::stringstream image;
  ASSERT_TRUE(original.SaveIndex(image).ok());
  // A matcher that served another index before loading must not keep any
  // of its dispatch state.
  const auto other = workload::Generate(GnarlySpec(103)).value();
  PcmMatcher loaded(options);
  loaded.Build(other.subscriptions);
  ASSERT_TRUE(loaded.LoadIndex(Pointers(workload.subscriptions), image).ok());
  ExpectMatchesLive(loaded, live, workload.events);
}

/// Build over a pointer span copies no expression: every cluster member is
/// one of the pointers passed in, though the span is gone by then. Each
/// expression sits behind its own handle, so there is no expression vector
/// the matcher could point into instead.
TEST(PcmTest, BuildOverPointerSpanSharesTheGivenExpressions) {
  const auto workload = workload::Generate(GnarlySpec(107)).value();
  std::vector<ExpressionHandle> handles;
  std::unordered_set<const BooleanExpression*> given;
  for (const BooleanExpression& sub : workload.subscriptions) {
    handles.push_back(Handle(sub));
    given.insert(handles.back().get());
  }
  for (ClusterStrategy strategy :
       {ClusterStrategy::kPivot, ClusterStrategy::kSignature,
        ClusterStrategy::kInsertionOrder}) {
    PcmOptions options = BaseOptions();
    options.clustering.strategy = strategy;
    PcmMatcher matcher(options);
    {
      std::vector<const BooleanExpression*> pointers;
      for (const ExpressionHandle& handle : handles) {
        pointers.push_back(handle.get());
      }
      matcher.Build(pointers);
    }
    size_t members = 0;
    for (const CompressedCluster& cluster : matcher.clusters()) {
      for (const BooleanExpression* member : cluster.members()) {
        EXPECT_TRUE(given.contains(member)) << ClusterStrategyName(strategy);
        ++members;
      }
    }
    EXPECT_EQ(members, handles.size()) << ClusterStrategyName(strategy);
  }
}

/// The delta path keeps the handle it is given: the caller drops its own at
/// once, and the expression still matches, both from the delta clusters and
/// after Compact folds it into main clusters that point at the same object.
TEST(PcmTest, AddIncrementalKeepsTheHandleAlive) {
  const auto workload = workload::Generate(GnarlySpec(108)).value();
  const size_t half = workload.subscriptions.size() / 2;
  const std::vector<BooleanExpression> base(
      workload.subscriptions.begin(),
      workload.subscriptions.begin() + static_cast<long>(half));
  PcmOptions options = BaseOptions();
  options.delta_cluster_size = 8;
  PcmMatcher matcher(options);
  matcher.Build(base);
  std::unordered_map<SubscriptionId, BooleanExpression> live;
  for (const auto& sub : base) live.emplace(sub.id(), sub);
  std::unordered_set<const BooleanExpression*> added;
  for (size_t i = half; i < workload.subscriptions.size(); ++i) {
    ExpressionHandle handle = Handle(workload.subscriptions[i]);
    added.insert(handle.get());
    matcher.AddIncremental(std::move(handle));  // the only handle left
    live.emplace(workload.subscriptions[i].id(), workload.subscriptions[i]);
  }
  ExpectMatchesLive(matcher, live, workload.events);
  matcher.Compact();
  size_t folded = 0;
  for (const CompressedCluster& cluster : matcher.clusters()) {
    for (const BooleanExpression* member : cluster.members()) {
      if (added.contains(member)) ++folded;
    }
  }
  EXPECT_EQ(folded, added.size());
  ExpectMatchesLive(matcher, live, workload.events);
}

TEST(PcmTest, Names) {
  PcmOptions options;
  options.mode = PcmMode::kCompressed;
  EXPECT_EQ(PcmMatcher(options).Name(), "pcm");
  options.mode = PcmMode::kLazy;
  EXPECT_EQ(PcmMatcher(options).Name(), "pcm-lazy");
  options.mode = PcmMode::kAdaptive;
  EXPECT_EQ(PcmMatcher(options).Name(), "a-pcm");
}

}  // namespace
}  // namespace apcm::core
