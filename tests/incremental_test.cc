// Incremental maintenance: PCM delta clusters + tombstones, and the engine's
// incremental-vs-rebuild policy. The property throughout: after any sequence
// of adds/removes, matching equals a scan over the current live set.

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "src/core/pcm.h"
#include "src/engine/engine.h"
#include "tests/matcher_test_util.h"

namespace apcm {
namespace {

std::vector<SubscriptionId> ScanLive(
    const std::unordered_map<SubscriptionId, BooleanExpression>& live,
    const Event& event) {
  std::vector<SubscriptionId> matches;
  for (const auto& [id, sub] : live) {
    if (sub.Matches(event)) matches.push_back(id);
  }
  std::sort(matches.begin(), matches.end());
  return matches;
}

TEST(PcmIncrementalTest, AddsMatchImmediately) {
  core::PcmOptions options;
  options.delta_cluster_size = 4;  // force both pending and cluster paths
  core::PcmMatcher matcher(options);
  matcher.Build(std::vector<BooleanExpression>{});
  for (SubscriptionId id = 0; id < 10; ++id) {
    matcher.AddIncremental(Handle(BooleanExpression::Create(
        id, {Predicate(0, Op::kEq, static_cast<Value>(id))}).value()));
  }
  std::vector<SubscriptionId> matches;
  matcher.Match(Event::Create({{0, 7}}).value(), &matches);
  EXPECT_EQ(matches, (std::vector<SubscriptionId>{7}));
  // Ids 0..7 are in delta clusters (two of size 4), 8..9 still pending.
  matcher.Match(Event::Create({{0, 9}}).value(), &matches);
  EXPECT_EQ(matches, (std::vector<SubscriptionId>{9}));
}

TEST(PcmIncrementalTest, RemoveStopsMatchingFromBaseAndDelta) {
  const auto workload = workload::Generate(GnarlySpec(201)).value();
  core::PcmOptions options;
  core::PcmMatcher matcher(options);
  matcher.Build(workload.subscriptions);
  // Remove a base subscription and add a delta one with a fresh id.
  const SubscriptionId base_id = workload.subscriptions.front().id();
  ASSERT_TRUE(matcher.RemoveIncremental(base_id).ok());
  const SubscriptionId delta_id =
      static_cast<SubscriptionId>(workload.subscriptions.size()) + 100;
  matcher.AddIncremental(Handle(BooleanExpression::Create(
      delta_id, {Predicate(0, Op::kGe, workload.spec.domain_min)}).value()));
  ASSERT_TRUE(matcher.RemoveIncremental(delta_id).ok());

  std::vector<SubscriptionId> matches;
  for (const Event& event : workload.events) {
    matcher.Match(event, &matches);
    for (SubscriptionId id : matches) {
      EXPECT_NE(id, base_id);
      EXPECT_NE(id, delta_id);
    }
  }
}

TEST(PcmIncrementalTest, RemoveErrors) {
  core::PcmMatcher matcher{core::PcmOptions{}};
  matcher.Build(std::vector<BooleanExpression>{});
  EXPECT_EQ(matcher.RemoveIncremental(0).code(), StatusCode::kNotFound);
  matcher.AddIncremental(Handle(
      BooleanExpression::Create(0, {Predicate(1, Op::kEq, 1)}).value()));
  EXPECT_TRUE(matcher.RemoveIncremental(0).ok());
  EXPECT_EQ(matcher.RemoveIncremental(0).code(), StatusCode::kNotFound);
}

TEST(PcmIncrementalTest, DeltaFractionTracksChanges) {
  const auto workload = workload::Generate(GnarlySpec(202)).value();
  core::PcmMatcher matcher{core::PcmOptions{}};
  matcher.Build(workload.subscriptions);
  EXPECT_DOUBLE_EQ(matcher.DeltaFraction(), 0.0);
  const auto n = static_cast<SubscriptionId>(workload.subscriptions.size());
  matcher.AddIncremental(Handle(BooleanExpression::Create(
      n + 1, {Predicate(0, Op::kEq, 1)}).value()));
  ASSERT_TRUE(matcher.RemoveIncremental(0).ok());
  EXPECT_NEAR(matcher.DeltaFraction(), 2.0 / (n + 1), 1e-9);
  // Build resets delta state.
  matcher.Build(workload.subscriptions);
  EXPECT_DOUBLE_EQ(matcher.DeltaFraction(), 0.0);
}

TEST(PcmCompactTest, FoldsDeltaIntoMainClusters) {
  const auto workload = workload::Generate(GnarlySpec(231)).value();
  core::PcmOptions options;
  options.delta_cluster_size = 8;
  core::PcmMatcher matcher(options);
  matcher.Build(workload.subscriptions);
  const size_t clusters_before = matcher.clusters().size();

  const auto n = static_cast<SubscriptionId>(workload.subscriptions.size());
  for (SubscriptionId i = 0; i < 30; ++i) {
    matcher.AddIncremental(Handle(BooleanExpression::Create(
        n + i, {Predicate(0, Op::kEq, static_cast<Value>(i))}).value()));
  }
  ASSERT_TRUE(matcher.RemoveIncremental(0).ok());
  EXPECT_GT(matcher.DeltaFraction(), 0.0);

  matcher.Compact();
  EXPECT_DOUBLE_EQ(matcher.DeltaFraction(), 0.0);
  EXPECT_GE(matcher.clusters().size(), clusters_before);

  // Matching equals a scan over the post-churn live set.
  std::unordered_map<SubscriptionId, BooleanExpression> live;
  for (const auto& sub : workload.subscriptions) {
    if (sub.id() != 0) live.emplace(sub.id(), sub);
  }
  for (SubscriptionId i = 0; i < 30; ++i) {
    live.emplace(n + i,
                 BooleanExpression::Create(
                     n + i, {Predicate(0, Op::kEq, static_cast<Value>(i))})
                     .value());
  }
  std::vector<SubscriptionId> matches;
  for (size_t e = 0; e < 40; ++e) {
    const Event& event = workload.events[e % workload.events.size()];
    matcher.Match(event, &matches);
    EXPECT_EQ(matches, ScanLive(live, event)) << event.ToString();
  }

  // Compacted state is saveable and the removed id can be re-registered.
  matcher.AddIncremental(Handle(
      BooleanExpression::Create(0, {Predicate(1, Op::kEq, 1)}).value()));
}

TEST(PcmCompactTest, NoOpWhenClean) {
  const auto workload = workload::Generate(GnarlySpec(232)).value();
  core::PcmMatcher matcher{core::PcmOptions{}};
  matcher.Build(workload.subscriptions);
  const size_t before = matcher.clusters().size();
  matcher.Compact();
  EXPECT_EQ(matcher.clusters().size(), before);
}

TEST(PcmCompactTest, ChurnWithInterleavedCompactions) {
  const auto spec = GnarlySpec(233);
  const auto workload = workload::Generate(spec).value();
  const size_t half = workload.subscriptions.size() / 2;
  std::vector<BooleanExpression> base(
      workload.subscriptions.begin(),
      workload.subscriptions.begin() + static_cast<long>(half));
  core::PcmOptions options;
  options.delta_cluster_size = 16;
  core::PcmMatcher matcher(options);
  matcher.Build(base);
  std::unordered_map<SubscriptionId, BooleanExpression> live;
  for (const auto& sub : base) live.emplace(sub.id(), sub);

  Rng rng(2333);
  size_t next_add = half;
  std::vector<SubscriptionId> matches;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 15 && next_add < workload.subscriptions.size();
         ++i) {
      const auto& sub = workload.subscriptions[next_add++];
      matcher.AddIncremental(Handle(sub));
      live.emplace(sub.id(), sub);
    }
    for (int i = 0; i < 5 && !live.empty(); ++i) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Uniform(live.size())));
      ASSERT_TRUE(matcher.RemoveIncremental(it->first).ok());
      live.erase(it);
    }
    if (round % 2 == 1) matcher.Compact();
    for (size_t e = 0; e < 15; ++e) {
      const Event& event =
          workload.events[(round * 15 + e) % workload.events.size()];
      matcher.Match(event, &matches);
      EXPECT_EQ(matches, ScanLive(live, event))
          << "round " << round << " " << event.ToString();
    }
  }
}

class PcmChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PcmChurnTest, MatchesScanAfterEveryChurnRound) {
  const auto spec = GnarlySpec(GetParam());
  const auto workload = workload::Generate(spec).value();
  // Start with the first half built, then churn: add from the second half,
  // remove random live ids.
  const size_t half = workload.subscriptions.size() / 2;
  std::vector<BooleanExpression> base(
      workload.subscriptions.begin(),
      workload.subscriptions.begin() + static_cast<long>(half));

  core::PcmOptions options;
  options.delta_cluster_size = 16;
  core::PcmMatcher matcher(options);
  matcher.Build(base);

  std::unordered_map<SubscriptionId, BooleanExpression> live;
  for (const auto& sub : base) live.emplace(sub.id(), sub);

  Rng rng(GetParam() * 31 + 7);
  size_t next_add = half;
  for (int round = 0; round < 8; ++round) {
    // Churn: a few adds and removes.
    for (int i = 0; i < 10 && next_add < workload.subscriptions.size(); ++i) {
      const auto& sub = workload.subscriptions[next_add++];
      matcher.AddIncremental(Handle(sub));
      live.emplace(sub.id(), sub);
    }
    for (int i = 0; i < 5 && !live.empty(); ++i) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Uniform(live.size())));
      ASSERT_TRUE(matcher.RemoveIncremental(it->first).ok());
      live.erase(it);
    }
    // Verify on a slice of events.
    std::vector<SubscriptionId> matches;
    for (size_t e = 0; e < 20; ++e) {
      const Event& event = workload.events[(round * 20 + e) %
                                           workload.events.size()];
      matcher.Match(event, &matches);
      EXPECT_EQ(matches, ScanLive(live, event))
          << "round " << round << " event " << event.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcmChurnTest,
                         ::testing::Values(211, 212, 213));

TEST(EngineIncrementalTest, SmallChangesAvoidRebuilds) {
  engine::EngineOptions options;
  options.kind = engine::MatcherKind::kAPcm;
  options.incremental_rebuild_threshold = 0.5;
  std::map<uint64_t, std::vector<SubscriptionId>> deliveries;
  engine::StreamEngine engine(
      options, [&](uint64_t id, const std::vector<SubscriptionId>& matches) {
        deliveries[id] = matches;
      });
  // Initial build with 100 subscriptions "0=i".
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine
                    .AddSubscription({Predicate(0, Op::kEq,
                                                static_cast<Value>(i))})
                    .ok());
  }
  engine.Publish(Event::Create({{0, 1}}).value());
  engine.Flush();
  EXPECT_EQ(engine.stats().rebuilds, 1u);

  // A couple of changes: absorbed incrementally, no rebuild.
  const SubscriptionId extra =
      engine.AddSubscription({Predicate(0, Op::kEq, 1)}).value();
  ASSERT_TRUE(engine.RemoveSubscription(5).ok());
  const uint64_t e1 = engine.Publish(Event::Create({{0, 1}}).value());
  const uint64_t e2 = engine.Publish(Event::Create({{0, 5}}).value());
  engine.Flush();
  EXPECT_EQ(engine.stats().rebuilds, 1u);
  EXPECT_EQ(engine.stats().incremental_updates, 2u);

  // Matching reflects both changes: the new copy matches, the removed one
  // does not.
  EXPECT_EQ(deliveries.at(e1), (std::vector<SubscriptionId>{1, extra}));
  EXPECT_TRUE(deliveries.at(e2).empty());
}

TEST(EngineIncrementalTest, IncrementalAndRebuildAgree) {
  const auto workload = workload::Generate(GnarlySpec(221)).value();
  auto run = [&](double threshold) {
    engine::EngineOptions options;
    options.kind = engine::MatcherKind::kPcm;
    options.incremental_rebuild_threshold = threshold;
    std::vector<std::vector<SubscriptionId>> deliveries;
    engine::StreamEngine engine(
        options, [&](uint64_t, const std::vector<SubscriptionId>& matches) {
          deliveries.push_back(matches);
        });
    // Interleave subscription changes with event batches.
    size_t next_sub = 0;
    std::vector<SubscriptionId> ids;
    for (int phase = 0; phase < 4; ++phase) {
      for (int i = 0; i < 50 && next_sub < workload.subscriptions.size();
           ++i) {
        ids.push_back(engine
                          .AddSubscription(workload.subscriptions[next_sub++]
                                               .predicates())
                          .value());
      }
      if (phase > 0) {
        EXPECT_TRUE(
            engine.RemoveSubscription(ids[static_cast<size_t>(phase)]).ok());
      }
      for (size_t e = 0; e < 25; ++e) {
        engine.Publish(
            workload.events[(static_cast<size_t>(phase) * 25 + e) %
                            workload.events.size()]);
      }
      engine.Flush();
    }
    return deliveries;
  };
  // threshold 1.0: always incremental after the first build;
  // threshold 0.0: always rebuild. Results must be identical.
  EXPECT_EQ(run(1.0), run(0.0));
}

}  // namespace
}  // namespace apcm
