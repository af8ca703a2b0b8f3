// Index persistence: PcmMatcher::SaveIndex/LoadIndex and the underlying
// CompressedCluster binary images. The property: a loaded index matches
// exactly like the index it was saved from, and corrupted or mismatched
// images are rejected with a Status.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "src/base/failpoint.h"
#include "src/core/pcm.h"
#include "tests/matcher_test_util.h"

namespace apcm::core {
namespace {

constexpr char kPath[] = "/tmp/apcm_serialization_test.idx";

class SerializationTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(kPath); }
};

TEST_F(SerializationTest, SaveLoadRoundTripMatchesIdentically) {
  const auto workload = workload::Generate(GnarlySpec(301)).value();
  PcmOptions options;
  options.clustering.cluster_size = 64;
  PcmMatcher original(options);
  original.Build(workload.subscriptions);
  ASSERT_TRUE(original.SaveIndex(kPath).ok());

  PcmMatcher loaded(options);
  ASSERT_TRUE(
      loaded.LoadIndex(Pointers(workload.subscriptions), kPath).ok());
  EXPECT_EQ(loaded.clusters().size(), original.clusters().size());
  EXPECT_DOUBLE_EQ(loaded.CompressionRatio(), original.CompressionRatio());

  std::vector<std::vector<SubscriptionId>> expected;
  std::vector<std::vector<SubscriptionId>> actual;
  original.MatchBatch(workload.events, &expected);
  loaded.MatchBatch(workload.events, &actual);
  EXPECT_EQ(actual, expected);
}

TEST_F(SerializationTest, LoadedIndexAgreesWithScan) {
  const auto workload = workload::Generate(GnarlySpec(302)).value();
  PcmOptions options;
  {
    PcmMatcher original(options);
    original.Build(workload.subscriptions);
    ASSERT_TRUE(original.SaveIndex(kPath).ok());
  }
  PcmMatcher loaded(options);
  ASSERT_TRUE(loaded.LoadIndex(Pointers(workload.subscriptions), kPath).ok());
  // ExpectAgreesWithScan calls Build; compare manually instead.
  index::ScanMatcher scan;
  const auto expected = RunMatcher(scan, workload);
  std::vector<SubscriptionId> matches;
  for (size_t i = 0; i < workload.events.size(); ++i) {
    loaded.Match(workload.events[i], &matches);
    EXPECT_EQ(matches, expected[i]) << "event " << i;
  }
}

TEST_F(SerializationTest, LoadedIndexSupportsIncrementalUpdates) {
  const auto workload = workload::Generate(GnarlySpec(303)).value();
  PcmOptions options;
  {
    PcmMatcher original(options);
    original.Build(workload.subscriptions);
    ASSERT_TRUE(original.SaveIndex(kPath).ok());
  }
  PcmMatcher loaded(options);
  ASSERT_TRUE(loaded.LoadIndex(Pointers(workload.subscriptions), kPath).ok());
  const auto fresh_id =
      static_cast<SubscriptionId>(workload.subscriptions.size()) + 7;
  loaded.AddIncremental(Handle(BooleanExpression::Create(
      fresh_id, {Predicate(0, Op::kGe, workload.spec.domain_min)}).value()));
  std::vector<SubscriptionId> matches;
  loaded.Match(Event::Create({{0, workload.spec.domain_max}}).value(),
               &matches);
  EXPECT_TRUE(std::find(matches.begin(), matches.end(), fresh_id) !=
              matches.end());
}

TEST_F(SerializationTest, SaveRequiresBuildAndCleanDelta) {
  PcmOptions options;
  PcmMatcher unbuilt(options);
  EXPECT_EQ(unbuilt.SaveIndex(kPath).code(),
            StatusCode::kFailedPrecondition);

  const auto workload = workload::Generate(GnarlySpec(304)).value();
  PcmMatcher dirty(options);
  dirty.Build(workload.subscriptions);
  dirty.AddIncremental(Handle(BooleanExpression::Create(
      static_cast<SubscriptionId>(workload.subscriptions.size()) + 1,
      {Predicate(0, Op::kEq, 1)}).value()));
  EXPECT_EQ(dirty.SaveIndex(kPath).code(), StatusCode::kFailedPrecondition);
}

TEST_F(SerializationTest, MismatchedSubscriptionSetRejected) {
  const auto workload = workload::Generate(GnarlySpec(305)).value();
  PcmOptions options;
  PcmMatcher original(options);
  original.Build(workload.subscriptions);
  ASSERT_TRUE(original.SaveIndex(kPath).ok());

  // Fewer subscriptions than the index covers.
  std::vector<BooleanExpression> truncated(
      workload.subscriptions.begin(),
      workload.subscriptions.begin() +
          static_cast<long>(workload.subscriptions.size() / 2));
  PcmMatcher loaded(options);
  const Status status = loaded.LoadIndex(Pointers(truncated), kPath);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(SerializationTest, WrongMagicRejected) {
  {
    std::ofstream out(kPath, std::ios::binary);
    out << "definitely not an index file";
  }
  const auto workload = workload::Generate(GnarlySpec(306)).value();
  PcmMatcher loaded{PcmOptions{}};
  EXPECT_EQ(loaded.LoadIndex(Pointers(workload.subscriptions), kPath).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SerializationTest, CorruptedImagesRejectedNotCrashed) {
  const auto workload = workload::Generate(GnarlySpec(307)).value();
  PcmOptions options;
  options.clustering.cluster_size = 32;
  PcmMatcher original(options);
  original.Build(workload.subscriptions);
  ASSERT_TRUE(original.SaveIndex(kPath).ok());

  std::string bytes;
  {
    std::ifstream in(kPath, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  Rng rng(308);
  for (int trial = 0; trial < 100; ++trial) {
    std::string corrupted = bytes;
    for (int i = 0; i < 4; ++i) {
      corrupted[rng.Uniform(corrupted.size())] ^=
          static_cast<char>(1 + rng.Uniform(255));
    }
    {
      std::ofstream out(kPath, std::ios::binary);
      out.write(corrupted.data(),
                static_cast<std::streamsize>(corrupted.size()));
    }
    PcmMatcher loaded(options);
    const Status status =
        loaded.LoadIndex(Pointers(workload.subscriptions), kPath);
    if (status.ok()) {
      // A flip that survived validation must still produce sane behavior;
      // run one match to shake out memory errors under sanitizers.
      std::vector<SubscriptionId> matches;
      loaded.Match(workload.events.front(), &matches);
    }
  }
}

std::string ReadAll(const char* path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST_F(SerializationTest, StreamAndPathImagesAreIdentical) {
  // The checkpoint path (src/store) embeds index images through the stream
  // form; it must be byte-identical to what SaveIndex(path) persists.
  const auto workload = workload::Generate(GnarlySpec(309)).value();
  PcmOptions options;
  options.clustering.cluster_size = 64;
  PcmMatcher original(options);
  original.Build(workload.subscriptions);
  ASSERT_TRUE(original.SaveIndex(kPath).ok());
  std::ostringstream stream_image;
  ASSERT_TRUE(original.SaveIndex(stream_image).ok());
  EXPECT_EQ(stream_image.str(), ReadAll(kPath));

  PcmMatcher loaded(options);
  std::istringstream in(stream_image.str());
  ASSERT_TRUE(loaded.LoadIndex(Pointers(workload.subscriptions), in).ok());
  std::vector<std::vector<SubscriptionId>> expected;
  std::vector<std::vector<SubscriptionId>> actual;
  original.MatchBatch(workload.events, &expected);
  loaded.MatchBatch(workload.events, &actual);
  EXPECT_EQ(actual, expected);
}

TEST_F(SerializationTest, SaveSurvivesInjectedShortWrites) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "needs -DAPCM_FAILPOINTS=ON";
  failpoint::DisarmAll();
  const auto workload = workload::Generate(GnarlySpec(310)).value();
  PcmOptions options;
  options.clustering.cluster_size = 32;
  PcmMatcher original(options);
  original.Build(workload.subscriptions);
  // Every write(2) is clamped to 7 bytes; WriteAll must keep retrying with
  // the remainder until the full image lands.
  ASSERT_TRUE(
      failpoint::Configure("store.file.write.short", "10000*return(7)").ok());
  const Status saved = original.SaveIndex(kPath);
  failpoint::DisarmAll();
  ASSERT_TRUE(saved.ok()) << saved.message();
  EXPECT_GT(failpoint::Hits("store.file.write.short"), 1u);

  PcmMatcher loaded(options);
  ASSERT_TRUE(loaded.LoadIndex(Pointers(workload.subscriptions), kPath).ok());
  std::vector<std::vector<SubscriptionId>> expected;
  std::vector<std::vector<SubscriptionId>> actual;
  original.MatchBatch(workload.events, &expected);
  loaded.MatchBatch(workload.events, &actual);
  EXPECT_EQ(actual, expected);
}

TEST_F(SerializationTest, FailedSaveLeavesTheOldIndexIntact) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "needs -DAPCM_FAILPOINTS=ON";
  failpoint::DisarmAll();
  const auto workload = workload::Generate(GnarlySpec(311)).value();
  PcmOptions options;
  options.clustering.cluster_size = 32;
  PcmMatcher original(options);
  original.Build(workload.subscriptions);
  ASSERT_TRUE(original.SaveIndex(kPath).ok());
  const std::string before = ReadAll(kPath);

  for (const char* seam :
       {"store.file.write.error", "store.file.fsync.error"}) {
    SCOPED_TRACE(seam);
    ASSERT_TRUE(failpoint::Configure(seam, "1*return").ok());
    EXPECT_FALSE(original.SaveIndex(kPath).ok());
    failpoint::DisarmAll();
    // Atomic replace: the old image is untouched and no temp file leaks.
    EXPECT_EQ(ReadAll(kPath), before);
    std::ifstream tmp(std::string(kPath) + ".tmp");
    EXPECT_FALSE(tmp.good());
    PcmMatcher loaded(options);
    EXPECT_TRUE(
        loaded.LoadIndex(Pointers(workload.subscriptions), kPath).ok());
  }
}

TEST_F(SerializationTest, EmptyIndexRoundTrips) {
  PcmOptions options;
  PcmMatcher original(options);
  original.Build(std::vector<BooleanExpression>{});
  ASSERT_TRUE(original.SaveIndex(kPath).ok());
  PcmMatcher loaded(options);
  ASSERT_TRUE(loaded.LoadIndex({}, kPath).ok());
  std::vector<SubscriptionId> matches;
  loaded.Match(Event::Create({{0, 1}}).value(), &matches);
  EXPECT_TRUE(matches.empty());
}

}  // namespace
}  // namespace apcm::core
