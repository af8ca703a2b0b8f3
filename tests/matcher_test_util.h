#ifndef APCM_TESTS_MATCHER_TEST_UTIL_H_
#define APCM_TESTS_MATCHER_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/be/parser.h"
#include "src/index/matcher.h"
#include "src/index/scan.h"
#include "src/workload/generator.h"

namespace apcm {

/// Pointers to `subscriptions`, the form Matcher::Build and
/// PcmMatcher::LoadIndex take; the vector must outlive the matcher.
inline std::vector<const BooleanExpression*> Pointers(
    const std::vector<BooleanExpression>& subscriptions) {
  std::vector<const BooleanExpression*> pointers;
  for (const BooleanExpression& sub : subscriptions) pointers.push_back(&sub);
  return pointers;
}

/// A handle to its own copy of `expr`, the form
/// IncrementalMatcher::AddIncremental takes.
inline ExpressionHandle Handle(BooleanExpression expr) {
  return std::make_shared<const BooleanExpression>(std::move(expr));
}

/// Matches every workload event through `matcher` (single-event API).
inline std::vector<std::vector<SubscriptionId>> RunMatcher(
    Matcher& matcher, const workload::Workload& workload) {
  matcher.Build(workload.subscriptions);
  std::vector<std::vector<SubscriptionId>> results;
  results.reserve(workload.events.size());
  std::vector<SubscriptionId> matches;
  for (const Event& event : workload.events) {
    matcher.Match(event, &matches);
    results.push_back(matches);
  }
  return results;
}

/// Asserts that `matcher` returns exactly the same match sets as the SCAN
/// ground truth on every event of `workload`.
inline void ExpectAgreesWithScan(Matcher& matcher,
                                 const workload::Workload& workload) {
  index::ScanMatcher scan;
  const auto expected = RunMatcher(scan, workload);
  const auto actual = RunMatcher(matcher, workload);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i])
        << matcher.Name() << " disagrees with scan on event " << i << ": "
        << workload.events[i].ToString();
  }
}

/// A small-but-gnarly spec exercising every operator and skew.
inline workload::WorkloadSpec GnarlySpec(uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.seed = seed;
  spec.num_subscriptions = 400;
  spec.num_events = 150;
  spec.num_attributes = 30;
  spec.domain_min = -100;
  spec.domain_max = 900;
  spec.min_predicates = 1;
  spec.max_predicates = 7;
  spec.min_event_attrs = 2;
  spec.max_event_attrs = 12;
  spec.attribute_zipf = 1.0;
  spec.equality_fraction = 0.25;
  spec.in_fraction = 0.15;
  spec.ne_fraction = 0.10;
  spec.inequality_fraction = 0.20;
  spec.seeded_event_fraction = 0.6;
  return spec;
}

/// Builds a tiny hand-written workload through the parser; returns it with
/// the catalog embedded.
inline workload::Workload HandWorkload() {
  workload::Workload workload;
  Parser parser(&workload.catalog);
  const char* subs[] = {
      "price <= 100 and category = 2",
      "price > 100",
      "category in {1, 2, 3} and stock >= 1",
      "price between [50, 150] and brand != 7",
      "",  // match-all
  };
  SubscriptionId id = 0;
  for (const char* text : subs) {
    workload.subscriptions.push_back(
        parser.ParseExpression(id++, text).value());
  }
  const char* events[] = {
      "price = 80, category = 2, stock = 5, brand = 1",
      "price = 200, category = 2",
      "price = 100, category = 9, stock = 0, brand = 7",
      "stock = 3, category = 1",
      "",
  };
  for (const char* text : events) {
    workload.events.push_back(parser.ParseEvent(text).value());
  }
  return workload;
}

}  // namespace apcm

#endif  // APCM_TESTS_MATCHER_TEST_UTIL_H_
