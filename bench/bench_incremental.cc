// A2 (production extension) — cost of subscription churn: full index rebuild
// vs PCM's incremental delta path, and the matching-throughput degradation
// as the delta fraction grows (the signal behind the engine's rebuild
// threshold).

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/base/string_util.h"
#include "src/base/timer.h"
#include "src/core/pcm.h"

namespace apcm::bench {
namespace {

void Run() {
  workload::WorkloadSpec spec = DefaultSpec();
  spec.num_subscriptions = FullScale() ? 500'000 : 100'000;
  spec.num_events = 1'000;
  PrintBanner("A2", "incremental maintenance: delta path vs rebuild", spec);
  // Extra subscriptions to add incrementally (fresh ids).
  workload::WorkloadSpec extra_spec = spec;
  extra_spec.seed += 1;
  extra_spec.num_subscriptions = spec.num_subscriptions / 4;
  const workload::Workload workload = workload::Generate(spec).value();
  auto extra = workload::GenerateSubscriptions(extra_spec).value();
  for (size_t i = 0; i < extra.size(); ++i) {
    // Re-id to avoid collisions with the base set.
    extra[i] = BooleanExpression::FromSorted(
        static_cast<SubscriptionId>(spec.num_subscriptions + i),
        std::vector<Predicate>(extra[i].predicates()));
  }

  // Rebuild cost reference.
  core::PcmOptions options;
  options.mode = core::PcmMode::kCompressed;
  {
    core::PcmMatcher matcher(options);
    WallTimer timer;
    matcher.Build(workload.subscriptions);
    std::printf("full build of %s subscriptions: %.3fs\n",
                FormatWithCommas(workload.subscriptions.size()).c_str(),
                timer.ElapsedSeconds());
  }

  core::PcmMatcher matcher(options);
  matcher.Build(workload.subscriptions);

  TablePrinter table({"delta fraction", "adds applied", "add rate (subs/s)",
                      "events/s after"});
  const ThroughputResult baseline =
      MeasureThroughputPrebuilt(matcher, workload, 256);
  table.AddRow({"0.00", "0", "-", Rate(baseline.events_per_second)});

  size_t cursor = 0;
  for (const double target : {0.05, 0.10, 0.20}) {
    const auto want = static_cast<size_t>(
        target * static_cast<double>(spec.num_subscriptions));
    WallTimer timer;
    size_t applied = 0;
    while (cursor < extra.size() &&
           matcher.DeltaFraction() < target) {
      matcher.AddIncremental(
          std::make_shared<const BooleanExpression>(extra[cursor++]));
      ++applied;
    }
    const double add_seconds = timer.ElapsedSeconds();
    const ThroughputResult after =
        MeasureThroughputPrebuilt(matcher, workload, 256);
    table.AddRow(
        {Fixed(matcher.DeltaFraction(), 2), FormatWithCommas(applied),
         add_seconds > 0
             ? FormatWithCommas(static_cast<uint64_t>(
                   static_cast<double>(applied) / add_seconds))
             : "-",
         Rate(after.events_per_second)});
    std::printf("delta %.2f done (%zu adds, want ~%zu)\n",
                matcher.DeltaFraction(), applied, want);
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\nexpected shape: incremental adds run orders of magnitude faster "
      "than a rebuild amortizes, while matching throughput degrades "
      "gracefully with the delta fraction — motivating the engine's "
      "threshold-triggered rebuilds.\n");
}

}  // namespace
}  // namespace apcm::bench

int main() {
  apcm::bench::Run();
  return 0;
}
