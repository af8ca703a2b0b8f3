// F10 — effect of the batch size on compressed matching. Batching keeps a
// cluster's dictionary and masks cache-resident while every event of the
// batch that reaches it streams through it; throughput should climb steeply
// from batch=1 and saturate once the per-cluster fixed costs are fully
// amortized.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/base/string_util.h"
#include "src/core/pcm.h"

namespace apcm::bench {
namespace {

void Run() {
  workload::WorkloadSpec spec = DefaultSpec();
  spec.num_subscriptions = FullScale() ? 500'000 : 100'000;
  spec.num_events = 4'096;
  // A bursty stream: batching then amortizes per-cluster state *and* lets
  // equal-signature neighbors share the coverage phase.
  spec.event_locality = 0.9;
  PrintBanner("F10", "PCM throughput vs batch size (bursty stream)", spec);
  const workload::Workload workload = workload::Generate(spec).value();

  core::PcmOptions options;
  options.mode = core::PcmMode::kCompressed;
  core::PcmMatcher pcm(options);
  pcm.Build(workload.subscriptions);

  TablePrinter table({"batch size", "events/s", "speedup vs batch=1"});
  double base_rate = 0;
  for (uint32_t batch : {1u, 4u, 16u, 64u, 256u, 1024u, 4096u}) {
    const ThroughputResult result =
        MeasureThroughputPrebuilt(pcm, workload, batch);
    if (batch == 1) base_rate = result.events_per_second;
    table.AddRow({std::to_string(batch), Rate(result.events_per_second),
                  Fixed(result.events_per_second / base_rate, 2) + "x"});
    std::printf("batch=%u done\n", batch);
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\npaper shape: steep gains from small batches, saturating around "
      "hundreds of events per batch; batch=1 pays the full per-cluster "
      "traversal cost per event.\n");
}

}  // namespace
}  // namespace apcm::bench

int main() {
  apcm::bench::Run();
  return 0;
}
