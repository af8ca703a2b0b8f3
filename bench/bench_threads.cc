// F6 — multi-core scalability of PCM. Measures real cluster-parallel and
// event-parallel matching for 1, 2 and 4 worker threads on this host and
// reports each rate with its speedup over the measured 1-thread
// cluster-parallel run. Read the speedups against the host's hardware
// thread count, printed at the end: threads beyond it cannot add speed.

#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "src/base/string_util.h"
#include "src/core/pcm.h"

namespace apcm::bench {
namespace {

void Run() {
  workload::WorkloadSpec spec = DefaultSpec();
  spec.num_subscriptions = FullScale() ? 1'000'000 : 100'000;
  PrintBanner("F6", "PCM scalability vs threads (measured)", spec);
  const workload::Workload workload = workload::Generate(spec).value();

  TablePrinter table({"threads", "cluster-par events/s", "cluster-par speedup",
                      "event-par events/s", "event-par speedup"});
  double base_rate = 0;
  for (int threads : {1, 2, 4}) {
    double rates[2] = {0, 0};
    for (const auto parallelism : {core::ParallelismMode::kClusterParallel,
                                   core::ParallelismMode::kEventParallel}) {
      core::PcmOptions options;
      options.mode = core::PcmMode::kCompressed;
      options.num_threads = threads;
      options.parallelism = parallelism;
      core::PcmMatcher pcm(options);
      const ThroughputResult result =
          MeasureThroughput(pcm, workload, /*batch_size=*/256);
      rates[parallelism == core::ParallelismMode::kClusterParallel ? 0 : 1] =
          result.events_per_second;
    }
    if (threads == 1) base_rate = rates[0];
    table.AddRow({std::to_string(threads), Rate(rates[0]),
                  Fixed(rates[0] / base_rate, 2) + "x", Rate(rates[1]),
                  Fixed(rates[1] / base_rate, 2) + "x"});
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\nnote: host has %u hardware thread(s). Speedups are relative to the "
      "measured 1-thread cluster-parallel rate.\n"
      "paper shape: near-linear scaling to the low tens of cores, flattening "
      "with cluster-work imbalance.\n",
      std::thread::hardware_concurrency());
}

}  // namespace
}  // namespace apcm::bench

int main() {
  apcm::bench::Run();
  return 0;
}
