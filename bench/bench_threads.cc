// F6 — multi-core scalability of PCM. Measures cluster-parallel matching
// for 1, 2 and 4 worker threads on this host and reports each rate with its
// speedup over the measured 1-thread run. Read the speedups against the
// host's hardware thread count, printed at the end: threads beyond it cannot
// add speed.

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

  TablePrinter table({"threads", "events/s", "speedup"});
  double base_rate = 0;
  for (int threads : {1, 2, 4}) {
    core::PcmOptions options;
    options.mode = core::PcmMode::kCompressed;
    options.num_threads = threads;
    core::PcmMatcher pcm(options);
    const double rate =
        MeasureThroughput(pcm, workload, /*batch_size=*/256).events_per_second;
    if (threads == 1) base_rate = rate;
    table.AddRow({std::to_string(threads), Rate(rate),
                  Fixed(rate / base_rate, 2) + "x"});
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\nnote: host has %u hardware thread(s). Speedups are relative to the "
      "measured 1-thread rate.\n"
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
