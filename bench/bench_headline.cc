// T2 — headline comparison (reconstructs the paper's abstract claim:
// A-PCM sustains ~233,863 events/s while state-of-the-art sequential
// matching sustains ~36 events/s at millions of Boolean expressions).
//
// Measures every matcher single-threaded on this host. Multi-thread rates
// are measured separately by bench_threads (F6).

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/base/string_util.h"

namespace apcm::bench {
namespace {

void Run(BenchJsonWriter& json) {
  workload::WorkloadSpec spec = DefaultSpec();
  PrintBanner("T2", "headline throughput, all matchers", spec);
  std::printf("generating workload...\n");
  const workload::Workload workload = workload::Generate(spec).value();

  TablePrinter table({"matcher", "build(s)", "memory", "events/s",
                      "matches/ev", "vs scan"});
  double scan_rate = 0;
  double apcm_rate = 0;
  auto measure = [&](const Contender& contender, const std::string& label,
                     uint32_t batch_size) {
    auto matcher = MakeContender(contender, spec);
    const ThroughputResult result =
        MeasureThroughput(*matcher, workload, batch_size);
    json.AddThroughput("bench_headline", label, result);
    if (label == "scan") scan_rate = result.events_per_second;
    if (label == "a-pcm") apcm_rate = result.events_per_second;
    table.AddRow({label, Fixed(result.build_seconds, 2),
                  FormatBytes(result.memory_bytes),
                  Rate(result.events_per_second),
                  Fixed(result.matches_per_event, 2),
                  scan_rate > 0
                      ? Fixed(result.events_per_second / scan_rate, 1) + "x"
                      : "1.0x"});
    std::printf("  measured %s\n", label.c_str());
  };
  for (const Contender& contender : DefaultContenders()) {
    measure(contender, contender.label, /*batch_size=*/256);
  }
  // The paced regime: a server under an open-loop stream forms one-event
  // batches, where per-batch overheads are not amortized. p50/p99 of these
  // rows are per event.
  for (const Contender& contender : DefaultContenders()) {
    if (contender.label == "pcm" || contender.label == "a-pcm") {
      measure(contender, contender.label + "-batch1", /*batch_size=*/1);
    }
  }

  std::printf("\n");
  table.Print();
  std::printf(
      "\npaper shape: sequential floor O(10) ev/s at millions of "
      "expressions; A-PCM 3-4 orders of magnitude above it "
      "(abstract: 36 vs 233,863 ev/s at 5M). a-pcm measured %.0fx scan here.\n",
      scan_rate > 0 ? apcm_rate / scan_rate : 0.0);
}

}  // namespace
}  // namespace apcm::bench

int main(int argc, char** argv) {
  apcm::bench::BenchJsonWriter json =
      apcm::bench::BenchJsonWriter::FromArgs(argc, argv);
  apcm::bench::Run(json);
  return json.Finish() ? 0 : 1;
}
