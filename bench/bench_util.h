#ifndef APCM_BENCH_BENCH_UTIL_H_
#define APCM_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/status.h"
#include "src/engine/matcher_factory.h"
#include "src/index/matcher.h"
#include "src/workload/generator.h"

namespace apcm::bench {

/// True when APCM_BENCH_FULL=1: run paper-scale workloads (minutes to hours)
/// instead of the scaled-down defaults (seconds). EXPERIMENTS.md records
/// results for both.
bool FullScale();

/// Per-matcher wall-clock budget in seconds (APCM_BENCH_SECONDS, default 2.0
/// scaled / 10.0 full). Slow matchers process as many events as fit in the
/// budget; throughput is still well-defined.
double TimeBudgetSeconds();

/// The evaluation's default workload (BEGen-style defaults reconstructed
/// from the BE-Tree lineage): 400 dimensions, domain [0, 10000], 5-15
/// predicates, Zipf(1) attribute popularity, 50% seeded events.
workload::WorkloadSpec DefaultSpec();

/// Result of one throughput measurement.
struct ThroughputResult {
  double events_per_second = 0;
  double matches_per_event = 0;
  uint64_t events_processed = 0;
  double seconds = 0;
  double build_seconds = 0;
  uint64_t memory_bytes = 0;
  MatcherStats stats;  ///< matcher counter deltas for the measured window
  /// Wall time per MatchBatch call in nanoseconds — the p50/p99 that the
  /// machine-readable results report.
  Histogram batch_latency_ns;
};

/// Builds `matcher` over the workload's subscriptions, then streams the
/// workload's events through MatchBatch in batches of `batch_size`, cycling
/// the event list: first untimed for a tenth of the time budget (warm-up,
/// excluded from every reported figure), then timed until the budget
/// expires (at least one full batch each).
ThroughputResult MeasureThroughput(Matcher& matcher,
                                   const workload::Workload& workload,
                                   uint32_t batch_size);

/// Like MeasureThroughput but the matcher is already built (for sweeps that
/// reuse one index).
ThroughputResult MeasureThroughputPrebuilt(Matcher& matcher,
                                           const workload::Workload& workload,
                                           uint32_t batch_size);

/// Fixed-width table printer for paper-style output.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  /// Prints header, separator, and all rows to stdout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// "12,345" / "1.23M" style formatting helpers for table cells.
std::string Rate(double events_per_second);
std::string Fixed(double value, int decimals);

/// Prints the experiment banner: id, title, and the workload description.
void PrintBanner(const std::string& experiment_id, const std::string& title,
                 const workload::WorkloadSpec& spec);

/// The standard matcher lineup of the comparison benchmarks.
struct Contender {
  engine::MatcherKind kind;
  std::string label;
  int threads = 1;  ///< PCM kinds only
};

/// Baselines + contributions at 1 thread (multi-thread rates are measured
/// by bench_threads).
std::vector<Contender> DefaultContenders();

/// Instantiates a contender for the given workload spec.
std::unique_ptr<Matcher> MakeContender(const Contender& contender,
                                       const workload::WorkloadSpec& spec);

/// Machine-readable benchmark output, enabled by `--json <path>` on a bench
/// binary's command line. Each Add() buffers one result record; Finish()
/// writes the whole run as a JSON array of
///   {"bench": ..., "config": ..., "throughput": ..., "p50": ..., "p95": ...,
///    "p99": ..., "max": ..., "metrics": {...}}
/// so CI can diff runs without scraping the human tables. A writer
/// constructed without a path swallows records and writes nothing.
class BenchJsonWriter {
 public:
  /// Parses `--json <path>` out of argv. Any other argument is an
  /// InvalidArgument — the bench binaries take no other flags, and silently
  /// ignoring a typo like `--jsonn` would drop the baseline write the CI
  /// perf gate depends on.
  static StatusOr<BenchJsonWriter> Parse(int argc, char** argv);

  /// Parse, but exits with status 2 (and a usage line on stderr) on bad
  /// arguments — the main() wrapper.
  static BenchJsonWriter FromArgs(int argc, char** argv);

  BenchJsonWriter() = default;
  explicit BenchJsonWriter(std::string path) : path_(std::move(path)) {}

  struct Record {
    std::string bench;   ///< binary name, e.g. "bench_headline"
    std::string config;  ///< row label, e.g. "a-pcm" or "publishers=4"
    double throughput = 0;  ///< events per second
    double p50_ns = 0;      ///< median per-batch latency (0 if not measured)
    double p95_ns = 0;
    double p99_ns = 0;
    double max_ns = 0;      ///< worst single observation in the window
    /// Extra numeric facts (build seconds, memory bytes, matcher counters...).
    std::vector<std::pair<std::string, double>> metrics;
  };

  void Add(Record record);
  /// Adds a record derived from a throughput measurement, folding the
  /// standard fields (latency percentiles, build time, memory, matcher
  /// counters) into place.
  void AddThroughput(const std::string& bench, const std::string& config,
                     const ThroughputResult& result);

  bool enabled() const { return !path_.empty(); }
  /// Writes all buffered records to the path. Returns false and prints to
  /// stderr on I/O failure. No-op (true) when disabled.
  bool Finish() const;

 private:
  std::string path_;
  std::vector<Record> records_;
};

}  // namespace apcm::bench

#endif  // APCM_BENCH_BENCH_UTIL_H_
