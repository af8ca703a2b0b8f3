// perfbench: the repository benchmark. One run generates seeded inputs,
// starts the system under test in its own process, drives it over loopback
// through the frame protocol (set-up, open loop, closed loop), checks every
// delivered notification against the reference, and prints its metrics.
// With --trace 1 it instead reports the per-layer metrics of a traced run
// that also replays the inputs down the L0..L3 layer ladder.
//
//   perfbench --workload match-100k --seed 1 --seconds 10 --trace 0
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/bitmap/kernels.h"

namespace perfbench {
namespace {

using apcm::Status;

constexpr int kSutReps = 5;
constexpr int kOpenAttempts = 3;
constexpr int kClosedPublishers = 2;
constexpr size_t kClosedWindow = 64;
// Shares of --seconds, per SUT instance: the open loop, a closed loop's
// unmeasured warm-up (the adaptive matcher re-tunes to full batches) and
// its measured part. Every figure is taken on each of the kSutReps
// instances: the adaptive matcher settles differently per instance (one
// match-100k run read 10-16k events/s across its five).
constexpr double kOpenShare = 0.10;
constexpr double kWarmupShare = 0.05;
constexpr double kClosedShare = 0.10;
// Traced runs: the length of each layer-ladder rung.
constexpr double kRungShare = 0.35;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool serve = false;
  bool plant_mismatch = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string trace_out;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--serve") {
      args->serve = true;
      continue;
    }
    if (a == "--plant-mismatch") {
      args->plant_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      args->trace = std::atoi(v);
    } else if (a == "--work-dir") {
      args->work_dir = v;
    } else if (a == "--trace-out") {
      args->trace_out = v;
    } else if (a == "--commit") {
      args->commit = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", a.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void PrintHost(const Args& args) {
  utsname u{};
  ::uname(&u);
  std::printf(
      "{\"host\": {\"nproc\": %u, \"simd\": %s, \"kernel\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"commit\": %s, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %s}}\n",
      std::thread::hardware_concurrency(),
      JsonString(apcm::bitmap::SimdLevelName(
                     apcm::bitmap::BestSupportedSimdLevel()))
          .c_str(),
      JsonString(std::string(u.release)).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(args.commit).c_str(), JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str());
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.scope.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string SelfExe() {
  std::error_code ec;
  return std::filesystem::read_symlink("/proc/self/exe", ec).string();
}

std::vector<double> Sorted(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  return 1;
}

int Run(const Args& args) {
  const WorkloadConfig* config = FindWorkload(args.workload);
  if (config == nullptr) return Fail("unknown workload " + args.workload);
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    return Fail("refusing to report from a non-Release build (" +
                std::string(PERFBENCH_BUILD_TYPE) + ")");
  }
#ifndef NDEBUG
  return Fail("refusing to report from a build without NDEBUG");
#endif
  PrintHost(args);
  auto made = MakeInputs(*config, args.seed);
  if (!made.ok()) return Fail(made.status().ToString());
  const Inputs& inputs = made.value();
  std::printf("# %s: %zu subs, %zu churn exprs, %zu pool events, gen %.3f s\n",
              config->name, inputs.subs.size(), inputs.churn.size(),
              inputs.events.size(), inputs.gen_s);

  // Inputs are generated on every CPU; from here on the generator keeps to
  // the last CPU and each SUT process to the others.
  PinCpus(/*sut=*/false);
  const bool traced = args.trace != 0;
  SpanLog spans;
  if (traced) spans.Reserve(1'000'000);
  const std::string exe = SelfExe();
  const double open_s = args.seconds * kOpenShare;
  const double warmup_s = args.seconds * kWarmupShare;
  const double closed_s = args.seconds * kClosedShare;

  std::unique_ptr<SutProcess> sut;
  std::unique_ptr<Session> session;
  std::vector<double> setup_s;
  auto set_up = [&]() -> Status {
    session.reset();
    sut.reset();
    sut = std::make_unique<SutProcess>();
    APCM_RETURN_NOT_OK(sut->Start(exe, *config));
    session = std::make_unique<Session>(*config, inputs, sut->port(),
                                        traced ? &spans : nullptr);
    APCM_RETURN_NOT_OK(session->Setup());
    APCM_RETURN_NOT_OK(sut->Quiesce());
    setup_s.push_back(static_cast<double>(NowNs() - sut->start_ns()) * 1e-9);
    if (args.plant_mismatch) session->PlantMismatch();
    return Status::OK();
  };

  // Every SUT instance is set up, runs an open loop, then a closed loop,
  // and is verified. Per-instance figures are combined by their
  // interquartile mean.
  std::vector<double> eps, ack_p50, cpu_per_event;
  double hwm_max = 0, lag_max = 0, growth_max = 0, eps_traced = 0;
  Session::OpenLoop all;  // every open loop's samples in run order (traced)
  Session::Verdict verdict;
  bool complete = true;
  for (int rep = 0; rep < kSutReps && complete; ++rep) {
    // An open loop whose generator ran late or whose backlog grew is not
    // folded into the results. It is repeated on a freshly set-up SUT (the
    // same state, not one the first attempt's churn moved on); a third
    // invalid one fails the run. The discarded session is verified first,
    // so its failures count. A missing ACK or PROGRESS is a failure, not a
    // reason to repeat: the run stops measuring and reports it.
    Session::OpenLoop open;
    double cpu0 = 0, cpu1 = 0, hwm = 0;
    for (int attempt = 0;; ++attempt) {
      if (Status st = set_up(); !st.ok()) return Fail("set-up: " + st.ToString());
      if (!sut->Usage(&cpu0, &hwm).ok()) return Fail("SUT usage");
      open = session->RunOpenLoop(open_s);
      if (!sut->Usage(&cpu1, &hwm).ok()) return Fail("SUT usage");
      if (open.valid || !open.complete) break;
      std::printf("# open loop invalid (lag p99 %.1f us, growth %.2f)\n",
                  open.lag_p99_us, open.backlog_growth);
      verdict += session->Verify();
      if (attempt + 1 == kOpenAttempts) {
        return Fail("open loop invalid on " + std::to_string(kOpenAttempts) +
                    " SUTs in a row");
      }
    }
    complete = open.complete;
    if (complete) {
      ack_p50.push_back(WindowedQuantile(open.ack_us, 0.5));
      cpu_per_event.push_back(
          (cpu1 - cpu0) / static_cast<double>(std::max<uint64_t>(open.events, 1)));
      lag_max = std::max(lag_max, open.lag_p99_us);
      growth_max = std::max(growth_max, open.backlog_growth);
      for (auto [to, from] : {std::pair{&all.ack_us, &open.ack_us},
                              std::pair{&all.notify_us, &open.notify_us},
                              std::pair{&all.sub_ack_us, &open.sub_ack_us}}) {
        to->insert(to->end(), from->begin(), from->end());
      }
      // Background maintenance the open loop started (compactions) finishes
      // before saturation is measured.
      if (Status st = sut->Quiesce(); !st.ok()) return Fail("quiesce: " + st.ToString());
      eps.push_back(session->RunClosedLoop(warmup_s, closed_s, kClosedPublishers,
                                           kClosedWindow, false));
      if (traced && rep + 1 == kSutReps) {
        eps_traced = session->RunClosedLoop(0, closed_s, kClosedPublishers,
                                            kClosedWindow, true);
      }
    }
    verdict += session->Verify();
    double cpu_at_end = 0;  // only the peak RSS is read here
    if (!sut->Usage(&cpu_at_end, &hwm).ok()) return Fail("SUT usage");
    hwm_max = std::max(hwm_max, hwm);
  }
  session.reset();
  sut.reset();
  std::printf("# per SUT: closed-loop events/s");
  for (double e : eps) std::printf(" %.0f", e);
  std::printf("; ack p50 us");
  for (double a : ack_p50) std::printf(" %.1f", a);
  std::printf("; cpu us/event");
  for (double c : cpu_per_event) std::printf(" %.1f", c);
  std::printf("\n# verified %llu events: %llu mismatched; %llu of %llu "
              "operations failed\n",
              static_cast<unsigned long long>(verdict.checked_events),
              static_cast<unsigned long long>(verdict.mismatched_events),
              static_cast<unsigned long long>(verdict.failed),
              static_cast<unsigned long long>(verdict.attempted));

  const std::string of_suts =
      ", interquartile mean of " + std::to_string(eps.size()) + " SUT instances";
  const std::string best_window =
      "best-window (q0.1) of " + std::to_string(kWindows) + " windows";
  Metrics metrics;
  if (!traced) {
    metrics = {
        {"setup_s", InterquartileMean(setup_s), "s",
         "per set-up, interquartile mean of " + std::to_string(setup_s.size())},
        {"throughput_eps", InterquartileMean(eps), "1/s",
         "closed loop, 2 publishers x 64 window" + of_suts},
        {"ack_p50_us", InterquartileMean(ack_p50), "us",
         "per event, open loop, " + best_window + of_suts},
        {"cpu_us_per_event", InterquartileMean(cpu_per_event), "us",
         "SUT user+sys per event published, open loop" + of_suts},
        {"rss_peak_mb", hwm_max / 1024.0, "MB", "SUT VmHWM, max over SUT instances"},
        {"ok_frac",
         1.0 - static_cast<double>(verdict.failed) /
                   static_cast<double>(std::max<uint64_t>(verdict.attempted, 1)),
         "frac", "operations not failed / attempted, both phases"},
    };
  } else {
    const std::string pooled = "open loops of every SUT pooled, " + best_window;
    metrics = {
        {"workload.gen_s", inputs.gen_s, "s", "input generation + reference"},
        {"gen.lag_p99_us", lag_max, "us", "per publish, send - due, max over SUTs"},
        {"gen.backlog_growth", growth_max, "ratio",
         "notify p50, last window / first window of an open loop, max over SUTs"},
        {"trace.overhead_frac",
         1.0 - eps_traced / std::max(eps.empty() ? 0.0 : eps.back(), 1e-9), "frac",
         "1 - traced / untraced closed-loop throughput, same SUT"},
        // Latencies too unsteady on a shared host to gate on (see
        // README.md), reported from the traced run.
        {"open.ack_p50_phase_us", Quantile(Sorted(all.ack_us), 0.5), "us",
         "per event, open loops pooled, whole phase: moves when most windows slow"},
        {"open.notify_p50_us", WindowedQuantile(all.notify_us, 0.5), "us",
         "per event, " + pooled},
        {"open.sub_ack_p50_us", WindowedQuantile(all.sub_ack_us, 0.5), "us",
         "per SUBSCRIBE/UNSUBSCRIBE, " + pooled},
        {"tail.ack_p90_us", WindowedQuantile(all.ack_us, 0.9), "us", "per event, " + pooled},
        {"tail.ack_p99_us", WindowedQuantile(all.ack_us, 0.99), "us", "per event, " + pooled},
        {"tail.notify_p90_us", WindowedQuantile(all.notify_us, 0.9), "us",
         "per event, " + pooled},
        {"tail.notify_p99_us", WindowedQuantile(all.notify_us, 0.99), "us",
         "per event, " + pooled},
        {"tail.sub_ack_p90_us", WindowedQuantile(all.sub_ack_us, 0.9), "us",
         "per SUBSCRIBE/UNSUBSCRIBE, " + pooled},
        {"tail.sub_ack_p99_us", Quantile(Sorted(all.sub_ack_us), 0.99), "us",
         "per SUBSCRIBE/UNSUBSCRIBE, open loops pooled, whole phase"},
    };
    const Status ladder =
        RunLadder(*config, inputs, args.seconds * kRungShare, args.work_dir,
                  WindowedQuantile(all.notify_us, 0.5), &spans, &metrics);
    std::error_code ec;
    std::filesystem::remove_all(args.work_dir, ec);
    if (!ladder.ok()) return Fail("ladder: " + ladder.ToString());
    if (!args.trace_out.empty()) {
      std::filesystem::create_directories(
          std::filesystem::path(args.trace_out).parent_path(), ec);
      if (!spans.Write(args.trace_out)) return Fail("writing spans failed");
      std::printf("# %zu spans written to %s\n", spans.size(),
                  args.trace_out.c_str());
    }
  }
  const bool correct = verdict.failed == 0;
  PrintResult(correct, std::max<uint64_t>(verdict.attempted, 1),
              verdict.failed, metrics);
  return correct ? 0 : 3;
}

}  // namespace

bool SpanLog::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(out, "{\"name\":\"%s\",\"id\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  // On disk before the run ends, so the write-back cannot slow the next run.
  const bool ok = std::fflush(out) == 0 && ::fsync(::fileno(out)) == 0;
  return std::fclose(out) == 0 && ok;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>] [--commit <id>] "
                 "[--plant-mismatch]\n");
    return 2;
  }
  if (args.serve) {
    const perfbench::WorkloadConfig* config =
        perfbench::FindWorkload(args.workload);
    if (config == nullptr) return 2;
    return perfbench::ServeMain(*config, 3, 4);
  }
  return perfbench::Run(args);
}
