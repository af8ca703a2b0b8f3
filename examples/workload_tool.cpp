// workload_tool — command-line front end for the workload substrate. Useful
// for producing reproducible experiment inputs, inspecting traces, and
// running any matcher over a saved workload.
//
//   workload_tool generate <out.bin> [--subs N] [--events N] [--dims N]
//                 [--seed N] [--seeded F] [--zipf F]
//   workload_tool info <trace>
//   workload_tool convert <in> <out>         (text <-> binary by extension)
//   workload_tool match <trace> <matcher>    (scan|counting|k-index|be-tree|
//                                             pcm|pcm-lazy|a-pcm)
//   workload_tool index <trace> <out.idx>    (build + persist a PCM index)
//   workload_tool match-indexed <trace> <idx>  (load index, skip build)
//
// Build & run:  ./build/examples/workload_tool generate /tmp/w.bin --subs 10000

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/string_util.h"
#include "src/base/timer.h"
#include "src/core/pcm.h"
#include "src/engine/matcher_factory.h"
#include "src/workload/trace.h"

namespace {

using apcm::FormatWithCommas;
using apcm::Status;
using apcm::workload::Workload;
using apcm::workload::WorkloadSpec;

bool HasSuffix(const std::string& path, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
}

apcm::StatusOr<Workload> Load(const std::string& path) {
  if (HasSuffix(path, ".txt")) return apcm::workload::LoadText(path);
  return apcm::workload::LoadBinary(path);
}

Status Save(const Workload& workload, const std::string& path) {
  if (HasSuffix(path, ".txt")) return apcm::workload::SaveText(workload, path);
  return apcm::workload::SaveBinary(workload, path);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  workload_tool generate <out> [--subs N] [--events N] "
               "[--dims N] [--seed N] [--seeded F] [--zipf F]\n"
               "  workload_tool info <trace>\n"
               "  workload_tool convert <in> <out>\n"
               "  workload_tool match <trace> "
               "<scan|counting|k-index|be-tree|pcm|pcm-lazy|a-pcm>\n"
               "  workload_tool index <trace> <out.idx>\n"
               "  workload_tool match-indexed <trace> <idx>\n"
               "(*.txt paths use the text format, everything else binary)\n");
  return 2;
}

int Generate(int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::string out = argv[0];
  WorkloadSpec spec;
  spec.num_subscriptions = 10'000;
  spec.num_events = 1'000;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage();  // dangling flag
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--subs") {
      spec.num_subscriptions = static_cast<uint32_t>(std::atoll(value));
    } else if (flag == "--events") {
      spec.num_events = static_cast<uint32_t>(std::atoll(value));
    } else if (flag == "--dims") {
      spec.num_attributes = static_cast<uint32_t>(std::atoll(value));
    } else if (flag == "--seed") {
      spec.seed = static_cast<uint64_t>(std::atoll(value));
    } else if (flag == "--seeded") {
      spec.seeded_event_fraction = std::atof(value);
    } else if (flag == "--zipf") {
      spec.attribute_zipf = std::atof(value);
    } else {
      return Usage();
    }
  }
  auto workload = apcm::workload::Generate(spec);
  if (!workload.ok()) return Fail(workload.status());
  const Status saved = Save(*workload, out);
  if (!saved.ok()) return Fail(saved);
  std::printf("wrote %s: %s\n", out.c_str(), spec.ToString().c_str());
  return 0;
}

int Info(const std::string& path) {
  auto workload = Load(path);
  if (!workload.ok()) return Fail(workload.status());
  uint64_t predicates = 0;
  size_t min_preds = SIZE_MAX;
  size_t max_preds = 0;
  for (const auto& sub : workload->subscriptions) {
    predicates += sub.size();
    min_preds = std::min(min_preds, sub.size());
    max_preds = std::max(max_preds, sub.size());
  }
  std::printf("trace:          %s\n", path.c_str());
  std::printf("attributes:     %s\n",
              FormatWithCommas(workload->catalog.size()).c_str());
  std::printf("subscriptions:  %s (predicates %s, %zu-%zu each)\n",
              FormatWithCommas(workload->subscriptions.size()).c_str(),
              FormatWithCommas(predicates).c_str(),
              workload->subscriptions.empty() ? 0 : min_preds, max_preds);
  std::printf("events:         %s\n",
              FormatWithCommas(workload->events.size()).c_str());
  if (!workload->subscriptions.empty()) {
    std::printf("first sub:      %s\n",
                workload->subscriptions.front()
                    .ToString(&workload->catalog)
                    .c_str());
  }
  if (!workload->events.empty()) {
    std::printf("first event:    %s\n",
                workload->events.front().ToString(&workload->catalog).c_str());
  }
  return 0;
}

int Convert(const std::string& in, const std::string& out) {
  auto workload = Load(in);
  if (!workload.ok()) return Fail(workload.status());
  const Status saved = Save(*workload, out);
  if (!saved.ok()) return Fail(saved);
  std::printf("converted %s -> %s\n", in.c_str(), out.c_str());
  return 0;
}

int Match(const std::string& path, const std::string& matcher_name) {
  auto workload = Load(path);
  if (!workload.ok()) return Fail(workload.status());
  auto kind = apcm::engine::ParseMatcherKind(matcher_name);
  if (!kind.ok()) return Fail(kind.status());
  apcm::engine::MatcherConfig config;
  // Derive the domain from the catalog (all attributes share one in
  // generated workloads; take the hull otherwise).
  if (workload->catalog.size() > 0) {
    auto domain = workload->catalog.Domain(0);
    for (apcm::AttributeId a = 1; a < workload->catalog.size(); ++a) {
      domain.lo = std::min(domain.lo, workload->catalog.Domain(a).lo);
      domain.hi = std::max(domain.hi, workload->catalog.Domain(a).hi);
    }
    config.domain = domain;
  }
  auto matcher = apcm::engine::CreateMatcher(kind.value(), config);

  apcm::WallTimer build_timer;
  matcher->Build(workload->subscriptions);
  std::printf("built %s over %s subscriptions in %.3fs (%s)\n",
              matcher->Name().c_str(),
              FormatWithCommas(workload->subscriptions.size()).c_str(),
              build_timer.ElapsedSeconds(),
              apcm::FormatBytes(matcher->MemoryBytes()).c_str());

  std::vector<std::vector<apcm::SubscriptionId>> results;
  apcm::WallTimer match_timer;
  matcher->MatchBatch(workload->events, &results);
  const double seconds = match_timer.ElapsedSeconds();
  uint64_t matches = 0;
  for (const auto& r : results) matches += r.size();
  std::printf("matched %s events in %.3fs: %s events/s, %s matches total\n",
              FormatWithCommas(workload->events.size()).c_str(), seconds,
              FormatWithCommas(static_cast<uint64_t>(
                  static_cast<double>(workload->events.size()) / seconds))
                  .c_str(),
              FormatWithCommas(matches).c_str());
  return 0;
}

int BuildIndex(const std::string& trace_path, const std::string& index_path) {
  auto workload = Load(trace_path);
  if (!workload.ok()) return Fail(workload.status());
  apcm::core::PcmMatcher matcher{apcm::core::PcmOptions{}};
  apcm::WallTimer timer;
  matcher.Build(workload->subscriptions);
  const double build_seconds = timer.ElapsedSeconds();
  const Status saved = matcher.SaveIndex(index_path);
  if (!saved.ok()) return Fail(saved);
  std::printf("built in %.3fs, index saved to %s (%zu clusters, %s)\n",
              build_seconds, index_path.c_str(), matcher.clusters().size(),
              apcm::FormatBytes(matcher.MemoryBytes()).c_str());
  return 0;
}

int MatchIndexed(const std::string& trace_path,
                 const std::string& index_path) {
  auto workload = Load(trace_path);
  if (!workload.ok()) return Fail(workload.status());
  apcm::core::PcmMatcher matcher{apcm::core::PcmOptions{}};
  apcm::WallTimer load_timer;
  std::vector<const apcm::BooleanExpression*> subscriptions;
  for (const apcm::BooleanExpression& sub : workload->subscriptions) {
    subscriptions.push_back(&sub);
  }
  const Status loaded = matcher.LoadIndex(subscriptions, index_path);
  if (!loaded.ok()) return Fail(loaded);
  std::printf("index loaded in %.3fs (vs. a fresh build)\n",
              load_timer.ElapsedSeconds());
  std::vector<std::vector<apcm::SubscriptionId>> results;
  apcm::WallTimer match_timer;
  matcher.MatchBatch(workload->events, &results);
  uint64_t matches = 0;
  for (const auto& r : results) matches += r.size();
  std::printf("matched %s events in %.3fs, %s matches total\n",
              FormatWithCommas(workload->events.size()).c_str(),
              match_timer.ElapsedSeconds(),
              FormatWithCommas(matches).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "generate" && argc >= 3) return Generate(argc - 2, argv + 2);
  if (command == "info" && argc == 3) return Info(argv[2]);
  if (command == "convert" && argc == 4) return Convert(argv[2], argv[3]);
  if (command == "match" && argc == 4) return Match(argv[2], argv[3]);
  if (command == "index" && argc == 4) return BuildIndex(argv[2], argv[3]);
  if (command == "match-indexed" && argc == 4) {
    return MatchIndexed(argv[2], argv[3]);
  }
  return Usage();
}
