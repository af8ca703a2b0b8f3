// Workload table, seeded input generation, and the reference oracle.
#include <algorithm>
#include <numeric>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/base/rng.h"
#include "src/index/scan.h"
#include "src/workload/generator.h"

namespace perfbench {
namespace {

// Open-loop rates are 10-20% of the closed-loop saturation measured on the
// reference host (4 vCPU, AVX-512); README.md records the numbers and why.
const WorkloadConfig kWorkloads[] = {
    // name, window_book, subs, churn_pool, churn_live, sub_conns,
    // publish_rate, churn_rate
    {"match-100k", false, 100'000, 2'000, 200, 1, 1'500, 200},
    {"fanout-net", true, 1'000, 400, 100, 2, 15'000, 200},
};

constexpr uint32_t kBegenEvents = 4096;
constexpr uint32_t kWindowAttributes = 16;
constexpr uint32_t kWindowEvents = 2048;
constexpr int64_t kWindowDomain = 1000;
constexpr int64_t kWindowWidth = 50;

/// bench::DefaultSpec's BEGen shape: 400 attributes, Zipf 1.0 attribute and
/// value skew, a 2% operand grid, 5-15 predicates, 50% seeded events.
apcm::workload::WorkloadSpec BegenSpec(uint64_t seed, uint32_t subs) {
  apcm::workload::WorkloadSpec spec;
  spec.seed = seed;
  spec.num_subscriptions = subs;
  spec.num_events = kBegenEvents;
  spec.num_attributes = 400;
  spec.domain_min = 0;
  spec.domain_max = 10'000;
  spec.min_predicates = 5;
  spec.max_predicates = 15;
  spec.min_event_attrs = 15;
  spec.max_event_attrs = 35;
  spec.attribute_zipf = 1.0;
  spec.value_zipf = 1.0;
  spec.operand_grid = 0.02;
  spec.equality_fraction = 0.25;
  spec.in_fraction = 0.05;
  spec.ne_fraction = 0.02;
  spec.inequality_fraction = 0.18;
  spec.predicate_width = 0.10;
  spec.seeded_event_fraction = 0.5;
  return spec;
}

std::string TextOf(const BooleanExpression& expr,
                   const apcm::Catalog& catalog) {
  std::string text;
  for (const apcm::Predicate& p : expr.predicates()) {
    if (!text.empty()) text += " and ";
    text += p.ToString(&catalog);
  }
  return text;
}

/// bench_net's single-window book: "a<i%16> between [lo, lo+50]" over a
/// 1000-value domain; events carry each attribute with probability 1/2.
void MakeWindowBook(const WorkloadConfig& config, uint64_t seed,
                    Inputs* in) {
  apcm::Rng rng(seed);
  auto window = [&](uint32_t i, uint32_t id) {
    const int64_t lo = rng.UniformInt(0, kWindowDomain - kWindowWidth - 1);
    return BooleanExpression::FromSorted(
        id, {apcm::Predicate(i % kWindowAttributes, lo, lo + kWindowWidth)});
  };
  for (uint32_t i = 0; i < config.subs; ++i) in->subs.push_back(window(i, i));
  for (uint32_t i = 0; i < config.churn_pool; ++i) {
    in->churn.push_back(window(i, i));
  }
  for (uint32_t i = 0; i < kWindowEvents; ++i) {
    std::vector<Event::Entry> entries;
    for (uint32_t a = 0; a < kWindowAttributes; ++a) {
      if (rng.Bernoulli(0.5)) {
        entries.push_back({a, rng.UniformInt(0, kWindowDomain - 1)});
      }
    }
    if (entries.empty()) entries.push_back({0, 0});
    in->events.push_back(Event::FromSorted(std::move(entries)));
  }
}

}  // namespace

const WorkloadConfig* FindWorkload(std::string_view name) {
  for (const WorkloadConfig& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> SchemaFor(const WorkloadConfig& config) {
  const uint32_t n = config.window_book ? kWindowAttributes : 400;
  std::vector<std::string> names;
  for (uint32_t a = 0; a < n; ++a) names.push_back("a" + std::to_string(a));
  return names;
}

std::vector<std::vector<uint32_t>> ReferenceMatches(
    const std::vector<BooleanExpression>& subs,
    const std::vector<Event>& events, int threads) {
  // Bucket each expression under its globally rarest attribute.
  std::vector<uint32_t> popularity;
  for (const BooleanExpression& s : subs) {
    for (const apcm::Predicate& p : s.predicates()) {
      if (p.attribute() >= popularity.size()) {
        popularity.resize(p.attribute() + 1, 0);
      }
      ++popularity[p.attribute()];
    }
  }
  std::vector<std::vector<uint32_t>> buckets(popularity.size());
  std::vector<uint32_t> always;
  for (uint32_t i = 0; i < subs.size(); ++i) {
    const auto& preds = subs[i].predicates();
    if (preds.empty()) {
      always.push_back(i);
      continue;
    }
    auto rarest = std::min_element(
        preds.begin(), preds.end(), [&](const auto& a, const auto& b) {
          return popularity[a.attribute()] < popularity[b.attribute()];
        });
    buckets[rarest->attribute()].push_back(i);
  }
  std::vector<std::vector<uint32_t>> out(events.size());
  auto work = [&](size_t begin, size_t step) {
    for (size_t e = begin; e < events.size(); e += step) {
      std::vector<uint32_t>& hits = out[e];
      hits = always;
      for (const Event::Entry& entry : events[e].entries()) {
        if (entry.attr >= buckets.size()) continue;
        for (uint32_t i : buckets[entry.attr]) {
          if (subs[i].Matches(events[e])) hits.push_back(i);
        }
      }
      std::sort(hits.begin(), hits.end());
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(work, t, threads);
  for (std::thread& t : pool) t.join();
  return out;
}

apcm::StatusOr<Inputs> MakeInputs(const WorkloadConfig& config,
                                  uint64_t seed) {
  const int64_t t0 = NowNs();
  Inputs in;
  for (const std::string& name : SchemaFor(config)) {
    in.catalog.GetOrAddAttribute(
        name, {0, config.window_book ? kWindowDomain - 1 : 10'000});
  }
  if (config.window_book) {
    MakeWindowBook(config, seed, &in);
  } else {
    APCM_ASSIGN_OR_RETURN(
        apcm::workload::Workload w,
        apcm::workload::Generate(
            BegenSpec(seed, config.subs + config.churn_pool)));
    in.events = std::move(w.events);
    in.subs.reserve(config.subs);
    for (uint32_t i = 0; i < w.subscriptions.size(); ++i) {
      BooleanExpression& s = w.subscriptions[i];
      if (i < config.subs) {
        in.subs.push_back(BooleanExpression::FromSorted(i, s.predicates()));
      } else {
        in.churn.push_back(BooleanExpression::FromSorted(
            i - config.subs, s.predicates()));
      }
    }
  }
  for (const auto& s : in.subs) in.sub_texts.push_back(TextOf(s, in.catalog));
  for (const auto& s : in.churn) {
    in.churn_texts.push_back(TextOf(s, in.catalog));
  }
  in.order.resize(in.events.size());
  std::iota(in.order.begin(), in.order.end(), 0u);
  apcm::Rng rng(seed ^ 0x5eedULL);
  std::shuffle(in.order.begin(), in.order.end(), rng);

  const int threads =
      static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  in.ref = ReferenceMatches(in.subs, in.events, threads);
  in.churn_ref = ReferenceMatches(in.churn, in.events, threads);

  // Cross-check the filtered reference against a plain ScanMatcher on a
  // few events, so a filter bug cannot silently redefine "correct".
  apcm::index::ScanMatcher scan;
  scan.Build(in.subs);
  std::vector<apcm::SubscriptionId> hits;
  for (size_t e = 0; e < std::min<size_t>(8, in.events.size()); ++e) {
    scan.Match(in.events[e], &hits);
    if (!std::equal(hits.begin(), hits.end(), in.ref[e].begin(),
                    in.ref[e].end())) {
      return apcm::Status::Internal("reference disagrees with ScanMatcher");
    }
  }
  in.gen_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return in;
}

}  // namespace perfbench
