// The engine keeps one copy of each subscription: its master list, every
// snapshot and the PCM delta path share refcounted expressions. This binary
// replaces the global allocation functions with a live-byte counter, so the
// claim is checked in bytes rather than inferred from process RSS.

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/engine/matcher_factory.h"
#include "src/workload/generator.h"

namespace {

std::atomic<int64_t> g_live_bytes{0};

void* CountedAlloc(size_t size, size_t align) {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (::posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  if (p != nullptr) {
    g_live_bytes.fetch_add(static_cast<int64_t>(::malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

void* CountedAllocOrThrow(size_t size, size_t align) {
  void* p = CountedAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(::malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

/// Bytes allocated through operator new and not yet freed, process-wide.
int64_t LiveBytes() { return g_live_bytes.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(size_t size) { return CountedAllocOrThrow(size, 0); }
void* operator new[](size_t size) { return CountedAllocOrThrow(size, 0); }
void* operator new(size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<size_t>(align));
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new(size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<size_t>(align));
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace apcm {
namespace {

using engine::MatcherKind;

class ExpressionMemoryTest : public ::testing::TestWithParam<MatcherKind> {};

/// A = bytes the engine's first publish + Flush leaves allocated (the first
/// snapshot: matcher plus whatever it keeps the expressions alive with);
/// B = bytes a bare matcher Build over the same expressions leaves
/// allocated; C = bytes of one copy of the expressions. A − B is what the
/// engine keeps beside the index. Sharing handles makes it a pointer-sized
/// share of C; a snapshot that copies the expressions makes it about C.
TEST_P(ExpressionMemoryTest, FirstSnapshotAddsNoCopyOfTheExpressions) {
  const MatcherKind kind = GetParam();
  workload::WorkloadSpec spec;
  spec.seed = 17;
  spec.num_subscriptions = 20'000;
  spec.num_events = 4;
  const workload::Workload workload = workload::Generate(spec).value();

  int64_t copy_bytes = 0;  // C
  {
    const int64_t before = LiveBytes();
    const std::vector<BooleanExpression> copy(workload.subscriptions);
    copy_bytes = LiveBytes() - before;
  }
  engine::EngineOptions options;
  options.kind = kind;

  int64_t matcher_bytes = 0;  // B
  {
    const int64_t before = LiveBytes();
    std::unique_ptr<Matcher> matcher =
        engine::CreateMatcher(options.kind, options.matcher);
    matcher->Build(workload.subscriptions);
    matcher_bytes = LiveBytes() - before;
  }

  int64_t engine_bytes = 0;  // A
  {
    engine::StreamEngine engine(
        options, [](uint64_t, const std::vector<SubscriptionId>&) {});
    for (const BooleanExpression& sub : workload.subscriptions) {
      ASSERT_TRUE(engine.AddSubscription(sub.predicates()).ok());
    }
    const int64_t before = LiveBytes();
    engine.Publish(workload.events[0]);
    engine.Flush();
    engine_bytes = LiveBytes() - before;
    ASSERT_EQ(engine.stats().rebuilds.load(), 1u);
  }

  std::printf("%s: one copy %lld B, bare build %lld B, first snapshot %lld B,"
              " beside the index %lld B\n",
              std::string(engine::MatcherKindName(kind)).c_str(),
              static_cast<long long>(copy_bytes),
              static_cast<long long>(matcher_bytes),
              static_cast<long long>(engine_bytes),
              static_cast<long long>(engine_bytes - matcher_bytes));
  ASSERT_GT(copy_bytes, 0);
  EXPECT_LT(engine_bytes - matcher_bytes, copy_bytes / 4);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ExpressionMemoryTest,
                         ::testing::Values(MatcherKind::kAPcm,
                                           MatcherKind::kScan),
                         [](const auto& info) {
                           return info.param == MatcherKind::kAPcm
                                      ? std::string("APcm")
                                      : std::string("Scan");
                         });

}  // namespace
}  // namespace apcm
