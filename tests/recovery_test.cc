// Durable-subscription recovery matrix (ctest label: recovery). The core
// property: after ANY crash, the recovered engine's observable behavior —
// match sets over a probe stream, live-subscription count, priorities via
// top-k delivery — is byte-identical to an in-memory oracle that applied
// exactly the acknowledged mutations. Crashes are simulated by the
// `store.*` failpoint seams (process kill vs. power loss; see
// src/store/durable_store.h), so the kill-matrix suites need a build with
// -DAPCM_FAILPOINTS=ON and GTEST_SKIP otherwise; the clean-restart,
// checkpoint, and codec suites run everywhere.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/crc32c.h"
#include "src/base/failpoint.h"
#include "src/base/file_io.h"
#include "src/base/rng.h"
#include "src/core/pcm.h"
#include "src/engine/engine.h"
#include "src/store/checkpoint.h"
#include "src/store/durable_store.h"
#include "src/store/wal.h"

namespace apcm {
namespace {

using engine::EngineOptions;
using engine::MatcherKind;
using engine::StreamEngine;

uint64_t CounterValue(const MetricsRegistry& registry,
                      const std::string& name) {
  for (const MetricSample& sample : registry.Collect()) {
    if (sample.name == name) return sample.counter_value;
  }
  ADD_FAILURE() << "metric not registered: " << name;
  return 0;
}

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/apcm_recovery_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path_ = made;
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Deterministic mutation scripts. Every op appends exactly one WAL record
// (removals and priorities always target a live registration), so "arm the
// kill seam before op K" is the same cut point on every run.
// ---------------------------------------------------------------------------

struct ScriptOp {
  enum Kind { kAdd, kAddDnf, kRemove, kPriority };
  Kind kind;
  std::vector<std::vector<Predicate>> disjuncts;  // kAdd: one entry
  size_t target = 0;  // registration index, for kRemove / kPriority
  double priority = 0;
};

std::vector<Predicate> RandomConjunction(Rng& rng) {
  std::vector<Predicate> preds;
  uint64_t attr = rng.Uniform(2);
  const int n = 1 + static_cast<int>(rng.Uniform(3));
  for (int i = 0; i < n && attr < 8; ++i) {
    const auto id = static_cast<AttributeId>(attr);
    const auto v = static_cast<Value>(rng.Uniform(100));
    switch (rng.Uniform(4)) {
      case 0:
        preds.emplace_back(id, Op::kGe, v);
        break;
      case 1:
        preds.emplace_back(id, Op::kLe, v);
        break;
      case 2:
        preds.emplace_back(id, v, v + static_cast<Value>(rng.Uniform(30)));
        break;
      default:
        preds.emplace_back(
            id, std::vector<Value>{v, v + 1,
                                   static_cast<Value>(rng.Uniform(100))});
        break;
    }
    attr += 1 + rng.Uniform(3);
  }
  return preds;
}

std::vector<ScriptOp> MakeScript(uint64_t seed, size_t nops) {
  Rng rng(seed);
  std::vector<ScriptOp> ops;
  std::vector<size_t> live;  // live registration indices
  size_t reg_count = 0;
  for (size_t i = 0; i < nops; ++i) {
    const uint64_t pick = rng.Uniform(10);
    ScriptOp op;
    if (live.size() < 2 || pick < 4) {
      op.kind = ScriptOp::kAdd;
      op.disjuncts.push_back(RandomConjunction(rng));
      live.push_back(reg_count++);
    } else if (pick < 6) {
      op.kind = ScriptOp::kAddDnf;
      const int nd = 2 + static_cast<int>(rng.Uniform(2));
      for (int d = 0; d < nd; ++d) {
        op.disjuncts.push_back(RandomConjunction(rng));
      }
      live.push_back(reg_count++);
    } else if (pick < 8) {
      op.kind = ScriptOp::kRemove;
      const size_t idx = rng.Uniform(live.size());
      op.target = live[idx];
      live.erase(live.begin() + static_cast<long>(idx));
    } else {
      op.kind = ScriptOp::kPriority;
      op.target = live[rng.Uniform(live.size())];
      op.priority = 1 + static_cast<double>(rng.Uniform(9));
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<Event> MakeProbes(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<Event> events;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Event::Entry> entries;
    uint64_t attr = rng.Uniform(2);
    while (attr < 8) {
      entries.push_back({static_cast<AttributeId>(attr),
                         static_cast<Value>(rng.Uniform(120))});
      attr += 1 + rng.Uniform(3);
    }
    events.push_back(Event::FromSorted(std::move(entries)));
  }
  return events;
}

struct ScriptState {
  std::vector<SubscriptionId> ids;  // per registration index
  std::vector<bool> acked;          // per op
  int first_failure = -1;
};

/// Applies `ops` in order (skipping indices where `mask` is false, when
/// given); just before op `arm_at`, arms `seam` with `1*return(arg)`.
/// Engine ids are recorded per registration index, so removals/priorities
/// resolve their targets identically on the durable run, the oracle, and
/// the recovered engine (WAL ids are contiguous in registration order).
/// `seed_ids` carries registration ids from an earlier partial application,
/// so a script may be split across calls (targets index the full script's
/// registration space).
ScriptState ApplyScript(StreamEngine& engine, const std::vector<ScriptOp>& ops,
                        const std::vector<bool>* mask = nullptr,
                        const char* seam = nullptr, uint64_t arg = 0,
                        int arm_at = -1,
                        std::vector<SubscriptionId> seed_ids = {}) {
  ScriptState st;
  st.ids = std::move(seed_ids);
  for (size_t i = 0; i < ops.size(); ++i) {
    if (seam != nullptr && static_cast<int>(i) == arm_at) {
      const std::string spec = "1*return(" + std::to_string(arg) + ")";
      EXPECT_TRUE(failpoint::Configure(seam, spec).ok());
    }
    const ScriptOp& op = ops[i];
    const bool skip = mask != nullptr && !(*mask)[i];
    bool ok = false;
    switch (op.kind) {
      case ScriptOp::kAdd: {
        st.ids.push_back(kInvalidSubscriptionId);
        if (skip) break;
        auto added = engine.AddSubscription(op.disjuncts[0]);
        if (added.ok()) {
          st.ids.back() = *added;
          ok = true;
        }
        break;
      }
      case ScriptOp::kAddDnf: {
        st.ids.push_back(kInvalidSubscriptionId);
        if (skip) break;
        auto added = engine.AddDisjunctiveSubscription(op.disjuncts);
        if (added.ok()) {
          st.ids.back() = *added;
          ok = true;
        }
        break;
      }
      case ScriptOp::kRemove: {
        if (skip) break;
        const SubscriptionId id = st.ids[op.target];
        ok = id != kInvalidSubscriptionId &&
             engine.RemoveSubscription(id).ok();
        break;
      }
      case ScriptOp::kPriority: {
        if (skip) break;
        const SubscriptionId id = st.ids[op.target];
        ok = id != kInvalidSubscriptionId &&
             engine.SetPriority(id, op.priority).ok();
        break;
      }
    }
    st.acked.push_back(ok);
    if (!ok && !skip && st.first_failure < 0) {
      st.first_failure = static_cast<int>(i);
    }
  }
  return st;
}

/// FNV-1a over publish-index -> ascending match ids. Depends only on
/// logical content: both engines assign the same dense event ids (fresh
/// engines, identical probe order) and the same subscription ids
/// (registration order is the id order on both sides).
uint64_t HashRows(const std::map<uint64_t, std::vector<SubscriptionId>>& rows) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [key, subs] : rows) {
    mix(key);
    mix(subs.size());
    for (SubscriptionId s : subs) mix(s);
  }
  return h;
}

/// Engine plus match collector. Member order matters: the callback writes
/// rows/mu, so the engine (declared last) is destroyed first.
struct Harness {
  explicit Harness(EngineOptions options)
      : engine(std::move(options),
               [this](uint64_t event_id,
                      const std::vector<SubscriptionId>& matches) {
                 std::lock_guard<std::mutex> lock(mu);
                 if (!matches.empty()) rows[event_id] = matches;
               }) {}

  uint64_t Probe(const std::vector<Event>& probes) {
    for (const Event& event : probes) engine.Publish(event);
    engine.Flush();
    std::lock_guard<std::mutex> lock(mu);
    return HashRows(rows);
  }

  std::mutex mu;
  std::map<uint64_t, std::vector<SubscriptionId>> rows;
  StreamEngine engine;
};

EngineOptions BaseOptions() {
  EngineOptions options;
  options.batch_size = 16;
  options.buffer_capacity = 16;
  options.osr.window_size = 0;
  options.matcher.pcm.clustering.cluster_size = 32;
  options.top_k = 2;  // priorities shape deliveries -> the digest sees them
  options.trace_sample_every = 0;
  return options;
}

EngineOptions DurableOptions(const std::string& dir) {
  EngineOptions options = BaseOptions();
  options.data_dir = dir;
  options.wal_sync_every = 1;
  options.checkpoint_every_ops = 5;
  return options;
}

/// Digest + live count of the oracle: a fresh in-memory engine that applies
/// exactly the ops where `mask` is true.
std::pair<uint64_t, size_t> OracleDigest(const std::vector<ScriptOp>& script,
                                         const std::vector<bool>& mask,
                                         const std::vector<Event>& probes,
                                         EngineOptions options = BaseOptions()) {
  options.data_dir.clear();
  Harness oracle(options);
  const ScriptState st = ApplyScript(oracle.engine, script, &mask);
  for (size_t i = 0; i < mask.size(); ++i) {
    EXPECT_TRUE(!mask[i] || st.acked[i]) << "oracle rejected op " << i;
  }
  return {oracle.Probe(probes), oracle.engine.num_subscriptions()};
}

// ---------------------------------------------------------------------------
// Codec sanity (runs in every build).
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownVectorsAndMasking) {
  // RFC 3720 test vectors for CRC32C.
  EXPECT_EQ(Crc32c(0, "", 0), 0x00000000u);
  EXPECT_EQ(Crc32c(0, "123456789", 9), 0xE3069283u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(0, zeros.data(), zeros.size()), 0x8A9136AAu);
  // Incremental == one-shot.
  const std::string data = "hello, durable subscriptions";
  uint32_t split = Crc32c(0, data.data(), 10);
  split = Crc32c(split, data.data() + 10, data.size() - 10);
  EXPECT_EQ(split, Crc32c(0, data.data(), data.size()));
  // Masking round-trips and moves the value (stored CRCs of CRCs stay sane).
  const uint32_t crc = Crc32c(0, data.data(), data.size());
  EXPECT_NE(MaskCrc32c(crc), crc);
  EXPECT_EQ(UnmaskCrc32c(MaskCrc32c(crc)), crc);
}

TEST(WalCodecTest, AllRecordKindsRoundTrip) {
  std::vector<store::WalRecord> originals;
  {
    store::WalRecord add;
    add.seq = 1;
    add.kind = store::WalRecord::Kind::kAdd;
    add.id = 0;
    add.disjuncts.push_back(
        {Predicate(0, Op::kGe, 5), Predicate(3, -7, 12),
         Predicate(5, std::vector<Value>{1, 9, 4})});
    originals.push_back(add);
    store::WalRecord dnf;
    dnf.seq = 2;
    dnf.kind = store::WalRecord::Kind::kAddDnf;
    dnf.id = 1;
    dnf.disjuncts.push_back({Predicate(1, Op::kLt, 3)});
    dnf.disjuncts.push_back({Predicate(2, Op::kNe, -1)});
    originals.push_back(dnf);
    store::WalRecord prio;
    prio.seq = 3;
    prio.kind = store::WalRecord::Kind::kPriority;
    prio.id = 1;
    prio.priority = 2.5;
    originals.push_back(prio);
    store::WalRecord remove;
    remove.seq = 4;
    remove.kind = store::WalRecord::Kind::kRemove;
    remove.id = 0;
    originals.push_back(remove);
  }
  std::string buffer;
  for (const store::WalRecord& record : originals) {
    EncodeWalRecord(record, &buffer);
  }
  const store::WalDecodeResult decoded = store::DecodeWalBuffer(buffer);
  EXPECT_FALSE(decoded.torn);
  EXPECT_EQ(decoded.valid_bytes, buffer.size());
  ASSERT_EQ(decoded.records.size(), originals.size());
  for (size_t i = 0; i < originals.size(); ++i) {
    const store::WalRecord& a = originals[i];
    const store::WalRecord& b = decoded.records[i];
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.priority, b.priority);
    ASSERT_EQ(a.disjuncts.size(), b.disjuncts.size());
    for (size_t d = 0; d < a.disjuncts.size(); ++d) {
      EXPECT_EQ(a.disjuncts[d], b.disjuncts[d]) << "record " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Clean restart and checkpoint behavior (runs in every build).
// ---------------------------------------------------------------------------

TEST(RecoveryTest, CleanRestartReplaysEveryAcknowledgedOp) {
  const auto script = MakeScript(0xA11CE, 24);
  const auto probes = MakeProbes(0xBEEF, 32);
  TempDir dir;
  {
    Harness durable(DurableOptions(dir.path()));
    const ScriptState st = ApplyScript(durable.engine, script);
    for (size_t i = 0; i < st.acked.size(); ++i) {
      EXPECT_TRUE(st.acked[i]) << "op " << i;
    }
    EXPECT_TRUE(durable.engine.durable());
  }
  Harness recovered(DurableOptions(dir.path()));
  const std::vector<bool> all(script.size(), true);
  const auto [oracle_digest, oracle_subs] =
      OracleDigest(script, all, probes);
  EXPECT_EQ(recovered.engine.num_subscriptions(), oracle_subs);
  EXPECT_EQ(recovered.Probe(probes), oracle_digest);
  // New mutations keep working against the recovered id allocator.
  EXPECT_TRUE(
      recovered.engine.AddSubscription({Predicate(0, Op::kGe, 0)}).ok());
}

TEST(RecoveryTest, ExplicitCheckpointTruncatesLogAndBoundsReplay) {
  const auto script = MakeScript(0xC0FFEE, 20);
  const auto probes = MakeProbes(0xF00D, 32);
  const size_t cut = 12;  // ops [0, cut) before the checkpoint, rest after
  TempDir dir;
  EngineOptions options = DurableOptions(dir.path());
  options.checkpoint_every_ops = 0;  // explicit Checkpoint() only
  {
    // Checkpoint() without a data_dir has nothing to persist.
    Harness ephemeral(BaseOptions());
    EXPECT_EQ(ephemeral.engine.Checkpoint().code(),
              StatusCode::kFailedPrecondition);
  }
  {
    Harness durable(options);
    const std::vector<ScriptOp> before(script.begin(),
                                       script.begin() + cut);
    const std::vector<ScriptOp> after(script.begin() + cut, script.end());
    const auto head = ApplyScript(durable.engine, before);
    ASSERT_TRUE(durable.engine.Checkpoint().ok());
    // Wait: Checkpoint() is synchronous, so the log is already truncated:
    // exactly one checkpoint file, no segment based below it.
    const auto names = ListDir(dir.path()).value();
    size_t checkpoints = 0;
    for (const std::string& name : names) {
      if (name.ends_with(".ckpt")) ++checkpoints;
      EXPECT_FALSE(name == store::WalSegmentName(0))
          << "pre-checkpoint segment survived truncation";
    }
    EXPECT_EQ(checkpoints, 1u);
    const auto tail = ApplyScript(durable.engine, after, nullptr, nullptr,
                                  /*arg=*/0, /*arm_at=*/-1, head.ids);
    for (const bool acked : tail.acked) EXPECT_TRUE(acked);
  }
  {
    Harness recovered(options);
    // Replay was bounded to the WAL tail behind the checkpoint.
    EXPECT_EQ(CounterValue(recovered.engine.metrics_registry(),
                           "apcm_recovery_records_total"),
              script.size() - cut);
    const std::vector<bool> all(script.size(), true);
    const auto [oracle_digest, oracle_subs] =
        OracleDigest(script, all, probes);
    EXPECT_EQ(recovered.engine.num_subscriptions(), oracle_subs);
    EXPECT_EQ(recovered.Probe(probes), oracle_digest);
  }
}

/// Satellite property: snapshot + WAL round-trip across matcher backends —
/// the checkpoint image embeds a PCM index only for PCM-family configs,
/// everything else recovers through pure state + replay, and both paths
/// must agree with the oracle.
TEST(RecoveryTest, RoundTripAcrossMatcherBackends) {
  const auto script = MakeScript(0x5EED, 22);
  const auto probes = MakeProbes(0x5EED2, 32);
  for (const MatcherKind kind : {MatcherKind::kAPcm, MatcherKind::kPcm,
                                 MatcherKind::kPcmLazy, MatcherKind::kScan}) {
    SCOPED_TRACE(std::string(MatcherKindName(kind)));
    TempDir dir;
    EngineOptions options = DurableOptions(dir.path());
    options.kind = kind;
    // Explicit Checkpoint() only, so it cannot race a background one.
    options.checkpoint_every_ops = 0;
    {
      Harness durable(options);
      ApplyScript(durable.engine, script);
      ASSERT_TRUE(durable.engine.Checkpoint().ok());
    }
    Harness recovered(options);
    const std::vector<bool> all(script.size(), true);
    const auto [oracle_digest, oracle_subs] =
        OracleDigest(script, all, probes, options);
    EXPECT_EQ(recovered.engine.num_subscriptions(), oracle_subs);
    EXPECT_EQ(recovered.Probe(probes), oracle_digest);
  }
}

/// Path of the single checkpoint file in `dir` ("" when there is none).
std::string CheckpointPath(const std::string& dir) {
  std::string path;
  const auto names = ListDir(dir).value();
  for (const std::string& name : names) {
    if (name.ends_with(".ckpt")) path = dir + "/" + name;
  }
  return path;
}

/// A PCM-family checkpoint embeds its index image (index form 1), and
/// recovery installs that image as the initial snapshot: the recovered
/// engine answers probes without a single rebuild.
TEST(RecoveryTest, IndexImageCheckpointRecoversWithoutRebuild) {
  const auto script = MakeScript(0x1DE7, 26);
  const auto probes = MakeProbes(0x1DE72, 32);
  TempDir dir;
  EngineOptions options = DurableOptions(dir.path());
  options.kind = MatcherKind::kAPcm;
  options.checkpoint_every_ops = 0;  // explicit Checkpoint() only
  {
    Harness durable(options);
    ApplyScript(durable.engine, script);
    ASSERT_TRUE(durable.engine.Checkpoint().ok());
  }
  const std::string ckpt_path = CheckpointPath(dir.path());
  ASSERT_FALSE(ckpt_path.empty());
  const auto decoded =
      store::DecodeCheckpoint(ReadFileToString(ckpt_path).value());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->index_kind, MatcherKindName(MatcherKind::kAPcm));
  EXPECT_FALSE(decoded->index_image.empty());

  Harness recovered(options);
  EXPECT_EQ(CounterValue(recovered.engine.metrics_registry(),
                         "apcm_recovery_records_total"),
            0u);
  const std::vector<bool> all(script.size(), true);
  const auto [oracle_digest, oracle_subs] =
      OracleDigest(script, all, probes, options);
  EXPECT_EQ(recovered.engine.num_subscriptions(), oracle_subs);
  EXPECT_EQ(recovered.Probe(probes), oracle_digest);
  // The probes ran entirely on the loaded image: nothing was rebuilt.
  EXPECT_EQ(CounterValue(recovered.engine.metrics_registry(),
                         "apcm_rebuilds_total"),
            0u);
}

/// FNV-1a over raw bytes.
uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Checkpoint capture takes the engine's shared expression handles rather
/// than copying every predicate list, and the file it writes must not
/// change by a byte. The (size, FNV-1a) pairs were pinned from the copying
/// capture over this fixed script, with and without the embedded a-pcm
/// index image. A flush halfway through makes the capture also run over a
/// master list that a published snapshot has already pruned.
TEST(RecoveryTest, CheckpointBytesMatchPinnedEncoding) {
  struct Pinned {
    bool index;
    size_t size;
    uint64_t fnv;
  };
  const Pinned pinned[] = {{false, 2237, 0x55ab9e7a3e54f411ULL},
                           {true, 6837, 0x98992760bbfe06d0ULL}};
  const auto script = MakeScript(0xC4EC4, 40);
  const auto probes = MakeProbes(0xC4EC5, 8);
  for (const Pinned& want : pinned) {
    TempDir dir;
    EngineOptions options = DurableOptions(dir.path());
    options.kind = MatcherKind::kAPcm;
    options.checkpoint_every_ops = 0;  // explicit Checkpoint() only
    options.checkpoint_index = want.index;
    {
      Harness durable(options);
      const std::vector<ScriptOp> head(script.begin(), script.begin() + 20);
      const std::vector<ScriptOp> tail(script.begin() + 20, script.end());
      const ScriptState st = ApplyScript(durable.engine, head);
      durable.Probe(probes);
      ApplyScript(durable.engine, tail, nullptr, nullptr, /*arg=*/0,
                  /*arm_at=*/-1, st.ids);
      ASSERT_TRUE(durable.engine.Checkpoint().ok());
    }
    const std::string ckpt_path = CheckpointPath(dir.path());
    ASSERT_FALSE(ckpt_path.empty());
    const std::string bytes = ReadFileToString(ckpt_path).value();
    EXPECT_EQ(bytes.size(), want.size) << "index image " << want.index;
    EXPECT_EQ(HashBytes(bytes), want.fnv)
        << "index image " << want.index << ": got 0x" << std::hex
        << HashBytes(bytes);
  }
}

/// Encodes `state` in the legacy index form 2 (one index image per hash
/// shard), byte for byte as the codec's layout defines it: the form-0
/// encoding up to its index flag, then
/// `u8 2 | kind bytes | u32 nshards | per shard: image bytes`, then the
/// masked CRC32C of everything before it.
std::string EncodeShardedCheckpoint(store::CheckpointState state,
                                    const std::vector<std::string>& images) {
  const std::string kind = std::move(state.index_kind);
  state.index_kind.clear();
  state.index_image.clear();
  std::string out = store::EncodeCheckpoint(state);
  out.resize(out.size() - 5);  // drop "u8 has_index = 0 | u32 crc"
  store::ByteWriter writer(&out);
  writer.U8(2);
  writer.Bytes(kind);
  writer.U32(static_cast<uint32_t>(images.size()));
  for (const std::string& image : images) writer.Bytes(image);
  writer.U32(MaskCrc32c(Crc32c(0, out.data(), out.size())));
  return out;
}

/// Checkpoints in the legacy sharded form (index form 2) still recover.
/// Decoding validates the section and drops the per-shard images; every
/// subscription then comes back through the full-rebuild fallback. Treating
/// the file as corrupt instead would send recovery to an older checkpoint
/// whose WAL was already pruned, losing acknowledged subscriptions.
TEST(RecoveryTest, LegacyShardedCheckpointRecoversThroughFullRebuild) {
  const auto script = MakeScript(0x51AED, 26);
  const auto probes = MakeProbes(0x51AED2, 32);
  const size_t cut = 18;  // ops [0, cut) before the checkpoint, rest after
  TempDir dir;
  EngineOptions options = DurableOptions(dir.path());
  options.kind = MatcherKind::kAPcm;
  options.checkpoint_every_ops = 0;  // explicit Checkpoint() only
  {
    Harness durable(options);
    const std::vector<ScriptOp> before(script.begin(), script.begin() + cut);
    const std::vector<ScriptOp> after(script.begin() + cut, script.end());
    const auto head = ApplyScript(durable.engine, before);
    ASSERT_TRUE(durable.engine.Checkpoint().ok());
    ApplyScript(durable.engine, after, nullptr, nullptr, /*arg=*/0,
                /*arm_at=*/-1, head.ids);
  }

  // Rewrite the checkpoint in form 2 with four real per-shard a-pcm images.
  const std::string ckpt_path = CheckpointPath(dir.path());
  ASSERT_FALSE(ckpt_path.empty());
  auto state = store::DecodeCheckpoint(ReadFileToString(ckpt_path).value());
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  constexpr uint32_t kShards = 4;
  std::vector<std::vector<BooleanExpression>> parts(kShards);
  for (const ExpressionHandle& sub : state->subscriptions) {
    parts[sub->id() % kShards].push_back(*sub);
  }
  std::vector<std::string> images;
  for (const auto& part : parts) {
    std::unique_ptr<Matcher> matcher =
        engine::CreateMatcher(MatcherKind::kAPcm, options.matcher);
    auto* pcm = dynamic_cast<core::PcmMatcher*>(matcher.get());
    ASSERT_NE(pcm, nullptr);
    pcm->Build(part);
    std::ostringstream image(std::ios::binary);
    ASSERT_TRUE(pcm->SaveIndex(image).ok());
    images.push_back(std::move(image).str());
  }
  const std::string legacy = EncodeShardedCheckpoint(*state, images);
  ASSERT_TRUE(AtomicWriteFile(ckpt_path, legacy).ok());

  const auto decoded = store::DecodeCheckpoint(legacy);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->subscriptions.size(), state->subscriptions.size());
  for (size_t i = 0; i < state->subscriptions.size(); ++i) {
    EXPECT_EQ(decoded->subscriptions[i]->id(), state->subscriptions[i]->id());
    EXPECT_EQ(decoded->subscriptions[i]->predicates(),
              state->subscriptions[i]->predicates());
  }
  EXPECT_TRUE(decoded->index_kind.empty());
  EXPECT_TRUE(decoded->index_image.empty());
  // A damaged form-2 section is still corruption, not a silent skip.
  std::string truncated = legacy.substr(0, legacy.size() - 9);
  store::ByteWriter(&truncated).U32(
      MaskCrc32c(Crc32c(0, truncated.data(), truncated.size())));
  EXPECT_EQ(store::DecodeCheckpoint(truncated).status().code(),
            StatusCode::kIOError);

  Harness recovered(options);
  EXPECT_EQ(CounterValue(recovered.engine.metrics_registry(),
                         "apcm_recovery_skipped_checkpoints_total"),
            0u);
  EXPECT_EQ(CounterValue(recovered.engine.metrics_registry(),
                         "apcm_recovery_records_total"),
            script.size() - cut);
  const std::vector<bool> all(script.size(), true);
  const auto [oracle_digest, oracle_subs] =
      OracleDigest(script, all, probes, options);
  EXPECT_EQ(recovered.engine.num_subscriptions(), oracle_subs);
  EXPECT_EQ(recovered.Probe(probes), oracle_digest);
  EXPECT_GE(CounterValue(recovered.engine.metrics_registry(),
                         "apcm_rebuilds_total"),
            1u);
}

TEST(RecoveryTest, ForeignFilesInDataDirAreIgnored) {
  TempDir dir;
  ASSERT_TRUE(
      AtomicWriteFile(dir.path() + "/README.not-a-segment", "hello").ok());
  ASSERT_TRUE(AtomicWriteFile(dir.path() + "/wal-zz.log", "junk").ok());
  ASSERT_TRUE(AtomicWriteFile(dir.path() + "/stray.tmp", "junk").ok());
  Harness durable(DurableOptions(dir.path()));
  EXPECT_TRUE(durable.engine.AddSubscription({Predicate(0, Op::kGe, 1)}).ok());
  // Stray .tmp files are reclaimed, foreign names left alone.
  const auto names = ListDir(dir.path()).value();
  bool saw_readme = false;
  for (const std::string& name : names) {
    EXPECT_FALSE(name.ends_with(".tmp")) << name;
    saw_readme |= name == "README.not-a-segment";
  }
  EXPECT_TRUE(saw_readme);
}

// ---------------------------------------------------------------------------
// Store-level crash semantics (runs in every build: SimulateCrash needs no
// failpoints).
// ---------------------------------------------------------------------------

store::WalRecord SimpleRecord(SubscriptionId id) {
  store::WalRecord record;
  record.kind = store::WalRecord::Kind::kAdd;
  record.id = id;
  record.disjuncts.push_back({Predicate(0, Op::kGe, static_cast<Value>(id))});
  return record;
}

TEST(DurableStoreTest, PowerLossRollsBackToTheSyncedPrefix) {
  TempDir dir;
  store::StoreOptions options;
  options.dir = dir.path();
  options.sync_every = 0;  // no append-path syncs: only the explicit Sync()
  store::RecoveryInfo recovery;
  {
    auto store = store::DurableStore::Open(options, &recovery).value();
    for (SubscriptionId i = 0; i < 6; ++i) {
      store::WalRecord record = SimpleRecord(i);
      ASSERT_TRUE(store->Append(&record).ok());
    }
    ASSERT_TRUE(store->Sync().ok());
    for (SubscriptionId i = 6; i < 10; ++i) {
      store::WalRecord record = SimpleRecord(i);
      ASSERT_TRUE(store->Append(&record).ok());
    }
    EXPECT_EQ(store->stats().unsynced_records, 4u);
    store->SimulateCrash(/*power_loss=*/true);
    EXPECT_TRUE(store->dead());
    store::WalRecord record = SimpleRecord(99);
    EXPECT_EQ(store->Append(&record).code(), StatusCode::kIOError);
  }
  auto reopened = store::DurableStore::Open(options, &recovery).value();
  EXPECT_EQ(recovery.records.size(), 6u) << "exactly the synced prefix";
  EXPECT_FALSE(recovery.had_checkpoint);
  EXPECT_EQ(reopened->last_seq(), 6u);
}

TEST(DurableStoreTest, ProcessKillKeepsWrittenUnsyncedRecords) {
  TempDir dir;
  store::StoreOptions options;
  options.dir = dir.path();
  options.sync_every = 0;
  store::RecoveryInfo recovery;
  {
    auto store = store::DurableStore::Open(options, &recovery).value();
    for (SubscriptionId i = 0; i < 5; ++i) {
      store::WalRecord record = SimpleRecord(i);
      ASSERT_TRUE(store->Append(&record).ok());
    }
    store->SimulateCrash(/*power_loss=*/false);
  }
  store::DurableStore::Open(options, &recovery).value();
  EXPECT_EQ(recovery.records.size(), 5u)
      << "page-cache survivors replay after a plain process kill";
}

TEST(DurableStoreTest, CorruptNewestCheckpointFallsBackToFullReplay) {
  // Hand-craft the crash-between-write-and-truncate layout: a checkpoint
  // covering seq 4 exists, but so do the pre-rotation segment (records 1-4)
  // and the fresh one. With the checkpoint corrupted, recovery must fall
  // back to replaying the whole log rather than fail or lose data.
  TempDir dir;
  std::string log;
  for (SubscriptionId i = 0; i < 4; ++i) {
    store::WalRecord record = SimpleRecord(i);
    record.seq = i + 1;
    EncodeWalRecord(record, &log);
  }
  ASSERT_TRUE(
      AtomicWriteFile(dir.path() + "/" + store::WalSegmentName(0), log).ok());
  ASSERT_TRUE(
      AtomicWriteFile(dir.path() + "/" + store::WalSegmentName(4), "").ok());
  ASSERT_TRUE(AtomicWriteFile(
                  dir.path() + "/" + store::CheckpointFileName(4),
                  "this is not a checkpoint image").ok());
  store::StoreOptions options;
  options.dir = dir.path();
  store::RecoveryInfo recovery;
  store::DurableStore::Open(options, &recovery).value();
  EXPECT_FALSE(recovery.had_checkpoint);
  EXPECT_EQ(recovery.skipped_checkpoints, 1u);
  EXPECT_EQ(recovery.records.size(), 4u);
}

TEST(DurableStoreTest, TornTailIsClippedSoTheNextRecoveryIsClean) {
  TempDir dir;
  std::string log;
  for (SubscriptionId i = 0; i < 3; ++i) {
    store::WalRecord record = SimpleRecord(i);
    record.seq = i + 1;
    EncodeWalRecord(record, &log);
  }
  const size_t intact = log.size();
  store::WalRecord torn = SimpleRecord(3);
  torn.seq = 4;
  EncodeWalRecord(torn, &log);
  log.resize(intact + (log.size() - intact) / 2);  // half the last frame
  ASSERT_TRUE(
      AtomicWriteFile(dir.path() + "/" + store::WalSegmentName(0), log).ok());
  store::StoreOptions options;
  options.dir = dir.path();
  store::RecoveryInfo recovery;
  {
    store::DurableStore::Open(options, &recovery).value();
    EXPECT_EQ(recovery.records.size(), 3u);
    EXPECT_EQ(recovery.torn_tails, 1u);
  }
  // The torn bytes were clipped: a second recovery sees a clean log.
  store::DurableStore::Open(options, &recovery).value();
  EXPECT_EQ(recovery.records.size(), 3u);
  EXPECT_EQ(recovery.torn_tails, 0u);
}

// ---------------------------------------------------------------------------
// The chaos kill matrix (needs -DAPCM_FAILPOINTS=ON).
// ---------------------------------------------------------------------------

class RecoveryChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kEnabled) {
      GTEST_SKIP()
          << "failpoints compiled out; build with -DAPCM_FAILPOINTS=ON";
    }
    failpoint::DisarmAll();
  }
  void TearDown() override {
    if (failpoint::kEnabled) failpoint::DisarmAll();
  }
};

/// One kill-matrix cell: crash via `seam` (arg 0 = process kill, 1 = power
/// loss) armed immediately before op `arm_at`, then recover and compare
/// against the oracle of exactly the acknowledged ops. `survivor_on_keep`:
/// at the post-write fsync seam with process-kill semantics, the in-flight
/// op's frame is already in the file, so recovery legitimately resurrects
/// an op that was never acknowledged — the one allowed asymmetry.
void RunKillCase(const char* seam, uint64_t arg, int arm_at,
                 const std::vector<ScriptOp>& script,
                 const std::vector<Event>& probes, bool survivor_on_keep) {
  SCOPED_TRACE(std::string(seam) + " arg=" + std::to_string(arg) +
               " arm_at=" + std::to_string(arm_at));
  TempDir dir;
  ScriptState st;
  {
    Harness durable(DurableOptions(dir.path()));
    st = ApplyScript(durable.engine, script, nullptr, seam, arg, arm_at);
  }
  EXPECT_GT(failpoint::Hits(seam), 0u) << "seam never fired";
  failpoint::DisarmAll();

  std::vector<bool> mask = st.acked;
  if (survivor_on_keep && arg == 0 && st.first_failure >= 0) {
    mask[st.first_failure] = true;
  }
  const auto [oracle_digest, oracle_subs] = OracleDigest(script, mask, probes);
  Harness recovered(DurableOptions(dir.path()));
  EXPECT_EQ(recovered.engine.num_subscriptions(), oracle_subs);
  EXPECT_EQ(recovered.Probe(probes), oracle_digest);
}

TEST_F(RecoveryChaosTest, KillMatrixAtEveryAppendSeam) {
  const auto script = MakeScript(0xDEAD01, 18);
  const auto probes = MakeProbes(0xDEAD02, 28);
  for (const uint64_t arg : {0u, 1u}) {
    for (size_t k = 0; k < script.size(); ++k) {
      RunKillCase("store.wal.append", arg, static_cast<int>(k), script,
                  probes, /*survivor_on_keep=*/false);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_F(RecoveryChaosTest, KillMatrixAtEveryFsyncSeam) {
  const auto script = MakeScript(0xDEAD03, 18);
  const auto probes = MakeProbes(0xDEAD04, 28);
  for (const uint64_t arg : {0u, 1u}) {
    for (size_t k = 0; k < script.size(); ++k) {
      // The frame is written before this seam: on a process kill the
      // in-flight (unacknowledged) op survives into recovery.
      RunKillCase("store.wal.fsync", arg, static_cast<int>(k), script, probes,
                  /*survivor_on_keep=*/true);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_F(RecoveryChaosTest, KillMatrixAtCheckpointSeams) {
  const auto script = MakeScript(0xDEAD05, 24);
  const auto probes = MakeProbes(0xDEAD06, 28);
  // These seams fire on the background checkpoint thread (first trigger at
  // checkpoint_every_ops = 5 appends); arming from op 0 exercises them, and
  // no acknowledged op may be lost regardless of where the death lands.
  for (const char* seam :
       {"store.wal.rotate", "store.checkpoint.write",
        "store.checkpoint.truncate"}) {
    for (const uint64_t arg : {0u, 1u}) {
      RunKillCase(seam, arg, /*arm_at=*/0, script, probes,
                  /*survivor_on_keep=*/false);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_F(RecoveryChaosTest, TornWriteMatrixClipsTheTailExactly) {
  const auto script = MakeScript(0xDEAD07, 16);
  const auto probes = MakeProbes(0xDEAD08, 28);
  const int arm_at = 10;
  for (const uint64_t prefix_bytes : {1u, 3u, 7u, 8u, 9u, 12u, 20u, 4096u}) {
    SCOPED_TRACE("prefix=" + std::to_string(prefix_bytes));
    TempDir dir;
    ScriptState st;
    {
      Harness durable(DurableOptions(dir.path()));
      st = ApplyScript(durable.engine, script, nullptr,
                       "store.wal.append.torn", prefix_bytes, arm_at);
    }
    EXPECT_GT(failpoint::Hits("store.wal.append.torn"), 0u);
    failpoint::DisarmAll();
    const auto [oracle_digest, oracle_subs] =
        OracleDigest(script, st.acked, probes);
    Harness recovered(DurableOptions(dir.path()));
    EXPECT_EQ(CounterValue(recovered.engine.metrics_registry(),
                           "apcm_wal_torn_tail_total"),
              1u);
    EXPECT_EQ(recovered.engine.num_subscriptions(), oracle_subs);
    EXPECT_EQ(recovered.Probe(probes), oracle_digest);
  }
}

TEST_F(RecoveryChaosTest, GroupSyncPowerLossLosesAtMostTheUnsyncedWindow) {
  const auto script = MakeScript(0xDEAD09, 16);
  const auto probes = MakeProbes(0xDEAD0A, 28);
  TempDir dir;
  EngineOptions options = DurableOptions(dir.path());
  options.wal_sync_every = 8;       // group sync: ack N, fsync every 8th
  options.checkpoint_every_ops = 0; // no rotation-triggered syncs
  const int arm_at = 13;
  ScriptState st;
  {
    Harness durable(options);
    st = ApplyScript(durable.engine, script, nullptr, "store.wal.fsync",
                     /*arg=power loss*/ 1, arm_at);
  }
  failpoint::DisarmAll();
  // Ops 0..12 were acknowledged; the one sync so far covered the first 8.
  // Power loss is allowed to take the acknowledged-but-unsynced window
  // (that is exactly the wal_sync_every contract) — and nothing more.
  ASSERT_EQ(st.first_failure, arm_at);
  std::vector<bool> mask(script.size(), false);
  for (size_t i = 0; i < 8; ++i) mask[i] = true;
  const auto [oracle_digest, oracle_subs] = OracleDigest(script, mask, probes);
  Harness recovered(options);
  EXPECT_EQ(CounterValue(recovered.engine.metrics_registry(),
                         "apcm_recovery_records_total"),
            8u);
  EXPECT_EQ(recovered.engine.num_subscriptions(), oracle_subs);
  EXPECT_EQ(recovered.Probe(probes), oracle_digest);
}

TEST_F(RecoveryChaosTest, WalWriteErrorPoisonsTheStoreFailStop) {
  TempDir dir;
  Harness durable(DurableOptions(dir.path()));
  ASSERT_TRUE(durable.engine.AddSubscription({Predicate(0, Op::kGe, 1)}).ok());
  ASSERT_TRUE(
      failpoint::Configure("store.file.write.error", "1*return").ok());
  const auto failed = durable.engine.AddSubscription({Predicate(0, Op::kGe, 2)});
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  failpoint::DisarmAll();
  // Fail-stop: the store stays dead even though the fault is gone — no
  // silently-non-durable limbo.
  const auto after = durable.engine.AddSubscription({Predicate(0, Op::kGe, 3)});
  EXPECT_EQ(after.status().code(), StatusCode::kIOError);
  EXPECT_GE(CounterValue(durable.engine.metrics_registry(),
                         "apcm_wal_append_errors_total"),
            1u);
  // The pre-fault subscription still matches (in-memory state is intact).
  EXPECT_EQ(durable.engine.num_subscriptions(), 1u);
}

}  // namespace
}  // namespace apcm
