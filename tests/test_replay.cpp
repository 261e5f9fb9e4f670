// tmx::replay tests: trace-format round-trips and strict rejection of
// damaged files, synthetic-generator determinism, and the replayer's
// run-to-run reproducibility contract (replay/replayer.hpp), each replay
// in its own run (harness/replay.hpp). An unknown allocator name never
// reaches a replay: trace_replay refuses it when it parses --alloc
// (tests/cli_smoke.sh flags). The
// capture-side fidelity test — record a real run, replay it through the
// same allocator, compare placement — lives in test_determinism.cpp next
// to the other golden-schedule tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "alloc/allocator.hpp"
#include "fault/fault.hpp"
#include "harness/replay.hpp"
#include "replay/replayer.hpp"
#include "replay/synth.hpp"
#include "replay/trace_format.hpp"
#include "util/rng.hpp"


namespace tmx {
namespace {

using replay::OpKind;
using replay::ReadStatus;
using replay::Trace;
using replay::TraceRecord;

// A structurally valid random trace: cycle-sorted records, tids under
// meta.threads and regions in range — the invariants encode_trace()
// enforces and decode_trace() re-checks.
Trace random_trace(std::uint64_t seed) {
  Rng rng(seed);
  Trace t;
  t.meta.allocator = "rand" + std::to_string(rng.below(100));
  t.meta.threads = static_cast<std::uint32_t>(1 + rng.below(8));
  t.meta.shift = static_cast<std::uint32_t>(3 + rng.below(6));
  t.meta.ort_log2 = static_cast<std::uint32_t>(10 + rng.below(12));
  t.meta.seed = rng.next();

  const std::size_t n = rng.below(300);
  std::uint64_t cycle = 0;
  std::uint64_t last_addr = 1 << 12;
  for (std::size_t i = 0; i < n; ++i) {
    cycle += rng.below(5000);  // non-negative deltas keep the sort invariant
    TraceRecord r;
    r.cycle = cycle;
    r.tid = static_cast<std::uint32_t>(rng.below(t.meta.threads));
    r.parallel = rng.below(2) != 0;
    switch (rng.below(5)) {
      case 0:
        r.kind = OpKind::kMalloc;
        r.size = 1 + rng.below(4096);
        r.aux = static_cast<std::uint8_t>(rng.below(3));
        // Mix nearby and far addresses to exercise the zigzag deltas.
        last_addr += (rng.below(2) != 0 ? rng.below(256)
                                        : (rng.next() & 0xffffffffffull));
        r.addr = last_addr;
        break;
      case 1:
        r.kind = OpKind::kFree;
        r.aux = static_cast<std::uint8_t>(rng.below(3));
        r.addr = last_addr - rng.below(512);
        break;
      case 2: r.kind = OpKind::kTxBegin; break;
      case 3:
        r.kind = OpKind::kTxCommit;
        r.size = rng.below(64);
        r.size2 = rng.below(64);
        break;
      default:
        r.kind = OpKind::kTxAbort;
        r.aux = static_cast<std::uint8_t>(rng.below(8));
        break;
    }
    t.records.push_back(r);
  }
  return t;
}

TEST(TraceFormat, RoundTripRandomized) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const Trace t = random_trace(seed);
    std::string bytes, bytes2;
    ASSERT_TRUE(replay::encode_trace(t, &bytes)) << "seed " << seed;
    ASSERT_TRUE(replay::encode_trace(t, &bytes2));
    EXPECT_EQ(bytes, bytes2) << "encoding must be deterministic, seed "
                             << seed;
    Trace back;
    ASSERT_EQ(replay::decode_trace(bytes, &back), ReadStatus::kOk)
        << "seed " << seed;
    EXPECT_EQ(back.meta, t.meta) << "seed " << seed;
    EXPECT_EQ(back.records, t.records) << "seed " << seed;
  }
}

TEST(TraceFormat, RoundTripSynthetic) {
  const Trace t = replay::generate_synthetic({});
  ASSERT_FALSE(t.records.empty());
  std::string bytes;
  ASSERT_TRUE(replay::encode_trace(t, &bytes));
  Trace back;
  ASSERT_EQ(replay::decode_trace(bytes, &back), ReadStatus::kOk);
  EXPECT_EQ(back.meta, t.meta);
  EXPECT_EQ(back.records, t.records);
}

TEST(TraceFormat, EncodeRejectsInvalidInput) {
  Trace unsorted = random_trace(1);
  ASSERT_GE(unsorted.records.size(), 2u);
  std::swap(unsorted.records.front().cycle, unsorted.records.back().cycle);
  std::string bytes;
  EXPECT_FALSE(replay::encode_trace(unsorted, &bytes));

  Trace long_name = random_trace(2);
  long_name.meta.allocator.assign(replay::kMaxAllocatorNameLen + 1, 'x');
  EXPECT_FALSE(replay::encode_trace(long_name, &bytes));

  Trace bad_kind = random_trace(3);
  ASSERT_FALSE(bad_kind.records.empty());
  bad_kind.records.back().kind = static_cast<OpKind>(replay::kNumOpKinds);
  EXPECT_FALSE(replay::encode_trace(bad_kind, &bytes));
}

// Rewrites the checksum trailer after a deliberate edit, so the decoder
// judges the edit itself rather than the checksum.
void reseal(std::string* bytes) {
  const std::size_t body = bytes->size() - 8;
  const std::uint64_t sum = replay::fnv1a(bytes->data(), body);
  for (int i = 0; i < 8; ++i) {
    (*bytes)[body + i] = static_cast<char>(sum >> (8 * i));
  }
}

// The header's flags (u32 at byte 12) and reserved word (u64 at byte 40)
// are written as 0, and any other value is refused, as is record tag 5:
// no capture has gaps.
TEST(TraceFormat, RejectsFlagsReservedAndTagFive) {
  Trace t;
  t.meta.threads = 1;
  TraceRecord begin;
  begin.kind = OpKind::kTxBegin;
  t.records = {begin};
  std::string bytes;
  ASSERT_TRUE(replay::encode_trace(t, &bytes));
  Trace out;
  ASSERT_EQ(replay::decode_trace(bytes, &out), ReadStatus::kOk);

  std::string flags = bytes;
  flags[12] = 1;
  reseal(&flags);
  EXPECT_EQ(replay::decode_trace(flags, &out), ReadStatus::kCorrupt);

  std::string reserved = bytes;
  reserved[40] = 5;
  reseal(&reserved);
  EXPECT_EQ(replay::decode_trace(reserved, &out), ReadStatus::kCorrupt);

  // The one record's tag follows the 64-byte header and the empty name.
  std::string tag5 = bytes;
  ASSERT_EQ(tag5[64], static_cast<char>(OpKind::kTxBegin));
  tag5[64] = 5;
  reseal(&tag5);
  EXPECT_EQ(replay::decode_trace(tag5, &out), ReadStatus::kCorrupt);
}

TEST(TraceFormat, RejectsDamagedFiles) {
  const Trace t = random_trace(7);
  std::string bytes;
  ASSERT_TRUE(replay::encode_trace(t, &bytes));
  Trace out;

  std::string bad_magic = bytes;
  bad_magic[0] ^= 0x40;
  EXPECT_EQ(replay::decode_trace(bad_magic, &out), ReadStatus::kBadMagic);

  std::string bad_version = bytes;
  bad_version[8] = 2;  // version u32 follows the 8-byte magic
  EXPECT_EQ(replay::decode_trace(bad_version, &out),
            ReadStatus::kBadVersion);

  EXPECT_EQ(replay::decode_trace(bytes.substr(0, 4), &out),
            ReadStatus::kTruncated);
  EXPECT_EQ(replay::decode_trace(bytes.substr(0, 12), &out),
            ReadStatus::kTruncated);
  EXPECT_EQ(replay::decode_trace(bytes.substr(0, bytes.size() - 4), &out),
            ReadStatus::kTruncated);

  std::string trailing = bytes + "z";
  EXPECT_EQ(replay::decode_trace(trailing, &out), ReadStatus::kCorrupt);

  // Any single-byte flip must be rejected — everything before the trailer
  // is covered by the checksum, and the trailer protects itself.
  Rng rng(99);
  for (int i = 0; i < 64; ++i) {
    std::string flipped = bytes;
    const std::size_t pos = rng.below(flipped.size());
    flipped[pos] ^= static_cast<char>(1 + rng.below(255));
    EXPECT_NE(replay::decode_trace(flipped, &out), ReadStatus::kOk)
        << "flip at byte " << pos << " was not detected";
  }
}

// Exhaustive damage sweep — the robustness contract for on-disk traces:
// a reader pointed at ANY truncation or ANY single corrupted byte must
// return a distinct non-kOk status, never crash, and never hand back a
// trace that silently dropped data. Truncation is tried at every prefix
// length; corruption XORs every byte position with several bit patterns
// (low bit, high/tag bit, full invert) to hit varint continuation bits,
// record tags, and checksum bytes alike.
TEST(TraceFormat, ExhaustiveTruncationSweep) {
  const Trace t = random_trace(11);
  ASSERT_FALSE(t.records.empty());
  std::string bytes;
  ASSERT_TRUE(replay::encode_trace(t, &bytes));
  Trace out;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const ReadStatus s = replay::decode_trace(bytes.substr(0, len), &out);
    ASSERT_NE(s, ReadStatus::kOk) << "prefix of " << len << " bytes decoded";
    // Every prefix must be classified, not mapped to a catch-all garbage
    // value: the only reachable statuses are the structural ones.
    ASSERT_TRUE(s == ReadStatus::kTruncated || s == ReadStatus::kBadMagic ||
                s == ReadStatus::kBadVersion || s == ReadStatus::kCorrupt)
        << "prefix " << len << ": " << replay::read_status_name(s);
  }
}

TEST(TraceFormat, ExhaustiveSingleByteCorruptionSweep) {
  const Trace t = random_trace(11);
  std::string bytes;
  ASSERT_TRUE(replay::encode_trace(t, &bytes));
  Trace out;
  const unsigned char patterns[3] = {0x01, 0x80, 0xff};
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (unsigned char pat : patterns) {
      std::string bad = bytes;
      bad[pos] = static_cast<char>(bad[pos] ^ pat);
      const ReadStatus s = replay::decode_trace(bad, &out);
      ASSERT_NE(s, ReadStatus::kOk)
          << "flip 0x" << std::hex << static_cast<unsigned>(pat)
          << " at byte " << std::dec << pos << " was not detected";
    }
  }
}

TEST(TraceFormat, ReadReportsMissingFile) {
  Trace out;
  EXPECT_EQ(replay::read_trace("/nonexistent/trace.tmxtrc", &out),
            ReadStatus::kIoError);
}

TEST(Synth, DeterministicAndSeedSensitive) {
  replay::SynthConfig cfg;
  cfg.threads = 3;
  cfg.ops_per_thread = 200;
  cfg.live_per_thread = 32;
  const Trace a = replay::generate_synthetic(cfg);
  const Trace b = replay::generate_synthetic(cfg);
  ASSERT_FALSE(a.records.empty());
  EXPECT_EQ(a.meta, b.meta);
  EXPECT_EQ(a.records, b.records);

  cfg.seed += 1;
  const Trace c = replay::generate_synthetic(cfg);
  EXPECT_NE(a.records, c.records);
}

TEST(Synth, ShapeMatchesConfig) {
  replay::SynthConfig cfg;
  cfg.threads = 2;
  cfg.ops_per_thread = 100;
  cfg.live_per_thread = 16;
  cfg.tx_fraction = 1.0;
  const Trace t = replay::generate_synthetic(cfg);
  EXPECT_EQ(t.meta.threads, 2u);
  EXPECT_EQ(t.meta.allocator, "synthetic");
  // Warm-up fills each window, churn replaces one slot per op.
  EXPECT_EQ(t.count(OpKind::kMalloc),
            2u * (cfg.live_per_thread + cfg.ops_per_thread));
  EXPECT_EQ(t.count(OpKind::kFree), 2u * cfg.ops_per_thread);
  EXPECT_EQ(t.count(OpKind::kTxBegin), t.count(OpKind::kTxCommit));
  std::uint64_t prev = 0;
  for (const TraceRecord& r : t.records) {
    EXPECT_GE(r.cycle, prev);
    prev = r.cycle;
  }
}

TEST(Synth, DegenerateConfigsComeUpEmpty) {
  replay::SynthConfig cfg;
  cfg.threads = 0;
  EXPECT_TRUE(replay::generate_synthetic(cfg).records.empty());

  cfg = {};
  cfg.sizes.clear();
  cfg.weights.clear();
  EXPECT_TRUE(replay::generate_synthetic(cfg).records.empty());

  cfg = {};
  cfg.weights.pop_back();  // distribution arrays out of step
  EXPECT_TRUE(replay::generate_synthetic(cfg).records.empty());
}

// A replay of `t` through `model`, cache model on.
harness::ReplayRun replay_of(const Trace& t, const std::string& model) {
  harness::ReplayRun run;
  run.trace = &t;
  run.allocator = model;
  return run;
}

replay::ReplayResult replay_through(const Trace& t,
                                    const std::string& model) {
  return harness::run_replay(replay_of(t, model)).result;
}

TEST(Replay, RunToRunDeterministicAcrossModels) {
  replay::SynthConfig sc;
  sc.threads = 4;
  sc.ops_per_thread = 150;
  sc.live_per_thread = 32;
  const Trace t = replay::generate_synthetic(sc);
  ASSERT_FALSE(t.records.empty());
  for (const std::string& model : alloc::allocator_names()) {
    const replay::ReplayResult r1 = replay_through(t, model);
    const replay::ReplayResult r2 = replay_through(t, model);
    ASSERT_TRUE(r1.ok) << model << ": " << r1.error;
    ASSERT_TRUE(r2.ok) << model << ": " << r2.error;
    EXPECT_EQ(r1.allocator, model);
    EXPECT_EQ(r1.address_fingerprint, r2.address_fingerprint) << model;
    EXPECT_EQ(r1.addresses, r2.addresses) << model;
    EXPECT_TRUE(r1.stripes == r2.stripes) << model;
    EXPECT_EQ(r1.cycles, r2.cycles) << model;
    EXPECT_EQ(r1.cache, r2.cache) << model;
    EXPECT_EQ(r1.mallocs, t.count(OpKind::kMalloc)) << model;
    EXPECT_EQ(r1.frees, t.count(OpKind::kFree)) << model;
    EXPECT_EQ(r1.unmatched_frees, 0u) << model;
  }
}

// Each replay opens its own run context, so two replays on two host
// threads — one of them with the fault plane on — give what they give one
// after the other (the replay form of test_harness.cpp's
// RunContext.TwoRunsOnTwoHostThreadsMatchSequential).
TEST(Replay, TwoReplaysOnTwoHostThreadsMatchSequential) {
  replay::SynthConfig sc;
  sc.threads = 4;
  sc.ops_per_thread = 200;
  sc.live_per_thread = 32;
  const Trace t = replay::generate_synthetic(sc);
  harness::ReplayRun a = replay_of(t, "tcmalloc");
  a.fault = fault::FaultPlan{};
  a.fault->oom_rate = 0.02;
  a.fault->oom_everywhere = true;
  const harness::ReplayRun b = replay_of(t, "hoard");

  harness::ReplayOutcome par_a, par_b;
  std::thread ta([&] { par_a = harness::run_replay(a); });
  std::thread tb([&] { par_b = harness::run_replay(b); });
  ta.join();
  tb.join();
  const harness::ReplayOutcome seq_a = harness::run_replay(a);
  const harness::ReplayOutcome seq_b = harness::run_replay(b);

  const auto expect_same = [](const harness::ReplayOutcome& par,
                              const harness::ReplayOutcome& seq) {
    ASSERT_TRUE(seq.result.ok) << seq.result.error;
    ASSERT_TRUE(par.result.ok) << par.result.error;
    EXPECT_EQ(par.result.address_fingerprint, seq.result.address_fingerprint);
    EXPECT_EQ(par.result.addresses, seq.result.addresses);
    EXPECT_EQ(par.result.stripes, seq.result.stripes);
    EXPECT_EQ(par.result.cycles, seq.result.cycles);
    EXPECT_EQ(par.result.cache, seq.result.cache);
    EXPECT_EQ(par.result.os_reserved, seq.result.os_reserved);
    EXPECT_EQ(par.planes, seq.planes);
  };
  expect_same(par_a, seq_a);
  expect_same(par_b, seq_b);
  ASSERT_TRUE(seq_a.planes.fault);
  EXPECT_GT(seq_a.planes.fault->injected[static_cast<int>(
                fault::Site::kMalloc)],
            0u);
  EXPECT_FALSE(seq_b.planes.fault);
}

TEST(Replay, CountsAndUnmatchedFrees) {
  Trace t;
  t.meta.threads = 1;
  auto rec = [&](OpKind k, std::uint64_t cycle, std::uint64_t addr,
                 std::uint64_t size) {
    TraceRecord r;
    r.kind = k;
    r.cycle = cycle;
    r.addr = addr;
    r.size = size;
    t.records.push_back(r);
  };
  rec(OpKind::kTxBegin, 0, 0, 0);
  rec(OpKind::kMalloc, 10, 0x1000, 64);
  rec(OpKind::kFree, 20, 0x1000, 0);
  rec(OpKind::kFree, 30, 0xdead, 0);  // never allocated in this trace
  rec(OpKind::kMalloc, 40, 0x2000, 32);
  rec(OpKind::kTxCommit, 50, 0, 0);

  const replay::ReplayResult r = replay_through(t, "glibc");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.mallocs, 2u);
  EXPECT_EQ(r.frees, 2u);
  EXPECT_EQ(r.unmatched_frees, 1u);
  EXPECT_EQ(r.tx_begins, 1u);
  EXPECT_EQ(r.tx_commits, 1u);
  EXPECT_EQ(r.live_at_end, 1u);
  EXPECT_EQ(r.bytes_requested, 96u);
  ASSERT_EQ(r.addresses.size(), 2u);
  EXPECT_NE(r.addresses[0], 0u);
  EXPECT_NE(r.addresses[1], 0u);
}

TEST(Replay, RejectsMalformedTraces) {
  Trace unsorted;
  unsorted.meta.threads = 1;
  TraceRecord a, b;
  a.kind = b.kind = OpKind::kTxBegin;
  a.cycle = 100;
  b.cycle = 50;
  unsorted.records = {a, b};
  EXPECT_FALSE(replay_through(unsorted, "glibc").ok);

  Trace bad_tid;
  bad_tid.meta.threads = 1;
  TraceRecord r;
  r.kind = OpKind::kTxBegin;
  r.tid = 3;
  bad_tid.records = {r};
  EXPECT_FALSE(replay_through(bad_tid, "glibc").ok);
}

TEST(Replay, RecordedStripeStatsSeeAliasing) {
  // Two blocks 2^(shift+ort_log2) bytes apart alias to the same stripe —
  // the paper's Figure 5 mechanism. A third block on a fresh stripe does
  // not collide.
  Trace t;
  t.meta.threads = 2;
  t.meta.shift = 5;
  t.meta.ort_log2 = 20;
  const std::uint64_t period = 1ull << (5 + 20);  // 32MB aliasing period
  auto add = [&](std::uint32_t tid, std::uint64_t cycle, std::uint64_t addr) {
    TraceRecord r;
    r.kind = OpKind::kMalloc;
    r.tid = tid;
    r.cycle = cycle;
    r.addr = addr;
    r.size = 16;
    t.records.push_back(r);
  };
  add(0, 0, 0x10000000);
  add(1, 1, 0x10000000 + period);      // same stripe, other thread
  add(0, 2, 0x10000000 + 2 * period);  // same stripe again, same thread
  add(1, 3, 0x10000800);               // a different stripe: no collision

  const replay::StripeStats s = replay::recorded_stripe_stats(t);
  EXPECT_EQ(s.blocks, 4u);
  EXPECT_EQ(s.cross_thread_collisions, 2u);
  EXPECT_EQ(s.same_thread_collisions, 1u);
  EXPECT_EQ(s.peak_live_blocks, 4u);

  // Freeing the aliasing blocks clears the stripe for later tenants.
  Trace freed = t;
  TraceRecord f;
  f.kind = OpKind::kFree;
  f.tid = 0;
  f.cycle = 4;
  f.addr = 0x10000000;
  freed.records.push_back(f);
  f.cycle = 5;
  f.addr = 0x10000000 + period;
  f.tid = 1;
  freed.records.push_back(f);
  const replay::StripeStats s2 = replay::recorded_stripe_stats(freed);
  EXPECT_EQ(s2.blocks, 4u);  // births are counted, deaths just clear stripes
  EXPECT_EQ(s2.cross_thread_collisions, 2u);
  EXPECT_EQ(s2.peak_live_blocks, 4u);
}

}  // namespace
}  // namespace tmx
