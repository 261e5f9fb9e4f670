// The observability layer: ring-buffer tracer semantics, metrics JSON
// round-trip, Chrome trace schema, and the STM's abort attribution on a
// deterministic false-abort scenario (the Figure 5 mechanism).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/stm.hpp"
#include "obs/attribution.hpp"
#include "obs/event.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_json.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"

namespace tmx::obs {
namespace {

// Guards every test that records through the Tracer singleton: tests run
// single-binary so enable/disable pairs must not leak into each other.
struct TracerGuard {
  ~TracerGuard() { Tracer::instance().disable(); }
};

TEST(Tracer, RingWraparoundDropsOldest) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.enable(/*capacity_per_thread=*/8);
  ASSERT_TRUE(t.enabled());
  for (std::uint64_t i = 0; i < 20; ++i) {
    t.record(EventKind::kTxBegin, /*a=*/i);
  }
  const std::vector<Event> events = t.snapshot();
  ASSERT_EQ(events.size(), 8u);  // capacity survivors only
  EXPECT_EQ(t.dropped(), 12u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 12 + i);  // the oldest 12 were overwritten
  }
}

TEST(Tracer, CapacityRoundsUpToPowerOfTwo) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.enable(/*capacity_per_thread=*/20);
  EXPECT_EQ(t.capacity_per_thread(), 32u);
  t.enable(/*capacity_per_thread=*/1);
  EXPECT_EQ(t.capacity_per_thread(), 8u);  // floor
}

TEST(Tracer, DisabledRecordsNothing) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.enable(16);
  t.disable();
  EXPECT_FALSE(trace_enabled());
  // The macro guard is off, and even a direct record is dropped.
  TMX_OBS_EVENT(EventKind::kTxBegin);
  t.record(EventKind::kTxBegin);
  EXPECT_EQ(t.snapshot().size(), 0u);
}

TEST(Tracer, ClearKeepsRecordingOn) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.enable(16);
  t.record(EventKind::kTxBegin);
  t.clear();
  EXPECT_TRUE(t.enabled());
  EXPECT_EQ(t.size(), 0u);
  t.record(EventKind::kTxCommit);
  EXPECT_EQ(t.snapshot().size(), 1u);
}

TEST(Metrics, JsonRoundTrip) {
  MetricsRegistry reg;
  reg.set_counter("stm.aborts", 42);
  reg.add_counter("stm.aborts", 8);
  reg.set_counter("alloc.tx.mallocs", 123456789);
  reg.set_gauge("stm.abort_ratio", 0.171);

  const std::string text = reg.to_json();
  MetricsRegistry back;
  ASSERT_TRUE(MetricsRegistry::from_json(text, &back));
  EXPECT_EQ(back.counter("stm.aborts"), 50u);
  EXPECT_EQ(back.counter("alloc.tx.mallocs"), 123456789u);
  EXPECT_DOUBLE_EQ(back.gauge("stm.abort_ratio"), 0.171);
  // Serialization is deterministic: a round-tripped registry re-serializes
  // to the identical byte string.
  EXPECT_EQ(back.to_json(), text);
}

TEST(Metrics, FromJsonRejectsWrongSchema) {
  MetricsRegistry out;
  EXPECT_FALSE(MetricsRegistry::from_json("{\"schema\":\"bogus\"}", &out));
  EXPECT_FALSE(MetricsRegistry::from_json("not json at all", &out));
}

// Synthesizes a tiny trace directly so the exporter's schema can be checked
// even in a -DTMX_TRACING=OFF build (the exporter itself is always built).
TEST(TraceJson, SchemaAndBalancedSlices) {
  std::vector<Event> events;
  const auto ev = [&](std::uint64_t ts, std::uint32_t tid, EventKind k,
                      std::uint64_t a = 0, std::uint64_t b = 0,
                      std::uint8_t arg0 = 0) {
    events.push_back(Event{ts, a, b, tid, k, arg0, 0});
  };
  ev(0, 0, EventKind::kRunBegin, 2);
  ev(10, 0, EventKind::kTxBegin);
  ev(12, 1, EventKind::kTxBegin);
  ev(15, 0, EventKind::kStripeAcquire, 0x1000, 7);
  ev(20, 0, EventKind::kTxCommit, 3, 1);
  ev(25, 1, EventKind::kTxAbort, 0x1008, 7, /*cause=*/0);
  ev(30, 1, EventKind::kTxBegin);  // left open: exporter must close it
  // An abort whose begin was dropped: exporter must skip the orphan closer.
  ev(35, 2, EventKind::kTxAbort, 0, 0, 2);
  ev(40, 0, EventKind::kRunEnd, 2);

  const std::string text = chrome_trace_json(events, /*ticks_per_us=*/1.0);
  bool ok = false;
  std::string error;
  const json::Value root = json::parse(text, &ok, &error);
  ASSERT_TRUE(ok) << error;
  const json::Value* trace_events = root.find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());

  int begins = 0, ends = 0;
  for (const json::Value& e : trace_events->array) {
    ASSERT_TRUE(e.is_object());
    const json::Value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    EXPECT_NE(e.find("pid"), nullptr);
    EXPECT_NE(e.find("tid"), nullptr);
    EXPECT_NE(e.find("name"), nullptr);
    if (ph->str != "M") {
      EXPECT_NE(e.find("ts"), nullptr);
    }
    if (ph->str == "B") ++begins;
    if (ph->str == "E") ++ends;
  }
  EXPECT_EQ(begins, 3);
  EXPECT_EQ(begins, ends);  // orphan E skipped, trailing B force-closed
}

TEST(TraceJson, EmptyTraceIsValidJson) {
  bool ok = false;
  const json::Value root = json::parse(chrome_trace_json({}), &ok);
  ASSERT_TRUE(ok);
  const json::Value* trace_events = root.find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  EXPECT_TRUE(trace_events->is_array());
}

// -- Attribution at the conflict: the STM's tallies in the run's context --

struct AttributionFixture : ::testing::Test {
  sim::RunContext ctx;
  sim::ContextScope scope{ctx};
  std::unique_ptr<alloc::Allocator> allocator =
      alloc::create_allocator("glibc");

  // Two threads hammer `writer_word` (read-modify-write) and `reader_word`
  // (read-only, or read-modify-write when `both_write`) under the given
  // stripe shift and design.
  stm::TxStats run_conflict(
      unsigned shift, std::uint64_t* writer_word, std::uint64_t* reader_word,
      stm::StmDesign design = stm::StmDesign::kWriteBackEtl,
      bool both_write = false) {
    stm::Config cfg;
    cfg.allocator = allocator.get();
    cfg.shift = shift;
    cfg.design = design;
    stm::Stm stm(cfg);
    sim::RunConfig rc;
    rc.threads = 2;
    rc.cache_model = false;
    sim::run_parallel(rc, [&](int tid) {
      for (int i = 0; i < 200; ++i) {
        if (tid == 0) {
          stm.atomically([&](stm::Tx& tx) {
            tx.store(writer_word, tx.load(writer_word) + 1);
            sim::tick(300);  // hold the stripe long enough to collide
          });
        } else {
          stm.atomically([&](stm::Tx& tx) {
            const std::uint64_t v = tx.load(reader_word);
            if (both_write) tx.store(reader_word, v + 1);
            sim::tick(300);
          });
        }
      }
    });
    last_stripe_ = stm.ort_index(writer_word);
    return stm.stats();
  }

  AttributionReport report(std::size_t top_k = 4) const {
    return make_report(ctx.aborts, top_k);
  }

  std::size_t last_stripe_ = 0;
};

TEST_F(AttributionFixture, ClassifiesFalseAborts) {
  // Distinct 8-byte words inside one 32-byte stripe (shift=5): logically
  // disjoint transactions, yet the reader aborts — all false.
  alignas(64) static std::uint64_t buf[8] = {};
  const stm::TxStats stats = run_conflict(5, &buf[0], &buf[1]);
  ASSERT_GT(stats.aborts, 0u);

  const AttributionReport r = report();
  EXPECT_EQ(r.total_aborts, stats.aborts);
  EXPECT_GT(r.false_aborts, 0u);
  EXPECT_EQ(r.true_conflicts, 0u);
  EXPECT_EQ(stats.false_conflict_aborts, r.false_aborts);
  EXPECT_EQ(stats.true_conflict_aborts, 0u);
  EXPECT_DOUBLE_EQ(r.false_abort_ratio(), 1.0);
  ASSERT_FALSE(r.top.empty());
  EXPECT_EQ(r.top[0].stripe, last_stripe_);
  // The evidence pair: the reader's word, and the word whose write took
  // the stripe's lock.
  EXPECT_EQ(r.top[0].sample_aborter_addr,
            reinterpret_cast<std::uintptr_t>(&buf[1]));
  EXPECT_EQ(r.top[0].sample_owner_addr,
            reinterpret_cast<std::uintptr_t>(&buf[0]));
}

TEST_F(AttributionFixture, ClassifiesTrueConflicts) {
  // Same word on both sides: every abort is a genuine data conflict.
  alignas(64) static std::uint64_t buf[8] = {};
  const stm::TxStats stats = run_conflict(5, &buf[0], &buf[0]);
  ASSERT_GT(stats.aborts, 0u);

  const AttributionReport r = report();
  EXPECT_GT(r.true_conflicts, 0u);
  EXPECT_EQ(r.false_aborts, 0u);
  EXPECT_EQ(stats.true_conflict_aborts, r.true_conflicts);
  EXPECT_EQ(stats.false_conflict_aborts, 0u);
  EXPECT_DOUBLE_EQ(r.false_abort_ratio(), 0.0);
  ASSERT_FALSE(r.top.empty());
  EXPECT_EQ(r.top[0].stripe, last_stripe_);
}

TEST_F(AttributionFixture, ClassifiesUnderCommitTimeLocking) {
  // Commit-time locking holds a stripe's lock only while it commits: the
  // other writer's barriers and commit collide with it there.
  alignas(64) static std::uint64_t buf[8] = {};
  const stm::TxStats stats =
      run_conflict(5, &buf[0], &buf[1], stm::StmDesign::kCommitTimeLocking,
                   /*both_write=*/true);
  ASSERT_GT(stats.aborts_by_cause[static_cast<int>(
                stm::AbortCause::kWriteLocked)],
            0u);
  const AttributionReport r = report();
  EXPECT_EQ(r.true_conflicts, 0u);
  EXPECT_EQ(r.false_aborts,
            stats.aborts_by_cause[static_cast<int>(
                stm::AbortCause::kReadLocked)] +
                stats.aborts_by_cause[static_cast<int>(
                    stm::AbortCause::kWriteLocked)]);
  EXPECT_EQ(stats.false_conflict_aborts, r.false_aborts);
}

TEST_F(AttributionFixture, SeparateStripesProduceNoAborts) {
  // shift=4 gives 16-byte stripes, so word 0 and word 4 never alias.
  alignas(64) static std::uint64_t buf[8] = {};
  const stm::TxStats stats = run_conflict(4, &buf[0], &buf[4]);
  EXPECT_EQ(stats.aborts, 0u);
  const AttributionReport r = report();
  EXPECT_EQ(r.total_aborts, 0u);
  EXPECT_TRUE(r.top.empty());
}

TEST_F(AttributionFixture, ThreadsEngineLeavesLockedAbortsUnclassified) {
  // On real threads the lock's owner is still running, so its write set
  // cannot be read: the collision counts, unclassified, and nothing is
  // tallied. The owner holds the lock until the reader starts a second
  // attempt, so the reader's first attempt collides with it.
  alignas(64) static std::uint64_t buf[8] = {};
  stm::Config cfg;
  cfg.allocator = allocator.get();
  stm::Stm stm(cfg);
  std::atomic<bool> held{false};
  std::atomic<int> attempts{0};
  sim::RunConfig rc;
  rc.kind = sim::EngineKind::Threads;
  rc.threads = 2;
  sim::run_parallel(rc, [&](int tid) {
    if (tid == 0) {
      stm.atomically([&](stm::Tx& tx) {
        tx.store(&buf[0], tx.load(&buf[0]) + 1);
        held.store(true);
        while (attempts.load() < 2) sim::relax();
      });
    } else {
      while (!held.load()) sim::relax();
      stm.atomically([&](stm::Tx& tx) {
        attempts.fetch_add(1);
        tx.load(&buf[0]);
      });
    }
  });
  const stm::TxStats stats = stm.stats();
  EXPECT_GE(
      stats.aborts_by_cause[static_cast<int>(stm::AbortCause::kReadLocked)],
      1u);
  EXPECT_EQ(stats.true_conflict_aborts, 0u);
  EXPECT_EQ(stats.false_conflict_aborts, 0u);
  EXPECT_EQ(ctx.aborts.aborts, 0u);
}

TEST_F(AttributionFixture, StmTraceExportsAsValidChromeTrace) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "built with -DTMX_TRACING=OFF";
  TracerGuard guard;
  Tracer::instance().enable(1u << 14);
  alignas(64) static std::uint64_t buf[8] = {};
  run_conflict(5, &buf[0], &buf[1]);
  const std::vector<Event> events = Tracer::instance().snapshot();
  ASSERT_FALSE(events.empty());
  // Snapshot must come out time-sorted (the exporter depends on it).
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts, events[i].ts);
  }
  bool ok = false;
  std::string error;
  const json::Value root = json::parse(chrome_trace_json(events), &ok, &error);
  ASSERT_TRUE(ok) << error;
  int begins = 0, ends = 0;
  for (const json::Value& e : root.find("traceEvents")->array) {
    const json::Value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "B") ++begins;
    if (ph->str == "E") ++ends;
  }
  EXPECT_GT(begins, 0);
  EXPECT_EQ(begins, ends);
}

TEST_F(AttributionFixture, PublishMetricsExposesTotals) {
  alignas(64) static std::uint64_t buf[8] = {};
  const stm::TxStats stats = run_conflict(5, &buf[0], &buf[1]);
  const AttributionReport r = report();
  MetricsRegistry reg;
  publish_metrics(r, reg);
  EXPECT_EQ(reg.counter("attribution.total_aborts"), r.total_aborts);
  EXPECT_EQ(reg.counter("attribution.false_aborts"), r.false_aborts);
  EXPECT_EQ(reg.counter("attribution.true_conflicts"), r.true_conflicts);
  // Every run's document carries the split beside the cause counters.
  stm::publish_metrics(stats, reg);
  EXPECT_EQ(reg.counter("stm.aborts.false_conflict"), r.false_aborts);
  EXPECT_EQ(reg.counter("stm.aborts.true_conflict"), r.true_conflicts);
}

}  // namespace
}  // namespace tmx::obs
