// The observability layer: metrics JSON round-trip, the Chrome trace
// exported from a capture, and the STM's abort attribution on a
// deterministic false-abort scenario (the Figure 5 mechanism).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/stm.hpp"
#include "harness/run_context.hpp"
#include "obs/attribution.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "replay/trace_json.hpp"
#include "sim/engine.hpp"
#include "stamp/app.hpp"

namespace tmx::obs {
namespace {

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

// -- The Chrome trace of a capture (replay/trace_json.hpp) --

// What a Chrome trace holds: its tx slices by outcome, abort causes and
// allocator instants, and each thread's open slices.
struct ChromeCensus {
  std::uint64_t begins = 0, commits = 0, aborts = 0, mallocs = 0, frees = 0;
  std::map<std::string, std::uint64_t> causes;
  std::map<std::uint64_t, int> open;  // tid -> open tx slices

  bool balanced() const {
    for (const auto& [tid, depth] : open) {
      if (depth != 0) return false;
    }
    return true;
  }
};

// Reads a Chrome trace event by event, so that the trace of a whole STAMP
// run (kmeans: 820k events) checks in bounded memory. The envelope must be
// the exporter's and each element of traceEvents must parse as an object
// with pid, tid, ts, ph and name. Timestamps must not go back, and a
// thread's tx slices must neither nest nor close unopened.
void read_chrome_trace(const std::string& text, ChromeCensus* c) {
  const std::string head = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  ASSERT_EQ(text.compare(0, head.size(), head), 0);
  ASSERT_GE(text.size(), head.size() + 2);
  ASSERT_EQ(text.substr(text.size() - 2), "]}");
  const std::size_t end = text.size() - 2;
  double last_ts = 0;
  for (std::size_t pos = head.size(); pos < end;) {
    // The element ends at the brace that closes its first one.
    std::size_t i = pos;
    bool in_string = false;
    for (int depth = 0; i < end; ++i) {
      const char ch = text[i];
      if (in_string) {
        if (ch == '\\') ++i;
        if (ch == '"') in_string = false;
      } else if (ch == '"') {
        in_string = true;
      } else if (ch == '{') {
        ++depth;
      } else if (ch == '}' && --depth == 0) {
        ++i;
        break;
      }
    }
    bool ok = false;
    std::string error;
    const json::Value e = json::parse(text.substr(pos, i - pos), &ok, &error);
    ASSERT_TRUE(ok) << error << " at " << pos;
    ASSERT_TRUE(e.is_object());
    for (const char* key : {"pid", "tid", "ts", "ph", "name"}) {
      ASSERT_NE(e.find(key), nullptr) << key << " at " << pos;
    }
    pos = i;
    if (pos < end) {
      ASSERT_EQ(text[pos], ',');
      ++pos;
      ASSERT_LT(pos, end);
    }
    const std::string& ph = e.find("ph")->str;
    if (ph == "M") continue;
    const double ts = e.find("ts")->number;
    EXPECT_LE(last_ts, ts);
    last_ts = ts;
    const json::Value* args = e.find("args");
    int& open = c->open[static_cast<std::uint64_t>(e.find("tid")->number)];
    if (ph == "B") {
      ++c->begins;
      ASSERT_EQ(open++, 0) << "nested slice at " << pos;
    } else if (ph == "E") {
      ASSERT_EQ(open--, 1) << "unopened slice closes at " << pos;
      ASSERT_NE(args, nullptr);
      const std::string& outcome = args->find("outcome")->str;
      if (outcome == "commit") {
        ++c->commits;
        EXPECT_NE(args->find("reads"), nullptr);
        EXPECT_NE(args->find("writes"), nullptr);
      } else {
        ASSERT_EQ(outcome, "abort");
        ++c->aborts;
        ++c->causes[args->find("cause")->str];
      }
    } else {
      ASSERT_EQ(ph, "i");
      const std::string& name = e.find("name")->str;
      (name == "malloc" ? c->mallocs : c->frees) += 1;
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->find("addr")->str.rfind("+0x", 0), 0u);
      EXPECT_NE(args->find("region"), nullptr);
    }
  }
}

// One slice per transaction attempt, closed by its outcome, and one
// instant per malloc and free, at the capture's cycles.
TEST(TraceJson, SliceAndInstantPerRecord) {
  using replay::OpKind;
  replay::Trace t;
  t.records = {
      {.cycle = 0, .kind = OpKind::kMalloc, .aux = 0, .addr = 0x40,
       .size = 32},
      {.cycle = 10, .kind = OpKind::kTxBegin},
      {.cycle = 12, .tid = 1, .kind = OpKind::kTxBegin},
      {.cycle = 15, .kind = OpKind::kMalloc, .parallel = true, .aux = 2,
       .addr = 0x80, .size = 16},
      {.cycle = 20, .kind = OpKind::kTxCommit, .size = 3, .size2 = 1},
      {.cycle = 25, .tid = 1, .kind = OpKind::kTxAbort, .aux = 0},
      {.cycle = 30, .tid = 1, .kind = OpKind::kTxBegin},
      {.cycle = 2500, .tid = 1, .kind = OpKind::kTxAbort, .aux = 6},
      {.cycle = 2600, .kind = OpKind::kFree, .parallel = true, .aux = 1,
       .addr = 0x80},
  };
  const std::string text = replay::chrome_trace_json(t);
  bool ok = false;
  std::string error;
  json::parse(text, &ok, &error);
  ASSERT_TRUE(ok) << error;
  ChromeCensus c;
  ASSERT_NO_FATAL_FAILURE(read_chrome_trace(text, &c));
  EXPECT_EQ(c.begins, 3u);
  EXPECT_EQ(c.commits, 1u);
  EXPECT_EQ(c.aborts, 2u);
  EXPECT_EQ(c.causes, (std::map<std::string, std::uint64_t>{
                          {"read_locked", 1}, {"hw_capacity", 1}}));
  EXPECT_EQ(c.mallocs, 2u);
  EXPECT_EQ(c.frees, 1u);
  EXPECT_TRUE(c.balanced());
  EXPECT_NE(text.find("\"ts\":2.500,\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(text.find("\"reads\":3,\"writes\":1"), std::string::npos);
  EXPECT_NE(text.find("\"size\":16,\"region\":\"tx\",\"addr\":\"+0x80\""),
            std::string::npos);
  EXPECT_NE(text.find("\"name\":\"free\",\"args\":{\"region\":\"par\""),
            std::string::npos);
}

TEST(TraceJson, EmptyCaptureIsValidJson) {
  bool ok = false;
  const json::Value root =
      json::parse(replay::chrome_trace_json(replay::Trace{}), &ok);
  ASSERT_TRUE(ok);
  const json::Value* trace_events = root.find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());
  EXPECT_EQ(trace_events->array.size(), 1u);  // the process name
}

// --trace exports the run's capture: a tx slice for every attempt, closed
// by every commit and abort the run counted, and an instant for every
// malloc and free, as Capture.CensusEqualsTheRunsOwnCounts checks of the
// capture itself.
TEST(TraceJson, StampRunsExportEveryAttempt) {
  for (const char* app : {"kmeans", "intruder"}) {
    stamp::StampRun run;
    run.app = app;
    run.threads = 8;
    harness::set_report(harness::Report::kTrace, true);
    const stamp::StampOutcome out = stamp::run_stamp(run);
    harness::set_report(harness::Report::kTrace, false);
    const replay::Trace trace = harness::take_capture();
    ASSERT_TRUE(out.result.verified) << app << ": " << out.result.detail;
    ChromeCensus c;
    ASSERT_NO_FATAL_FAILURE(
        read_chrome_trace(replay::chrome_trace_json(trace), &c))
        << app;
    const stm::TxStats& stats = out.result.stats;
    EXPECT_EQ(c.begins, stats.commits + stats.aborts) << app;
    EXPECT_EQ(c.commits, stats.commits) << app;
    EXPECT_EQ(c.aborts, stats.aborts) << app;
    EXPECT_TRUE(c.balanced()) << app;
    EXPECT_GT(c.mallocs, 0u) << app;
    EXPECT_EQ(c.mallocs, trace.count(replay::OpKind::kMalloc)) << app;
    EXPECT_EQ(c.frees, trace.count(replay::OpKind::kFree)) << app;
  }
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
