#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "alloc/instrument.hpp"
#include "alloc/page_provider.hpp"
#include "check/check_alloc.hpp"
#include "fault/fault.hpp"
#include "fault/fault_alloc.hpp"
#include "guard/guard.hpp"
#include "guard/guard_alloc.hpp"
#include "harness/obs_session.hpp"
#include "harness/options.hpp"
#include "harness/replay.hpp"
#include "harness/run_context.hpp"
#include "harness/server_mix.hpp"
#include "harness/setbench.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "obs/metrics.hpp"
#include "prof/prof.hpp"
#include "prof/prof_alloc.hpp"
#include "replay/synth.hpp"
#include "stamp/app.hpp"

namespace tmx::harness {
namespace {

TEST(Stats, MeanAndStddev) {
  const Summary s = summarize({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 0.001);  // sample stddev
  EXPECT_EQ(s.n, 8u);
  EXPECT_GT(s.ci95, 0.0);
  EXPECT_LT(s.lo(), s.mean);
  EXPECT_GT(s.hi(), s.mean);
}

TEST(Stats, EdgeCases) {
  EXPECT_EQ(summarize({}).n, 0u);
  const Summary one = summarize({3.0});
  EXPECT_DOUBLE_EQ(one.mean, 3.0);
  EXPECT_DOUBLE_EQ(one.ci95, 0.0);
}

TEST(Stats, PercentileEdgeCases) {
  // n = 0: defined as 0.0 rather than NaN.
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  // n = 1: every percentile is the single sample.
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 50.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 100.0), 7.0);
  // n = 2: linear interpolation between the two order statistics.
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile({20.0, 10.0}, 50.0), 15.0);
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 100.0), 20.0);
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 25.0), 12.5);
}

TEST(Stats, MedianAndP95) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // 1..100, reversed
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_NEAR(s.p95, 95.05, 1e-9);  // rank 0.95*99 = 94.05 -> 95 + 0.05
  EXPECT_NEAR(s.p99, 99.01, 1e-9);  // rank 0.99*99 = 98.01 -> 99 + 0.01
  EXPECT_EQ(s.dropped, 0u);
}

TEST(Stats, TailPercentilesAtSmallN) {
  // With closest-rank interpolation, small samples keep p95/p99 strictly
  // below the maximum instead of snapping to it (the max belongs to p100).
  const Summary s = summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_NEAR(s.p95, 9.55, 1e-9);  // rank 0.95*9 = 8.55
  EXPECT_NEAR(s.p99, 9.91, 1e-9);  // rank 0.99*9 = 8.91
  EXPECT_LT(s.p95, 10.0);
  EXPECT_LT(s.p99, 10.0);
}

TEST(Stats, NonFiniteSamplesAreDroppedAndCounted) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const Summary s = summarize({1.0, nan, 3.0, inf, 2.0, -inf});
  EXPECT_EQ(s.n, 3u);
  EXPECT_EQ(s.dropped, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_TRUE(std::isfinite(s.stddev));
  EXPECT_TRUE(std::isfinite(s.ci95));
  // All-non-finite input degenerates to the empty summary, not NaN.
  const Summary none = summarize({nan, nan});
  EXPECT_EQ(none.n, 0u);
  EXPECT_EQ(none.dropped, 2u);
  EXPECT_DOUBLE_EQ(none.mean, 0.0);
}

TEST(Stats, TTableValues) {
  EXPECT_NEAR(t95(2), 12.706, 1e-3);   // df = 1
  EXPECT_NEAR(t95(31), 2.042, 1e-3);   // df = 30
  EXPECT_NEAR(t95(100), 1.96, 1e-3);   // large sample
}

TEST(Stats, Ci95ShrinksWithSamples) {
  std::vector<double> small = {1, 2, 3};
  std::vector<double> large;
  for (int rep = 0; rep < 10; ++rep) {
    large.push_back(1);
    large.push_back(2);
    large.push_back(3);
  }
  EXPECT_GT(summarize(small).ci95, summarize(large).ci95);
}

TEST(Fmt, Numbers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_pct(0.171, 1), "17.1%");
  EXPECT_EQ(fmt_si(1'500'000.0, 2), "1.50M");
  EXPECT_EQ(fmt_si(2'500.0, 1), "2.5K");
  EXPECT_EQ(fmt_si(12.0, 0), "12");
}

constexpr Flag kTestFlags[] = {
    {"threads", Flag::Kind::kInts, "1..256[,...]", "1,2,4,8", "thread counts"},
    {"reps", Flag::Kind::kInt, "N", "3", "repetitions"},
    {"scale", Flag::Kind::kReal, "X", "1", "scale factor"},
    {"name", Flag::Kind::kText, "S", "dflt", "a text flag"},
    {"quick", Flag::Kind::kBare, nullptr, nullptr, "a bare flag"},
};

// Parses `args` the way a binary honouring the run and report flags does.
Options parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Options(static_cast<int>(args.size()), const_cast<char**>(args.data()),
                 {{"test:", kTestFlags}, kRunFlags, kReportFlags});
}

TEST(Options, ParsesKeyValueForms) {
  const Options o = parse({"--threads", "1,2,4", "--reps=5", "--quick",
                           "--name=a=b", "--metrics-out", "m.json"});
  EXPECT_TRUE(o.has("threads"));
  EXPECT_TRUE(o.has("quick"));
  EXPECT_FALSE(o.has("scale"));
  EXPECT_EQ(o.get_long("reps"), 5);
  EXPECT_EQ(o.get_list("threads"), (std::vector<std::string>{"1", "2", "4"}));
  EXPECT_EQ(o.get("name"), "a=b");
  EXPECT_EQ(o.get("metrics-out"), "m.json");
}

TEST(Options, AbsentFlagsReadTheirTableDefault) {
  const Options o = parse({});
  EXPECT_EQ(o.get_long("reps"), 3);
  EXPECT_EQ(o.get("threads"), "1,2,4,8");
  EXPECT_EQ(o.get_double("scale"), 1.0);
  EXPECT_EQ(o.get("name"), "dflt");
  EXPECT_EQ(o.get("metrics-out"), "");
  EXPECT_EQ(o.get_long("seed"), 20150207);
  EXPECT_FALSE(o.has("quick"));
}

// --check takes a value only when one follows it.
TEST(Options, CheckTakesAnOptionalValue) {
  for (const auto& args : {std::vector<const char*>{"--check"},
                           {"--check", "--quick"}, {"--check", "all"},
                           {"--check", "race,lifetime"}}) {
    const RunSpec s = parse(args).run_spec();
    ASSERT_TRUE(s.check);
    EXPECT_TRUE(s.check->race);
    EXPECT_TRUE(s.check->lifetime);
  }
  EXPECT_TRUE(parse({"--check", "--quick"}).has("quick"));
  const RunSpec race = parse({"--check", "race"}).run_spec();
  EXPECT_TRUE(race.check->race);
  EXPECT_FALSE(race.check->lifetime);
  const RunSpec lifetime = parse({"--check=lifetime"}).run_spec();
  EXPECT_FALSE(lifetime.check->race);
  EXPECT_TRUE(lifetime.check->lifetime);
}

// The fault plane is on exactly when a --fault-* flag is given, and the
// guard plane when a --guard* flag is.
TEST(Options, PlanesFollowTheirFlagPrefix) {
  EXPECT_FALSE(parse({}).run_spec().fault);
  EXPECT_FALSE(parse({}).run_spec().guard);
  EXPECT_TRUE(parse({"--fault-delay-free-cycles", "5"}).run_spec().fault);
  EXPECT_TRUE(parse({"--fault-oom-region", "all"}).run_spec().fault);
  EXPECT_TRUE(parse({"--guard"}).run_spec().guard);
  const RunSpec capped = parse({"--guard-hard-cap", "3"}).run_spec();
  ASSERT_TRUE(capped.guard);
  EXPECT_EQ(capped.guard->hard_cap, 3u);
  EXPECT_FALSE(capped.fault);
}

// A table default and the config default it stands for must agree.
TEST(Options, TableDefaultsMatchTheConfigDefaults) {
  const RunSpec s =
      parse({"--fault-oom-rate", "0", "--check", "--guard"}).run_spec();
  const fault::FaultPlan plan;
  ASSERT_TRUE(s.fault);
  EXPECT_EQ(s.fault->seed, plan.seed);
  EXPECT_EQ(s.fault->oom_budget, plan.oom_budget);
  EXPECT_EQ(s.fault->oom_everywhere, plan.oom_everywhere);
  EXPECT_EQ(s.fault->reserve_cap_bytes, plan.reserve_cap_bytes);
  EXPECT_EQ(s.fault->delay_free_cycles, plan.delay_free_cycles);
  EXPECT_EQ(s.fault->corrupt_budget, plan.corrupt_budget);
  ASSERT_TRUE(s.check);
  EXPECT_EQ(s.check->max_reports, check::CheckConfig{}.max_reports);
  const guard::GuardConfig gc;
  ASSERT_TRUE(s.guard);
  EXPECT_EQ(s.guard->quarantine_epochs, gc.quarantine_epochs);
  EXPECT_EQ(s.guard->commits_per_epoch, gc.commits_per_epoch);
  EXPECT_EQ(s.guard->max_findings, gc.max_findings);
  EXPECT_EQ(s.guard->hard_cap, gc.hard_cap);
  const phase::PhaseConfig pc;
  EXPECT_EQ(s.phase.commits_per_epoch, pc.commits_per_epoch);
  EXPECT_EQ(s.phase.slab_bytes, pc.slab_bytes);
  EXPECT_EQ(s.phase.compact, pc.compact);
}

TEST(OptionsDeathTest, RefusedArgumentsExit2NamingTheArgument) {
  const std::pair<std::vector<const char*>, const char*> cases[] = {
      {{"--metrics_out", "m.json"}, "unknown flag '--metrics_out'"},
      {{"--fault-oom-rat", "0.5"}, "unknown flag '--fault-oom-rat'"},
      {{"stray"}, "unexpected argument 'stray'"},
      {{"--quick", "stray"}, "unexpected argument 'stray'"},
      {{"--reps"}, "--reps needs a value"},
      {{"--reps", "--quick"}, "--reps needs a value"},
      {{"--reps", "abc"}, "--reps expects an integer, got 'abc'"},
      {{"--reps", "5x"}, "--reps expects an integer, got '5x'"},
      {{"--scale", "1.5.2"}, "--scale expects a number, got '1.5.2'"},
      {{"--threads", "1,x"}, "--threads expects a comma list of integers"},
      {{"--quick=1"}, "--quick takes no value"},
      {{"--design", "bogus"}, "--design expects wb\\|wt\\|ctl, got 'bogus'"},
      {{"--txcache", "2"}, "--txcache expects 0\\|1, got '2'"},
      {{"--shift", "64"}, "--shift expects 0\\.\\.63, got '64'"},
      {{"--threads", "1,0"}, "--threads expects 1\\.\\.256.*, got '0'"},
      {{"--numa-policy", "bindxyz"}, "--numa-policy expects .*, got 'bindxyz'"},
      {{"--check", "race,bogus"}, "--check expects .*, got 'bogus'"},
      {{"--reps", "1", "--reps=2"}, "--reps given twice"},
  };
  for (const auto& [args, message] : cases) {
    EXPECT_EXIT(parse(args), ::testing::ExitedWithCode(2), message);
  }
}

TEST(OptionsDeathTest, HelpAndListAllocatorsExit0) {
  EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(parse({"--list-allocators"}), ::testing::ExitedWithCode(0), "");
}

TEST(OptionsDeathTest, ReadingAnUndeclaredFlagAborts) {
  const Options o = parse({});
  EXPECT_DEATH(o.get("nosuch"), "none of its flag tables declares");
}

TEST(Options, EngineSelection) {
  EXPECT_EQ(parse({"--engine", "threads"}).run_spec().engine,
            sim::EngineKind::Threads);
}

// An alternative "bind[:NODE]" takes "bind" and "bind:N".
TEST(Options, NumaPolicyBindTakesANode) {
  for (const char* policy : {"bind", "bind:3"}) {
    const RunSpec s = parse({"--numa-policy", policy}).run_spec();
    EXPECT_EQ(s.numa.policy, alloc::NumaOptions::Policy::kBind);
    EXPECT_EQ(s.numa.bind_node, policy[4] == ':' ? 3u : 0u);
  }
}

// Every shared flag lands in its RunSpec field, and from there in the
// stm::Config and sim::RunConfig the harnesses run with.
TEST(Options, RunSpecParsesEverySharedFlag) {
  const char* argv[] = {
      "prog",
      "--engine",       "threads",          "--cache-model",
      "0",              "--seed",           "42",
      "--numa-nodes",   "2",                "--numa-cores-per-node",
      "3",              "--numa-policy",    "interleave",
      "--ort-shards",   "2",                "--shift",
      "4",              "--design",         "ctl",
      "--cm",           "backoff",          "--txcache",
      "1",              "--hybrid",         "1",
      "--stm-retry-cap", "9",               "--watchdog-tx-cycles",
      "1234",           "--watchdog-run-cycles", "5678",
      "--prof",         "--prof-sample-cycles", "777",
      "--fault-seed",   "11",               "--fault-oom-rate",
      "0.25",           "--check",          "lifetime",
      "--guard-quarantine-epochs", "0",     "--phase-compact",
      "all",            "--phase-slab-bytes", "32768"};
  const Options o(static_cast<int>(std::size(argv)),
                  const_cast<char**>(argv), {kRunFlags});
  const RunSpec s = o.run_spec();
  EXPECT_EQ(s.engine, sim::EngineKind::Threads);
  EXPECT_FALSE(s.cache_model);
  EXPECT_EQ(s.seed, 42u);
  EXPECT_EQ(s.topology.nodes, 2u);
  EXPECT_EQ(s.topology.cores_per_node, 3u);
  EXPECT_EQ(s.numa.policy, alloc::NumaOptions::Policy::kInterleave);
  EXPECT_EQ(s.ort_shards, 2u);
  EXPECT_EQ(s.ort_log2, 20u);  // no flag: the paper's 2^20 locks
  EXPECT_EQ(s.shift, 4u);
  EXPECT_EQ(s.design, stm::StmDesign::kCommitTimeLocking);
  EXPECT_EQ(s.cm, stm::ContentionManager::kBackoff);
  EXPECT_TRUE(s.tx_alloc_cache);
  EXPECT_TRUE(s.htm_enabled);
  EXPECT_EQ(s.retry_cap, 9u);
  EXPECT_EQ(s.tx_cycle_budget, 1234u);
  EXPECT_EQ(s.watchdog_cycles, 5678u);
  EXPECT_TRUE(s.prof);
  EXPECT_EQ(s.prof_sample_cycles, 777u);
  ASSERT_TRUE(s.fault);
  EXPECT_EQ(s.fault->seed, 11u);
  EXPECT_EQ(s.fault->oom_rate, 0.25);
  ASSERT_TRUE(s.check);
  EXPECT_FALSE(s.check->race);
  EXPECT_TRUE(s.check->lifetime);
  EXPECT_EQ(s.check->shift, 4u);  // stripes line up with the checked run
  ASSERT_TRUE(s.guard);
  EXPECT_EQ(s.guard->quarantine_epochs, 0u);
  EXPECT_EQ(s.phase.compact, phase::PhaseConfig::Compact::kAll);
  EXPECT_EQ(s.phase.slab_bytes, 32768u);

  const auto backing = alloc::create_allocator("glibc");
  const stm::Config c = s.stm_config(backing.get());
  EXPECT_EQ(c.allocator, backing.get());
  EXPECT_EQ(c.ort_log2, 20u);
  EXPECT_EQ(c.shift, 4u);
  EXPECT_EQ(c.ort_shards, 2u);
  EXPECT_EQ(c.design, stm::StmDesign::kCommitTimeLocking);
  EXPECT_EQ(c.cm, stm::ContentionManager::kBackoff);
  EXPECT_TRUE(c.tx_alloc_cache);
  EXPECT_TRUE(c.htm.enabled);
  EXPECT_EQ(c.retry_cap, 9u);
  EXPECT_EQ(c.tx_cycle_budget, 1234u);

  const sim::RunConfig rc = s.run_config(3);
  EXPECT_EQ(rc.kind, sim::EngineKind::Threads);
  EXPECT_EQ(rc.threads, 3);
  EXPECT_EQ(rc.seed, 42u);
  EXPECT_FALSE(rc.cache_model);
  EXPECT_EQ(rc.topology.nodes, 2u);
  EXPECT_EQ(rc.topology.cores_per_node, 3u);
  EXPECT_EQ(rc.watchdog_cycles, 5678u);
}

TEST(Options, RunSpecWithoutFlagsKeepsTheDefaults) {
  const RunSpec s = parse({}).run_spec();
  EXPECT_EQ(s.allocator, RunSpec{}.allocator);
  EXPECT_EQ(s.seed, RunSpec{}.seed);
  EXPECT_EQ(s.shift, RunSpec{}.shift);
  EXPECT_EQ(s.design, stm::StmDesign::kWriteBackEtl);
  EXPECT_EQ(s.retry_cap, 0u);
  EXPECT_EQ(s.prof_sample_cycles, RunSpec{}.prof_sample_cycles);
  EXPECT_TRUE(s.cache_model);
  EXPECT_FALSE(s.prof);
  EXPECT_FALSE(s.fault);
  EXPECT_FALSE(s.check);
  EXPECT_FALSE(s.guard);
  EXPECT_EQ(s.phase.compact, phase::PhaseConfig::Compact::kOff);
}

// Escalation is the liveness guarantee under injected faults, so the retry
// cap defaults on with them; an explicit --stm-retry-cap still wins.
TEST(Options, RetryCapDefaultsTo64WhenFaultsAreOn) {
  EXPECT_EQ(parse({"--fault-spurious-rate", "0.1"}).run_spec().retry_cap, 64u);
  EXPECT_EQ(parse({"--fault-spurious-rate", "0.1", "--stm-retry-cap", "8"})
                .run_spec()
                .retry_cap,
            8u);
}

// ---- Plane table ----

constexpr Needs kEveryNeed[] = {Needs::kSimEngine, Needs::kNoHybrid,
                                Needs::kNoTxcache, Needs::kNoCompaction};

// The spec a binary runs with when only `plane`'s flag is given.
RunSpec only(const std::string& plane) {
  if (plane == "fault") return parse({"--fault-seed", "7"}).run_spec();
  const std::string flag = "--" + plane;
  return parse({flag.c_str()}).run_spec();
}

// `spec` with the setting `needs` rules out.
RunSpec breaking(RunSpec spec, Needs needs) {
  switch (needs) {
    case Needs::kSimEngine: spec.engine = sim::EngineKind::Threads; break;
    case Needs::kNoHybrid: spec.htm_enabled = true; break;
    case Needs::kNoTxcache: spec.tx_alloc_cache = true; break;
    case Needs::kNoCompaction:
      spec.phase.compact = phase::PhaseConfig::Compact::kChecked;
      break;
  }
  return spec;
}

// `s` as a POSIX extended regular expression that matches it literally.
std::string literal(const std::string& s) {
  std::string re;
  for (const char c : s) {
    if (std::strchr("\\^$.|?*+()[]{}", c) != nullptr) re += '\\';
    re += c;
  }
  return re;
}

// Opening a run whose spec turns on a plane with a setting the plane's row
// rules out exits 2 with the row's message; every other setting runs. So
// does a NUMA bind node the topology lacks.
TEST(RunContextDeathTest, RefusesExactlyWhatThePlaneRowsRuleOut) {
  const std::map<std::pair<std::string, Needs>, std::string> refused = {
      {{"check", Needs::kSimEngine}, "--check requires --engine sim"},
      {{"check", Needs::kNoHybrid},
       "--check requires --hybrid 0 (the hardware path is not "
       "instrumented)"},
      {{"check", Needs::kNoTxcache},
       "--check requires --txcache 0 (the transactional object cache "
       "recycles blocks outside the checked allocator)"},
      {{"guard", Needs::kSimEngine}, "--guard requires --engine sim"},
      {{"guard", Needs::kNoTxcache},
       "--guard requires --txcache 0 (the object cache bins by usable_size, "
       "which the guard narrows to the requested size)"},
      {{"guard", Needs::kNoCompaction},
       "--guard requires --phase-compact off (relocation breaks the guard's "
       "address-keyed tables)"},
  };
  std::size_t refusals = 0;
  for (const Plane& p : kPlanes) {
    const RunSpec on = only(p.name);
    ASSERT_TRUE(p.on(on)) << p.name;
    for (const Needs needs : kEveryNeed) {
      ASSERT_TRUE(meets(on, needs));
      const RunSpec spec = breaking(on, needs);
      const auto it = refused.find({p.name, needs});
      if (it == refused.end()) {
        EXPECT_EXIT(
            {
              const RunContext run(spec);
              std::exit(0);
            },
            ::testing::ExitedWithCode(0), "")
            << p.name;
        continue;
      }
      ++refusals;
      EXPECT_EXIT(const RunContext run(spec), ::testing::ExitedWithCode(2),
                  "^error: " + literal(it->second) + "\n$");
    }
  }
  EXPECT_EQ(refusals, refused.size());

  RunSpec bind{.topology = {2, 0},
               .numa = {alloc::NumaOptions::Policy::kBind, 2}};
  EXPECT_EXIT(const RunContext run(bind), ::testing::ExitedWithCode(2),
              "^error: --numa-policy bind:2 requires a node below "
              "--numa-nodes 2\n$");
  bind.numa.bind_node = 1;
  const RunContext run(bind);
}

// While a process-wide report is on, every run refuses what the report's
// kReportNeeds row rules out, with the row's message, as for a plane row.
TEST(RunContextDeathTest, ReportsRefuseTheThreadsEngine) {
  const RunSpec threads{.engine = sim::EngineKind::Threads};
  for (const Report report :
       {Report::kAttribution, Report::kCapture, Report::kTrace}) {
    const Constraint& c = kReportNeeds[static_cast<int>(report)];
    EXPECT_EQ(c.needs, Needs::kSimEngine);
    EXPECT_EXIT(
        {
          set_report(report, true);
          const RunContext run(threads);
        },
        ::testing::ExitedWithCode(2), "^error: " + literal(c.refusal) + "\n$");
  }
  EXPECT_EQ(std::string(kReportNeeds[0].refusal),
            "--attribution requires --engine sim");
  EXPECT_EQ(std::string(kReportNeeds[1].refusal),
            "--record-trace requires --engine sim");
  EXPECT_EQ(std::string(kReportNeeds[2].refusal),
            "--trace requires --engine sim");
  const RunContext run(threads);  // no report on: it opens
}

// README's "Requires the sim engine; `--check` with ... is rejected"
// sentences list each plane row's constraints, in the row's order, and
// each report's.
TEST(Planes, ReadmeStatesEachRowsConstraints) {
  std::ifstream in(TMX_SOURCE_DIR "/README.md");
  ASSERT_TRUE(in);
  std::string readme, word;
  while (in >> word) readme += word + ' ';
  const std::map<Needs, std::string> setting = {
      {Needs::kSimEngine, "`--engine threads`"},
      {Needs::kNoHybrid, "`--hybrid 1`"},
      {Needs::kNoTxcache, "`--txcache 1`"},
      {Needs::kNoCompaction, "`--phase-compact checked|all`"},
  };
  for (const Plane& p : kPlanes) {
    const std::size_t n = p.constraints.size();
    if (n == 0) continue;
    std::string sentence = "`--" + std::string(p.name) + "` with ";
    for (std::size_t i = 0; i < n; ++i) {
      sentence += (i == 0 ? "" : i + 1 == n ? " or " : ", ") +
                  setting.at(p.constraints[i].needs);
    }
    sentence += " is rejected";
    EXPECT_NE(readme.find("Requires the sim engine; " + sentence),
              std::string::npos)
        << sentence;
  }
  // And one for each process-wide report.
  for (const char* flag : {"attribution", "record-trace", "trace"}) {
    const std::string sentence = "Requires the sim engine; `--" +
                                 std::string(flag) +
                                 "` with `--engine threads` is rejected";
    EXPECT_NE(readme.find(sentence), std::string::npos) << sentence;
  }
}

// server_mix runs on its whole spec: fields it used to drop (here the NUMA
// topology and hybrid execution) change the run.
TEST(ServerMix, HonoursTheWholeRunSpec) {
  ServerMixConfig cfg;
  cfg.allocator = "tbb";
  cfg.requests = 96;
  const ServerMixResult flat = run_server_mix(cfg);
  EXPECT_EQ(flat.stats.hw_starts, 0u);

  ServerMixConfig numa = cfg;
  numa.topology.nodes = 2;
  const ServerMixResult wide = run_server_mix(numa);
  EXPECT_EQ(wide.requests, flat.requests);
  EXPECT_NE(wide.latency.sum(), flat.latency.sum());

  ServerMixConfig hybrid = cfg;
  hybrid.htm_enabled = true;
  EXPECT_GT(run_server_mix(hybrid).stats.hw_starts, 0u);
}

// Every address a harness workload probes lies in its run's address space
// (sim/address_space.hpp): sim.probe.unregistered, published only when
// nonzero, stays where it was.
TEST(AddressSpace, HarnessWorkloadsProbeOnlyTheirRegion) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const auto unregistered = [&] {
    return reg.counter("sim.probe.unregistered");
  };
  const std::uint64_t before = unregistered();
  {
    // Positive control: a probe of the host stack is counted.
    const RunContext run{RunSpec{}};
    std::uint64_t host = 0;
    sim::run_parallel(RunSpec{}.run_config(1),
                      [&](int) { sim::probe(&host, 8, false); });
  }
  ASSERT_EQ(unregistered(), before + 1);

  for (const auto& model : alloc::allocator_names()) {
    for (SetKind kind : {SetKind::kList, SetKind::kHashSet, SetKind::kRbTree}) {
      SetBenchConfig cfg;
      cfg.kind = kind;
      cfg.allocator = model;
      cfg.threads = 4;
      cfg.initial = 64;
      cfg.key_range = 128;
      cfg.ops_per_thread = 20;
      run_set_bench(cfg);
      EXPECT_EQ(unregistered(), before + 1)
          << model << " " << set_kind_name(kind);
    }
  }
  for (const auto& app : stamp::app_names()) {
    stamp::StampRun run;
    run.app = app;
    run.allocator = "tcmalloc";
    run.threads = 4;
    run.scale = 0.1;
    stamp::run_stamp(run);
    EXPECT_EQ(unregistered(), before + 1) << app;
  }
  ServerMixConfig mix;
  mix.requests = 96;
  run_server_mix(mix);
  EXPECT_EQ(unregistered(), before + 1) << "server_mix";

  // A replay is a run too: closing its context publishes its totals.
  replay::SynthConfig sc;
  sc.ops_per_thread = 50;
  sc.live_per_thread = 16;
  const replay::Trace trace = replay::generate_synthetic(sc);
  ReplayRun replay_run;
  replay_run.trace = &trace;
  const std::uint64_t switches = reg.counter("sim.sched.switches");
  ASSERT_TRUE(run_replay(replay_run).result.ok);
  EXPECT_EQ(unregistered(), before + 1) << "replay";
  EXPECT_GT(reg.counter("sim.sched.switches"), switches) << "replay";
}

TEST(Table, CsvRoundTrip) {
  Table t({"a", "b"});
  t.add_row({"1", "x"});
  t.add_row({"2", "y"});
  const std::string path = ::testing::TempDir() + "/tmx_table_test.csv";
  t.write_csv(path);
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  EXPECT_STREQ(buf, "a,b\n");
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  EXPECT_STREQ(buf, "1,x\n");
  std::fclose(f);
  std::remove(path.c_str());
}

// ---- Report path ----

// report() publishes each plane under "<prefix><plane>."; finish() ranks an
// artifact that failed to write (3) over heap corruption (5) over a hard
// check report (4) over the workload's own rc.
TEST(ObsSession, ReportPrefixesPlanesAndRanksExitCodes) {
  PlaneOutputs clean;
  clean.fault = fault::FaultStats{};
  clean.fault->injected[static_cast<int>(fault::Site::kMalloc)] = 2;
  clean.check = check::Summary{};
  clean.guard = guard::Summary{};
  clean.prof = prof::Profile{};
  clean.prof->mallocs = 7;
  PlaneOutputs dirty = clean;
  dirty.check->counts[static_cast<int>(check::ReportKind::kRace)] = 1;
  PlaneOutputs corrupt = clean;
  corrupt.guard->counts[static_cast<int>(guard::FindingKind::kTagSmash)] = 1;

  // One session over `runs` (run<i>. prefixes) whose workload returns 1.
  const auto exit_code = [](const std::string& metrics_out,
                            const std::vector<const PlaneOutputs*>& runs) {
    const char* argv[] = {"prog", "--metrics-out", metrics_out.c_str()};
    const Options opt(metrics_out.empty() ? 1 : 3, const_cast<char**>(argv),
                      {kReportFlags});
    ObsSession obs(opt);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      obs.report("run" + std::to_string(i) + ".", *runs[i]);
    }
    return obs.finish(1);
  };
  auto& reg = obs::MetricsRegistry::global();
  reg.clear();
  EXPECT_EQ(exit_code("", {&clean}), 1);
  EXPECT_EQ(reg.counter("run0.fault.oom.injected"), 2u);
  EXPECT_EQ(reg.counter("run0.prof.mallocs"), 7u);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"run0.check.races\":0"), std::string::npos);
  EXPECT_NE(json.find("\"run0.guard.findings\":0"), std::string::npos);
  EXPECT_EQ(json.find("\"fault."), std::string::npos);
  EXPECT_EQ(json.find("\"prof."), std::string::npos);

  EXPECT_EQ(exit_code("", {&clean, &dirty}), 4);
  EXPECT_EQ(reg.counter("run1.check.races"), 1u);
  EXPECT_EQ(exit_code("", {&corrupt, &dirty}), 5);
  EXPECT_EQ(reg.counter("run0.guard.tag_smashes"), 1u);
  EXPECT_EQ(exit_code(::testing::TempDir() + "/no-such-dir/m.json",
                      {&corrupt, &dirty}),
            3);
  reg.clear();
}

// ---- Allocator stack ----

TEST(AllocStack, NoPlaneOnReturnsTheBareModel) {
  RunContext run({.allocator = "tcmalloc"});
  alloc::Allocator& a = run.allocator(false);
  EXPECT_EQ(a.inner_allocator(), nullptr);
  EXPECT_EQ(a.traits().name, "tcmalloc");
}

// The wrap-order contract of harness/run_context.hpp, outermost first.
TEST(AllocStack, EveryPlaneOnWrapsInContractOrder) {
  RunContext run({.allocator = "glibc",
                  .fault = fault::FaultPlan{},
                  .check = check::CheckConfig{},
                  .guard = guard::GuardConfig{},
                  .prof = true});
  alloc::Allocator* const a = &run.allocator(true);
  std::vector<std::string> layers;
  alloc::Allocator* layer = a;
  for (; layer->inner_allocator() != nullptr;
       layer = layer->inner_allocator()) {
    layers.emplace_back(typeid(*layer).name());
  }
  const std::vector<std::string> expected = {
      typeid(prof::ProfilingAllocator).name(),
      typeid(alloc::InstrumentingAllocator).name(),
      typeid(fault::FaultyAllocator).name(),
      typeid(guard::GuardedAllocator).name(),
      typeid(check::CheckedAllocator).name()};
  EXPECT_EQ(layers, expected);
  EXPECT_EQ(layer->traits().name, "glibc");
  EXPECT_EQ(alloc::find_layer<guard::GuardedAllocator>(a),
            a->inner_allocator()->inner_allocator()->inner_allocator());
}

// A capture records the Instrumenting layer's mallocs and frees, so the
// stack has that layer whenever the process captures.
TEST(AllocStack, CaptureAddsTheInstrumentingLayer) {
  set_report(Report::kCapture, true);
  {
    RunContext run({.allocator = "tcmalloc"});
    alloc::Allocator* const a = &run.allocator(false);
    EXPECT_NE(alloc::find_layer<alloc::InstrumentingAllocator>(a), nullptr);
  }
  set_report(Report::kCapture, false);
  EXPECT_TRUE(take_capture().records.empty());
}

// ---- Run context ----

// Every run gets the NUMA policy its own spec asks for, not the one an
// enclosing (or earlier) run opened with.
TEST(RunContext, EachRunGetsItsOwnNumaPolicy) {
  const RunContext outer({.numa = {alloc::NumaOptions::Policy::kInterleave}});
  RunContext run({.allocator = "glibc"});
  const alloc::PageProvider* pages = run.allocator(false).page_provider();
  ASSERT_NE(pages, nullptr);
  EXPECT_EQ(pages->numa().policy, alloc::NumaOptions::Policy::kFirstTouch);
}

// Two different seeded runs on two host threads at once get exactly the
// results they get one after the other: the run contexts share no plane,
// NUMA registry, per-thread marker or address space. Run A injects faults,
// run B checks on a sharded two-node machine, both with the cache model
// on.
TEST(RunContext, TwoRunsOnTwoHostThreadsMatchSequential) {
  stamp::StampRun a;
  a.app = "vacation";
  a.allocator = "tcmalloc";
  a.threads = 4;
  a.scale = 0.2;
  a.fault = fault::FaultPlan{};
  a.fault->spurious_abort_rate = 0.02;
  a.fault->delay_free_rate = 0.05;

  ServerMixConfig b;
  b.allocator = "tbb";
  b.check = check::CheckConfig{};
  b.topology.nodes = 2;
  b.numa.policy = alloc::NumaOptions::Policy::kInterleave;
  b.ort_shards = 2;

  stamp::StampOutcome par_a;
  ServerMixResult par_b;
  std::thread ta([&] { par_a = stamp::run_stamp(a); });
  std::thread tb([&] { par_b = run_server_mix(b); });
  ta.join();
  tb.join();
  const stamp::StampOutcome seq_a = stamp::run_stamp(a);
  const ServerMixResult seq_b = run_server_mix(b);

  EXPECT_TRUE(seq_a.result.verified) << seq_a.result.detail;
  EXPECT_EQ(par_a.result.seconds, seq_a.result.seconds);
  EXPECT_EQ(par_a.result.stats, seq_a.result.stats);
  EXPECT_EQ(par_a.result.cache, seq_a.result.cache);
  EXPECT_EQ(par_a.result.verified, seq_a.result.verified);
  EXPECT_EQ(par_a.result.detail, seq_a.result.detail);
  EXPECT_EQ(par_a.planes, seq_a.planes);
  ASSERT_TRUE(seq_a.planes.fault);
  EXPECT_GT(seq_a.planes.fault->injected[static_cast<int>(
                fault::Site::kSpurious)],
            0u);
  EXPECT_FALSE(seq_a.planes.check);

  EXPECT_EQ(par_b.seconds, seq_b.seconds);
  EXPECT_EQ(par_b.cycles, seq_b.cycles);
  EXPECT_EQ(par_b.requests, seq_b.requests);
  EXPECT_EQ(par_b.latency, seq_b.latency);
  EXPECT_EQ(par_b.stats, seq_b.stats);
  EXPECT_EQ(par_b.handoffs, seq_b.handoffs);
  EXPECT_EQ(par_b.live_bytes_end, seq_b.live_bytes_end);
  EXPECT_EQ(par_b.reserved_bytes_end, seq_b.reserved_bytes_end);
  EXPECT_EQ(par_b.retained_blocks, seq_b.retained_blocks);
  EXPECT_EQ(par_b.planes, seq_b.planes);
  ASSERT_TRUE(seq_b.planes.check);
  EXPECT_EQ(seq_b.planes.check->hard_count(), 0u);
  EXPECT_FALSE(seq_b.planes.fault);
}

// A leaf that counts every call it receives.
enum Call {
  kUsableSize, kTraits, kOsReserved, kLiveBytes, kPageProvider,
  kWantsTxHints, kTxBeginHint, kTxCommitHint, kTxAbortHint, kOnQuiescence,
  kNumCalls
};

class CountingAllocator final : public alloc::Allocator {
 public:
  using Counts = std::array<int, kNumCalls>;
  const Counts& counts() const { return counts_; }

  void* allocate(std::size_t) override { return nullptr; }
  void deallocate(void*) override {}
  std::size_t usable_size(const void*) const override {
    return tally(kUsableSize, 0);
  }
  const alloc::AllocatorTraits& traits() const override {
    return tally(kTraits, traits_);
  }
  std::size_t os_reserved() const override { return tally(kOsReserved, 0); }
  std::size_t live_bytes() const override { return tally(kLiveBytes, 0); }
  alloc::PageProvider* page_provider() override {
    return tally(kPageProvider, nullptr);
  }
  bool wants_tx_hints() const override { return tally(kWantsTxHints, false); }
  void tx_begin_hint(int) override { tally(kTxBeginHint, 0); }
  void tx_commit_hint(int) override { tally(kTxCommitHint, 0); }
  void tx_abort_hint(int) override { tally(kTxAbortHint, 0); }
  void on_quiescence(bool) override { tally(kOnQuiescence, 0); }

 private:
  template <class T>
  const T& tally(Call c, const T& result) const {
    ++counts_[c];
    return result;
  }

  alloc::AllocatorTraits traits_;
  mutable Counts counts_{};
};

struct WrapperCase {
  const char* name;
  std::function<std::unique_ptr<alloc::Allocator>(
      std::unique_ptr<alloc::Allocator>)>
      wrap;
  std::vector<Call> intercepted;  // besides allocate/deallocate
};

void PrintTo(const WrapperCase& wc, std::ostream* os) { *os << wc.name; }

template <class W>
WrapperCase wrapper_case(const char* name, std::vector<Call> intercepted) {
  return {name,
          [](std::unique_ptr<alloc::Allocator> inner) {
            return std::make_unique<W>(std::move(inner));
          },
          std::move(intercepted)};
}

class ForwardingTest : public ::testing::TestWithParam<WrapperCase> {};

// With its plane idle, each wrapper forwards every call it does not
// intercept to the wrapped allocator exactly once, and makes no other call.
TEST_P(ForwardingTest, ForwardsEachUninterceptedCallExactlyOnce) {
  const std::array<std::function<void(alloc::Allocator&)>, kNumCalls> invoke =
      {[](alloc::Allocator& a) { (void)a.usable_size(&a); },
       [](alloc::Allocator& a) { (void)a.traits(); },
       [](alloc::Allocator& a) { (void)a.os_reserved(); },
       [](alloc::Allocator& a) { (void)a.live_bytes(); },
       [](alloc::Allocator& a) { (void)a.page_provider(); },
       [](alloc::Allocator& a) { (void)a.wants_tx_hints(); },
       [](alloc::Allocator& a) { a.tx_begin_hint(0); },
       [](alloc::Allocator& a) { a.tx_commit_hint(0); },
       [](alloc::Allocator& a) { a.tx_abort_hint(0); },
       [](alloc::Allocator& a) { a.on_quiescence(false); }};
  const WrapperCase& wc = GetParam();
  auto leaf = std::make_unique<CountingAllocator>();
  const CountingAllocator* counting = leaf.get();
  const auto w = wc.wrap(std::move(leaf));
  EXPECT_EQ(w->inner_allocator(), counting);
  CountingAllocator::Counts expected{};
  for (int c = 0; c < kNumCalls; ++c) {
    if (std::find(wc.intercepted.begin(), wc.intercepted.end(), c) !=
        wc.intercepted.end()) {
      continue;
    }
    invoke[c](*w);
    ++expected[c];
    EXPECT_EQ(counting->counts(), expected) << "call " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlaneWrappers, ForwardingTest,
    ::testing::Values(
        wrapper_case<alloc::InstrumentingAllocator>("Instrumenting", {}),
        wrapper_case<fault::FaultyAllocator>("Faulty", {}),
        wrapper_case<check::CheckedAllocator>("Checked", {}),
        wrapper_case<guard::GuardedAllocator>(
            "Guarded", {kUsableSize, kWantsTxHints, kTxBeginHint,
                        kTxCommitHint, kTxAbortHint, kOnQuiescence}),
        wrapper_case<prof::ProfilingAllocator>("Profiling", {})),
    [](const ::testing::TestParamInfo<WrapperCase>& p) {
      return std::string(p.param.name);
    });

}  // namespace
}  // namespace tmx::harness
