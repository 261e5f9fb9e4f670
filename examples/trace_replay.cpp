// trace_replay: capture-free entry point to the tmx::replay subsystem.
//
//   # generate a synthetic Larson-style churn trace
//   ./build/examples/trace_replay --synth --record-trace churn.tmxtrc
//       --threads 4 --ops 2000 --live 256 --tx-fraction 0.8
//
//   # one capture, four allocators: side-by-side placement comparison
//   ./build/examples/trace_replay --replay-trace churn.tmxtrc
//       --alloc glibc,hoard,tbb,tcmalloc
//
//   # header + record census without replaying
//   ./build/examples/trace_replay --inspect churn.tmxtrc
//
//   # in-process determinism self-check (CI): synth -> encode/decode
//   # round-trip -> double replay through every model, all must agree
//   ./build/examples/trace_replay --selfcheck
//
// Each replay is its own run (harness::run_replay). The flags are this
// binary's own table, not kRunFlags: a replay runs no STM, so --design,
// --cm and the rest would be silently ignored.
#include <cstdio>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "harness/obs_session.hpp"
#include "harness/options.hpp"
#include "harness/replay.hpp"
#include "obs/metrics.hpp"
#include "replay/replayer.hpp"
#include "replay/synth.hpp"
#include "replay/trace_format.hpp"

namespace {

using namespace tmx;

using K = harness::Flag::Kind;

constexpr harness::Flag kFlags[] = {
    {"synth", K::kBare, nullptr, nullptr,
     "write a synthetic churn trace to --record-trace"},
    {"replay-trace", K::kText, "PATH", nullptr, "replay through each --alloc"},
    {"inspect", K::kText, "PATH", nullptr, "print a trace's header and census"},
    {"selfcheck", K::kBare, nullptr, nullptr, "in-process determinism check"},
    {"alloc", K::kModels, "a,b,...", "glibc,hoard,tbb,tcmalloc",
     "replay allocators"},
    {"shift", K::kInt, "0..63", "0", "replay ORT shift (0 = the trace's)"},
    {"ort-log2", K::kInt, "L", "0", "replay ORT size (0 = the trace's)"},
    {"cache-model", K::kInt, "0|1", "1", "cache simulator"},
    {"seed", K::kInt, "S", "20150207", "synth and replay seed"},
    {"threads", K::kInt, harness::kThreadsHint, "4", "synth threads"},
    {"ops", K::kInt, "N", nullptr,
     "synth ops per thread (default 1000; 400 with --selfcheck)"},
    {"live", K::kInt, "N", nullptr,
     "synth live blocks per thread (default 256; 64 with --selfcheck)"},
    {"tx-fraction", K::kReal, "F", "1.0", "synth ops inside transactions"},
    {"op-cycles", K::kInt, "C", "120", "mean synth cycles per op"},
};

replay::SynthConfig synth_config(const harness::Options& opt) {
  const bool small = opt.has("selfcheck");
  replay::SynthConfig sc;
  sc.threads = static_cast<std::uint32_t>(opt.get_long("threads"));
  sc.ops_per_thread = static_cast<std::uint64_t>(
      opt.has("ops") ? opt.get_long("ops") : small ? 400 : 1000);
  sc.live_per_thread = static_cast<std::uint32_t>(
      opt.has("live") ? opt.get_long("live") : small ? 64 : 256);
  sc.tx_fraction = opt.get_double("tx-fraction");
  sc.mean_op_cycles = static_cast<std::uint64_t>(opt.get_long("op-cycles"));
  sc.seed = static_cast<std::uint64_t>(opt.get_long("seed"));
  return sc;
}

// The replay settings the flags give; the caller sets the trace and the
// allocator.
harness::ReplayRun replay_run(const harness::Options& opt) {
  harness::ReplayRun run;
  run.shift = static_cast<unsigned>(opt.get_long("shift"));
  run.ort_log2 = static_cast<unsigned>(opt.get_long("ort-log2"));
  run.cache_model = opt.get_long("cache-model") != 0;
  run.seed = static_cast<std::uint64_t>(opt.get_long("seed"));
  return run;
}

int inspect(const std::string& path) {
  replay::Trace t;
  const replay::ReadStatus st = replay::read_trace(path, &t);
  if (st != replay::ReadStatus::kOk) {
    std::fprintf(stderr, "inspect: %s: %s\n", path.c_str(),
                 replay::read_status_name(st));
    return 2;
  }
  std::printf("file:      %s (tmx-trace-v1)\n", path.c_str());
  std::printf("allocator: %s\n",
              t.meta.allocator.empty() ? "-" : t.meta.allocator.c_str());
  std::printf("threads:   %u\n", t.meta.threads);
  std::printf("ORT:       shift=%u ort_log2=%u\n", t.meta.shift,
              t.meta.ort_log2);
  std::printf("seed:      %llu\n",
              static_cast<unsigned long long>(t.meta.seed));
  std::printf("records:   %zu  (malloc %llu, free %llu, tx %llu/%llu/%llu "
              "begin/commit/abort)\n",
              t.records.size(),
              static_cast<unsigned long long>(t.count(replay::OpKind::kMalloc)),
              static_cast<unsigned long long>(t.count(replay::OpKind::kFree)),
              static_cast<unsigned long long>(
                  t.count(replay::OpKind::kTxBegin)),
              static_cast<unsigned long long>(
                  t.count(replay::OpKind::kTxCommit)),
              static_cast<unsigned long long>(
                  t.count(replay::OpKind::kTxAbort)));
  const replay::StripeStats rec = replay::recorded_stripe_stats(t);
  if (rec.blocks > 0) {
    std::printf("recorded placement: %llu blocks, %llu cross-thread stripe "
                "collisions (ratio %.4f)\n",
                static_cast<unsigned long long>(rec.blocks),
                static_cast<unsigned long long>(rec.cross_thread_collisions),
                rec.collision_ratio());
  }
  return 0;
}

bool results_agree(const replay::ReplayResult& a,
                   const replay::ReplayResult& b) {
  return a.ok && b.ok && a.address_fingerprint == b.address_fingerprint &&
         a.stripes == b.stripes && a.cycles == b.cycles &&
         a.os_reserved == b.os_reserved;
}

// CI's in-process determinism probe: every stage that claims to be a pure
// function of its inputs is run twice and must agree with itself.
int selfcheck(const harness::Options& opt) {
  const replay::SynthConfig sc = synth_config(opt);
  const replay::Trace t = replay::generate_synthetic(sc);
  if (t.records.empty()) {
    std::fprintf(stderr, "selfcheck: synthetic generation came up empty\n");
    return 1;
  }
  {
    const replay::Trace t2 = replay::generate_synthetic(sc);
    if (!(t2.meta == t.meta) || t2.records != t.records) {
      std::fprintf(stderr, "selfcheck: synth is not deterministic\n");
      return 1;
    }
  }
  std::string bytes, bytes2;
  if (!replay::encode_trace(t, &bytes) ||
      !replay::encode_trace(t, &bytes2) || bytes != bytes2) {
    std::fprintf(stderr, "selfcheck: encoding is not deterministic\n");
    return 1;
  }
  replay::Trace rt;
  if (replay::decode_trace(bytes, &rt) != replay::ReadStatus::kOk ||
      !(rt.meta == t.meta) || rt.records != t.records) {
    std::fprintf(stderr, "selfcheck: encode/decode round-trip mismatch\n");
    return 1;
  }

  harness::ReplayRun run = replay_run(opt);
  run.trace = &rt;
  bool ok = true;
  for (const auto& model : alloc::allocator_names()) {
    run.allocator = model;
    const replay::ReplayResult r1 = harness::run_replay(run).result;
    const replay::ReplayResult r2 = harness::run_replay(run).result;
    if (!r1.ok || !r2.ok) {
      std::fprintf(stderr, "selfcheck: replay through %s failed: %s\n",
                   model.c_str(),
                   (!r1.ok ? r1.error : r2.error).c_str());
      ok = false;
    } else if (!results_agree(r1, r2)) {
      std::fprintf(stderr,
                   "selfcheck: replay through %s is not run-to-run "
                   "deterministic (fp %016llx vs %016llx)\n",
                   model.c_str(),
                   static_cast<unsigned long long>(r1.address_fingerprint),
                   static_cast<unsigned long long>(r2.address_fingerprint));
      ok = false;
    } else {
      std::printf("selfcheck: %-9s fp=%016llx collisions=%llu cycles=%llu\n",
                  model.c_str(),
                  static_cast<unsigned long long>(r1.address_fingerprint),
                  static_cast<unsigned long long>(
                      r1.stripes.cross_thread_collisions),
                  static_cast<unsigned long long>(r1.cycles));
    }
  }
  std::printf("selfcheck: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Options opt(
      argc, argv,
      {{"trace_replay: make, inspect and replay tmx-trace-v1 traces:", kFlags},
       harness::kReportFlags});
  if (opt.has("selfcheck")) return selfcheck(opt);
  const std::string inspect_path = opt.get("inspect");
  if (!inspect_path.empty()) return inspect(inspect_path);

  if (opt.has("synth")) {
    const std::string out = opt.get("record-trace");
    if (out.empty()) opt.usage_error("--synth needs --record-trace PATH");
    const replay::Trace t = replay::generate_synthetic(synth_config(opt));
    if (t.records.empty()) {
      std::fprintf(stderr, "synth: degenerate configuration\n");
      return 2;
    }
    if (!replay::write_trace(out, t)) {
      std::fprintf(stderr, "synth: failed to write %s\n", out.c_str());
      return 2;
    }
    std::printf("synth: wrote %zu records (%u threads, seed %llu) to %s\n",
                t.records.size(), t.meta.threads,
                static_cast<unsigned long long>(t.meta.seed), out.c_str());
    return 0;
  }

  const std::string in = opt.get("replay-trace");
  if (in.empty()) {
    opt.usage_error("give one of --synth, --replay-trace, --inspect or "
                    "--selfcheck");
  }
  replay::Trace t;
  const replay::ReadStatus st = replay::read_trace(in, &t);
  if (st != replay::ReadStatus::kOk) {
    std::fprintf(stderr, "replay: cannot load %s: %s\n", in.c_str(),
                 replay::read_status_name(st));
    return 2;
  }
  // Only this mode reports: --synth takes --record-trace as its output.
  harness::ObsSession obs(opt);
  harness::ReplayRun run = replay_run(opt);
  run.trace = &t;
  std::vector<replay::ReplayResult> results;
  for (const std::string& name : opt.get_list("alloc")) {
    run.allocator = name;
    results.push_back(harness::run_replay(run).result);
  }
  replay::print_comparison(t, results, stdout);
  bool all_ok = true;
  for (const auto& r : results) {
    if (r.ok) {
      replay::publish_metrics(r, obs::MetricsRegistry::global(),
                              "replay." + r.allocator + ".");
    } else {
      all_ok = false;
    }
  }
  return obs.finish(all_ok ? 0 : 1);
}
