// tmx_paper: runs the paper's figures and tables (paper.hpp, figures.cpp).
//
//   ./build/bench/tmx_paper --figure fig05
//   ./build/bench/tmx_paper --figure table4 --alloc glibc --threads 2
//   ./build/bench/tmx_paper --figure all --scale 4
//
// --figure takes a comma list of names or `all`; the figures print one
// after another in table order. With several figures, --csv PATH writes
// each figure's table to PATH with ".<figure>" inserted before the
// extension. Exit codes: 2 bad usage or refused plane combination, 3 a
// requested artifact failed to persist, 4 the check plane found a hard
// report, 5 the guard plane found heap corruption.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "paper.hpp"

namespace tmx::paper {

namespace {

// PATH with ".<tag>" inserted before its extension.
std::string tagged(const std::string& path, const std::string& tag) {
  if (path.empty()) return path;
  const auto slash = path.rfind('/');
  const auto dot = path.rfind('.');
  const bool has_ext =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  return has_ext ? path.substr(0, dot) + "." + tag + path.substr(dot)
                 : path + "." + tag;
}

const stm::TxStats* stats_of(const harness::SetBenchResult& r) {
  return &r.stats;
}
const stm::TxStats* stats_of(const stamp::StampOutcome& o) {
  return &o.result.stats;
}
const stm::TxStats* stats_of(const Sample& s) {
  return s.stats ? &*s.stats : nullptr;
}
const sim::CacheStats* cache_of(const harness::SetBenchResult& r) {
  return &r.cache;
}
const sim::CacheStats* cache_of(const stamp::StampOutcome& o) {
  return &o.result.cache;
}
const sim::CacheStats* cache_of(const Sample& s) {
  return s.cache ? &*s.cache : nullptr;
}

void check_run(const harness::SetBenchResult& r) {
  TMX_ASSERT_MSG(r.size_consistent, "set benchmark self-check failed");
}
void check_run(const stamp::StampOutcome& o) {
  TMX_ASSERT_MSG(o.result.verified, "app verification failed");
}
void check_run(const Sample&) {}

}  // namespace

Ctx::Ctx(const Figure& f, const harness::Options& o, harness::ObsSession& obs)
    : fig(f),
      opt(o),
      scale(f.scale * o.get_double("scale")),
      wall_clock(o.run_spec().engine == sim::EngineKind::Threads),
      obs_(obs) {
  // The figure's defaults stand in for an absent --alloc, --threads or
  // --reps; a figure without one pins the value in its body.
  if (f.allocs) {
    allocs = harness::split_list(o.has("alloc") ? o.get("alloc") : f.allocs);
  }
  if (f.threads) {
    for (const auto& t :
         harness::split_list(o.has("threads") ? o.get("threads") : f.threads)) {
      threads.push_back(std::stoi(t));
    }
  }
  if (f.reps) {
    reps = std::max(1, o.has("reps") ? static_cast<int>(o.get_long("reps"))
                                     : f.reps);
  }
}

harness::RunSpec Ctx::spec(const std::string& alloc) const {
  harness::RunSpec s = opt.run_spec();
  s.allocator = alloc;
  return s;
}

harness::SetBenchConfig Ctx::set(const std::string& alloc,
                                 harness::SetKind kind, int th,
                                 double initial, double key_range,
                                 double ops_per_thread) const {
  harness::SetBenchConfig cfg{spec(alloc)};
  cfg.kind = kind;
  cfg.threads = th;
  cfg.initial = static_cast<std::size_t>(initial * scale);
  cfg.key_range = static_cast<std::uint64_t>(key_range * scale);
  cfg.ops_per_thread = static_cast<std::size_t>(ops_per_thread * scale);
  return cfg;
}

template <class R, class F>
std::vector<R> Ctx::cell(const harness::RunSpec& spec, const std::string& cell,
                         F once) {
  const std::string prefix =
      std::string(fig.name) + "." + spec.allocator + "." + cell + ".";
  auto& reg = obs::MetricsRegistry::global();
  std::vector<R> runs;
  stm::TxStats stats;
  sim::CacheStats cache;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t seed = spec.seed + 1000003ull * r;
    obs_.set_trace_meta(spec.allocator, spec.shift, spec.ort_log2, seed);
    R run = once(seed);
    check_run(run);
    if (const auto* s = stats_of(run)) stats.add(*s);
    if (const auto* c = cache_of(run)) cache.add(*c);

    // The planes report per run, under the run's own prefix.
    obs_.report(prefix + "r" + std::to_string(r) + ".", run.planes);
    runs.push_back(std::move(run));
  }
  if (stats_of(runs.front())) {
    stm::publish_metrics(stats, reg, prefix + "stm.");
  }
  if (cache_of(runs.front())) {
    sim::publish_metrics(cache, reg, prefix + "cache.");
  }
  obs_.report_attribution_and_clear(prefix.substr(0, prefix.size() - 1));
  return runs;
}

std::vector<harness::SetBenchResult> Ctx::set_bench(
    const harness::SetBenchConfig& cfg, const std::string& cell_name) {
  return cell<harness::SetBenchResult>(cfg, cell_name, [&](std::uint64_t seed) {
    harness::SetBenchConfig c = cfg;
    c.seed = seed;
    return harness::run_set_bench(c);
  });
}

std::vector<stamp::StampOutcome> Ctx::stamp(const stamp::StampRun& run,
                                            const std::string& cell_name) {
  return cell<stamp::StampOutcome>(run, cell_name, [&](std::uint64_t seed) {
    stamp::StampRun r = run;
    r.seed = seed;
    // Trace capture needs the kAlloc/kFree events of the instrumenting
    // wrapper, as in run_set_bench.
    r.instrument = r.instrument || obs::trace_enabled();
    return stamp::run_stamp(r);
  });
}

std::vector<Sample> Ctx::raw(const harness::RunSpec& spec, int th,
                             const std::string& cell_name,
                             const RawBody& body) {
  return cell<Sample>(spec, cell_name, [&](std::uint64_t seed) {
    harness::RunSpec s = spec;
    s.seed = seed;
    harness::RunContext context(s, th);
    Sample out = body(context, s.run_config(th));
    out.planes = context.finish();
    return out;
  });
}

namespace {

// Runs `fig` once, or once per thread count for a single-count figure.
void run_figure(const Figure& fig, const harness::Options& opt,
                harness::ObsSession& obs, const std::string& csv) {
  Ctx ctx(fig, opt, obs);
  // A provenance line that states a unit of time states the engine's.
  std::string reproduces = fig.reproduces;
  if (const auto at = reproduces.find("virtual"); at != std::string::npos) {
    reproduces.replace(at, std::strlen("virtual"), ctx.clock());
  }
  std::printf("== %s ==\n", fig.title);
  std::printf("reproduces: %s\n", reproduces.c_str());
  std::printf("(%s; compare shapes/ratios with the paper, not absolute "
              "values)\n\n",
              ctx.wall_clock ? "wall-clock run on host threads"
                             : "virtual-time simulation");
  ctx.csv_path = csv;
  const bool per_count =
      fig.threads != nullptr && std::string(fig.threads).find(',') ==
                                    std::string::npos;
  if (!per_count || ctx.threads.size() == 1) {
    fig.body(ctx);
    return;
  }
  const std::vector<int> counts = ctx.threads;
  for (int th : counts) {
    std::printf("--- %d threads ---\n", th);
    ctx.threads = {th};
    ctx.csv_path = tagged(csv, "p" + std::to_string(th));
    fig.body(ctx);
  }
}

}  // namespace

}  // namespace tmx::paper

int main(int argc, char** argv) {
  using namespace tmx;
  using paper::Figure;
  using K = harness::Flag::Kind;
  std::string title = "tmx_paper: the paper's figures, in table order:";
  std::string figures;
  for (const Figure& f : paper::figures()) {
    char line[160];
    std::snprintf(line, sizeof(line), "\n  %-17s %s", f.name, f.title);
    title += line;
    figures += std::string(f.name) + "|";
  }
  figures += "all[,...]";
  std::string apps;
  for (const auto& n : stamp::app_names()) {
    apps += (apps.empty() ? "" : "|") + n;
  }
  apps += "[,...]";
  const std::string threads = std::string(harness::kThreadsHint) + "[,...]";
  const harness::Flag flags[] = {
      {"figure", K::kText, figures.c_str(), nullptr, "figures to run, or all"},
      {"alloc", K::kModels, "a,b,...", nullptr,
       "allocators (default per figure)"},
      {"threads", K::kInts, threads.c_str(), nullptr,
       "thread counts (default per figure)"},
      {"reps", K::kInt, "N", nullptr, "repetitions (default per figure)"},
      {"scale", K::kReal, "X", "1", "workload scale factor"},
      {"apps", K::kText, apps.c_str(),
       "bayes,genome,intruder,labyrinth,vacation,yada", "fig07's apps"},
      {"csv", K::kText, "PATH", nullptr,
       "also write CSV; several figures write PATH.<figure>"},
  };
  const harness::Options opt(
      argc, argv,
      {{title.c_str(), flags}, harness::kRunFlags, harness::kReportFlags});
  const auto names = opt.get_list("figure");
  const auto named = [&](const std::string& n) {
    return std::ranges::find(names, n) != names.end();
  };
  std::vector<const Figure*> selected;
  for (const Figure& f : paper::figures()) {
    if (named("all") || named(f.name)) selected.push_back(&f);
  }
  if (selected.empty()) opt.usage_error("--figure is required");

  harness::ObsSession obs(opt);
  for (const Figure* f : selected) {
    paper::run_figure(*f, opt, obs,
                      selected.size() > 1
                          ? paper::tagged(opt.get("csv"), f->name)
                          : opt.get("csv"));
  }
  return obs.finish(0);
}
