// The paper's figures and tables as data for tmx_paper.
//
// Each Figure names its defaults (reps, allocators, threads, scale factor)
// and a body that states only its grid and its reducer. Everything the
// figures share lives once in tmx_paper.cpp: option parsing, the banner,
// CSV output, the obs session, and the cell runners below.
// Every cell starts from Options::run_spec(), so --engine, --cache-model,
// --cm, --shift, --numa-* and the plane flags mean the same for every
// figure; a body overwrites only the fields its grid sweeps or pins.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "harness/obs_session.hpp"
#include "harness/options.hpp"
#include "harness/run_context.hpp"
#include "harness/setbench.hpp"
#include "harness/table.hpp"
#include "stamp/app.hpp"

namespace tmx::paper {

class Ctx;

struct Figure {
  const char* name;        // --figure NAME
  const char* title;       // "== title =="
  const char* reproduces;  // provenance line
  int reps;                // default --reps; 0 = one run, --reps ignored
  const char* allocs;      // default --alloc; nullptr = pinned by the body
  // Default --threads; nullptr = pinned by the body. A figure whose
  // default is a single count runs its body once per --threads value.
  const char* threads;
  double scale;            // factor applied to --scale
  void (*body)(Ctx&);
};

// Every figure, in the order --figure all prints them.
const std::vector<Figure>& figures();

// One run of a cell that drives sim::run_parallel itself. The runner
// publishes `stats` and `cache` when the body sets them.
struct Sample {
  double value = 0.0;
  std::optional<stm::TxStats> stats;
  std::optional<sim::CacheStats> cache;
  harness::PlaneOutputs planes;
};

// What a figure body sees: its resolved grid and the cell runners.
//
// A cell is one grid point of one allocator. Its runner repeats it `reps`
// times at seed + 1000003·r (each run's context refuses a spec it cannot
// run), asserts size_consistent (set bench)
// and verified (STAMP) on every run, reports each run's planes through
// the session under "<figure>.<alloc>.<cell>.r<r>.", and publishes the
// summed stm.* and cache.* metrics under "<figure>.<alloc>.<cell>.".
class Ctx {
 public:
  Ctx(const Figure& fig, const harness::Options& opt, harness::ObsSession& obs);

  const Figure& fig;
  const harness::Options& opt;
  std::vector<std::string> allocs;
  std::vector<int> threads;
  int reps = 1;
  double scale;
  std::string csv_path;

  // opt.run_spec() for allocator `alloc`.
  harness::RunSpec spec(const std::string& alloc) const;
  // A set-bench config for `alloc`, sized by the scaled workload.
  harness::SetBenchConfig set(const std::string& alloc, harness::SetKind kind,
                              int threads, double initial, double key_range,
                              double ops_per_thread) const;

  std::vector<harness::SetBenchResult> set_bench(
      const harness::SetBenchConfig& cfg, const std::string& cell);
  std::vector<stamp::StampOutcome> stamp(const stamp::StampRun& run,
                                         const std::string& cell);
  // `body` runs inside the cell's run context, whose allocator() builds
  // spec.allocator's stack.
  using RawBody =
      std::function<Sample(harness::RunContext&, const sim::RunConfig&)>;
  std::vector<Sample> raw(const harness::RunSpec& spec, int threads,
                          const std::string& cell, const RawBody& body);

  // Writes `t` to the figure's --csv path (no-op without --csv).
  void csv(const harness::Table& t) const { t.write_csv(csv_path); }

 private:
  template <class R, class F>
  std::vector<R> cell(const harness::RunSpec& spec, const std::string& cell,
                      F once);

  harness::ObsSession& obs_;
};

}  // namespace tmx::paper
