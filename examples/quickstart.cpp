// Quickstart: the smallest complete tmx program.
//
// Creates an allocator model and an STM runtime, runs concurrent bank
// transfers on the simulated multicore, and prints the outcome. Build and
// run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [--alloc tcmalloc] [--threads 8]
#include <algorithm>
#include <cstdio>

#include "core/stm.hpp"
#include "harness/obs_session.hpp"
#include "harness/options.hpp"
#include "harness/run_context.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace tmx;
  using K = harness::Flag::Kind;
  constexpr harness::Flag kFlags[] = {
      {"alloc", K::kModel, "NAME", "tcmalloc", "allocator model"},
      {"threads", K::kInt, harness::kThreadsHint, "8", "threads moving money"},
  };
  const harness::Options opt(
      argc, argv, {{"quickstart: concurrent bank transfers:", kFlags},
                   harness::kRunFlags, harness::kReportFlags});
  harness::RunSpec spec = opt.run_spec();
  spec.allocator = opt.get("alloc");
  const int threads = static_cast<int>(opt.get_long("threads"));
  harness::ObsSession obs(opt);

  // 1. Open a run context: it builds the allocator model (the study's
  //    LD_PRELOAD equivalent) with any plane the flags turn on.
  harness::RunContext context(spec, threads);
  int rc = 0;
  {  // the STM and the allocator's users end before the run closes
    alloc::Allocator& allocator = context.allocator(false);

    // 2. Configure the STM from the run spec; its defaults are the paper's:
    //    WB-ETL, 2^20-entry ORT, shift 5, SUICIDE contention management.
    stm::Stm stm(spec.stm_config(&allocator));

    // 3. Shared state: a small bank. Everything a transaction touches lives
    //    in simulated memory: blocks from the allocator, or a root carved
    //    from the run's address space, as here.
    constexpr int kAccounts = 64;
    constexpr std::uint64_t kInitial = 1000;
    const auto accounts = sim::make_region_array<std::uint64_t>(kAccounts);
    std::fill_n(accounts.get(), kAccounts, kInitial);

    // 4. Run transfers on the simulated multicore (or real threads with
    //    --engine threads).
    const auto rr = sim::run_parallel(spec.run_config(threads), [&](int tid) {
      Rng rng(thread_seed(spec.seed, tid));
      for (int i = 0; i < 500; ++i) {
        const std::size_t from = rng.below(kAccounts);
        const std::size_t to = rng.below(kAccounts);
        if (from == to) continue;
        stm.atomically([&](stm::Tx& tx) {
          const std::uint64_t f = tx.load(&accounts[from]);
          if (f == 0) return;
          tx.store(&accounts[from], f - 1);
          tx.store(&accounts[to], tx.load(&accounts[to]) + 1);
        });
      }
    });

    // 5. Inspect the results.
    std::uint64_t total = 0;
    for (int i = 0; i < kAccounts; ++i) total += accounts[i];
    const auto st = stm.stats();
    std::printf("allocator:      %s\n", allocator.traits().name.c_str());
    std::printf("threads:        %d\n", threads);
    std::printf("total money:    %llu (expected %llu -> %s)\n",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(kAccounts * kInitial),
                total == kAccounts * kInitial ? "consistent" : "BROKEN");
    std::printf("commits:        %llu\n",
                static_cast<unsigned long long>(st.commits));
    std::printf("aborts:         %llu (%.1f%% of starts)\n",
                static_cast<unsigned long long>(st.aborts),
                100.0 * st.abort_ratio());
    if (rr.simulated) {
      std::printf("virtual time:   %.6f s (%llu cycles)\n", rr.seconds,
                  static_cast<unsigned long long>(rr.cycles));
      std::printf("L1 miss ratio:  %.2f%%\n",
                  100.0 * rr.cache.l1_miss_ratio());
    } else {
      std::printf("wall time:      %.6f s\n", rr.seconds);
    }
    rc = total == kAccounts * kInitial ? 0 : 1;
  }

  // 6. Close the run: its planes report what they found.
  obs.report("", context.finish());
  return obs.finish(rc);
}
