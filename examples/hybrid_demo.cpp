// hybrid_demo: the paper's future work, live — the same transactional
// workload executed in pure-software mode and in hybrid mode (best-effort
// hardware transactions with software fallback), showing where hardware
// commits succeed, why they abort (capacity / conflict / spurious), and
// that the allocator still matters either way.
//
//   ./build/examples/hybrid_demo [--alloc tcmalloc] [--threads 8]
#include <cstdio>

#include "harness/obs_session.hpp"
#include "harness/options.hpp"
#include "harness/setbench.hpp"

int main(int argc, char** argv) {
  using namespace tmx;
  using K = harness::Flag::Kind;
  constexpr harness::Flag kFlags[] = {
      {"alloc", K::kModel, "NAME", "tcmalloc", "allocator model"},
      {"threads", K::kInt, harness::kThreadsHint, "8", "client threads"},
      // In SetKind's order: choice() indexes it.
      {"struct", K::kText, "list|hashset|rbtree", "rbtree",
       "transactional data structure"},
      {"scale", K::kReal, "X", "1", "workload scale factor"},
  };
  const harness::Options opt(
      argc, argv,
      {{"hybrid_demo: software-only, then hybrid (sets --hybrid itself):",
        kFlags},
       harness::kRunFlags, harness::kReportFlags});
  const std::string alloc_name = opt.get("alloc");
  const int threads = static_cast<int>(opt.get_long("threads"));
  const auto kind = static_cast<harness::SetKind>(opt.choice("struct"));
  harness::ObsSession obs(opt);

  std::printf("workload: %s, %d threads, allocator %s, 60%% updates\n\n",
              opt.get("struct").c_str(), threads, alloc_name.c_str());

  for (bool hybrid : {false, true}) {
    harness::SetBenchConfig cfg{opt.run_spec()};
    cfg.kind = kind;
    cfg.allocator = alloc_name;
    cfg.threads = threads;
    cfg.htm_enabled = hybrid;
    cfg.initial = 512;
    cfg.key_range = 1024;
    cfg.ops_per_thread =
        static_cast<std::size_t>(128 * opt.get_double("scale"));
    const auto res = harness::run_set_bench(cfg);
    obs.report(hybrid ? "hybrid." : "software.", res.planes);
    const auto& st = res.stats;
    std::printf("%s mode:\n", hybrid ? "hybrid (HTM + STM fallback)"
                                     : "software-only (STM)");
    std::printf("  throughput:   %.0f tx/s (virtual)\n", res.throughput);
    if (hybrid) {
      std::printf("  hw commits:   %llu of %llu transactions\n",
                  static_cast<unsigned long long>(st.hw_commits),
                  static_cast<unsigned long long>(st.hw_commits +
                                                  st.commits));
      std::printf("  hw aborts:    conflict=%llu capacity=%llu "
                  "spurious=%llu\n",
                  static_cast<unsigned long long>(st.hw_aborts_by_cause[0]),
                  static_cast<unsigned long long>(st.hw_aborts_by_cause[1]),
                  static_cast<unsigned long long>(st.hw_aborts_by_cause[2]));
      std::printf("  fallbacks:    %llu took the software path\n",
                  static_cast<unsigned long long>(st.fallbacks));
    }
    std::printf("  sw commits:   %llu   sw aborts: %llu (%.1f%%)\n\n",
                static_cast<unsigned long long>(st.commits),
                static_cast<unsigned long long>(st.aborts),
                100.0 * st.abort_ratio());
    if (!res.size_consistent) {
      std::printf("CONSISTENCY VIOLATION\n");
      return obs.finish(1);
    }
  }
  std::printf(
      "Note how the hardware path absorbs short transactions while long or "
      "conflicting ones\nfall back to the STM — which is why the paper "
      "expects its allocator conclusions to\ncarry over to hybrid systems "
      "(Section 1). Try --struct list: long traversals overflow\nthe "
      "hardware read capacity and nearly everything falls back.\n");
  return obs.finish(0);
}
