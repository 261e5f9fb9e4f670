// allocator_duel: head-to-head comparison of two allocators on one
// transactional data-structure workload — the paper's Figure 1 scenario in
// miniature, with the abort/locality diagnosis printed alongside.
//
//   ./build/examples/allocator_duel --a glibc --b tcmalloc
//       --struct list --threads 8 --updates 60
#include <cstdio>

#include "harness/obs_session.hpp"
#include "harness/options.hpp"
#include "harness/setbench.hpp"

int main(int argc, char** argv) {
  using namespace tmx;
  using K = harness::Flag::Kind;
  constexpr harness::Flag kFlags[] = {
      {"a", K::kModel, "NAME", "glibc", "first allocator"},
      {"b", K::kModel, "NAME", "tcmalloc", "second allocator"},
      // In SetKind's order: choice() indexes it.
      {"struct", K::kText, "list|hashset|rbtree", "list",
       "transactional data structure"},
      {"threads", K::kInt, harness::kThreadsHint, "8", "client threads"},
      {"updates", K::kReal, "PCT", "60", "update percentage"},
      {"reps", K::kInt, "N", "3", "repetitions per allocator, averaged"},
      {"scale", K::kReal, "X", "1", "workload scale factor"},
  };
  const harness::Options opt(
      argc, argv,
      {{"allocator_duel: two allocators head to head:", kFlags},
       harness::kRunFlags, harness::kReportFlags});
  const std::string a = opt.get("a");
  const std::string b = opt.get("b");
  const std::string which = opt.get("struct");
  const auto kind = static_cast<harness::SetKind>(opt.choice("struct"));
  const int threads = static_cast<int>(opt.get_long("threads"));
  const double updates = opt.get_double("updates") / 100.0;
  const int reps = static_cast<int>(opt.get_long("reps"));
  const double scale = opt.get_double("scale");
  harness::ObsSession obs(opt);

  std::printf("duel: %s vs %s on %s, %d threads, %.0f%% updates\n\n",
              a.c_str(), b.c_str(), which.c_str(), threads, updates * 100);

  struct Side {
    double tput = 0, aborts = 0, l1 = 0;
  };
  Side sides[2];
  const std::string names[2] = {a, b};
  for (int s = 0; s < 2; ++s) {
    for (int r = 0; r < reps; ++r) {
      harness::SetBenchConfig cfg{opt.run_spec()};
      cfg.kind = kind;
      cfg.allocator = names[s];
      cfg.threads = threads;
      cfg.update_pct = updates;
      cfg.initial = static_cast<std::size_t>(1024 * scale);
      cfg.key_range = static_cast<std::uint64_t>(2048 * scale);
      cfg.ops_per_thread =
          static_cast<std::size_t>((kind == harness::SetKind::kList ? 48
                                                                    : 256) *
                                   scale);
      cfg.seed += 1000003ull * r;
      const auto res = harness::run_set_bench(cfg);
      obs.report(names[s] + ".r" + std::to_string(r) + ".", res.planes);
      sides[s].tput += res.throughput / reps;
      sides[s].aborts += res.stats.abort_ratio() / reps;
      sides[s].l1 += res.cache.l1_miss_ratio() / reps;
    }
    std::printf("%-10s  throughput %10.0f tx/s   aborts %5.1f%%   "
                "L1 miss %5.2f%%\n",
                names[s].c_str(), sides[s].tput, 100 * sides[s].aborts,
                100 * sides[s].l1);
  }

  const int w = sides[0].tput >= sides[1].tput ? 0 : 1;
  std::printf("\nwinner: %s (+%.1f%%)\n", names[w].c_str(),
              100.0 * (sides[w].tput / sides[1 - w].tput - 1.0));
  if (sides[w].aborts < sides[1 - w].aborts * 0.8) {
    std::printf("diagnosis: fewer aborts — the loser's block layout maps "
                "disjoint objects to shared\nORT stripes or cache lines "
                "(see Figure 5 of the paper / tmx_paper --figure fig05).\n");
  } else if (sides[w].l1 < sides[1 - w].l1 * 0.8) {
    std::printf("diagnosis: better locality — smaller blocks / denser "
                "packing.\n");
  } else {
    std::printf("diagnosis: mixed — inspect with tmx_paper --figure "
                "table4,fig06.\n");
  }
  return obs.finish(0);
}
