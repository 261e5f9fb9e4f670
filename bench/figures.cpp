// The paper's figures and tables, in the order --figure all prints them.
// Each body states its grid and its reducer; paper.hpp's Ctx runs the
// cells. Expected shapes are in EXPERIMENTS.md.
#include <algorithm>
#include <thread>

#include "alloc/allocator.hpp"
#include "alloc/tcmalloc_model.hpp"
#include "harness/stats.hpp"
#include "paper.hpp"
#include "sim/cache_model.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"

namespace tmx::paper {

namespace {

using harness::fmt;
using harness::fmt_pct;
using harness::fmt_si;
using harness::SetKind;
using harness::Table;

std::string p(int threads) { return "p" + std::to_string(threads); }

// Formats "mean ±ci" compactly.
std::string pm(const harness::Summary& s, int precision) {
  return fmt(s.mean, precision) + " ±" + fmt(s.ci95, precision);
}

// The mean of f over a cell's runs.
template <class R, class F>
double mean(const std::vector<R>& runs, F f) {
  double sum = 0;
  for (const R& r : runs) sum += f(r);
  return sum / static_cast<double>(runs.size());
}

double throughput(const harness::SetBenchResult& r) { return r.throughput; }
double abort_ratio(const harness::SetBenchResult& r) {
  return r.stats.abort_ratio();
}
double l1_miss_ratio(const harness::SetBenchResult& r) {
  return r.cache.l1_miss_ratio();
}
double value(const Sample& s) { return s.value; }

// A raw run that measured `value` and the cache model's counters.
Sample cache_sample(double value, const sim::CacheStats& cache) {
  Sample s;
  s.value = value;
  s.cache = cache;
  return s;
}

// Hoard's threadtest on `a`: each thread allocates a block and frees it
// right away, `pairs` times. The block is touched in between, as any
// workload would. Measures (allocate, free) pairs per virtual second.
Sample threadtest(alloc::Allocator& a, const sim::RunConfig& rc,
                  std::size_t block, std::size_t pairs) {
  const auto rr = sim::run_parallel(rc, [&](int) {
    for (std::size_t i = 0; i < pairs; ++i) {
      void* blk = a.allocate(block);
      sim::probe(blk, 8, true);
      a.deallocate(blk);
    }
  });
  return cache_sample(static_cast<double>(rc.threads) * pairs / rr.seconds,
                      rr.cache);
}

// The false-sharing invalidations of a raw cell, averaged per run.
std::uint64_t false_sharing(const std::vector<Sample>& runs) {
  std::uint64_t sum = 0;
  for (const Sample& s : runs) sum += s.cache->false_sharing;
  return sum / runs.size();
}

// Execution times of one STAMP cell.
harness::Summary stamp_seconds(Ctx& c, const std::string& alloc,
                               const std::string& app, int threads) {
  stamp::StampRun r{c.spec(alloc), app};
  r.threads = threads;
  r.scale = c.scale;
  std::vector<double> xs;
  for (const auto& o : c.stamp(r, app + "." + p(threads))) {
    xs.push_back(o.result.seconds);
  }
  return harness::summarize(xs);
}

// Best allocator/thread cell of `m` ([allocator][thread index]) under
// `better`, and the worst allocator at that thread count: one Table 3/6 row.
template <class Better>
std::vector<std::string> best_worst(const std::string& what,
                                    const std::vector<std::string>& allocs,
                                    const std::vector<int>& threads,
                                    const std::vector<std::vector<double>>& m,
                                    Better better) {
  std::size_t best_a = 0, best_t = 0;
  for (std::size_t ai = 0; ai < allocs.size(); ++ai) {
    for (std::size_t t = 0; t < threads.size(); ++t) {
      if (better(m[ai][t], m[best_a][best_t])) {
        best_a = ai;
        best_t = t;
      }
    }
  }
  std::size_t worst_a = best_a;
  for (std::size_t ai = 0; ai < allocs.size(); ++ai) {
    if (better(m[worst_a][best_t], m[ai][best_t])) worst_a = ai;
  }
  const double b = m[best_a][best_t], w = m[worst_a][best_t];
  const double diff = (std::max(b, w) - std::min(b, w)) / std::min(b, w);
  return {what, allocs[best_a], allocs[worst_a], fmt_pct(diff),
          std::to_string(threads[best_t])};
}

// Figure 1: the motivating observation. The best allocator flips between
// Intruder and Yada on identical binaries.
void fig01(Ctx& c) {
  std::vector<std::string> headers = {"application"};
  for (const auto& a : c.allocs) headers.push_back(a + " time (s)");
  headers.push_back("best");
  Table t(headers);
  for (const char* app : {"intruder", "yada"}) {
    std::vector<std::string> row = {app};
    std::string best;
    double best_time = 0;
    for (const auto& a : c.allocs) {
      const auto s = stamp_seconds(c, a, app, c.threads[0]);
      row.push_back(pm(s, 4));
      if (best.empty() || s.mean < best_time) {
        best = a;
        best_time = s.mean;
      }
    }
    row.push_back(best);
    t.add_row(std::move(row));
  }
  t.print();
  c.csv(t);
  std::printf(
      "\nThe paper's point: the winner flips between applications, so the "
      "allocator must be reported.\n");
}

// Figure 2: two threads with empty caches alternately request 16-byte
// blocks; TCMalloc's central list hands out adjacent addresses, and the
// per-fetch batch grows 1, 2, 3, ...
void fig02(Ctx& c) {
  constexpr int kRounds = 4;
  std::uintptr_t got[2][kRounds] = {};
  std::uint32_t batch[2] = {};
  const auto runs = c.raw(
      c.spec("tcmalloc"), 2, p(2),
      [&](harness::RunContext& run, const sim::RunConfig& rc) {
        alloc::Allocator& a = run.allocator(false);
        const auto rr = sim::run_parallel(rc, [&](int tid) {
          for (int i = 0; i < kRounds; ++i) {
            void* blk = a.allocate(16);
            got[tid][i] = reinterpret_cast<std::uintptr_t>(blk);
            sim::probe(blk, 8, true);  // thread-private write
            sim::tick(100);
            sim::yield();
          }
        });
        using Model = alloc::TcmallocModelAllocator;
        const Model* model = alloc::find_layer<Model>(&a);
        for (int tid = 0; tid < 2; ++tid) {
          batch[tid] = model->next_batch(tid, Model::class_index(16));
        }
        return cache_sample(0, rr.cache);
      });

  Table t({"round", "thread 1 block", "thread 2 block", "same 64B line?"});
  const std::uintptr_t base = std::min(got[0][0], got[1][0]);
  for (int i = 0; i < kRounds; ++i) {
    const bool same = (got[0][i] / 64) == (got[1][i] / 64);
    t.add_row({std::to_string(i + 1),
               "base+" + std::to_string(got[0][i] - base),
               "base+" + std::to_string(got[1][i] - base),
               same ? "yes (false sharing)" : "no"});
  }
  t.print();
  c.csv(t);
  std::printf(
      "\nnext central-cache batch per thread (grew incrementally): "
      "t1=%u t2=%u\n",
      batch[0], batch[1]);
  std::printf("false-sharing invalidations observed by the cache model: "
              "%llu\n",
              static_cast<unsigned long long>(false_sharing(runs)));
}

// Figure 3: threadtest throughput and false sharing per block size.
void fig03(Ctx& c) {
  const int th = c.threads[0];
  const auto pairs = static_cast<std::size_t>(200 * c.scale);
  std::vector<std::string> headers = {"block size"};
  for (const auto& a : c.allocs) {
    headers.push_back(a + " op/s");
    headers.push_back(a + " false sharing");
  }
  Table t(headers);
  for (std::size_t block : {16u, 64u, 128u, 256u, 512u, 2048u, 8192u}) {
    std::vector<std::string> row = {std::to_string(block)};
    for (const auto& a : c.allocs) {
      const auto runs = c.raw(
          c.spec(a), th, "b" + std::to_string(block) + "." + p(th),
          [&](harness::RunContext& run, const sim::RunConfig& rc) {
            return threadtest(run.allocator(false), rc, block,
                              pairs);
          });
      row.push_back(fmt_si(mean(runs, value), 2));
      row.push_back(std::to_string(false_sharing(runs)));
    }
    t.add_row(std::move(row));
  }
  t.print();
  c.csv(t);
}

// Figure 4 + Table 3: the synthetic structures under the write-dominated
// workload; then the best and worst allocator per structure.
void fig04(Ctx& c) {
  struct Kind {
    SetKind kind;
    double initial, ops, range;
  };
  // The list is the costliest per op (long traversals); it runs a smaller
  // instance by default. --scale 4 restores the paper's 4096.
  const Kind kinds[] = {{SetKind::kList, 1024, 48, 2048},
                        {SetKind::kHashSet, 4096, 512, 8192},
                        {SetKind::kRbTree, 4096, 256, 8192}};
  Table table3({"Application", "Best", "Worst", "Perf. Diff.", "Threads"});
  for (const Kind& k : kinds) {
    const char* name = harness::set_kind_name(k.kind);
    std::printf("--- %s (60%% updates) — throughput (tx/s, %s) ---\n", name,
                c.clock());
    std::vector<std::string> headers = {"threads"};
    for (const auto& a : c.allocs) headers.push_back(a);
    Table fig(headers);
    std::vector<std::vector<double>> tput(c.allocs.size());
    for (int th : c.threads) {
      std::vector<std::string> row = {std::to_string(th)};
      for (std::size_t ai = 0; ai < c.allocs.size(); ++ai) {
        std::vector<double> xs;
        for (const auto& r : c.set_bench(
                 c.set(c.allocs[ai], k.kind, th, k.initial, k.range, k.ops),
                 std::string(name) + "." + p(th))) {
          xs.push_back(r.throughput);
        }
        const auto s = harness::summarize(xs);
        tput[ai].push_back(s.mean);
        row.push_back(fmt_si(s.mean, 1) + " ±" + fmt_si(s.ci95, 1));
      }
      fig.add_row(std::move(row));
    }
    fig.print();
    std::printf("\n");
    table3.add_row(best_worst(name, c.allocs, c.threads, tput,
                              [](double x, double y) { return x > y; }));
  }
  std::printf("--- Table 3: best and worst allocators per structure ---\n");
  table3.print();
  c.csv(table3);
}

// Figure 5: two threads on logically disjoint nodes x and y allocated in
// sequence. 16-byte spacing puts both in one versioned lock under shift 5,
// so the reader of y falsely aborts against the writer of x.
void fig05(Ctx& c) {
  const int rounds = static_cast<int>(200 * c.scale);
  Table t({"allocator", "shift", "node spacing", "same ORT entry?",
           "aborts (reader is logically disjoint)"});
  for (const auto& name : c.allocs) {
    for (unsigned shift : {5u, 4u}) {
      harness::RunSpec spec = c.spec(name);
      spec.shift = shift;
      spec.cache_model = false;  // the figure isolates ORT aliasing
      std::uintptr_t x = 0, y = 0;
      bool same_entry = false;
      const auto runs = c.raw(
          spec, 2, "shift" + std::to_string(shift),
          [&](harness::RunContext& run, const sim::RunConfig& rc) {
            alloc::Allocator& a = run.allocator(false);
            stm::Stm stm(spec.stm_config(&a));
            // Two 16-byte nodes in sequence, as the list benchmark's main
            // thread allocates them.
            auto* px = static_cast<std::uint64_t*>(a.allocate(16));
            auto* py = static_cast<std::uint64_t*>(a.allocate(16));
            *px = *py = 0;
            sim::run_parallel(rc, [&](int tid) {
              for (int i = 0; i < rounds; ++i) {
                if (tid == 0) {
                  stm.atomically([&](stm::Tx& tx) {
                    tx.store(px, tx.load(px) + 1);  // transaction 1 writes x
                    sim::tick(300);                 // ...and stays busy
                  });
                } else {
                  stm.atomically([&](stm::Tx& tx) {
                    tx.load(py);  // transaction 2 merely reads y
                    sim::tick(300);
                  });
                }
              }
            });
            x = reinterpret_cast<std::uintptr_t>(px);
            y = reinterpret_cast<std::uintptr_t>(py);
            same_entry = stm.ort_index(px) == stm.ort_index(py);
            Sample out;
            out.stats = stm.stats();
            return out;
          });
      t.add_row({name, std::to_string(shift), std::to_string(y - x) + " B",
                 same_entry ? "yes" : "no",
                 std::to_string(runs[0].stats->aborts)});
    }
  }
  t.print();
  c.csv(t);
  std::printf(
      "\nWith shift=5 (32-byte stripes), 16-byte-spaced nodes share a "
      "versioned lock -> false aborts;\n32-byte spacing (glibc) or "
      "shift=4 separates them.\n");
}

// Figure 6: speedup - 1 of the write-dominated list with shift 4 over the
// default shift 5.
void fig06(Ctx& c) {
  std::vector<std::string> headers = {"threads"};
  for (const auto& a : c.allocs) headers.push_back(a + " (speedup-1)");
  Table t(headers);
  for (int th : c.threads) {
    std::vector<std::string> row = {std::to_string(th)};
    for (const auto& a : c.allocs) {
      auto cfg = c.set(a, SetKind::kList, th, 1024, 2048, 48);
      cfg.shift = 5;
      const auto s5 = c.set_bench(cfg, p(th) + ".shift5");
      cfg.shift = 4;
      const auto s4 = c.set_bench(cfg, p(th) + ".shift4");
      double ratio_sum = 0;
      for (int r = 0; r < c.reps; ++r) {
        ratio_sum += s4[r].throughput / s5[r].throughput - 1.0;
      }
      row.push_back(fmt(ratio_sum / c.reps, 3));
    }
    t.add_row(std::move(row));
  }
  t.print();
  c.csv(t);
}

// Figure 7 + Table 6: STAMP execution times; then the best and worst
// allocator per application. As in the paper, Kmeans and SSCA2 (no
// transactional allocation, <5% influence) are left out unless --apps
// names them.
void fig07(Ctx& c) {
  Table table6({"Application", "Best", "Worst", "Perf. Diff.", "Threads"});
  for (const auto& app : c.opt.get_list("apps")) {
    std::printf("--- %s — execution time (%s seconds) ---\n", app.c_str(),
                c.clock());
    std::vector<std::string> headers = {"threads"};
    for (const auto& a : c.allocs) headers.push_back(a);
    Table fig(headers);
    std::vector<std::vector<double>> times(c.allocs.size());
    for (int th : c.threads) {
      std::vector<std::string> row = {std::to_string(th)};
      for (std::size_t ai = 0; ai < c.allocs.size(); ++ai) {
        const auto s = stamp_seconds(c, c.allocs[ai], app, th);
        times[ai].push_back(s.mean);
        row.push_back(pm(s, 4));
      }
      fig.add_row(std::move(row));
    }
    fig.print();
    std::printf("\n");
    table6.add_row(best_worst(app, c.allocs, c.threads, times,
                              [](double x, double y) { return x < y; }));
  }
  std::printf("--- Table 6: best and worst allocators per application ---\n");
  table6.print();
  c.csv(table6);
}

// Figure 8: Genome and Yada speedups over each allocator's own 1-thread
// run. The baseline itself is allocator-dependent.
void fig08(Ctx& c) {
  for (const char* app : {"genome", "yada"}) {
    std::printf("--- %s — speedup over the same allocator's 1-thread run "
                "---\n", app);
    std::vector<std::string> headers = {"threads"};
    for (const auto& a : c.allocs) headers.push_back(a);
    Table fig(headers);
    std::vector<std::vector<double>> times(c.allocs.size());
    for (int th : c.threads) {
      for (std::size_t ai = 0; ai < c.allocs.size(); ++ai) {
        times[ai].push_back(stamp_seconds(c, c.allocs[ai], app, th).mean);
      }
    }
    for (std::size_t t = 0; t < c.threads.size(); ++t) {
      std::vector<std::string> row = {std::to_string(c.threads[t])};
      for (std::size_t ai = 0; ai < c.allocs.size(); ++ai) {
        row.push_back(fmt(times[ai][0] / times[ai][t], 2) + "x");
      }
      fig.add_row(std::move(row));
    }
    fig.print();
    std::printf("\n");
  }
  std::printf(
      "The paper's point: speedup numbers differ across allocators even on "
      "identical binaries,\nand a higher speedup can be an artifact of a "
      "slower 1-thread baseline (Glibc on Genome).\n");
}

// Table 1: the main attributes of the studied allocators.
void table1(Ctx& c) {
  Table t({"Allocator", "Models", "Metadata (tag)", "Min Size", "Fast Path",
           "Granularity", "Synchronization"});
  for (const auto& name : c.allocs) {
    const auto a = alloc::create_allocator(name);
    const auto& tr = a->traits();
    t.add_row({tr.name, tr.models, tr.metadata,
               std::to_string(tr.min_block) + " bytes", tr.fast_path,
               tr.granularity, tr.synchronization});
  }
  t.print();
  c.csv(t);
}

// Table 2: the simulated machine, modeled on the paper's testbed, and the
// host the simulation runs on.
void table2(Ctx& c) {
  const sim::CacheGeometry g{};
  Table t({"Component", "Simulated (paper testbed)", "Host"});
  t.add_row({"Processor model", "Intel Xeon E5405 @ 2.00GHz (modeled)",
             "see /proc/cpuinfo"});
  t.add_row({"Total cores", "8 (one fiber per core)",
             std::to_string(std::thread::hardware_concurrency())});
  t.add_row({"L1 data cache",
             std::to_string(g.l1_size / 1024) + "KB, " +
                 std::to_string(g.l1_ways) + "-way, " +
                 std::to_string(g.line_size) + "-byte lines",
             "n/a (simulated)"});
  t.add_row({"L2 cache",
             std::to_string(g.l2_size / (1024 * 1024)) + "MB shared, " +
                 std::to_string(g.l2_ways) + "-way",
             "n/a (simulated)"});
  t.add_row({"STM", "TinySTM-equivalent WB-ETL, ORT 2^20, shift 5", "-"});
  t.print();
  c.csv(t);
}

// Table 4: aborted transactions and L1 miss ratio of the write-dominated
// list. Glibc's 32-byte blocks cost locality but avoid the Figure 5 false
// aborts.
void table4(Ctx& c) {
  std::vector<std::string> headers = {"#P"};
  for (const auto& a : c.allocs) {
    headers.push_back(a + ":aborts");
    headers.push_back(a + ":L1miss");
  }
  Table t(headers);
  for (int th : c.threads) {
    std::vector<std::string> row = {std::to_string(th)};
    for (const auto& a : c.allocs) {
      const auto runs =
          c.set_bench(c.set(a, SetKind::kList, th, 1024, 2048, 48), p(th));
      row.push_back(fmt_pct(mean(runs, abort_ratio)));
      row.push_back(fmt_pct(mean(runs, l1_miss_ratio)));
    }
    t.add_row(std::move(row));
  }
  t.print();
  c.csv(t);
}

// Table 5: the STAMP applications' allocations per size class and code
// region, from a sequential instrumented run (allocator-independent; run
// on glibc, the model of the system malloc).
void table5(Ctx& c) {
  std::vector<std::string> headers = {"App", "Region"};
  for (int b = 0; b < alloc::kNumSizeBuckets; ++b) {
    headers.push_back(alloc::size_bucket_name(b));
  }
  headers.push_back("#mallocs");
  headers.push_back("#frees");
  headers.push_back("size (bytes)");
  Table t(headers);
  for (const auto& app : stamp::app_names()) {
    stamp::StampRun r{c.spec("glibc"), app};
    r.threads = 1;
    r.scale = c.scale;
    r.instrument = true;
    const auto out = c.stamp(r, app);
    for (int reg = 0; reg < alloc::kNumRegions; ++reg) {
      const auto& prof = out[0].profile.regions[reg];
      std::vector<std::string> row = {
          reg == 0 ? app : "",
          alloc::region_name(static_cast<alloc::Region>(reg))};
      for (int b = 0; b < alloc::kNumSizeBuckets; ++b) {
        row.push_back(std::to_string(prof.by_bucket[b]));
      }
      row.push_back(std::to_string(prof.mallocs));
      row.push_back(std::to_string(prof.frees));
      row.push_back(std::to_string(prof.bytes));
      t.add_row(std::move(row));
    }
  }
  t.print();
  c.csv(t);
  std::printf(
      "\nExpected shape: kmeans/ssca2 allocate only in seq; labyrinth's tx "
      "row is near-empty;\nintruder allocates in tx and frees in par "
      "(privatization); most requests are small.\n");
}

// Table 7: gains from the STM-level allocation caching (transactional
// objects cached thread-locally across aborts and committed frees).
void table7(Ctx& c) {
  const int th = c.threads[0];
  std::vector<std::string> headers = {"App"};
  for (const auto& a : c.allocs) headers.push_back(a);
  Table t(headers);
  for (const char* app : {"genome", "intruder", "vacation", "yada"}) {
    std::vector<std::string> row = {app};
    for (const auto& a : c.allocs) {
      stamp::StampRun r{c.spec(a), app};
      r.threads = th;
      r.scale = c.scale;
      const std::string cell = std::string(app) + "." + p(th) + ".txcache";
      r.tx_alloc_cache = false;
      const auto base = c.stamp(r, cell + "0");
      r.tx_alloc_cache = true;
      const auto cached = c.stamp(r, cell + "1");
      // Median over seeds: Yada's retry variance makes the mean unstable.
      std::vector<double> gains;
      for (int i = 0; i < c.reps; ++i) {
        const double b = base[i].result.seconds;
        gains.push_back((b - cached[i].result.seconds) / b);
      }
      std::sort(gains.begin(), gains.end());
      row.push_back(fmt_pct(gains[gains.size() / 2]));
    }
    t.add_row(std::move(row));
  }
  t.print();
  c.csv(t);
}

// Ablation: the paper's SUICIDE contention manager against exponential
// backoff on the write-dominated list, where false aborts are plentiful.
void ablation_cm(Ctx& c) {
  Table t({"allocator", "threads", "suicide tx/s", "backoff tx/s",
           "suicide aborts", "backoff aborts"});
  const struct {
    stm::ContentionManager cm;
    const char* name;
  } cms[] = {{stm::ContentionManager::kSuicide, "suicide"},
             {stm::ContentionManager::kBackoff, "backoff"}};
  for (const auto& a : c.allocs) {
    for (int th : c.threads) {
      double tput[2] = {0, 0}, aborts[2] = {0, 0};
      for (int i = 0; i < 2; ++i) {
        auto cfg = c.set(a, SetKind::kList, th, 512, 1024, 48);
        cfg.cm = cms[i].cm;
        const auto runs = c.set_bench(cfg, p(th) + "." + cms[i].name);
        tput[i] = mean(runs, throughput);
        aborts[i] = mean(runs, abort_ratio);
      }
      t.add_row({a, std::to_string(th), fmt_si(tput[0], 1),
                 fmt_si(tput[1], 1), fmt_pct(aborts[0]), fmt_pct(aborts[1])});
    }
  }
  t.print();
  c.csv(t);
}

// Ablation: TCMalloc's incremental central-cache batching (1, 2, 3, ...)
// against a fixed batch. The Figure 2 adjacency at small sizes comes from
// incremental fetches landing interleaved across threads.
void ablation_batch(Ctx& c) {
  const int th = c.threads[0];
  const auto pairs = static_cast<std::size_t>(200 * c.scale);
  Table t({"block size", "mode", "throughput (op/s)",
           "false-sharing invalidations"});
  for (std::size_t block : {16u, 64u, 256u}) {
    for (bool inc : {true, false}) {
      const std::string cell = "b" + std::to_string(block) + "." +
                               (inc ? "incremental" : "fixed") + "." + p(th);
      const auto runs = c.raw(
          c.spec("tcmalloc"), th, cell,
          [&](harness::RunContext&, const sim::RunConfig& rc) {
            // The fixed-batch counterfactual has no registry name, so both
            // variants are built here rather than by the run's allocator
            // stack, and no plane wraps them.
            alloc::TcmallocModelAllocator a(inc);
            return threadtest(a, rc, block, pairs);
          });
      t.add_row({std::to_string(block),
                 inc ? "incremental (paper)" : "fixed batch of 8",
                 fmt_si(mean(runs, value), 1),
                 std::to_string(false_sharing(runs))});
    }
  }
  t.print();
  c.csv(t);
}

// Ablation: TinySTM's write-back ETL (the paper's configuration) against
// write-through ETL and commit-time locking.
void ablation_design(Ctx& c) {
  const int th = c.threads[0];
  const struct {
    stm::StmDesign design;
    const char* name;
  } designs[] = {{stm::StmDesign::kWriteBackEtl, "wb"},
                 {stm::StmDesign::kWriteThroughEtl, "wt"},
                 {stm::StmDesign::kCommitTimeLocking, "ctl"}};
  Table t({"structure", "allocator", "WB tx/s", "WT tx/s", "CTL tx/s",
           "WB aborts", "WT aborts", "CTL aborts"});
  for (SetKind kind : {SetKind::kList, SetKind::kRbTree}) {
    const char* name = harness::set_kind_name(kind);
    for (const auto& a : c.allocs) {
      double tput[3] = {0, 0, 0}, aborts[3] = {0, 0, 0};
      for (int d = 0; d < 3; ++d) {
        auto cfg = c.set(a, kind, th, 512, 1024,
                         kind == SetKind::kList ? 48 : 128);
        cfg.design = designs[d].design;
        const auto runs = c.set_bench(
            cfg, std::string(name) + "." + designs[d].name + "." + p(th));
        tput[d] = mean(runs, throughput);
        aborts[d] = mean(runs, abort_ratio);
      }
      t.add_row({name, a, fmt_si(tput[0], 1), fmt_si(tput[1], 1),
                 fmt_si(tput[2], 1), fmt_pct(aborts[0]), fmt_pct(aborts[1]),
                 fmt_pct(aborts[2])});
    }
  }
  t.print();
  c.csv(t);
}

// Extension (the paper's future work): the write-dominated list in pure
// software and hybrid (best-effort HTM + STM fallback) modes.
void ext_hytm(Ctx& c) {
  const int th = c.threads[0];
  Table t({"allocator", "mode", "throughput (tx/s)", "sw aborts",
           "hw commits", "hw aborts", "fallbacks"});
  for (const auto& a : c.allocs) {
    for (bool hybrid : {false, true}) {
      auto cfg = c.set(a, SetKind::kList, th, 512, 1024, 48);
      cfg.htm_enabled = hybrid;
      const std::string mode = hybrid ? "hybrid" : "software";
      const auto runs = c.set_bench(cfg, mode + "." + p(th));
      std::uint64_t hw_commits = 0, hw_aborts = 0, fallbacks = 0;
      for (const auto& r : runs) {
        hw_commits += r.stats.hw_commits / c.reps;
        hw_aborts += r.stats.hw_aborts() / c.reps;
        fallbacks += r.stats.fallbacks / c.reps;
      }
      t.add_row({a, mode, fmt_si(mean(runs, throughput), 1),
                 fmt_pct(mean(runs, abort_ratio)),
                 std::to_string(hw_commits), std::to_string(hw_aborts),
                 std::to_string(fallbacks)});
    }
  }
  t.print();
  c.csv(t);
  std::printf(
      "\nExpected: the allocator ordering survives in hybrid mode — the "
      "hardware path reads the\nsame ORT stripes, so 16-byte-spaced nodes "
      "still alias; long list traversals overflow the\nhardware read "
      "capacity and fall back to the STM, which the paper studied.\n");
}

// Extension: the read-only, read-dominated (20%) and write-dominated (60%)
// configurations Section 4 measured but did not plot.
void ext_update_rates(Ctx& c) {
  const int th = c.threads[0];
  const struct {
    double update_pct;
    const char* name;
    const char* cell;
  } rates[] = {{0.0, "read-only", "u0"},
               {0.2, "read-dominated (20%)", "u20"},
               {0.6, "write-dominated (60%)", "u60"}};
  for (SetKind kind : {SetKind::kList, SetKind::kHashSet}) {
    const char* name = harness::set_kind_name(kind);
    const bool list = kind == SetKind::kList;
    std::printf("--- %s — throughput at %d threads ---\n", name, th);
    std::vector<std::string> headers = {"update rate"};
    for (const auto& a : c.allocs) headers.push_back(a);
    headers.push_back("max/min");
    Table t(headers);
    for (const auto& rate : rates) {
      std::vector<std::string> row = {rate.name};
      double lo = 0, hi = 0;
      for (const auto& a : c.allocs) {
        auto cfg = c.set(a, kind, th, list ? 512 : 4096, 0, list ? 48 : 256);
        cfg.key_range = cfg.initial * 2;
        cfg.update_pct = rate.update_pct;
        const double tput = mean(
            c.set_bench(cfg, std::string(name) + "." + rate.cell + "." + p(th)),
            throughput);
        row.push_back(fmt_si(tput, 1));
        if (lo == 0 || tput < lo) lo = tput;
        if (tput > hi) hi = tput;
      }
      row.push_back(fmt(hi / lo, 3) + "x");
      t.add_row(std::move(row));
    }
    t.print();
    std::printf("\n");
  }
  std::printf(
      "Expected: the max/min spread across allocators widens as the update "
      "rate grows —\nread-only workloads allocate nothing, so the allocator "
      "can only matter through the\ninitial layout.\n");
}

// Extension: the Larson server benchmark (Larson & Krishnan, ISMM'98).
// Threads replace random slots of a block array, then hand the array to
// the next thread, so most frees are remote.
void ext_larson(Ctx& c) {
  const int th = c.threads[0];
  constexpr std::size_t kSlots = 64;
  constexpr int kRounds = 4;
  const auto swaps = static_cast<std::size_t>(200 * c.scale);
  Table t({"allocator", "size range",
           "pairs/s (" + std::to_string(th) + " threads)", "false sharing"});
  for (const auto& name : c.allocs) {
    for (auto [lo, hi] : {std::pair<std::size_t, std::size_t>{16, 64},
                          {64, 512}}) {
      const std::string range = std::to_string(lo) + "-" + std::to_string(hi);
      const auto runs = c.raw(
          c.spec(name), th, range + "." + p(th),
          [&](harness::RunContext& run, const sim::RunConfig& rc) {
            alloc::Allocator& a = run.allocator(false);
            std::vector<std::vector<void*>> slots(th);
            for (auto& v : slots) v.assign(kSlots, nullptr);
            sim::Barrier barrier(th);
            const auto rr = sim::run_parallel(rc, [&](int tid) {
              Rng rng(thread_seed(rc.seed, tid));
              for (int round = 0; round < kRounds; ++round) {
                // Work on the array inherited from the previous owner.
                auto& mine = slots[(tid + round) % th];
                for (std::size_t i = 0; i < swaps; ++i) {
                  const std::size_t s = rng.below(kSlots);
                  if (mine[s] != nullptr) a.deallocate(mine[s]);
                  mine[s] = a.allocate(rng.range(lo, hi));
                  sim::probe(mine[s], 8, true);
                }
                barrier.arrive_and_wait();  // hand the array on
              }
            });
            for (auto& v : slots) {
              for (void* blk : v) {
                if (blk != nullptr) a.deallocate(blk);
              }
            }
            return cache_sample(
                static_cast<double>(th) * kRounds * swaps / rr.seconds,
                rr.cache);
          });
      t.add_row({name, range, fmt_si(mean(runs, value), 1),
                 std::to_string(false_sharing(runs))});
    }
  }
  t.print();
  c.csv(t);
}

}  // namespace

const std::vector<Figure>& figures() {
  static const std::vector<Figure> kFigures = {
      {"fig01", "Figure 1: influence of the allocator on Intruder and Yada",
       "Figure 1 (Section 1.1), 8 cores", 3, "glibc,hoard", "8", 1.0, fig01},
      {"fig02", "Figure 2: TCMalloc central-cache adjacency",
       "Figure 2 (Section 3.4) of the paper", 0, nullptr, nullptr, 1.0, fig02},
      {"fig03", "Figure 3: threadtest throughput vs block size",
       "Figure 3 (Section 3.5), 8 threads; op/s is (allocate, free) pairs "
       "per virtual second",
       3, "glibc,hoard,tbb,tcmalloc", "8", 1.0, fig03},
      {"fig04", "Figure 4 + Table 3: synthetic data structures",
       "Figure 4 and Table 3 (Section 5), write-dominated (60%)", 3,
       "glibc,hoard,tbb,tcmalloc", "1,2,4,6,8", 1.0, fig04},
      {"fig05", "Figure 5: allocator-induced false aborts",
       "Figure 5 (Section 5.1) of the paper", 0, "glibc,hoard,tbb,tcmalloc",
       nullptr, 1.0, fig05},
      {"fig06", "Figure 6: relative speedup with shift=4 (linked list)",
       "Figure 6 (Section 5.4), write-dominated workload", 3,
       "glibc,hoard,tbb,tcmalloc", "1,2,4,6,8", 1.0, fig06},
      {"fig07", "Figure 7 + Table 6: STAMP execution times per allocator",
       "Figure 7 and Table 6 (Section 6) of the paper", 2,
       "glibc,hoard,tbb,tcmalloc", "1,2,4,8", 0.5, fig07},
      {"fig08", "Figure 8: speedup curves for Genome and Yada",
       "Figure 8 (Section 6.2) of the paper", 2, "glibc,hoard,tbb,tcmalloc",
       "1,2,4,8", 0.5, fig08},
      {"table1", "Table 1: allocator attributes",
       "Table 1 (Section 3) of the paper", 0, "glibc,hoard,tbb,tcmalloc",
       nullptr, 1.0, table1},
      {"table2", "Table 2: machine configuration",
       "Table 2 (Section 4) of the paper", 0, nullptr, nullptr, 1.0, table2},
      {"table4", "Table 4: aborted transactions and L1 misses (linked list)",
       "Table 4 (Section 5.1), write-dominated configuration", 3,
       "glibc,hoard,tbb,tcmalloc", "1,2,4,6,8", 1.0, table4},
      {"table5", "Table 5: STAMP allocation characterization",
       "Table 5 (Section 6), sequential instrumented execution", 0, nullptr,
       nullptr, 1.0, table5},
      {"table7", "Table 7: gains from STM-level allocation caching",
       "Table 7 (Section 6.2), 8 threads", 5, "glibc,hoard,tbb,tcmalloc", "8",
       0.5, table7},
      {"ablation_cm", "Ablation: contention manager (SUICIDE vs backoff)",
       "design-choice ablation (paper Section 4 fixes SUICIDE)", 3,
       "glibc,hoard,tbb,tcmalloc", "4,8", 1.0, ablation_cm},
      {"ablation_batch", "Ablation: TCMalloc incremental vs fixed batching",
       "mechanism behind Figure 2 / Figure 3's 16-byte dip", 1, nullptr, "8",
       1.0, ablation_batch},
      {"ablation_design", "Ablation: WB-ETL vs WT-ETL",
       "design-choice ablation (paper Section 4 uses the default write-back "
       "ETL)",
       3, "glibc,hoard,tbb,tcmalloc", "8", 1.0, ablation_design},
      {"ext_hytm", "Extension: hybrid TM (best-effort HTM + STM fallback)",
       "future work named in Section 7 of the paper", 3,
       "glibc,hoard,tbb,tcmalloc", "8", 1.0, ext_hytm},
      {"ext_update_rates", "Extension: update-rate sensitivity",
       "the configurations Section 4 describes but does not plot", 3,
       "glibc,hoard,tbb,tcmalloc", "8", 1.0, ext_update_rates},
      {"ext_larson", "Extension: Larson benchmark (remote-free pressure)",
       "allocator-literature workload cited via the Hoard paper [1]", 3,
       "glibc,hoard,tbb,tcmalloc,jemalloc", "8", 1.0, ext_larson},
  };
  return kFigures;
}

}  // namespace tmx::paper
