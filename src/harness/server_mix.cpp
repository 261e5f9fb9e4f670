#include "harness/server_mix.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/instrument.hpp"
#include "guard/guard.hpp"
#include "prof/prof.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"

namespace tmx::harness {

namespace {

// Log-normal payload size via Box-Muller, clamped to [8 B, 64 KiB]. Pure
// function of the rng stream, so (seed, tid) still fully determines the
// workload.
std::size_t lognormal_size(Rng& rng, double mu, double sigma) {
  const double u1 = 1.0 - rng.uniform();  // (0, 1]: log never sees zero
  const double u2 = rng.uniform();
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  const double v = std::exp(mu + sigma * z);
  return static_cast<std::size_t>(std::clamp(v, 8.0, 65536.0));
}

// One per worker; the upstream neighbour pushes transactionally-allocated
// response blocks here and the owner frees them in a later transaction.
// A SpinLock (not STM) protects the host-side vector: it charges virtual
// time for the handoff and gives tmx::check a release->acquire edge.
struct Mailbox {
  sim::SpinLock lock;
  std::vector<void*> blocks;
};

ServerMixResult run_on(const ServerMixConfig& cfg, int workers,
                       alloc::Allocator& allocator) {
  stm::Stm stm(cfg.stm_config(&allocator));

  // Shared transactional request counter: every publish transaction
  // read-modify-writes it, so concurrent commits genuinely conflict and the
  // abort-to-retry path carries real traffic (otherwise requests only touch
  // their own blocks and the abort histogram stays empty). It is probed, so
  // it lives in the run's address space.
  const auto served_root = sim::make_region<std::uint64_t>();
  std::uint64_t& served = *served_root;
  const std::unique_ptr<Mailbox[]> mail(new Mailbox[workers]);
  std::vector<prof::HdrHistogram> lat(static_cast<std::size_t>(workers));
  std::vector<std::vector<void*>> retained(static_cast<std::size_t>(workers));
  std::atomic<std::uint64_t> handoffs{0};

  const sim::RunConfig rc = cfg.run_config(workers);
  const sim::RunResult rr = sim::run_parallel(rc, [&](int tid) {
    alloc::RegionScope par(alloc::Region::Par);
    Rng rng(thread_seed(cfg.seed, tid));
    std::vector<void*> parse(cfg.allocs_per_request, nullptr);
    std::vector<void*> drained;
    const int next = (tid + 1) % workers;
    std::size_t handled = 0;
    for (std::size_t i = static_cast<std::size_t>(tid); i < cfg.requests;
         i += static_cast<std::size_t>(workers)) {
      // Open loop: the request exists at `arrival` whether or not the
      // worker is ready; advance_to is a no-op when we are already late,
      // which is exactly how queueing delay enters the latency.
      const std::uint64_t arrival = (i + 1) * cfg.arrival_cycles;
      sim::advance_to(arrival);

      // Drain responses the upstream worker published: cross-thread frees
      // inside a transaction, the allocator pattern the paper's Figure 8
      // (producer-consumer) isolates.
      {
        sim::SpinGuard g(mail[tid].lock);
        drained.swap(mail[tid].blocks);
      }
      if (!drained.empty()) {
        prof::ScopedSite site("request;drain");
        guard::ScopedSite gsite("request;drain");
        stm.atomically([&](stm::Tx& tx) {
          for (void* p : drained) tx.free(p);
        });
        handoffs.fetch_add(drained.size(), std::memory_order_relaxed);
        drained.clear();
      }

      // Parse phase: long-tailed payload blocks, non-transactional.
      std::size_t live = 0;
      {
        prof::ScopedSite site("request;parse");
        guard::ScopedSite gsite("request;parse");
        for (std::size_t k = 0; k < cfg.allocs_per_request; ++k) {
          const std::size_t sz =
              lognormal_size(rng, cfg.size_ln_mu, cfg.size_ln_sigma);
          void* p = allocator.allocate(sz);
          if (p != nullptr) {
            *static_cast<unsigned char*>(p) =
                static_cast<unsigned char>(i);
            parse[live++] = p;
          }
        }
      }

      // Publish phase: allocate the response inside a transaction and hand
      // it to the next worker. The body may re-run on abort; `resp` takes
      // the surviving attempt's block.
      void* resp = nullptr;
      {
        prof::ScopedSite site("request;publish");
        guard::ScopedSite gsite("request;publish");
        const std::size_t rsz = 64 + rng.below(192);
        stm.atomically([&](stm::Tx& tx) {
          resp = tx.malloc(rsz);
          if (resp != nullptr) {
            tx.store(static_cast<std::uint64_t*>(resp),
                     static_cast<std::uint64_t>(i));
          }
          tx.store(&served, tx.load(&served) + 1);
        });
      }
      if (resp != nullptr) {
        sim::SpinGuard g(mail[next].lock);
        mail[next].blocks.push_back(resp);
      }

      // Retire the parse blocks — except the retained fraction, which
      // leaks until teardown and drives the RSS/fragmentation drift.
      if (rng.chance(cfg.retain_fraction)) {
        retained[static_cast<std::size_t>(tid)].insert(
            retained[static_cast<std::size_t>(tid)].end(), parse.begin(),
            parse.begin() + static_cast<std::ptrdiff_t>(live));
      } else {
        prof::ScopedSite site("request;retire");
        guard::ScopedSite gsite("request;retire");
        for (std::size_t k = 0; k < live; ++k) allocator.deallocate(parse[k]);
      }

      const std::uint64_t now = sim::now_cycles();
      lat[static_cast<std::size_t>(tid)].record(
          now > arrival ? now - arrival : 0);

      // Periodic allocator maintenance: worker 0 runs it from outside any
      // transaction; the quiescence drain is what gives tmx::phase its
      // reclaim/compaction window mid-run instead of only at teardown.
      ++handled;
      if (cfg.phase_maintenance_every != 0 && tid == 0 &&
          handled % cfg.phase_maintenance_every == 0) {
        stm.maintenance_quiescence();
      }
    }
  });

  // Final time-series row while the heap still shows the end-of-run drift,
  // stamped with the makespan (now_cycles() is already 0 out here).
  if (cfg.prof) prof::sample_at(rr.cycles);

  ServerMixResult res;
  res.seconds = rr.seconds;
  res.cycles = rr.cycles;
  res.requests = cfg.requests;
  for (const auto& h : lat) res.latency.merge(h);
  res.stats = stm.stats();
  res.handoffs = handoffs.load(std::memory_order_relaxed);
  res.live_bytes_end = allocator.live_bytes();
  res.reserved_bytes_end = allocator.os_reserved();
  for (const auto& r : retained) res.retained_blocks += r.size();
  if (auto* pa = alloc::find_layer<phase::PhaseAllocator>(&allocator)) {
    res.has_phase = true;
    res.phase = pa->stats();
  }

  // Teardown: retained blocks and undrained mailboxes go back to the
  // allocator (sequentially, by the main thread).
  for (auto& r : retained) {
    for (void* p : r) allocator.deallocate(p);
  }
  for (int w = 0; w < workers; ++w) {
    for (void* p : mail[w].blocks) allocator.deallocate(p);
  }
  return res;
}

}  // namespace

ServerMixResult run_server_mix(const ServerMixConfig& cfg) {
  const int workers = cfg.workers > 0 ? cfg.workers : 1;
  RunContext run(cfg, workers);
  ServerMixResult res = run_on(cfg, workers, run.allocator(false));
  res.planes = run.finish();
  return res;
}

}  // namespace tmx::harness
