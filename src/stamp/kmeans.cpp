// STAMP Kmeans port: iterative K-means clustering.
//
// Memory profile (paper Table 5): all allocation happens at initialization;
// transactions only update the shared per-cluster accumulators, so the
// allocator's influence is limited to the initial data layout.
#include <atomic>
#include <cmath>
#include <vector>

#include "alloc/instrument.hpp"
#include "check/check.hpp"
#include "sim/sync.hpp"
#include "stamp/app.hpp"
#include "util/rng.hpp"

namespace tmx::stamp {
namespace {

struct KmeansParams {
  int points;
  int dims;
  int clusters;
  int max_iters;
  double threshold;  // stop when < threshold fraction of points move
};

KmeansParams params_for(double scale) {
  KmeansParams p;
  p.points = static_cast<int>(2048 * scale);
  if (p.points < 64) p.points = 64;
  p.dims = 8;
  p.clusters = 16;
  p.max_iters = 10;
  p.threshold = 0.01;
  return p;
}

}  // namespace

AppResult run_kmeans(const AppContext& ctx) {
  const KmeansParams P = params_for(ctx.scale);
  alloc::Allocator& A = ctx.allocator();
  stm::Stm& stm = *ctx.stm;

  // ---- Sequential initialization (the only allocating phase) ----
  auto* points = static_cast<float*>(
      A.allocate(sizeof(float) * P.points * P.dims));
  auto* membership =
      static_cast<int*>(A.allocate(sizeof(int) * P.points));
  auto* centers = static_cast<float*>(
      A.allocate(sizeof(float) * P.clusters * P.dims));
  auto* new_centers = static_cast<float*>(
      A.allocate(sizeof(float) * P.clusters * P.dims));
  auto* new_counts = static_cast<std::uint64_t*>(
      A.allocate(sizeof(std::uint64_t) * P.clusters));
  {
    Rng rng(ctx.run.seed);
    for (int i = 0; i < P.points * P.dims; ++i) {
      points[i] = static_cast<float>(rng.uniform());
    }
    for (int i = 0; i < P.points; ++i) membership[i] = -1;
    for (int c = 0; c < P.clusters; ++c) {
      const int pick = static_cast<int>(rng.below(P.points));
      for (int d = 0; d < P.dims; ++d) {
        centers[c * P.dims + d] = points[pick * P.dims + d];
      }
    }
  }

  auto nearest = [&](const float* pt) {
    // Reads the full center table outside any transaction; ordered against
    // thread 0's recomputation by the phase barriers.
    TMX_NAKED_ACCESS(centers, sizeof(float) * P.clusters * P.dims, false);
    int best = 0;
    float best_d = 0;
    for (int c = 0; c < P.clusters; ++c) {
      float dist = 0;
      for (int d = 0; d < P.dims; ++d) {
        const float delta = pt[d] - centers[c * P.dims + d];
        dist += delta * delta;
      }
      if (c == 0 || dist < best_d) {
        best_d = dist;
        best = c;
      }
    }
    return best;
  };

  // ---- Parallel clustering ----
  sim::Barrier barrier(ctx.run.threads);
  std::atomic<int> moved{0};
  std::atomic<bool> done{false};
  std::atomic<int> iterations{0};

  const sim::RunResult rr = sim::run_parallel(ctx.run, [&](int tid) {
    alloc::RegionScope par(alloc::Region::Par);
    const int chunk = (P.points + ctx.run.threads - 1) / ctx.run.threads;
    const int lo = tid * chunk;
    const int hi = std::min(P.points, lo + chunk);
    for (int iter = 0; iter < P.max_iters; ++iter) {
      for (int i = lo; i < hi; ++i) {
        TMX_NAKED_ACCESS(&points[i * P.dims], sizeof(float) * P.dims, false);
        const int c = nearest(&points[i * P.dims]);
        TMX_NAKED_ACCESS(&membership[i], sizeof(int), false);
        if (c != membership[i]) {
          TMX_NAKED_ACCESS(&membership[i], sizeof(int), true);
          membership[i] = c;
          moved.fetch_add(1, std::memory_order_relaxed);
        }
        // One transaction per point: accumulate into the shared center
        // sums, as the STAMP kernel does.
        stm.atomically([&](stm::Tx& tx) {
          tx.store(&new_counts[c], tx.load(&new_counts[c]) + 1);
          for (int d = 0; d < P.dims; ++d) {
            float* cell = &new_centers[c * P.dims + d];
            tx.store(cell, tx.load(cell) + points[i * P.dims + d]);
          }
        });
      }
      barrier.arrive_and_wait();
      if (tid == 0) {
        // Thread 0 folds the transactional accumulators back into the
        // center table with plain stores; both barriers above/below order
        // this against every other thread's reads and transactions.
        TMX_NAKED_ACCESS(new_counts, sizeof(std::uint64_t) * P.clusters,
                         true);
        TMX_NAKED_ACCESS(new_centers, sizeof(float) * P.clusters * P.dims,
                         true);
        TMX_NAKED_ACCESS(centers, sizeof(float) * P.clusters * P.dims, true);
        for (int c = 0; c < P.clusters; ++c) {
          const std::uint64_t n = new_counts[c];
          if (n > 0) {
            for (int d = 0; d < P.dims; ++d) {
              centers[c * P.dims + d] =
                  new_centers[c * P.dims + d] / static_cast<float>(n);
              new_centers[c * P.dims + d] = 0;
            }
          }
          new_counts[c] = 0;
        }
        iterations.fetch_add(1);
        const double frac =
            static_cast<double>(moved.load()) / P.points;
        moved.store(0);
        if (frac < P.threshold) done.store(true);
      }
      barrier.arrive_and_wait();
      if (done.load()) break;
    }
  });

  // ---- Verification: every membership is the true nearest center ----
  bool ok = iterations.load() > 0;
  int mismatches = 0;
  for (int i = 0; i < P.points && ok; ++i) {
    if (membership[i] < 0 || membership[i] >= P.clusters) {
      ok = false;
      break;
    }
  }
  // Cluster sizes must sum to the point count.
  std::vector<int> sizes(P.clusters, 0);
  for (int i = 0; i < P.points; ++i) {
    if (membership[i] >= 0) ++sizes[membership[i]];
  }
  int total = 0;
  for (int s : sizes) total += s;
  if (total != P.points) ok = false;

  AppResult res;
  res.seconds = rr.seconds;
  res.stats = stm.stats();
  res.cache = rr.cache;
  res.verified = ok;
  res.detail = "iters=" + std::to_string(iterations.load()) +
               " mismatches=" + std::to_string(mismatches);

  A.deallocate(points);
  A.deallocate(membership);
  A.deallocate(centers);
  A.deallocate(new_centers);
  A.deallocate(new_counts);
  return res;
}

}  // namespace tmx::stamp
