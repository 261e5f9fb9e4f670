// STAMP SSCA2 port: kernel 1 (graph construction) of the Scalable Synthetic
// Compact Applications benchmark 2.
//
// An R-MAT edge list is generated sequentially; threads then fill the
// compact adjacency arrays in parallel, using a transaction to reserve a
// slot index per edge (the kernel's only shared mutation). Like Kmeans,
// SSCA2 performs no transactional allocation (paper Table 5).
#include <algorithm>
#include <atomic>
#include <vector>

#include "alloc/instrument.hpp"
#include "stamp/app.hpp"
#include "util/rng.hpp"

namespace tmx::stamp {
namespace {

struct Ssca2Params {
  int vertices;
  int edges;
};

Ssca2Params params_for(double scale) {
  Ssca2Params p;
  int v = static_cast<int>(1024 * scale);
  if (v < 64) v = 64;
  // Round to a power of two (R-MAT recursion).
  int pow2 = 64;
  while (pow2 * 2 <= v) pow2 *= 2;
  p.vertices = pow2;
  p.edges = 8 * p.vertices;
  return p;
}

}  // namespace

AppResult run_ssca2(const AppContext& ctx) {
  const Ssca2Params P = params_for(ctx.scale);
  alloc::Allocator& A = ctx.allocator();
  stm::Stm& stm = *ctx.stm;

  // ---- Sequential: R-MAT edge generation ----
  auto* edge_u = static_cast<std::uint32_t*>(
      A.allocate(sizeof(std::uint32_t) * P.edges));
  auto* edge_v = static_cast<std::uint32_t*>(
      A.allocate(sizeof(std::uint32_t) * P.edges));
  {
    Rng rng(ctx.run.seed);
    const double a = 0.55, b = 0.10, c = 0.10;  // d = 0.25
    for (int e = 0; e < P.edges; ++e) {
      std::uint32_t u = 0, v = 0;
      for (int bit = P.vertices / 2; bit >= 1; bit /= 2) {
        const double r = rng.uniform();
        if (r < a) {
          // top-left quadrant: no bits set
        } else if (r < a + b) {
          v |= bit;
        } else if (r < a + b + c) {
          u |= bit;
        } else {
          u |= bit;
          v |= bit;
        }
      }
      edge_u[e] = u;
      edge_v[e] = v;
    }
  }

  // Degree counting + prefix sums (sequential, as in kernel 1 setup).
  auto* degree = static_cast<std::uint64_t*>(
      A.allocate(sizeof(std::uint64_t) * P.vertices));
  auto* base = static_cast<std::uint64_t*>(
      A.allocate(sizeof(std::uint64_t) * (P.vertices + 1)));
  auto* pos = static_cast<std::uint64_t*>(
      A.allocate(sizeof(std::uint64_t) * P.vertices));
  for (int i = 0; i < P.vertices; ++i) degree[i] = pos[i] = 0;
  for (int e = 0; e < P.edges; ++e) ++degree[edge_u[e]];
  base[0] = 0;
  for (int i = 0; i < P.vertices; ++i) base[i + 1] = base[i] + degree[i];
  auto* adj = static_cast<std::uint32_t*>(
      A.allocate(sizeof(std::uint32_t) * P.edges));

  // ---- Parallel: slot reservation per edge via a transaction ----
  const sim::RunResult rr = sim::run_parallel(ctx.run, [&](int tid) {
    alloc::RegionScope par(alloc::Region::Par);
    const int chunk = (P.edges + ctx.run.threads - 1) / ctx.run.threads;
    const int lo = tid * chunk;
    const int hi = std::min(P.edges, lo + chunk);
    for (int e = lo; e < hi; ++e) {
      const std::uint32_t u = edge_u[e];
      std::uint64_t slot = 0;
      stm.atomically([&](stm::Tx& tx) {
        slot = tx.load(&pos[u]);
        tx.store(&pos[u], slot + 1);
      });
      adj[base[u] + slot] = edge_v[e];  // slot is privately owned now
    }
  });

  // ---- Verification: adjacency content equals the edge multiset ----
  bool ok = true;
  for (int i = 0; i < P.vertices && ok; ++i) {
    if (pos[i] != degree[i]) ok = false;
  }
  if (ok) {
    std::vector<std::uint32_t> want, got;
    for (int i = 0; i < P.vertices && ok; ++i) {
      want.clear();
      got.clear();
      for (int e = 0; e < P.edges; ++e) {
        if (edge_u[e] == static_cast<std::uint32_t>(i)) {
          want.push_back(edge_v[e]);
        }
      }
      for (std::uint64_t s = base[i]; s < base[i + 1]; ++s) {
        got.push_back(adj[s]);
      }
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      if (want != got) ok = false;
    }
  }

  AppResult res;
  res.seconds = rr.seconds;
  res.stats = stm.stats();
  res.cache = rr.cache;
  res.verified = ok;
  res.detail = "V=" + std::to_string(P.vertices) +
               " E=" + std::to_string(P.edges);

  A.deallocate(edge_u);
  A.deallocate(edge_v);
  A.deallocate(degree);
  A.deallocate(base);
  A.deallocate(pos);
  A.deallocate(adj);
  return res;
}

}  // namespace tmx::stamp
