// STAMP Labyrinth port: Lee-style maze routing in a 3D grid.
//
// Threads pop route requests from a transactional queue, copy the grid
// transactionally into a large private buffer (the par-region >256-byte
// allocations dominating Labyrinth's Table 5 profile), expand a BFS wave
// privately, and commit the chosen path back through the STM. Conflicting
// paths abort and retry — the paper notes Hoard's false sharing on these
// buffers as the cause of its anomaly (Section 6).
#include <algorithm>
#include <atomic>
#include <vector>

#include "alloc/instrument.hpp"
#include "stamp/app.hpp"
#include "structs/tx_queue.hpp"
#include "util/rng.hpp"

namespace tmx::stamp {
namespace {

struct LabyrinthParams {
  int x, y, z;
  int routes;
};

LabyrinthParams params_for(double scale) {
  LabyrinthParams p;
  p.x = p.y = std::max(16, static_cast<int>(32 * scale));
  p.z = 3;
  p.routes = std::max(8, static_cast<int>(48 * scale));
  return p;
}

constexpr std::uint64_t kEmpty = 0;

struct Request {
  int src;
  int dst;
};

}  // namespace

AppResult run_labyrinth(const AppContext& ctx) {
  const LabyrinthParams P = params_for(ctx.scale);
  const int cells = P.x * P.y * P.z;
  alloc::Allocator& A = ctx.allocator();
  stm::Stm& stm = *ctx.stm;
  const ds::SeqAccess seq{&A};

  // Shared grid: 0 = empty, otherwise 1 + route id of the path occupying
  // the cell (endpoints included).
  auto* grid = static_cast<std::uint64_t*>(
      A.allocate(sizeof(std::uint64_t) * cells));
  for (int i = 0; i < cells; ++i) grid[i] = kEmpty;

  // Route endpoints: distinct random empty cells.
  std::vector<Request> requests(P.routes);
  {
    Rng rng(ctx.seed);
    std::vector<bool> used(cells, false);
    auto pick = [&] {
      for (;;) {
        const int c = static_cast<int>(rng.below(cells));
        if (!used[c]) {
          used[c] = true;
          return c;
        }
      }
    };
    for (auto& r : requests) {
      r.src = pick();
      r.dst = pick();
    }
  }

  ds::TxQueue work(seq);
  for (int i = 0; i < P.routes; ++i) {
    work.push(seq, &requests[i]);
  }

  const auto neighbors = [&](int c, int* out) {
    const int zi = c / (P.x * P.y);
    const int rem = c % (P.x * P.y);
    const int yi = rem / P.x;
    const int xi = rem % P.x;
    int n = 0;
    if (xi > 0) out[n++] = c - 1;
    if (xi + 1 < P.x) out[n++] = c + 1;
    if (yi > 0) out[n++] = c - P.x;
    if (yi + 1 < P.y) out[n++] = c + P.x;
    if (zi > 0) out[n++] = c - P.x * P.y;
    if (zi + 1 < P.z) out[n++] = c + P.x * P.y;
    return n;
  };

  std::atomic<int> routed{0};
  std::atomic<int> failed{0};

  const sim::RunResult rr = sim::run_parallel(ctx.run_config(), [&](int tid) {
    (void)tid;
    alloc::RegionScope par(alloc::Region::Par);
    // BFS scratch, kept outside the transaction: an abort jumps over the
    // body's frames without running destructors.
    std::vector<int> frontier;
    std::vector<int> next;
    for (;;) {
      void* item = nullptr;
      stm.atomically([&](stm::Tx& tx) {
        if (!work.pop(ds::TxAccess{&tx}, &item)) item = nullptr;
      });
      if (item == nullptr) break;
      const Request& req = *static_cast<Request*>(item);
      const std::uint64_t mark =
          1 + static_cast<std::uint64_t>(&req - requests.data());

      // Private wavefront buffer — the big par-region allocation.
      auto* dist = static_cast<std::int32_t*>(
          A.allocate(sizeof(std::int32_t) * cells));
      std::vector<int> path;
      bool ok = false;
      stm.atomically([&](stm::Tx& tx) {
        path.clear();
        // Transactionally snapshot the grid into the private buffer.
        for (int c = 0; c < cells; ++c) {
          // tmx-lint: allow(naked-store) — thread-private wavefront buffer
          dist[c] = tx.load(&grid[c]) == kEmpty ? -1 : -2;
        }
        if (dist[req.src] == -2 || dist[req.dst] == -2) {
          // Another committed path ran through an endpoint: unroutable.
          ok = false;
          return;
        }
        dist[req.src] = 0;  // tmx-lint: allow(naked-store) — private buffer
        // Private BFS expansion.
        frontier.assign(1, req.src);
        next.clear();
        bool reached = false;
        int nb[6];
        while (!frontier.empty() && !reached) {
          next.clear();
          for (int c : frontier) {
            const int n = neighbors(c, nb);
            for (int k = 0; k < n; ++k) {
              if (dist[nb[k]] == -1) {
                // tmx-lint: allow(naked-store) — private buffer
                dist[nb[k]] = dist[c] + 1;
                if (nb[k] == req.dst) {
                  reached = true;
                  break;
                }
                next.push_back(nb[k]);
              }
            }
            if (reached) break;
          }
          frontier.swap(next);
        }
        ok = reached;
        if (!reached) return;
        // Trace back and commit the path transactionally.
        int c = req.dst;
        while (c != req.src) {
          path.push_back(c);
          const int n = neighbors(c, nb);
          int best = -1;
          for (int k = 0; k < n; ++k) {
            if (dist[nb[k]] >= 0 && dist[nb[k]] == dist[c] - 1) {
              best = nb[k];
              break;
            }
          }
          // The snapshot is opaque, so the backtrace cannot dead-end.
          TMX_ASSERT(best >= 0);
          c = best;
        }
        path.push_back(req.src);
        for (int cell : path) {
          tx.store(&grid[cell], mark);
        }
      });
      A.deallocate(dist);
      (ok ? routed : failed).fetch_add(1, std::memory_order_relaxed);
    }
  });

  // ---- Verification: every committed path is connected and exclusive ----
  bool ok = routed.load() + failed.load() == P.routes && routed.load() > 0;
  for (int i = 0; i < P.routes && ok; ++i) {
    const std::uint64_t mark = 1 + static_cast<std::uint64_t>(i);
    std::vector<int> mine;
    for (int c = 0; c < cells; ++c) {
      if (grid[c] == mark) mine.push_back(c);
    }
    if (mine.empty()) continue;  // failed route
    // Path cells must include both endpoints and be connected.
    if (grid[requests[i].src] != mark || grid[requests[i].dst] != mark) {
      ok = false;
      break;
    }
    std::vector<int> stack{requests[i].src};
    std::vector<bool> seen(cells, false);
    seen[requests[i].src] = true;
    int reached = 1;
    int nb[6];
    while (!stack.empty()) {
      const int c = stack.back();
      stack.pop_back();
      const int n = neighbors(c, nb);
      for (int k = 0; k < n; ++k) {
        if (!seen[nb[k]] && grid[nb[k]] == mark) {
          seen[nb[k]] = true;
          ++reached;
          stack.push_back(nb[k]);
        }
      }
    }
    if (reached != static_cast<int>(mine.size()) ||
        !seen[requests[i].dst]) {
      ok = false;
    }
  }

  AppResult res;
  res.seconds = rr.seconds;
  res.stats = stm.stats();
  res.cache = rr.cache;
  res.verified = ok;
  res.detail = "routed=" + std::to_string(routed.load()) +
               " failed=" + std::to_string(failed.load());

  work.destroy(seq);
  A.deallocate(grid);
  return res;
}

}  // namespace tmx::stamp
