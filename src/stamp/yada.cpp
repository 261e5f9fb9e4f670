// STAMP Yada port: Ruppert-style Delaunay mesh refinement.
//
// The initial mesh is built sequentially by incremental Bowyer-Watson
// insertion of random points into a super-triangle. Refinement threads pop
// poor-quality triangles from a transactional work queue, insert the
// triangle's circumcenter by carving the Delaunay cavity — removing the
// cavity triangles (transactional frees) and allocating the fan of new
// triangles (transactional mallocs) — exactly the alloc/free-heavy,
// high-abort transactional profile the paper reports for Yada.
//
// The same cavity code is instantiated with SeqAccess for construction and
// TxAccess for refinement. Triangles referenced by the work queue are
// never freed by cavity carving; they are marked dead and reclaimed by
// whichever thread pops them (STAMP's garbage-flag protocol).
#include <atomic>
#include <cmath>
#include <vector>

#include "alloc/instrument.hpp"
#include "stamp/app.hpp"
#include "structs/tx_queue.hpp"
#include "util/rng.hpp"

namespace tmx::stamp {
namespace {

struct YadaParams {
  int points;
  double min_angle_deg;  // triangles below this are refined
  int max_insertions;
};

YadaParams params_for(double scale) {
  YadaParams p;
  p.points = std::max(64, static_cast<int>(400 * scale));
  p.min_angle_deg = 18.0;
  p.max_insertions = 6 * p.points;
  return p;
}

struct Pt {
  double x, y;
};

// A mesh triangle. v[] are point-pool indices (immutable after creation);
// nbr[k] is the triangle across edge (v[k], v[(k+1)%3]); flags are mutated
// transactionally during refinement.
struct Tri {
  std::uint64_t v[3];
  Tri* nbr[3];
  std::uint64_t dead;
  std::uint64_t in_queue;
};
static_assert(sizeof(Tri) == 64);

double orient(const Pt& a, const Pt& b, const Pt& c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

// d strictly inside the circumcircle of CCW triangle (a,b,c).
bool in_circle(const Pt& a, const Pt& b, const Pt& c, const Pt& d) {
  const double ax = a.x - d.x, ay = a.y - d.y;
  const double bx = b.x - d.x, by = b.y - d.y;
  const double cx = c.x - d.x, cy = c.y - d.y;
  const double det =
      (ax * ax + ay * ay) * (bx * cy - cx * by) -
      (bx * bx + by * by) * (ax * cy - cx * ay) +
      (cx * cx + cy * cy) * (ax * by - bx * ay);
  return det > 1e-12;
}

Pt circumcenter(const Pt& a, const Pt& b, const Pt& c) {
  const double d =
      2.0 * ((a.x - c.x) * (b.y - c.y) - (b.x - c.x) * (a.y - c.y));
  const double a2 = a.x * a.x + a.y * a.y - c.x * c.x - c.y * c.y;
  const double b2 = b.x * b.x + b.y * b.y - c.x * c.x - c.y * c.y;
  Pt o;
  o.x = (a2 * (b.y - c.y) - b2 * (a.y - c.y)) / d;
  o.y = (b2 * (a.x - c.x) - a2 * (b.x - c.x)) / d;
  return o;
}

double min_angle_of(const Pt& a, const Pt& b, const Pt& c) {
  auto angle = [](const Pt& u, const Pt& v, const Pt& w) {
    const double ux = v.x - u.x, uy = v.y - u.y;
    const double wx = w.x - u.x, wy = w.y - u.y;
    const double dot = ux * wx + uy * wy;
    const double nu = std::sqrt(ux * ux + uy * uy);
    const double nw = std::sqrt(wx * wx + wy * wy);
    if (nu == 0 || nw == 0) return 0.0;
    double cosv = dot / (nu * nw);
    cosv = std::max(-1.0, std::min(1.0, cosv));
    return std::acos(cosv);
  };
  return std::min({angle(a, b, c), angle(b, c, a), angle(c, a, b)}) * 180.0 /
         M_PI;
}

// The whole mesh state shared by construction and refinement.
struct Mesh {
  std::vector<Pt> points;               // pre-reserved; append-only
  std::atomic<std::uint64_t> npoints{0};
  Tri* seed = nullptr;                  // some live triangle (for walks)
  std::uint64_t super[3] = {0, 1, 2};   // super-triangle vertex indices
  double min_angle = 18.0;

  bool touches_super(const Tri* t, std::uint64_t v0, std::uint64_t v1,
                     std::uint64_t v2) const {
    for (std::uint64_t v : {v0, v1, v2}) {
      if (v <= 2) return true;
    }
    (void)t;
    return false;
  }

  std::uint64_t add_point(const Pt& p) {
    const std::uint64_t idx =
        npoints.fetch_add(1, std::memory_order_relaxed);
    TMX_ASSERT_MSG(idx < points.size(), "yada point pool exhausted");
    points[idx] = p;
    return idx;
  }
};

// Walks from `start` to a live triangle containing `p`. Uses the
// *stochastic* visibility walk: when several edges separate the triangle
// from `p`, one is chosen at random — the deterministic variant can cycle
// on meshes that are not exactly Delaunay (ours drifts slightly from
// Delaunay because of the strict-epsilon in-circle test), and a cycling
// walk would retry identically forever. Returns nullptr if the walk leaves
// the mesh or exceeds its step budget.
template <typename A>
Tri* locate(const A& acc, Mesh& m, Tri* start, const Pt& p, Rng& rng) {
  const std::uint64_t npts = m.npoints.load(std::memory_order_acquire);
  Tri* t = start;
  for (int steps = 0; steps < 20000 && t != nullptr; ++steps) {
    if (acc.load(&t->dead) != 0) return nullptr;  // raced with a carve
    std::uint64_t v0 = t->v[0], v1 = t->v[1], v2 = t->v[2];
    // v[] is read raw (immutable for live triangles); if this triangle was
    // freed and recycled by a *committed* concurrent carve, the indices
    // can be garbage for a moment before the transactional reads abort
    // us — never index the point pool with them.
    if (v0 >= npts || v1 >= npts || v2 >= npts) return nullptr;
    const Pt a = m.points[v0], b = m.points[v1], c = m.points[v2];
    int out[3];
    int n = 0;
    // tmx-lint: allow(naked-store) — `out` is a local array
    if (orient(a, b, p) < 0) out[n++] = 0;
    if (orient(b, c, p) < 0) out[n++] = 1;  // tmx-lint: allow(naked-store)
    if (orient(c, a, p) < 0) out[n++] = 2;
    if (n == 0) return t;
    t = acc.load(&t->nbr[out[n == 1 ? 0 : rng.below(n)]]);
  }
  return nullptr;
}

struct Boundary {
  std::uint64_t a, b;  // oriented edge, cavity interior to the left
  Tri* outside;        // neighbor across (may be null on the hull)
  std::uint64_t out_edge;
};

// Per-worker buffers of insert_point, kept outside the transaction: an
// abort jumps over the body's frames without running destructors, so a
// transaction holds no vector of its own. insert_point clears them first.
struct CavityScratch {
  std::vector<Tri*> cavity;
  std::vector<Tri*> stack;
  std::vector<Boundary> boundary;
  std::vector<Boundary> real_boundary;
  std::vector<Tri*> fresh;  // the new triangles, once insert_point succeeds
};

// Inserts point index `pi` into the mesh by cavity carving, starting the
// location walk at `hint`. On success the new triangles are in `s.fresh`.
// Returns false if the point could not be located.
template <typename A>
bool insert_point(const A& acc, Mesh& m, Tri* hint, std::uint64_t pi,
                  CavityScratch& s, Rng& rng) {
  s.cavity.clear();
  s.stack.clear();
  s.boundary.clear();
  s.real_boundary.clear();
  s.fresh.clear();
  const Pt p = m.points[pi];
  Tri* t0 = locate(acc, m, hint, p, rng);
  if (t0 == nullptr) return false;

  // Cavity BFS: all live triangles whose circumcircle contains p.
  std::vector<Tri*>& cavity = s.cavity;
  std::vector<Tri*>& stack = s.stack;
  cavity.push_back(t0);
  stack.push_back(t0);
  auto in_cavity = [&](Tri* t) {
    for (Tri* c : cavity) {
      if (c == t) return true;
    }
    return false;
  };
  std::vector<Boundary>& boundary = s.boundary;
  while (!stack.empty()) {
    Tri* t = stack.back();
    stack.pop_back();
    for (int k = 0; k < 3; ++k) {
      Tri* n = acc.load(&t->nbr[k]);
      if (n != nullptr && !in_cavity(n)) {
        const std::uint64_t npts = m.npoints.load(std::memory_order_acquire);
        const std::uint64_t w0 = n->v[0], w1 = n->v[1], w2 = n->v[2];
        if (w0 >= npts || w1 >= npts || w2 >= npts) {
          // Recycled under us: the transactional nbr read that led here is
          // already stale, so the transaction will abort at its next
          // validation; just avoid touching the point pool meanwhile.
          continue;
        }
        const Pt a = m.points[w0];
        const Pt b = m.points[w1];
        const Pt c = m.points[w2];
        if (in_circle(a, b, c, p)) {
          cavity.push_back(n);
          stack.push_back(n);
          continue;
        }
      }
      if (n == nullptr || !in_cavity(n)) {
        // Find n's edge index facing us for the backlink fix-up.
        std::uint64_t oe = 0;
        if (n != nullptr) {
          for (int j = 0; j < 3; ++j) {
            if (acc.load(&n->nbr[j]) == t) oe = static_cast<std::uint64_t>(j);
          }
        }
        boundary.push_back(
            Boundary{t->v[k], t->v[(k + 1) % 3], n, oe});
      }
    }
  }
  // Note: edges between two cavity members are interior and vanish. The
  // loop above may have classified an edge as boundary before its neighbor
  // joined the cavity; filter those out now.
  std::vector<Boundary>& real_boundary = s.real_boundary;
  for (const Boundary& e : boundary) {
    if (e.outside == nullptr || !in_cavity(e.outside)) {
      real_boundary.push_back(e);
    }
  }

  // Carve: mark cavity triangles dead; free them unless the work queue
  // still references them (the popper frees those).
  for (Tri* t : cavity) {
    acc.store(&t->dead, std::uint64_t{1});
    if (acc.load(&t->in_queue) == 0) {
      acc.free(t);
    }
  }

  // Re-triangulate: a fan of (p, a, b) triangles over the boundary.
  std::vector<Tri*>& fresh = s.fresh;
  for (const Boundary& e : real_boundary) {
    auto* nt = static_cast<Tri*>(acc.malloc(sizeof(Tri)));
    // Immutable fields can be written raw: the triangle is private until it
    // is linked below. tmx-lint: allow(naked-store)
    nt->v[0] = pi;
    nt->v[1] = e.a;  // tmx-lint: allow(naked-store)
    nt->v[2] = e.b;
    acc.store(&nt->dead, std::uint64_t{0});
    acc.store(&nt->in_queue, std::uint64_t{0});
    acc.store(&nt->nbr[1], e.outside);
    acc.store(&nt->nbr[0], static_cast<Tri*>(nullptr));
    acc.store(&nt->nbr[2], static_cast<Tri*>(nullptr));
    if (e.outside != nullptr) {
      acc.store(&e.outside->nbr[e.out_edge], nt);
    }
    fresh.push_back(nt);
  }
  // Link the fan internally: edge 0 of T=(p,a,b) is (p,a) and matches edge
  // 2 (b',p) of the fan triangle with b' == a.
  for (Tri* t : fresh) {
    for (Tri* u : fresh) {
      if (u->v[2] == t->v[1]) {  // u's b == t's a
        acc.store(&t->nbr[0], u);
        acc.store(&u->nbr[2], t);
      }
    }
  }
  TMX_ASSERT(!fresh.empty());
  // Keep the mesh's live-seed pointer valid: if the carve removed the
  // current seed, repoint it at one of the new triangles.
  if (in_cavity(acc.load(&m.seed))) {
    acc.store(&m.seed, fresh[0]);
  }
  return true;
}

}  // namespace

AppResult run_yada(const AppContext& ctx) {
  const YadaParams P = params_for(ctx.scale);
  alloc::Allocator& A = ctx.allocator();
  stm::Stm& stm = *ctx.stm;
  const ds::SeqAccess seq{&A};

  // Probed root (the live-seed pointer): it lives in the run's address
  // space.
  const auto mesh_root = sim::make_region<Mesh>();
  Mesh& mesh = *mesh_root;
  mesh.min_angle = P.min_angle_deg;
  mesh.points.resize(3 + P.points + P.max_insertions + 16);

  // ---- Sequential: super-triangle + incremental Delaunay construction ----
  mesh.points[0] = {-100.0, -100.0};
  mesh.points[1] = {100.0, -100.0};
  mesh.points[2] = {0.0, 200.0};
  mesh.npoints.store(3);
  {
    auto* root = static_cast<Tri*>(A.allocate(sizeof(Tri)));
    root->v[0] = 0;
    root->v[1] = 1;
    root->v[2] = 2;
    root->nbr[0] = root->nbr[1] = root->nbr[2] = nullptr;
    root->dead = 0;
    root->in_queue = 0;
    mesh.seed = root;
  }
  {
    Rng rng(ctx.run.seed);
    Tri* hint = mesh.seed;
    CavityScratch scratch;
    for (int i = 0; i < P.points; ++i) {
      const Pt p{rng.uniform() * 2.0 - 1.0, rng.uniform() * 2.0 - 1.0};
      const std::uint64_t pi = mesh.add_point(p);
      const bool ok = insert_point(seq, mesh, hint, pi, scratch, rng);
      TMX_ASSERT_MSG(ok, "sequential Delaunay insertion failed");
      hint = scratch.fresh.back();
    }
  }

  // Collect the initial bad triangles by flood fill over the live mesh.
  auto flood_live = [&](std::vector<Tri*>& out) {
    out.clear();
    std::vector<Tri*> stack{mesh.seed};
    std::vector<const Tri*> seen;
    auto mark = [&](Tri* t) {
      for (const Tri* s : seen) {
        if (s == t) return false;
      }
      seen.push_back(t);
      return true;
    };
    mark(mesh.seed);
    while (!stack.empty()) {
      Tri* t = stack.back();
      stack.pop_back();
      out.push_back(t);
      for (Tri* n : t->nbr) {
        if (n != nullptr && mark(n)) stack.push_back(n);
      }
    }
  };
  auto is_bad = [&](const Tri* t) {
    if (t->v[0] <= 2 || t->v[1] <= 2 || t->v[2] <= 2) return false;
    return min_angle_of(mesh.points[t->v[0]], mesh.points[t->v[1]],
                        mesh.points[t->v[2]]) < mesh.min_angle;
  };

  // Probed root: it lives in the run's address space.
  const auto work_root = sim::make_region<ds::TxQueue>(seq);
  ds::TxQueue& work = *work_root;
  std::size_t initial_bad = 0;
  {
    std::vector<Tri*> live;
    flood_live(live);
    for (Tri* t : live) {
      if (is_bad(t)) {
        t->in_queue = 1;
        work.push(seq, t);
        ++initial_bad;
      }
    }
  }

  // One point slot can be consumed per queue pop; resize the pool to the
  // worst case now that the initial queue length is known.
  mesh.points.resize(3 + P.points + initial_bad + 8 * P.max_insertions + 64);

  std::atomic<int> insertions{0};
  std::atomic<int> skipped{0};

  // ---- Parallel: refinement ----
  const sim::RunResult rr = sim::run_parallel(ctx.run, [&](int tid) {
    alloc::RegionScope par(alloc::Region::Par);
    Rng rng(thread_seed(ctx.run.seed ^ 0xda7a, tid));
    CavityScratch scratch;
    for (;;) {
      if (insertions.load(std::memory_order_relaxed) >= P.max_insertions) {
        break;
      }
      void* item = nullptr;
      stm.atomically([&](stm::Tx& tx) {
        if (!work.pop(ds::TxAccess{&tx}, &item)) item = nullptr;
      });
      if (item == nullptr) break;
      auto* bad = static_cast<Tri*>(item);

      bool inserted = false;
      bool was_dead = false;
      bool out_of_domain = false;
      // The point-pool slot is allocated once per pop and *reused* across
      // transaction retries: the pool append is not transactional, so
      // allocating inside the retry loop would leak a slot per abort.
      std::uint64_t pi = ~std::uint64_t{0};
      // Near-degenerate slivers can defeat the location walk: inconsistent
      // floating-point orientation signs make it ping-pong between two
      // triangles with a single exit edge each, so even the stochastic
      // walk cannot escape. After a few failed walks, skip the triangle
      // rather than retrying the identical geometry forever.
      int walk_failures = 0;
      stm.atomically([&](stm::Tx& tx) {
        inserted = was_dead = out_of_domain = false;
        const ds::TxAccess acc{&tx};
        if (acc.load(&bad->dead) != 0) {
          // Carved away by a neighbor's refinement: reclaim it.
          acc.free(bad);
          was_dead = true;
          return;
        }
        acc.store(&bad->in_queue, std::uint64_t{0});
        const Pt a = mesh.points[bad->v[0]];
        const Pt b = mesh.points[bad->v[1]];
        const Pt c = mesh.points[bad->v[2]];
        const Pt cc = circumcenter(a, b, c);
        // Boundary handling (simplified Ruppert): skip circumcenters
        // escaping the domain instead of splitting boundary segments.
        if (cc.x < -1.05 || cc.x > 1.05 || cc.y < -1.05 || cc.y > 1.05) {
          out_of_domain = true;
          return;
        }
        if (walk_failures >= 3) {
          out_of_domain = true;  // unlocatable: skip, counted as such
          return;
        }
        if (pi == ~std::uint64_t{0}) {
          pi = mesh.add_point(cc);
        } else {
          // The slot was appended by this very transaction's earlier
          // attempt and nothing committed references it yet: still private.
          // tmx-lint: allow(naked-store)
          mesh.points[pi] = cc;  // retry recomputed the circumcenter
        }
        if (!insert_point(acc, mesh, bad, pi, scratch, rng)) {
          ++walk_failures;
          tx.restart();  // walk raced with a carve, or geometry defeated it
        }
        for (Tri* t : scratch.fresh) {
          if (is_bad(t)) {
            acc.store(&t->in_queue, std::uint64_t{1});
            work.push(acc, t);
          }
        }
        inserted = true;
      });
      if (was_dead) continue;  // reclaimed, not an insertion attempt
      if (out_of_domain) {
        skipped.fetch_add(1, std::memory_order_relaxed);
      } else if (inserted) {
        insertions.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Drain the queue (sequentially): left-over entries are either dead
  // triangles to reclaim or bad triangles beyond the insertion budget.
  {
    void* item = nullptr;
    while (work.pop(seq, &item)) {
      auto* t = static_cast<Tri*>(item);
      if (t->dead != 0) {
        A.deallocate(t);
      } else {
        t->in_queue = 0;
      }
    }
  }

  // ---- Verification ----
  std::vector<Tri*> live;
  flood_live(live);
  bool ok = true;
  std::size_t final_bad = 0;
  for (Tri* t : live) {
    if (t->dead != 0) {
      ok = false;  // dead triangle reachable from the live mesh
      break;
    }
    const Pt a = mesh.points[t->v[0]];
    const Pt b = mesh.points[t->v[1]];
    const Pt c = mesh.points[t->v[2]];
    if (orient(a, b, c) <= 0) {
      ok = false;  // orientation must stay CCW
      break;
    }
    for (int k = 0; k < 3; ++k) {
      Tri* n = t->nbr[k];
      if (n == nullptr) continue;
      // Neighbor symmetry: n must link back to t over the shared edge.
      bool back = false;
      for (int j = 0; j < 3; ++j) {
        if (n->nbr[j] == t) back = true;
      }
      if (!back || n->dead != 0) {
        ok = false;
        break;
      }
    }
    if (!ok) break;
    if (is_bad(t)) ++final_bad;
  }
  // Euler check: a triangulation of V points inside a triangle has
  // 2*Vin + 1 triangles (counting super-triangle corners as hull).
  const std::uint64_t vin =
      static_cast<std::uint64_t>(P.points) +
      static_cast<std::uint64_t>(insertions.load());
  if (ok && live.size() != 2 * vin + 1) ok = false;
  // Refinement must have made progress: every remaining bad triangle is
  // explained by a skipped (out-of-domain) insertion or budget exhaustion.
  if (ok && insertions.load() < P.max_insertions &&
      final_bad > static_cast<std::size_t>(skipped.load())) {
    ok = false;
  }

  AppResult res;
  res.seconds = rr.seconds;
  res.stats = stm.stats();
  res.cache = rr.cache;
  res.verified = ok;
  res.detail = "tris=" + std::to_string(live.size()) +
               " bad " + std::to_string(initial_bad) + "->" +
               std::to_string(final_bad) +
               " ins=" + std::to_string(insertions.load()) +
               " skip=" + std::to_string(skipped.load());

  for (Tri* t : live) A.deallocate(t);
  work.destroy(seq);
  return res;
}

}  // namespace tmx::stamp
