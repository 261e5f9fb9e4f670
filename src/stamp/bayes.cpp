// STAMP Bayes port: learning the structure of a Bayesian network by
// parallel hill climbing.
//
// A ground-truth network over binary variables generates a data set; the
// learner starts from an empty graph and greedily inserts edges that
// improve the BIC score. Candidate edges are drawn from a transactional
// task queue; the (expensive) score delta is computed privately against
// the records, and the insertion commits transactionally after an
// acyclicity re-check against the current graph. Like the original, the
// workload is variance-prone — the paper keeps it "for completeness" and
// so do we.
#include <atomic>
#include <cmath>
#include <vector>

#include "alloc/instrument.hpp"
#include "stamp/app.hpp"
#include "structs/tx_queue.hpp"
#include "util/rng.hpp"

namespace tmx::stamp {
namespace {

struct BayesParams {
  int vars;
  int records;
  int max_parents;
  int rounds;  // passes over the shuffled candidate list
};

BayesParams params_for(double scale) {
  BayesParams p;
  p.vars = std::max(8, static_cast<int>(24 * std::sqrt(scale)));
  if (p.vars > 60) p.vars = 60;  // records are single-word bitsets
  p.records = std::max(128, static_cast<int>(1024 * scale));
  p.max_parents = 4;
  p.rounds = 2;
  return p;
}

// Parent-list node: a 16-byte transactional allocation per learned edge.
struct ParentNode {
  std::uint64_t var;
  ParentNode* next;
};
static_assert(sizeof(ParentNode) == 16);

struct Var {
  ParentNode* parents;
  std::uint64_t nparents;
  std::uint64_t version;  // bumped on every accepted insertion
  double score;           // cached family BIC score
};

struct Task {
  std::uint32_t from;
  std::uint32_t to;
};

}  // namespace

AppResult run_bayes(const AppContext& ctx) {
  const BayesParams P = params_for(ctx.scale);
  alloc::Allocator& A = ctx.allocator();
  stm::Stm& stm = *ctx.stm;
  const ds::SeqAccess seq{&A};

  // ---- Sequential: sample records from a random ground-truth net ----
  std::vector<std::uint64_t> records(P.records, 0);
  {
    Rng rng(ctx.seed);
    // Ground truth: vars in topological order 0..V-1, <=2 parents each.
    std::vector<std::vector<int>> gt_parents(P.vars);
    std::vector<std::vector<double>> gt_cpt(P.vars);
    for (int v = 1; v < P.vars; ++v) {
      const int np = static_cast<int>(rng.below(3));
      for (int k = 0; k < np && v > 0; ++k) {
        gt_parents[v].push_back(static_cast<int>(rng.below(v)));
      }
      gt_cpt[v].resize(std::size_t{1} << gt_parents[v].size());
      for (auto& pr : gt_cpt[v]) pr = 0.1 + 0.8 * rng.uniform();
    }
    gt_cpt[0] = {0.5};
    for (int r = 0; r < P.records; ++r) {
      std::uint64_t rec = 0;
      for (int v = 0; v < P.vars; ++v) {
        std::size_t cfg = 0;
        for (std::size_t k = 0; k < gt_parents[v].size(); ++k) {
          cfg |= ((rec >> gt_parents[v][k]) & 1) << k;
        }
        if (rng.uniform() < gt_cpt[v][cfg]) rec |= std::uint64_t{1} << v;
      }
      records[r] = rec;
    }
  }

  // The learned network: per-variable parent lists + cached scores.
  auto* net = static_cast<Var*>(A.allocate(sizeof(Var) * P.vars));

  // Family BIC score of `v` given an explicit parent set (private compute).
  auto family_score = [&](int v, const std::vector<int>& parents) {
    const std::size_t ncfg = std::size_t{1} << parents.size();
    std::vector<std::uint32_t> n1(ncfg, 0), n(ncfg, 0);
    for (const std::uint64_t rec : records) {
      std::size_t cfg = 0;
      for (std::size_t k = 0; k < parents.size(); ++k) {
        cfg |= ((rec >> parents[k]) & 1) << k;
      }
      ++n[cfg];
      n1[cfg] += (rec >> v) & 1;
    }
    double ll = 0.0;
    for (std::size_t c = 0; c < ncfg; ++c) {
      // Laplace smoothing keeps empty configurations finite.
      const double p1 = (n1[c] + 1.0) / (n[c] + 2.0);
      ll += n1[c] * std::log(p1) + (n[c] - n1[c]) * std::log(1.0 - p1);
    }
    const double penalty =
        0.5 * std::log(static_cast<double>(P.records)) *
        static_cast<double>(ncfg);
    return ll - penalty;
  };

  double initial_total = 0.0;
  for (int v = 0; v < P.vars; ++v) {
    net[v].parents = nullptr;
    net[v].nparents = 0;
    net[v].version = 0;
    net[v].score = family_score(v, {});
    initial_total += net[v].score;
  }

  // Candidate edges, shuffled, `rounds` passes.
  std::vector<Task> tasks;
  {
    Rng rng(ctx.seed ^ 0xbe5);
    for (int round = 0; round < P.rounds; ++round) {
      std::size_t first = tasks.size();
      for (int u = 0; u < P.vars; ++u) {
        for (int v = 0; v < P.vars; ++v) {
          if (u != v) tasks.push_back({static_cast<std::uint32_t>(u),
                                       static_cast<std::uint32_t>(v)});
        }
      }
      for (std::size_t i = tasks.size(); i > first + 1; --i) {
        std::swap(tasks[i - 1], tasks[first + rng.below(i - first)]);
      }
    }
  }
  ds::TxQueue queue(seq);
  for (Task& t : tasks) queue.push(seq, &t);

  std::atomic<int> edges_added{0};

  // Would adding u -> v close a cycle? True iff v is an ancestor of u.
  // Walks parent links transactionally. The walk's stack and visited set
  // are the caller's per-worker scratch: an abort jumps over this frame
  // without running destructors.
  auto creates_cycle = [&](const ds::TxAccess& acc, int u, int v,
                           std::vector<int>& stack, std::vector<bool>& seen) {
    stack.assign(1, u);
    seen.assign(static_cast<std::size_t>(P.vars), false);
    seen[u] = true;  // tmx-lint: allow(naked-store) — worker-private scratch
    while (!stack.empty()) {
      const int w = stack.back();
      stack.pop_back();
      if (w == v) return true;
      for (ParentNode* pn = acc.load(&net[w].parents); pn != nullptr;
           pn = acc.load(&pn->next)) {
        const int pv = static_cast<int>(acc.load(&pn->var));
        if (!seen[pv]) {
          // tmx-lint: allow(naked-store) — worker-private scratch
          seen[pv] = true;
          stack.push_back(pv);
        }
      }
    }
    return false;
  };

  // ---- Parallel: hill climbing ----
  const sim::RunResult rr = sim::run_parallel(ctx.run_config(), [&](int tid) {
    (void)tid;
    alloc::RegionScope par(alloc::Region::Par);
    std::vector<int> cycle_stack;  // creates_cycle scratch
    std::vector<bool> cycle_seen;
    for (;;) {
      void* item = nullptr;
      stm.atomically([&](stm::Tx& tx) {
        if (!queue.pop(ds::TxAccess{&tx}, &item)) item = nullptr;
      });
      if (item == nullptr) break;
      const Task task = *static_cast<Task*>(item);
      const int u = static_cast<int>(task.from);
      const int v = static_cast<int>(task.to);

      // Snapshot v's family (transactionally) for the private compute.
      std::vector<int> parents;
      std::uint64_t version = 0;
      double old_score = 0.0;
      bool viable = false;
      stm.atomically([&](stm::Tx& tx) {
        parents.clear();
        viable = false;
        const ds::TxAccess acc{&tx};
        if (acc.load(&net[v].nparents) >=
            static_cast<std::uint64_t>(P.max_parents)) {
          return;
        }
        for (ParentNode* pn = acc.load(&net[v].parents); pn != nullptr;
             pn = acc.load(&pn->next)) {
          const int pv = static_cast<int>(acc.load(&pn->var));
          if (pv == u) return;  // edge already present
          parents.push_back(pv);
        }
        version = acc.load(&net[v].version);
        old_score = acc.load(&net[v].score);
        viable = true;
      });
      if (!viable) continue;

      // Private: score the family with u added.
      std::vector<int> with_u = parents;
      with_u.push_back(u);
      const double new_score = family_score(v, with_u);
      if (new_score <= old_score + 1e-9) continue;

      // Commit: re-validate the family version and acyclicity, then
      // insert the parent node (a transactional 16-byte allocation).
      bool applied = false;
      stm.atomically([&](stm::Tx& tx) {
        applied = false;
        const ds::TxAccess acc{&tx};
        if (acc.load(&net[v].version) != version) return;  // stale compute
        if (creates_cycle(acc, u, v, cycle_stack, cycle_seen)) return;
        auto* pn = static_cast<ParentNode*>(acc.malloc(sizeof(ParentNode)));
        acc.store(&pn->var, static_cast<std::uint64_t>(u));
        acc.store(&pn->next, acc.load(&net[v].parents));
        acc.store(&net[v].parents, pn);
        acc.store(&net[v].nparents, acc.load(&net[v].nparents) + 1);
        acc.store(&net[v].version, version + 1);
        acc.store(&net[v].score, new_score);
        applied = true;
      });
      if (applied) edges_added.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // ---- Verification ----
  // (a) acyclic; (b) cached scores match recomputation; (c) total score
  // improved over the empty network.
  bool ok = true;
  {
    // Kahn's algorithm over parent counts.
    std::vector<int> indeg(P.vars, 0);
    std::vector<std::vector<int>> children(P.vars);
    for (int v = 0; v < P.vars; ++v) {
      for (ParentNode* pn = net[v].parents; pn != nullptr; pn = pn->next) {
        ++indeg[v];
        children[static_cast<int>(pn->var)].push_back(v);
      }
    }
    std::vector<int> ready;
    for (int v = 0; v < P.vars; ++v) {
      if (indeg[v] == 0) ready.push_back(v);
    }
    int seen = 0;
    while (!ready.empty()) {
      const int w = ready.back();
      ready.pop_back();
      ++seen;
      for (int c : children[w]) {
        if (--indeg[c] == 0) ready.push_back(c);
      }
    }
    if (seen != P.vars) ok = false;  // a cycle survived
  }
  double final_total = 0.0;
  for (int v = 0; v < P.vars && ok; ++v) {
    std::vector<int> parents;
    for (ParentNode* pn = net[v].parents; pn != nullptr; pn = pn->next) {
      parents.push_back(static_cast<int>(pn->var));
    }
    if (parents.size() > static_cast<std::size_t>(P.max_parents)) ok = false;
    const double expect = family_score(v, parents);
    if (std::abs(expect - net[v].score) > 1e-6) ok = false;
    final_total += net[v].score;
  }
  if (ok && edges_added.load() > 0 && final_total <= initial_total) {
    ok = false;
  }

  AppResult res;
  res.seconds = rr.seconds;
  res.stats = stm.stats();
  res.cache = rr.cache;
  res.verified = ok;
  res.detail = "edges=" + std::to_string(edges_added.load()) +
               " score " + std::to_string(initial_total) + "->" +
               std::to_string(final_total);

  for (int v = 0; v < P.vars; ++v) {
    ParentNode* pn = net[v].parents;
    while (pn != nullptr) {
      ParentNode* nx = pn->next;
      A.deallocate(pn);
      pn = nx;
    }
  }
  A.deallocate(net);
  queue.destroy(seq);
  return res;
}

}  // namespace tmx::stamp
