// STAMP Intruder port: signature-based network intrusion detection.
//
// Flows are split into fragments and shuffled into a shared packet queue.
// Each thread loops: (capture) transactionally pop a fragment; (reassembly)
// transactionally file it under its flow in a red-black tree of sessions;
// the thread completing a flow privatizes it, rebuilds the payload and
// frees the fragments *outside* any transaction — the privatization
// pattern the paper highlights in Intruder's Table 5 row (memory allocated
// in tx, freed in par); (detection) scans the payload for the attack
// signature.
#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "alloc/instrument.hpp"
#include "stamp/app.hpp"
#include "structs/tx_queue.hpp"
#include "structs/tx_rbtree.hpp"
#include "util/rng.hpp"

namespace tmx::stamp {
namespace {

struct IntruderParams {
  int flows;
  int max_fragments;  // per flow
  int payload_len;    // bytes per flow
  double attack_pct;
};

IntruderParams params_for(double scale) {
  // Paper config: -a10 -l128 -n262144; scaled down.
  IntruderParams p;
  p.flows = std::max(64, static_cast<int>(1024 * scale));
  p.max_fragments = 8;
  p.payload_len = 64;
  p.attack_pct = 0.10;
  return p;
}

const char kSignature[] = "ATTACK";

// A fragment in flight. Allocated transactionally by the generator's
// design in STAMP; here fragments are pre-allocated sequentially (the
// capture phase of STAMP also receives a pre-built packet stream) and the
// *session nodes* are the transactional allocations.
struct Fragment {
  std::uint64_t flow_id;
  std::uint64_t index;
  std::uint64_t count;  // fragments in this flow
  std::uint64_t length;
  char* data;
  Fragment* next_free;  // intrusive, for teardown only
};

// Per-flow reassembly session, kept in a transactional rbtree keyed by
// flow id. The fragment slots are written transactionally as fragments
// arrive; `arrived` counts them.
struct Session {
  std::uint64_t arrived;
  Fragment* slots[1];  // flexible: count entries (allocated accordingly)
};

}  // namespace

AppResult run_intruder(const AppContext& ctx) {
  const IntruderParams P = params_for(ctx.scale);
  alloc::Allocator& A = ctx.allocator();
  stm::Stm& stm = *ctx.stm;
  const ds::SeqAccess seq{&A};

  // ---- Sequential: generate flows, fragment and shuffle them ----
  std::vector<std::string> payloads(P.flows);
  std::vector<Fragment*> fragments;
  int attacks_planted = 0;
  {
    Rng rng(ctx.run.seed);
    for (int f = 0; f < P.flows; ++f) {
      std::string& pl = payloads[f];
      pl.resize(P.payload_len);
      for (auto& ch : pl) {
        ch = static_cast<char>('a' + rng.below(26));
      }
      if (rng.chance(P.attack_pct)) {
        const std::size_t pos =
            rng.below(pl.size() - (sizeof(kSignature) - 1));
        std::memcpy(&pl[pos], kSignature, sizeof(kSignature) - 1);
        ++attacks_planted;
      }
      const int nfrag =
          1 + static_cast<int>(rng.below(P.max_fragments));
      const int frag_len = (P.payload_len + nfrag - 1) / nfrag;
      for (int i = 0; i < nfrag; ++i) {
        auto* frag = static_cast<Fragment*>(A.allocate(sizeof(Fragment)));
        frag->flow_id = static_cast<std::uint64_t>(f + 1);
        frag->index = static_cast<std::uint64_t>(i);
        frag->count = static_cast<std::uint64_t>(nfrag);
        const int off = i * frag_len;
        const int len = std::min(frag_len, P.payload_len - off);
        frag->length = static_cast<std::uint64_t>(len);
        frag->data = static_cast<char*>(A.allocate(len > 0 ? len : 1));
        std::memcpy(frag->data, pl.data() + off, len);
        frag->next_free = nullptr;
        fragments.push_back(frag);
      }
    }
    // Shuffle so fragments of one flow interleave across the stream.
    for (std::size_t i = fragments.size(); i > 1; --i) {
      std::swap(fragments[i - 1], fragments[rng.below(i)]);
    }
  }

  // Probed roots: they live in the run's address space.
  const auto packets_root = sim::make_region<ds::TxQueue>(seq);
  ds::TxQueue& packets = *packets_root;
  for (Fragment* f : fragments) packets.push(seq, f);

  const auto sessions_root = sim::make_region<ds::TxRbTree>();
  ds::TxRbTree& sessions = *sessions_root;  // flow id -> Session*
  std::atomic<int> attacks_found{0};
  std::atomic<int> flows_done{0};

  // ---- Parallel: capture / reassemble / detect ----
  const sim::RunResult rr = sim::run_parallel(ctx.run, [&](int tid) {
    (void)tid;
    alloc::RegionScope par(alloc::Region::Par);
    for (;;) {
      void* item = nullptr;
      stm.atomically([&](stm::Tx& tx) {
        if (!packets.pop(ds::TxAccess{&tx}, &item)) item = nullptr;
      });
      if (item == nullptr) break;
      auto* frag = static_cast<Fragment*>(item);

      // Reassembly: file the fragment; the completing thread takes the
      // whole session out of the tree (privatization).
      Session* complete = nullptr;
      stm.atomically([&](stm::Tx& tx) {
        complete = nullptr;
        const ds::TxAccess acc{&tx};
        std::uint64_t vs = 0;
        Session* s;
        if (sessions.lookup(acc, frag->flow_id, &vs)) {
          s = reinterpret_cast<Session*>(vs);
        } else {
          const std::size_t bytes =
              sizeof(Session) + (frag->count - 1) * sizeof(Fragment*);
          s = static_cast<Session*>(acc.malloc(bytes));
          acc.store(&s->arrived, std::uint64_t{0});
          for (std::uint64_t i = 0; i < frag->count; ++i) {
            acc.store(&s->slots[i], static_cast<Fragment*>(nullptr));
          }
          sessions.insert(acc, frag->flow_id,
                          reinterpret_cast<std::uint64_t>(s));
        }
        acc.store(&s->slots[frag->index], frag);
        const std::uint64_t arrived = acc.load(&s->arrived) + 1;
        acc.store(&s->arrived, arrived);
        if (arrived == frag->count) {
          sessions.remove(acc, frag->flow_id);
          complete = s;  // privatized: ours alone after commit
        }
      });
      if (complete == nullptr) continue;

      // Detection (private): rebuild the payload, free the fragments in
      // the parallel region — the privatization pattern.
      std::string payload;
      const std::uint64_t count = complete->slots[0]->count;
      for (std::uint64_t i = 0; i < count; ++i) {
        Fragment* fr = complete->slots[i];
        payload.append(fr->data, fr->length);
      }
      if (payload.find(kSignature) != std::string::npos) {
        attacks_found.fetch_add(1, std::memory_order_relaxed);
      }
      for (std::uint64_t i = 0; i < count; ++i) {
        Fragment* fr = complete->slots[i];
        A.deallocate(fr->data);
        A.deallocate(fr);
      }
      A.deallocate(complete);
      flows_done.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // ---- Verification ----
  const bool ok = flows_done.load() == P.flows &&
                  attacks_found.load() == attacks_planted &&
                  sessions.size_seq() == 0 && packets.size_seq() == 0;

  AppResult res;
  res.seconds = rr.seconds;
  res.stats = stm.stats();
  res.cache = rr.cache;
  res.verified = ok;
  res.detail = "flows=" + std::to_string(flows_done.load()) + "/" +
               std::to_string(P.flows) +
               " attacks=" + std::to_string(attacks_found.load()) + "/" +
               std::to_string(attacks_planted);

  packets.destroy(seq);
  sessions.destroy(seq);
  return res;
}

}  // namespace tmx::stamp
