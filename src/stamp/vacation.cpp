// STAMP Vacation port: an in-memory travel reservation system.
//
// The database is four transactional red-black trees (cars, flights, rooms,
// customers). Client threads run three kinds of transactions, per the
// paper's higher-contention recommended configuration: make-reservation
// (query several items, reserve one of each type), delete-customer, and
// update-tables (the manager adding/removing resources). Reservation
// records are small transactional allocations (Table 5: 16/32-byte classes
// in tx), and customers keep a linked reservation list.
#include <atomic>
#include <vector>

#include "alloc/instrument.hpp"
#include "stamp/app.hpp"
#include "structs/tx_list.hpp"
#include "structs/tx_rbtree.hpp"
#include "util/rng.hpp"

namespace tmx::stamp {
namespace {

struct VacationParams {
  int relations;      // rows per resource table
  int transactions;   // total, divided among threads (as in STAMP)
  int queries;        // items examined per reservation
  int query_range;    // fraction of the table queried (percent)
  int user_pct;       // percentage of make-reservation transactions
};

VacationParams params_for(double scale) {
  // Models the paper's high-contention config (-n4 -q60 -u90 -r1048576
  // -t4194304), scaled down proportionally.
  VacationParams p;
  p.relations = std::max(64, static_cast<int>(1024 * scale));
  p.transactions = std::max(64, static_cast<int>(2048 * scale));
  p.queries = 4;
  p.query_range = 60;
  p.user_pct = 90;
  return p;
}

enum ResourceKind { kCar = 0, kFlight = 1, kRoom = 2 };
constexpr int kNumKinds = 3;

// A row in a resource table. Fields are mutated transactionally.
struct Resource {
  std::uint64_t id;
  std::uint64_t total;
  std::uint64_t used;
  std::uint64_t price;
};

// One reservation held by a customer: a 16-byte transactional allocation.
struct Reservation {
  std::uint64_t key;  // kind * table_size + resource id
  Reservation* next;
};
static_assert(sizeof(Reservation) == 16);

struct Customer {
  std::uint64_t id;
  Reservation* list;
};

}  // namespace

AppResult run_vacation(const AppContext& ctx) {
  const VacationParams P = params_for(ctx.scale);
  alloc::Allocator& A = ctx.allocator();
  stm::Stm& stm = *ctx.stm;
  const ds::SeqAccess seq{&A};

  // ---- Sequential: populate the four tables ----
  // The trees' root words are probed, so they live in the run's address
  // space, outside the model's placement. The padding fixes which roots
  // share a 32-byte ORT stripe — cars and flights do, customers and rooms
  // sit alone — the grouping vacation's recorded results were taken with.
  struct Roots {
    ds::TxRbTree customers;          // offset 0: stripe 0
    std::uint64_t pad[5];
    ds::TxRbTree tables[kNumKinds];  // offsets 48, 56: stripe 1; 64: stripe 2
  };
  const auto roots = sim::make_region<Roots>();
  ds::TxRbTree* const tables = roots->tables;
  ds::TxRbTree& customers = roots->customers;
  {
    Rng rng(ctx.run.seed);
    for (int kind = 0; kind < kNumKinds; ++kind) {
      for (int i = 1; i <= P.relations; ++i) {
        auto* r = static_cast<Resource*>(A.allocate(sizeof(Resource)));
        r->id = static_cast<std::uint64_t>(i);
        r->total = 1 + rng.below(5);
        r->used = 0;
        r->price = 50 + rng.below(450);
        tables[kind].insert(seq, r->id,
                            reinterpret_cast<std::uint64_t>(r));
      }
    }
    for (int i = 1; i <= P.relations; ++i) {
      auto* c = static_cast<Customer*>(A.allocate(sizeof(Customer)));
      c->id = static_cast<std::uint64_t>(i);
      c->list = nullptr;
      customers.insert(seq, c->id, reinterpret_cast<std::uint64_t>(c));
    }
  }

  std::atomic<std::uint64_t> reservations_made{0};
  std::atomic<std::uint64_t> customers_deleted{0};

  // ---- Parallel: client transactions ----
  const sim::RunResult rr = sim::run_parallel(ctx.run, [&](int tid) {
    alloc::RegionScope par(alloc::Region::Par);
    Rng rng(thread_seed(ctx.run.seed, tid));
    const std::uint64_t range =
        std::max<std::uint64_t>(1, P.relations * P.query_range / 100);
    // Fixed total work split across threads, as in STAMP (-t is a total).
    const int my_tx = P.transactions / ctx.run.threads +
                      (tid < P.transactions % ctx.run.threads ? 1 : 0);
    for (int t = 0; t < my_tx; ++t) {
      const int action = static_cast<int>(rng.below(100));
      if (action < P.user_pct) {
        // Make-reservation: for each kind pick the cheapest available of
        // `queries` random rows, then book everything for one customer.
        const std::uint64_t cust_id = rng.range(1, P.relations);
        std::uint64_t picks[kNumKinds][8];
        for (int kind = 0; kind < kNumKinds; ++kind) {
          for (int q = 0; q < P.queries; ++q) {
            picks[kind][q] = rng.range(1, range);
          }
        }
        int made = 0;
        stm.atomically([&](stm::Tx& tx) {
          made = 0;  // reset on retry: aborted attempts must not count
          const ds::TxAccess acc{&tx};
          Resource* chosen[kNumKinds] = {};
          for (int kind = 0; kind < kNumKinds; ++kind) {
            std::uint64_t best_price = ~std::uint64_t{0};
            for (int q = 0; q < P.queries; ++q) {
              std::uint64_t vp = 0;
              if (!tables[kind].lookup(acc, picks[kind][q], &vp)) continue;
              auto* r = reinterpret_cast<Resource*>(vp);
              const std::uint64_t used = acc.load(&r->used);
              const std::uint64_t total = acc.load(&r->total);
              const std::uint64_t price = acc.load(&r->price);
              if (used < total && price < best_price) {
                best_price = price;
                // tmx-lint: allow(naked-store) — lambda-local candidate array
                chosen[kind] = r;
              }
            }
          }
          std::uint64_t vc = 0;
          if (!customers.lookup(acc, cust_id, &vc)) return;
          auto* cust = reinterpret_cast<Customer*>(vc);
          for (int kind = 0; kind < kNumKinds; ++kind) {
            Resource* r = chosen[kind];
            if (r == nullptr) continue;
            acc.store(&r->used, acc.load(&r->used) + 1);
            auto* res = static_cast<Reservation*>(
                acc.malloc(sizeof(Reservation)));
            // Key encodes (kind, id); the stride is relations+1 because
            // ids run from 1 to relations inclusive.
            acc.store(&res->key,
                      static_cast<std::uint64_t>(kind) * (P.relations + 1) +
                          acc.load(&r->id));
            acc.store(&res->next, acc.load(&cust->list));
            acc.store(&cust->list, res);
            ++made;
          }
        });
        reservations_made.fetch_add(made, std::memory_order_relaxed);
      } else if (action < P.user_pct + 5) {
        // Delete-customer: release all reservations and remove the row.
        const std::uint64_t cust_id = rng.range(1, P.relations);
        bool deleted = false;
        stm.atomically([&](stm::Tx& tx) {
          deleted = false;
          const ds::TxAccess acc{&tx};
          std::uint64_t vc = 0;
          if (!customers.lookup(acc, cust_id, &vc)) return;
          auto* cust = reinterpret_cast<Customer*>(vc);
          Reservation* res = acc.load(&cust->list);
          while (res != nullptr) {
            const std::uint64_t key = acc.load(&res->key);
            const int kind = static_cast<int>(key / (P.relations + 1));
            const std::uint64_t rid = key % (P.relations + 1);
            std::uint64_t vp = 0;
            if (tables[kind].lookup(acc, rid, &vp)) {
              auto* r = reinterpret_cast<Resource*>(vp);
              acc.store(&r->used, acc.load(&r->used) - 1);
            }
            Reservation* nxt = acc.load(&res->next);
            acc.free(res);
            res = nxt;
          }
          customers.remove(acc, cust_id);
          acc.free(cust);
          deleted = true;
        });
        if (deleted) customers_deleted.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Update-tables: the manager adjusts prices or adds capacity.
        const int kind = static_cast<int>(rng.below(kNumKinds));
        const std::uint64_t rid = rng.range(1, P.relations);
        const bool add = rng.chance(0.5);
        stm.atomically([&](stm::Tx& tx) {
          const ds::TxAccess acc{&tx};
          std::uint64_t vp = 0;
          if (!tables[kind].lookup(acc, rid, &vp)) return;
          auto* r = reinterpret_cast<Resource*>(vp);
          if (add) {
            acc.store(&r->total, acc.load(&r->total) + 1);
          } else {
            acc.store(&r->price, 50 + (acc.load(&r->price) + 37) % 450);
          }
        });
      }
    }
  });

  // ---- Verification: reservation bookkeeping is consistent ----
  // Sum of `used` across tables == total reservations held by customers;
  // every used count within [0, total].
  bool ok = true;
  std::uint64_t used_sum = 0;
  for (int kind = 0; kind < kNumKinds && ok; ++kind) {
    for (int i = 1; i <= P.relations; ++i) {
      std::uint64_t vp = 0;
      if (!tables[kind].lookup(seq, static_cast<std::uint64_t>(i), &vp)) {
        ok = false;
        break;
      }
      const auto* r = reinterpret_cast<const Resource*>(vp);
      if (r->used > r->total) {
        ok = false;
        break;
      }
      used_sum += r->used;
    }
  }
  std::uint64_t held = 0;
  for (int i = 1; i <= P.relations && ok; ++i) {
    std::uint64_t vc = 0;
    if (!customers.lookup(seq, static_cast<std::uint64_t>(i), &vc)) {
      continue;  // deleted
    }
    const auto* cust = reinterpret_cast<const Customer*>(vc);
    for (const Reservation* res = cust->list; res != nullptr;
         res = res->next) {
      ++held;
    }
  }
  if (ok && used_sum != held) ok = false;

  AppResult res;
  res.seconds = rr.seconds;
  res.stats = stm.stats();
  res.cache = rr.cache;
  res.verified = ok;
  res.detail = "reservations=" + std::to_string(reservations_made.load()) +
               " deleted=" + std::to_string(customers_deleted.load()) +
               " held=" + std::to_string(held);

  // Teardown (sequential).
  for (int i = 1; i <= P.relations; ++i) {
    std::uint64_t vc = 0;
    if (customers.lookup(seq, static_cast<std::uint64_t>(i), &vc)) {
      auto* cust = reinterpret_cast<Customer*>(vc);
      Reservation* r = cust->list;
      while (r != nullptr) {
        Reservation* nxt = r->next;
        A.deallocate(r);
        r = nxt;
      }
      A.deallocate(cust);
    }
  }
  for (int kind = 0; kind < kNumKinds; ++kind) {
    for (int i = 1; i <= P.relations; ++i) {
      std::uint64_t vp = 0;
      if (tables[kind].lookup(seq, static_cast<std::uint64_t>(i), &vp)) {
        A.deallocate(reinterpret_cast<void*>(vp));
      }
    }
    tables[kind].destroy(seq);
  }
  customers.destroy(seq);
  return res;
}

}  // namespace tmx::stamp
