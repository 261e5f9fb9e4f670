#include "harness/setbench.hpp"

#include <atomic>
#include <memory>

#include "alloc/instrument.hpp"
#include "structs/tx_hashset.hpp"
#include "structs/tx_list.hpp"
#include "structs/tx_rbtree.hpp"
#include "util/rng.hpp"

namespace tmx::harness {

const char* set_kind_name(SetKind k) {
  switch (k) {
    case SetKind::kList: return "linked-list";
    case SetKind::kHashSet: return "hashset";
    case SetKind::kRbTree: return "rbtree";
  }
  return "?";
}

namespace {

// Uniform treatment of the three structures for the benchmark loop.
struct SetOps {
  virtual ~SetOps() = default;
  virtual bool insert(stm::Tx& tx, std::uint64_t key) = 0;
  virtual bool remove(stm::Tx& tx, std::uint64_t key) = 0;
  virtual bool contains(stm::Tx& tx, std::uint64_t key) = 0;
  virtual bool insert_seq(const ds::SeqAccess& a, std::uint64_t key) = 0;
  virtual std::size_t size_seq() const = 0;
  virtual void destroy(const ds::SeqAccess& a) = 0;
};

struct ListOps final : SetOps {
  explicit ListOps(const ds::SeqAccess& a) : set(a) {}
  bool insert(stm::Tx& tx, std::uint64_t k) override {
    return set.insert(ds::TxAccess{&tx}, k);
  }
  bool remove(stm::Tx& tx, std::uint64_t k) override {
    return set.remove(ds::TxAccess{&tx}, k);
  }
  bool contains(stm::Tx& tx, std::uint64_t k) override {
    return set.contains(ds::TxAccess{&tx}, k);
  }
  bool insert_seq(const ds::SeqAccess& a, std::uint64_t k) override {
    return set.insert(a, k);
  }
  std::size_t size_seq() const override { return set.size_seq(); }
  void destroy(const ds::SeqAccess& a) override { set.destroy(a); }
  ds::TxList set;
};

struct HashOps final : SetOps {
  explicit HashOps(const ds::SeqAccess& a) : set(a) {}  // 128K buckets
  bool insert(stm::Tx& tx, std::uint64_t k) override {
    return set.insert(ds::TxAccess{&tx}, k);
  }
  bool remove(stm::Tx& tx, std::uint64_t k) override {
    return set.remove(ds::TxAccess{&tx}, k);
  }
  bool contains(stm::Tx& tx, std::uint64_t k) override {
    return set.contains(ds::TxAccess{&tx}, k);
  }
  bool insert_seq(const ds::SeqAccess& a, std::uint64_t k) override {
    return set.insert(a, k);
  }
  std::size_t size_seq() const override { return set.size_seq(); }
  void destroy(const ds::SeqAccess& a) override { set.destroy(a); }
  ds::TxHashSet set;
};

struct TreeOps final : SetOps {
  bool insert(stm::Tx& tx, std::uint64_t k) override {
    return set.insert(ds::TxAccess{&tx}, k, k);
  }
  bool remove(stm::Tx& tx, std::uint64_t k) override {
    return set.remove(ds::TxAccess{&tx}, k);
  }
  bool contains(stm::Tx& tx, std::uint64_t k) override {
    return set.lookup(ds::TxAccess{&tx}, k);
  }
  bool insert_seq(const ds::SeqAccess& a, std::uint64_t k) override {
    return set.insert(a, k, k);
  }
  std::size_t size_seq() const override { return set.size_seq(); }
  void destroy(const ds::SeqAccess& a) override { set.destroy(a); }
  ds::TxRbTree set;
};

SetBenchResult run_on(const SetBenchConfig& cfg, alloc::Allocator& allocator) {
  stm::Stm stm(cfg.stm_config(&allocator));

  const ds::SeqAccess seq{&allocator};
  // The set's root words are probed, so they live in the run's address
  // space, outside the model's placement.
  sim::RegionPtr<SetOps> ops;
  switch (cfg.kind) {
    case SetKind::kList: ops = sim::make_region<ListOps>(seq); break;
    case SetKind::kHashSet: ops = sim::make_region<HashOps>(seq); break;
    case SetKind::kRbTree: ops = sim::make_region<TreeOps>(); break;
  }

  // Sequential population by the main thread, as in the paper.
  {
    Rng rng(cfg.seed);
    std::size_t inserted = 0;
    while (inserted < cfg.initial) {
      if (ops->insert_seq(seq, rng.range(1, cfg.key_range))) ++inserted;
    }
  }

  // Per-thread bookkeeping for the post-run size invariant.
  std::atomic<std::int64_t> net_inserted{0};

  const sim::RunConfig rc = cfg.run_config(cfg.threads);
  const sim::RunResult rr = sim::run_parallel(rc, [&](int tid) {
    alloc::RegionScope par(alloc::Region::Par);
    Rng rng(thread_seed(cfg.seed, tid));
    bool insert_turn = true;
    std::uint64_t last_inserted = 0;
    bool have_last = false;
    std::int64_t net = 0;
    for (std::size_t i = 0; i < cfg.ops_per_thread; ++i) {
      const bool update = rng.uniform() < cfg.update_pct;
      if (!update) {
        const std::uint64_t key = rng.range(1, cfg.key_range);
        stm.atomically([&](stm::Tx& tx) { ops->contains(tx, key); });
        continue;
      }
      if (insert_turn) {
        const std::uint64_t key = rng.range(1, cfg.key_range);
        bool ok = false;
        stm.atomically([&](stm::Tx& tx) { ok = ops->insert(tx, key); });
        if (ok) {
          ++net;
          last_inserted = key;
          have_last = true;
        }
        insert_turn = false;
      } else {
        const std::uint64_t key =
            have_last ? last_inserted : rng.range(1, cfg.key_range);
        bool ok = false;
        stm.atomically([&](stm::Tx& tx) { ok = ops->remove(tx, key); });
        if (ok) --net;
        have_last = false;
        insert_turn = true;
      }
    }
    net_inserted.fetch_add(net, std::memory_order_relaxed);
  });

  SetBenchResult res;
  res.seconds = rr.seconds;
  res.ops = static_cast<std::uint64_t>(cfg.threads) * cfg.ops_per_thread;
  res.throughput =
      rr.seconds > 0 ? static_cast<double>(res.ops) / rr.seconds : 0.0;
  res.stats = stm.stats();
  res.cache = rr.cache;
  res.final_size = ops->size_seq();
  res.size_consistent =
      static_cast<std::int64_t>(res.final_size) ==
      static_cast<std::int64_t>(cfg.initial) + net_inserted.load();
  ops->destroy(seq);
  return res;
}

}  // namespace

SetBenchResult run_set_bench(const SetBenchConfig& cfg) {
  RunContext run(cfg, cfg.threads);
  SetBenchResult res = run_on(cfg, run.allocator(false));
  res.planes = run.finish();
  return res;
}

}  // namespace tmx::harness
