// STAMP Genome port: gene sequencing by segment deduplication and overlap
// matching.
//
// A random nucleotide gene is cut into overlapping fixed-length segments
// (with duplicates). Phase 1 deduplicates segments into a transactional
// hash set (the 16-byte transactional allocations dominating Genome's
// Table 5 profile); phase 2 links each unique segment to its overlap
// successor through a transactional prefix table; phase 3 rebuilds the gene
// sequentially and verifies it matches the original exactly.
//
// Segments are 32 nucleotides packed 2 bits each into one 64-bit word, so
// content comparison and hashing are single-word operations.
#include <algorithm>
#include <atomic>
#include <vector>

#include "alloc/instrument.hpp"
#include "sim/sync.hpp"
#include "stamp/app.hpp"
#include "structs/tx_hashset.hpp"
#include "util/rng.hpp"

namespace tmx::stamp {
namespace {

constexpr int kSegLen = 32;  // nucleotides per segment (fits a u64)

struct GenomeParams {
  int gene_len;
  std::size_t table_buckets;
};

GenomeParams params_for(double scale) {
  GenomeParams p;
  p.gene_len = std::max(256, static_cast<int>(4096 * scale));
  p.table_buckets = 16 * 1024;
  return p;
}

// Transactional hash map: prefix(61..62 bits) -> segment record. Entries
// carry a `claimed` flag set when some segment links to them, so the chain
// start is the unique unclaimed entry.
struct Entry {
  std::uint64_t prefix;   // first kSegLen-1 nucleotides of the segment
  std::uint64_t content;  // the full packed segment
  Entry* next;
  std::uint64_t claimed;
};
static_assert(sizeof(Entry) == 32);

struct PrefixTable {
  Entry** buckets;
  std::size_t nbuckets;

  std::size_t index(std::uint64_t key) const {
    return (key * 0x9e3779b97f4a7c15ULL) >> (64 - log2_floor(nbuckets));
  }

  template <typename A>
  void init(const A& a, std::size_t n) {
    nbuckets = n;
    buckets = static_cast<Entry**>(a.malloc(n * sizeof(Entry*)));
    for (std::size_t i = 0; i < n; ++i) buckets[i] = nullptr;
  }

  template <typename A>
  void destroy(const A& a) {
    for (std::size_t i = 0; i < nbuckets; ++i) {
      Entry* e = buckets[i];
      while (e != nullptr) {
        Entry* nx = e->next;
        a.free(e);
        e = nx;
      }
    }
    a.free(buckets);
  }

  template <typename A>
  void insert(const A& acc, std::uint64_t prefix, std::uint64_t content) {
    Entry** bucket = &buckets[index(prefix)];
    auto* e = static_cast<Entry*>(acc.malloc(sizeof(Entry)));
    acc.store(&e->prefix, prefix);
    acc.store(&e->content, content);
    acc.store(&e->claimed, std::uint64_t{0});
    acc.store(&e->next, acc.load(bucket));
    acc.store(bucket, e);
  }

  template <typename A>
  Entry* find(const A& acc, std::uint64_t prefix) const {
    for (Entry* e = acc.load(&buckets[index(prefix)]); e != nullptr;
         e = acc.load(&e->next)) {
      if (acc.load(&e->prefix) == prefix) return e;
    }
    return nullptr;
  }
};

}  // namespace

AppResult run_genome(const AppContext& ctx) {
  const GenomeParams P = params_for(ctx.scale);
  alloc::Allocator& A = ctx.allocator();
  stm::Stm& stm = *ctx.stm;
  const ds::SeqAccess seq{&A};

  // ---- Sequential: gene + shuffled segment workload ----
  const int positions = P.gene_len - kSegLen + 1;
  std::vector<std::uint8_t> gene(P.gene_len);
  {
    Rng rng(ctx.run.seed);
    for (auto& nt : gene) nt = static_cast<std::uint8_t>(rng.below(4));
  }
  auto pack_at = [&](int pos) {
    std::uint64_t w = 0;
    for (int j = 0; j < kSegLen; ++j) {
      w |= static_cast<std::uint64_t>(gene[pos + j]) << (2 * j);
    }
    return w;
  };
  // Every position once (guarantees reconstructability) plus random
  // duplicates (gives phase 1 something to deduplicate).
  std::vector<std::uint64_t> segments;
  segments.reserve(2 * positions);
  for (int p = 0; p < positions; ++p) segments.push_back(pack_at(p));
  {
    Rng rng(ctx.run.seed ^ 0x5e9);
    for (int i = 0; i < positions; ++i) {
      segments.push_back(pack_at(static_cast<int>(rng.below(positions))));
    }
    for (std::size_t i = segments.size(); i > 1; --i) {
      std::swap(segments[i - 1], segments[rng.below(i)]);
    }
  }

  ds::TxHashSet dedup(seq, P.table_buckets);
  PrefixTable table{};
  table.init(seq, P.table_buckets);

  constexpr std::uint64_t kPrefixMask = ~std::uint64_t{0} >> 2;
  std::vector<std::vector<std::uint64_t>> unique_per_thread(ctx.run.threads);
  sim::Barrier barrier(ctx.run.threads);

  // ---- Parallel phases (one timed region, as STAMP runs it) ----
  const sim::RunResult rr = sim::run_parallel(ctx.run, [&](int tid) {
    alloc::RegionScope par(alloc::Region::Par);
    auto& mine = unique_per_thread[tid];

    // Phase 1: deduplicate segments into the transactional hash set.
    for (std::size_t i = tid; i < segments.size(); i += ctx.run.threads) {
      const std::uint64_t s = segments[i];
      bool fresh = false;
      stm.atomically([&](stm::Tx& tx) {
        fresh = dedup.insert(ds::TxAccess{&tx}, s);
      });
      if (fresh) mine.push_back(s);
    }
    barrier.arrive_and_wait();

    // Phase 2a: publish each unique segment under its (S-1)-prefix.
    for (const std::uint64_t s : mine) {
      stm.atomically([&](stm::Tx& tx) {
        table.insert(ds::TxAccess{&tx}, s & kPrefixMask, s);
      });
    }
    barrier.arrive_and_wait();

    // Phase 2b: claim each segment's overlap successor. The successor of
    // segment s is the entry whose prefix equals s's (S-1)-suffix.
    for (const std::uint64_t s : mine) {
      stm.atomically([&](stm::Tx& tx) {
        const ds::TxAccess acc{&tx};
        Entry* succ = table.find(acc, s >> 2);
        if (succ != nullptr && acc.load(&succ->content) != s) {
          acc.store(&succ->claimed, std::uint64_t{1});
        }
      });
    }
  });

  // ---- Phase 3 (sequential): rebuild and verify ----
  std::size_t unique_total = 0;
  for (const auto& v : unique_per_thread) unique_total += v.size();

  // Find the unique unclaimed entry: the gene's first segment.
  Entry* start = nullptr;
  std::size_t unclaimed = 0;
  for (std::size_t b = 0; b < table.nbuckets; ++b) {
    for (Entry* e = table.buckets[b]; e != nullptr; e = e->next) {
      if (e->claimed == 0) {
        ++unclaimed;
        start = e;
      }
    }
  }
  bool ok = unclaimed == 1;
  if (ok) {
    std::vector<std::uint8_t> rebuilt;
    rebuilt.reserve(P.gene_len);
    std::uint64_t cur = start->content;
    for (int j = 0; j < kSegLen; ++j) {
      rebuilt.push_back(static_cast<std::uint8_t>((cur >> (2 * j)) & 3));
    }
    for (;;) {
      Entry* nxt = table.find(seq, cur >> 2);
      if (nxt == nullptr) break;
      cur = nxt->content;
      rebuilt.push_back(
          static_cast<std::uint8_t>((cur >> (2 * (kSegLen - 1))) & 3));
    }
    ok = rebuilt.size() == gene.size() &&
         std::equal(rebuilt.begin(), rebuilt.end(), gene.begin());
  }
  // The dedup set must hold exactly the unique segments.
  if (dedup.size_seq() != unique_total) ok = false;

  AppResult res;
  res.seconds = rr.seconds;
  res.stats = stm.stats();
  res.cache = rr.cache;
  res.verified = ok;
  res.detail = "unique=" + std::to_string(unique_total) + "/" +
               std::to_string(segments.size());

  dedup.destroy(seq);
  table.destroy(seq);
  return res;
}

}  // namespace tmx::stamp
