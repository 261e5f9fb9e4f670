#include "alloc/instrument.hpp"

#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace tmx::alloc {

const char* region_name(Region r) {
  switch (r) {
    case Region::Seq: return "seq";
    case Region::Par: return "par";
    case Region::Tx: return "tx";
  }
  return "?";
}

// Region markers are per logical thread of the run, so they work under both
// engines.
Region current_region() { return *sim::context().region[sim::self_tid()]; }

void set_region(Region r) { *sim::context().region[sim::self_tid()] = r; }

int size_bucket(std::size_t size) {
  for (int i = 0; i < kNumSizeBuckets - 1; ++i) {
    if (size <= kSizeBucketBounds[i]) return i;
  }
  return kNumSizeBuckets - 1;
}

const char* size_bucket_name(int bucket) {
  static const char* names[kNumSizeBuckets] = {"16",  "32",  "48",  "64",
                                               "96",  "128", "256", ">256"};
  return names[bucket];
}

void* InstrumentingAllocator::allocate(std::size_t size) {
  Counters& c = *counters_[sim::self_tid()];
  const int r = static_cast<int>(current_region());
  ++c.by_bucket[r][size_bucket(size)];
  ++c.mallocs[r];
  c.bytes[r] += size;
  if (TMX_LIKELY(sim::context().capture == nullptr)) {
    return inner_->allocate(size);
  }
  // The record needs the returned address but carries the time at which
  // the allocator was *entered*: trace replay re-executes the call at the
  // recorded cycle and re-pays the allocator's internal cost, so a
  // post-call stamp would double-count it and skew the replayed
  // interleaving (see replay/replayer.hpp).
  const std::uint64_t entry = sim::now_cycles();
  void* p = inner_->allocate(size);
  sim::capture({.cycle = entry,
                .kind = replay::OpKind::kMalloc,
                .aux = static_cast<std::uint8_t>(r),
                .addr = reinterpret_cast<std::uintptr_t>(p),
                .size = size});
  return p;
}

void InstrumentingAllocator::deallocate(void* p) {
  if (p == nullptr) return;
  Counters& c = *counters_[sim::self_tid()];
  const int r = static_cast<int>(current_region());
  ++c.frees[r];
  if (TMX_UNLIKELY(sim::context().capture != nullptr)) {
    sim::capture({.cycle = sim::now_cycles(),
                  .kind = replay::OpKind::kFree,
                  .aux = static_cast<std::uint8_t>(r),
                  .addr = reinterpret_cast<std::uintptr_t>(p)});
  }
  inner_->deallocate(p);
}

AllocationProfile InstrumentingAllocator::profile() const {
  AllocationProfile prof;
  for (const auto& pc : counters_) {
    const Counters& c = *pc;
    for (int r = 0; r < kNumRegions; ++r) {
      for (int b = 0; b < kNumSizeBuckets; ++b) {
        prof.regions[r].by_bucket[b] += c.by_bucket[r][b];
      }
      prof.regions[r].mallocs += c.mallocs[r];
      prof.regions[r].frees += c.frees[r];
      prof.regions[r].bytes += c.bytes[r];
    }
  }
  return prof;
}

void InstrumentingAllocator::reset_profile() {
  for (auto& pc : counters_) *pc = Counters{};
}

void publish_metrics(const AllocationProfile& profile,
                     obs::MetricsRegistry& reg, const std::string& prefix) {
  for (int r = 0; r < kNumRegions; ++r) {
    const RegionProfile& rp = profile.regions[r];
    const std::string base =
        prefix + region_name(static_cast<Region>(r)) + ".";
    reg.set_counter(base + "mallocs", rp.mallocs);
    reg.set_counter(base + "frees", rp.frees);
    reg.set_counter(base + "bytes", rp.bytes);
    for (int b = 0; b < kNumSizeBuckets; ++b) {
      reg.set_counter(base + "bucket." + size_bucket_name(b),
                      rp.by_bucket[b]);
    }
  }
}

}  // namespace tmx::alloc
