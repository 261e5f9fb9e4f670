#include "harness/run_spec.hpp"

namespace tmx::harness {

stm::Config RunSpec::stm_config(alloc::Allocator* backing) const {
  stm::Config c;
  c.ort_log2 = ort_log2;
  c.shift = shift;
  c.ort_shards = ort_shards;
  c.design = design;
  c.cm = cm;
  c.tx_alloc_cache = tx_alloc_cache;
  c.htm.enabled = htm_enabled;
  c.allocator = backing;
  c.retry_cap = retry_cap;
  c.tx_cycle_budget = tx_cycle_budget;
  return c;
}

sim::RunConfig RunSpec::run_config(int threads) const {
  sim::RunConfig rc;
  rc.kind = engine;
  rc.threads = threads;
  rc.seed = seed;
  rc.cache_model = cache_model;
  rc.topology = topology;
  rc.watchdog_cycles = watchdog_cycles;
  return rc;
}

}  // namespace tmx::harness
