// The settings every run shares, whatever its workload: the allocator and
// its planes, the execution engine and simulated machine, and the STM
// configuration. The workload configs (SetBenchConfig, stamp::StampRun,
// ServerMixConfig) derive from RunSpec and add only their own fields;
// Options::run_spec() fills it from the shared command-line flags, and a
// harness::RunContext (run_context.hpp) builds the run from it.
//
// stm_config() and run_config() are the one place these settings become
// an stm::Config and a sim::RunConfig. The thread count is per workload
// (threads, workers), so it is passed in.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "alloc/page_provider.hpp"
#include "check/check.hpp"
#include "core/stm.hpp"
#include "fault/fault.hpp"
#include "guard/guard.hpp"
#include "phase/phase.hpp"
#include "sim/engine.hpp"

namespace tmx::harness {

struct RunSpec {
  std::string allocator = "glibc";  // registry name
  sim::EngineKind engine = sim::EngineKind::Sim;
  bool cache_model = true;
  std::uint64_t seed = 20150207;

  // NUMA shape for the sim engine (nodes=1 keeps the flat machine) and the
  // placement policy every page provider snapshots at construction.
  sim::Topology topology{};
  alloc::NumaOptions numa{};
  // Per-node ORT stripe tables (0/1 = single global table; see stm::Config).
  unsigned ort_shards = 0;

  unsigned ort_log2 = 20;
  unsigned shift = 5;
  stm::StmDesign design = stm::StmDesign::kWriteBackEtl;
  stm::ContentionManager cm = stm::ContentionManager::kSuicide;
  bool tx_alloc_cache = false;
  bool htm_enabled = false;  // hybrid execution (hardware path + fallback)
  // Degradation knobs (see stm::Config); 0 = off.
  unsigned retry_cap = 0;
  std::uint64_t tx_cycle_budget = 0;
  std::uint64_t watchdog_cycles = 0;  // whole-run virtual-cycle budget

  // The opt-in planes; each one that is set opens on the run's context
  // and adds its wrapper to the allocator stack (run_context.hpp).
  std::optional<fault::FaultPlan> fault{};    // fault injection (--fault-*)
  std::optional<check::CheckConfig> check{};  // race/lifetime checker
  std::optional<guard::GuardConfig> guard{};  // heap-integrity hardening
  // Latency/heap profiling plane (tmx::prof). Zero-perturbation: the
  // virtual-time results are bit-identical with prof on or off.
  bool prof = false;
  std::uint64_t prof_sample_cycles = 100'000;  // 0 = sampler off
  // Config of the phase allocator (--alloc phase), which snapshots it.
  phase::PhaseConfig phase{};

  stm::Config stm_config(alloc::Allocator* backing) const;
  sim::RunConfig run_config(int threads) const;
};

}  // namespace tmx::harness
