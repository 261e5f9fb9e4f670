// A server-style open-loop request workload for the tmx::prof plane.
//
// The paper's set benchmarks are closed-loop (each thread issues its next
// operation as soon as the previous one commits), which hides queueing
// delay — the component production allocators dominate through tail
// latency. server_mix instead models a request server:
//
//  * Open-loop arrivals — request i becomes due at virtual cycle
//    (i+1) * arrival_cycles regardless of progress; worker (i % workers)
//    handles it, idling until the arrival via sim::advance_to. Request
//    latency = completion - arrival in virtual cycles, so queueing under
//    overload is measured, not absorbed.
//
//  * Log-normal sizes with a long tail — per-request parse-phase blocks
//    draw from exp(mu + sigma*Z) clamped to [8, 64 KiB], the classic
//    server-payload distribution (many small headers, rare huge bodies).
//
//  * Producer-consumer cross-thread frees — each request transactionally
//    allocates a response block and publishes it to the next worker's
//    mailbox; the receiver frees it inside a later transaction. Blocks
//    therefore die on a different thread than they were born on, the
//    pattern that splits allocators in Figures 5-8 of the paper.
//
//  * Retention-driven RSS drift — a fraction of requests leak their parse
//    blocks until teardown, so live bytes ratchet upward and the
//    fragmentation ratio (reserved / live) drifts over the run. The prof
//    time-series sampler turns this into the RSS-drift curves of
//    EXPERIMENTS.md.
//
// The per-request latency histogram is recorded by the harness itself,
// unconditionally — it is part of the benchmark's output, not the
// profiler's — so a prof-ON run prints byte-identical results to a
// prof-OFF run (the CI smoke diffs the two stdouts).
//
// Open-loop timing is meaningful under EngineKind::Sim only; under real
// threads advance_to/now_cycles are no-ops and latencies read as zero.
#pragma once

#include <cstdint>

#include "core/stm.hpp"
#include "harness/run_context.hpp"
#include "harness/run_spec.hpp"
#include "phase/phase.hpp"
#include "prof/hdr_histogram.hpp"
#include "sim/engine.hpp"

namespace tmx::harness {

// The run's shared settings (allocator, engine, STM configuration, prof
// plane) come from RunSpec; the fields here describe the workload.
struct ServerMixConfig : RunSpec {
  int workers = 4;
  std::size_t requests = 512;           // total, striped across workers
  std::uint64_t arrival_cycles = 2000;  // open-loop inter-arrival gap
  double size_ln_mu = 6.0;              // ln-space location (~400 B median)
  double size_ln_sigma = 1.0;           // ln-space scale (long tail)
  std::size_t allocs_per_request = 6;   // parse-phase blocks per request
  double retain_fraction = 0.04;        // requests leaking until teardown

  // Every N requests handled by worker 0, call Stm::maintenance_quiescence
  // — the explicit quiescent point that lets tmx::phase reclaim (and, under
  // --phase-compact, compact) without waiting for a serial-irrevocable
  // escalation. 0 = never; a no-op unless the allocator wants tx hints.
  std::size_t phase_maintenance_every = 0;
};

struct ServerMixResult {
  double seconds = 0.0;
  std::uint64_t cycles = 0;  // Sim makespan (0 under threads)
  std::uint64_t requests = 0;
  // Request latency (arrival -> completion) in virtual cycles, recorded for
  // every request regardless of profiler state.
  prof::HdrHistogram latency;
  stm::TxStats stats{};
  std::uint64_t handoffs = 0;  // mailbox blocks freed by another worker
  // Heap state after the parallel phase, before teardown frees the
  // retained blocks: the drift the retention knob produces.
  std::size_t live_bytes_end = 0;
  std::size_t reserved_bytes_end = 0;
  std::size_t retained_blocks = 0;
  // Filled when the allocator stack bottoms out in tmx::phase.
  bool has_phase = false;
  phase::PhaseStats phase{};
  PlaneOutputs planes;
  double throughput() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
  }
  double fragmentation() const {
    return live_bytes_end > 0
               ? static_cast<double>(reserved_bytes_end) /
                     static_cast<double>(live_bytes_end)
               : 0.0;
  }
};

// Runs the workload in its own run context.
ServerMixResult run_server_mix(const ServerMixConfig& cfg);

}  // namespace tmx::harness
