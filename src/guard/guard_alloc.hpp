// GuardedAllocator: the tmx::guard chokepoint. Wraps any registered model
// (or wrapper stack) and hardens it with tail canaries, boundary-tag
// checksums, free-poisoning and a quiescence-aware quarantine — see
// guard.hpp for the rationale and the determinism contract.
//
// The guard is also the *injector* for the fault plane's corruption sites
// (corrupt_tag / corrupt_overflow / corrupt_reuse): it is the only layer
// that knows where the canary and the model's in-band tag live, and it only
// injects where detection is possible, which is what makes the chaos_soak
// contract — injected == detected, per site — provable.
//
// Sim-engine only: the block table and quarantine are unsynchronized host
// containers, correct because fibers interleave only at explicit yield
// points and the guard never yields mid-operation.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "alloc/allocator.hpp"
#include "guard/guard.hpp"

namespace tmx::guard {

class GuardedAllocator final : public alloc::ForwardingAllocator {
 public:
  using ForwardingAllocator::ForwardingAllocator;
  ~GuardedAllocator() override;

  void* allocate(std::size_t size) override;
  void deallocate(void* p) override;

  // Reports the *requested* size: the canary lives in [requested, usable),
  // so no caller may be told that slack is theirs. Also re-verifies the
  // block's tag and canary (the "verified on usable_size" contract).
  std::size_t usable_size(const void* p) const override;

  // The guard always wants hints: commit boundaries with zero in-flight
  // transactions drive the quarantine epoch. The hint bodies are host-only
  // (no tick/yield), so hint delivery alone never perturbs the schedule.
  bool wants_tx_hints() const override { return true; }
  void tx_begin_hint(int tid) override;
  void tx_commit_hint(int tid) override;
  void tx_abort_hint(int tid) override;
  void on_quiescence(bool serial) override;

  // Introspection for tests and harness reporting.
  std::size_t quarantine_blocks() const { return quarantine_.size(); }
  std::uint64_t epoch() const { return epoch_; }

  // Whole-heap audit walk: verifies tag + canary of every live guarded
  // block. Runs automatically at quiescent points and on destruction.
  void audit();

 private:
  struct Record {
    std::size_t requested = 0;
    std::size_t usable = 0;
    const char* alloc_site = nullptr;
    std::uint8_t canary_bytes = 0;
    std::uint8_t tag_len = 0;
    std::uint8_t tag[16] = {};  // snapshot of the stable boundary-tag bytes
    bool tag_reported = false;
    bool canary_reported = false;
  };

  struct QEntry {
    void* p = nullptr;
    std::size_t usable = 0;
    std::uint64_t epoch = 0;
    const char* alloc_site = nullptr;
    const char* free_site = nullptr;
    std::uint8_t tag_len = 0;
    std::uint8_t tag[16] = {};
  };

  unsigned char* tag_ptr(const void* p) const;
  void write_canary(void* p, const Record& r);
  // Verifies tag + canary; emits (once per block per kind) and returns true
  // when the block is corrupted. `where` labels the detection site.
  bool verify(const void* p, Record& r, const char* where) const;
  void restore_tag(void* p, const Record& r);
  // Releases quarantine entries whose epoch has aged out (`all` = drain
  // everything, used at proven quiescence and on destruction), verifying
  // the poison — and the tag — of each block first.
  void release_ready(bool all);

  mutable std::unordered_map<const void*, Record> table_;
  std::deque<QEntry> quarantine_;
  std::size_t quarantine_bytes_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t commits_since_epoch_ = 0;
  std::int64_t active_tx_ = 0;
};

}  // namespace tmx::guard
