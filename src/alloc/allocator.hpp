// The dynamic-memory-allocation substrate.
//
// The paper studies four production allocators (Glibc/ptmalloc, Hoard,
// TBBMalloc, TCMalloc) loaded via LD_PRELOAD. Here each is reimplemented
// from scratch as a model that reproduces the structural properties the
// paper's analysis rests on (Section 3 + Table 1): block layout and minimum
// sizes, size classes, superblock/arena alignment, synchronization strategy,
// and thread-cache behavior. Allocators are selected at runtime through a
// registry — our equivalent of swapping LD_PRELOAD.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace tmx::alloc {

class PageProvider;

// Static attributes, mirroring the columns of Table 1 in the paper.
struct AllocatorTraits {
  std::string name;           // registry key, e.g. "tcmalloc"
  std::string models;         // what it models, e.g. "TCMalloc 2.1"
  std::string metadata;       // "Per block" / "Per superblock" / ...
  // In-band boundary tag: the window of `tag_bytes` bytes starting
  // `tag_offset` bytes below the payload that (a) stays bit-stable for the
  // block's whole live span and (b) feeds usable_size(), so a scribble
  // there is detectable as a usable-size / checksum mismatch. 0/0 means the
  // model keeps metadata out of band (size-class maps, span tables):
  // nothing adjacent to the payload to checksum — or to corrupt.
  std::size_t tag_offset = 0;
  std::size_t tag_bytes = 0;
  std::size_t min_block = 0;  // minimum allocated block size in bytes
  std::string fast_path;      // block sizes with synchronization-free path
  std::string granularity;    // unit fetched from the OS / global heap
  std::string synchronization;
};

// Abstract allocator. Implementations must be thread-safe: any thread may
// allocate, and any thread may free a block allocated by another thread.
// Thread identity is the logical id from sim::self_tid(), so the same
// instance works under both execution engines.
class Allocator {
 public:
  virtual ~Allocator() = default;

  // Returns a block of at least `size` bytes, aligned to 8 bytes (16 for
  // blocks of 16+ bytes, matching the modeled allocators). Never returns
  // nullptr for size 0 (a minimum-size block is returned, as in Glibc).
  virtual void* allocate(std::size_t size) = 0;

  // Releases `p`. nullptr is ignored.
  virtual void deallocate(void* p) = 0;

  // The real capacity of the block at `p` (>= requested size).
  virtual std::size_t usable_size(const void* p) const = 0;

  virtual const AllocatorTraits& traits() const = 0;

  // Bytes currently reserved from the OS (for footprint reporting). The
  // base implementation reads the adopted page provider (0 without one), so
  // models that call adopt_page_provider() need no override.
  virtual std::size_t os_reserved() const;

  // Usable bytes currently handed out to the application (allocated and not
  // yet freed). Together with os_reserved() this yields the fragmentation
  // ratio reserved/live that the prof plane samples. Models maintain it via
  // note_alloc_bytes()/note_free_bytes() on their public entry points;
  // wrappers forward to the inner allocator.
  virtual std::size_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }

  // The provider backing this allocator's reservations, or nullptr for
  // an allocator without one. The base os_reserved()
  // reads it; wrappers forward to the inner allocator. Models register
  // theirs once via adopt_page_provider() in their constructor.
  virtual PageProvider* page_provider() { return provider_; }

  // -- Transaction-lifecycle hints (tmx::phase) --
  // The STM calls these at tx begin/commit/abort, and at proven quiescent
  // points (the serial-irrevocable window, explicit maintenance), but only
  // when wants_tx_hints() is true — so allocators that ignore transactions
  // (all the per-object models) pay one cached bool per Stm, not a virtual
  // call per transaction — the gating is what keeps the golden determinism
  // constants of hint-blind models bit-identical. `tid` is the logical
  // thread id; `serial` is true when the caller holds the serial-
  // irrevocable token (no other transaction is speculating, so relocation
  // is safe).
  virtual bool wants_tx_hints() const { return false; }
  virtual void tx_begin_hint(int) {}
  virtual void tx_commit_hint(int) {}
  virtual void tx_abort_hint(int) {}
  virtual void on_quiescence(bool) {}

  // The wrapped allocator for the plane wrappers, nullptr for leaf models.
  // Lets tools unwrap the stack to reach a specific layer (find_layer)
  // without widening every wrapper API.
  virtual Allocator* inner_allocator() { return nullptr; }

 protected:
  // Registers the model's backing provider so the base class can answer
  // os_reserved()/page_provider() — the one-liner every model used to
  // duplicate as a pair of overrides.
  void adopt_page_provider(PageProvider* p) { provider_ = p; }

  // Relaxed atomics: the counter is a metrics read, never a synchronization
  // edge, and must not perturb the simulated schedule.
  void note_alloc_bytes(std::size_t n) {
    live_bytes_.fetch_add(n, std::memory_order_relaxed);
  }
  void note_free_bytes(std::size_t n) {
    live_bytes_.fetch_sub(n, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> live_bytes_{0};
  PageProvider* provider_ = nullptr;
};

// Base of the plane wrappers (instrument, fault, check, guard, prof): owns
// the wrapped allocator and forwards every call to it, so a wrapper
// overrides only the calls it intercepts. harness/run_context.hpp assembles
// the wrappers in their one fixed order.
class ForwardingAllocator : public Allocator {
 public:
  explicit ForwardingAllocator(std::unique_ptr<Allocator> inner)
      : inner_(std::move(inner)) {}

  // Defined out of line (registry.cpp): with the bodies visible here the
  // compiler speculatively devirtualizes every Allocator call in the tree
  // to them, adding a compare and inlined forwarding to each model call.
  void* allocate(std::size_t size) override;
  void deallocate(void* p) override;
  std::size_t usable_size(const void* p) const override;
  const AllocatorTraits& traits() const override;
  std::size_t os_reserved() const override;
  std::size_t live_bytes() const override;
  PageProvider* page_provider() override;
  bool wants_tx_hints() const override;
  void tx_begin_hint(int tid) override;
  void tx_commit_hint(int tid) override;
  void tx_abort_hint(int tid) override;
  void on_quiescence(bool serial) override;
  Allocator* inner_allocator() override;

 protected:
  const std::unique_ptr<Allocator> inner_;
};

// The outermost layer of `a`'s stack that is a T, walking inner_allocator()
// from `a` down to the model; nullptr when no layer is.
template <class T>
T* find_layer(Allocator* a) {
  for (; a != nullptr; a = a->inner_allocator()) {
    if (auto* layer = dynamic_cast<T*>(a)) return layer;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Registry: runtime allocator selection (the study's LD_PRELOAD equivalent).
// ---------------------------------------------------------------------------

using AllocatorFactory = std::function<std::unique_ptr<Allocator>()>;

// Registered names, in canonical paper order:
// "glibc", "hoard", "tbb", "tcmalloc", then the "jemalloc" and "phase"
// extensions.
std::vector<std::string> allocator_names();

// Creates a fresh instance (experiments never share allocator state).
// Terminates with a diagnostic on an unknown name.
std::unique_ptr<Allocator> create_allocator(const std::string& name);

// True if `name` is registered.
bool allocator_exists(const std::string& name);

// Registry introspection: every registered model with its static traits
// (the columns of Table 1), without keeping the instances around.
struct RegisteredAllocator {
  std::string name;
  AllocatorTraits traits;
};
std::vector<RegisteredAllocator> registered_allocators();

// Prints the registry as a Table 1-style listing (--list-allocators).
void print_registry(std::FILE* out);

}  // namespace tmx::alloc
