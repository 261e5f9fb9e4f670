#include <cstdio>

#include "alloc/allocator.hpp"
#include "alloc/glibc_model.hpp"
#include "alloc/hoard_model.hpp"
#include "alloc/jemalloc_model.hpp"
#include "alloc/page_provider.hpp"
#include "alloc/tbb_model.hpp"
#include "alloc/tcmalloc_model.hpp"
#include "phase/phase.hpp"
#include "util/macros.hpp"

namespace tmx::alloc {

// Out of line: the header only forward-declares PageProvider.
std::size_t Allocator::os_reserved() const {
  const PageProvider* p =
      const_cast<Allocator*>(this)->page_provider();
  return p != nullptr ? p->total_reserved() : 0;
}

void* ForwardingAllocator::allocate(std::size_t size) {
  return inner_->allocate(size);
}
void ForwardingAllocator::deallocate(void* p) { inner_->deallocate(p); }
std::size_t ForwardingAllocator::usable_size(const void* p) const {
  return inner_->usable_size(p);
}
const AllocatorTraits& ForwardingAllocator::traits() const {
  return inner_->traits();
}
std::size_t ForwardingAllocator::os_reserved() const {
  return inner_->os_reserved();
}
std::size_t ForwardingAllocator::live_bytes() const {
  return inner_->live_bytes();
}
PageProvider* ForwardingAllocator::page_provider() {
  return inner_->page_provider();
}
bool ForwardingAllocator::wants_tx_hints() const {
  return inner_->wants_tx_hints();
}
void ForwardingAllocator::tx_begin_hint(int tid) { inner_->tx_begin_hint(tid); }
void ForwardingAllocator::tx_commit_hint(int tid) {
  inner_->tx_commit_hint(tid);
}
void ForwardingAllocator::tx_abort_hint(int tid) { inner_->tx_abort_hint(tid); }
void ForwardingAllocator::on_quiescence(bool serial) {
  inner_->on_quiescence(serial);
}
Allocator* ForwardingAllocator::inner_allocator() { return inner_.get(); }

std::vector<std::string> allocator_names() {
  return {"glibc", "hoard", "tbb", "tcmalloc", "jemalloc", "phase"};
}

bool allocator_exists(const std::string& name) {
  for (const auto& n : allocator_names()) {
    if (n == name) return true;
  }
  return false;
}

std::unique_ptr<Allocator> create_allocator(const std::string& name) {
  if (name == "glibc") return std::make_unique<GlibcModelAllocator>();
  if (name == "hoard") return std::make_unique<HoardModelAllocator>();
  if (name == "tbb") return std::make_unique<TbbModelAllocator>();
  if (name == "tcmalloc") return std::make_unique<TcmallocModelAllocator>();
  if (name == "jemalloc") return std::make_unique<JemallocModelAllocator>();
  if (name == "phase") return std::make_unique<phase::PhaseAllocator>();
  std::fprintf(stderr, "unknown allocator '%s'; known:", name.c_str());
  for (const auto& n : allocator_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::abort();
}

std::vector<RegisteredAllocator> registered_allocators() {
  std::vector<RegisteredAllocator> out;
  for (const auto& name : allocator_names()) {
    // Instances are cheap until first use: carved pages stay untouched
    // until written, so creating one just to read its traits costs little.
    out.push_back({name, create_allocator(name)->traits()});
  }
  return out;
}

void print_registry(std::FILE* out) {
  std::fprintf(out, "%-10s %-16s %-14s %4s %9s  %-22s %s\n", "name",
               "models", "metadata", "tag", "min-block", "granularity",
               "synchronization");
  for (const auto& a : registered_allocators()) {
    std::fprintf(out, "%-10s %-16s %-14s %4zu %9zu  %-22s %s\n",
                 a.name.c_str(), a.traits.models.c_str(),
                 a.traits.metadata.c_str(), a.traits.tag_bytes,
                 a.traits.min_block, a.traits.granularity.c_str(),
                 a.traits.synchronization.c_str());
  }
}

}  // namespace tmx::alloc
