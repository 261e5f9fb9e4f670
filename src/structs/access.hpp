// Access policies for the transactional data structures.
//
// Every structure is written once against a policy `A` providing
// load/store/malloc/free; instantiating with SeqAccess gives the sequential
// flavor (used by initialization phases, exactly like STAMP's non-TM_
// macros) and TxAccess the transactional flavor.
#pragma once

#include <cstddef>

#include "alloc/allocator.hpp"
#include "check/check.hpp"
#include "core/stm.hpp"

namespace tmx::ds {

struct SeqAccess {
  alloc::Allocator* alloc;

  template <typename T>
  T load(const T* p) const {
    if (TMX_UNLIKELY(check::enabled())) {
      check::naked_access(p, sizeof(T), /*write=*/false, "SeqAccess::load");
    }
    return *p;
  }
  template <typename T>
  void store(T* p, const T& v) const {
    if (TMX_UNLIKELY(check::enabled())) {
      check::naked_access(p, sizeof(T), /*write=*/true, "SeqAccess::store");
    }
    *p = v;
  }
  void* malloc(std::size_t n) const {
    void* p = alloc->allocate(n);
    if (TMX_UNLIKELY(check::enabled()) && p != nullptr) {
      check::on_naked_malloc(p, n, "SeqAccess::malloc");
    }
    return p;
  }
  void free(void* p) const {
    if (TMX_UNLIKELY(check::enabled())) {
      check::on_naked_free(p, "SeqAccess::free");
    }
    alloc->deallocate(p);
  }
};

struct TxAccess {
  stm::Tx* tx;

  template <typename T>
  T load(const T* p) const {
    return tx->load(p);
  }
  template <typename T>
  void store(T* p, const T& v) const {
    tx->store(p, v);
  }
  void* malloc(std::size_t n) const {
    void* p = tx->malloc(n);
    tx->leave_if_doomed();
    return p;
  }
  void free(void* p) const {
    tx->free(p);
    tx->leave_if_doomed();
  }
};

}  // namespace tmx::ds
