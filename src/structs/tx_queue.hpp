// Transactional FIFO queue of pointers (used by the STAMP ports for work
// distribution, e.g. Intruder's packet and task queues).
#pragma once

#include <cstdint>

#include "structs/access.hpp"

namespace tmx::ds {

class TxQueue {
 public:
  struct Node {
    void* data;
    Node* next;
  };
  static_assert(sizeof(Node) == 16);

  // A dummy head node keeps push/pop free of empty-queue special cases.
  template <typename A>
  explicit TxQueue(const A& a) {
    auto* dummy = static_cast<Node*>(a.malloc(sizeof(Node)));
    dummy->data = nullptr;
    dummy->next = nullptr;
    head_ = tail_ = dummy;
  }

  template <typename A>
  void destroy(const A& a) {
    Node* n = head_;
    while (n != nullptr) {
      Node* nx = n->next;
      a.free(n);
      n = nx;
    }
    head_ = tail_ = nullptr;
  }

  template <typename A>
  void push(const A& acc, void* data) {
    auto* node = static_cast<Node*>(acc.malloc(sizeof(Node)));
    acc.store(&node->data, data);
    acc.store(&node->next, static_cast<Node*>(nullptr));
    Node* t = acc.load(&tail_);
    acc.store(&t->next, node);
    acc.store(&tail_, node);
  }

  // Pops into *out; returns false when empty.
  template <typename A>
  bool pop(const A& acc, void** out) {
    Node* h = acc.load(&head_);
    Node* first = acc.load(&h->next);
    if (first == nullptr) return false;
    // tmx-lint: allow(naked-store) — the caller's out-parameter
    *out = acc.load(&first->data);
    acc.store(&head_, first);
    // `first` becomes the new dummy; the old dummy is released.
    acc.free(h);
    return true;
  }

  template <typename A>
  bool empty(const A& acc) const {
    Node* h = acc.load(&head_);
    return acc.load(&h->next) == nullptr;
  }

  std::size_t size_seq() const {
    std::size_t n = 0;
    for (Node* c = head_->next; c != nullptr; c = c->next) ++n;
    return n;
  }

 private:
  Node* head_;  // dummy
  Node* tail_;
};

}  // namespace tmx::ds
