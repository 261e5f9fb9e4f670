// Transactional skip list (an ordered map of 64-bit keys to values).
//
// Complements the paper's three structures with one whose nodes are
// *variable-sized* (24 + 8·height bytes): allocations spread across several
// size classes, so allocator effects mix class behaviors within a single
// structure — useful for studies beyond the paper's fixed-size nodes.
// Heights are drawn deterministically from a per-structure seed so layouts
// are reproducible.
#pragma once

#include <atomic>
#include <cstdint>

#include "structs/access.hpp"
#include "util/macros.hpp"
#include "util/rng.hpp"

namespace tmx::ds {

class TxSkipList {
 public:
  static constexpr int kMaxHeight = 12;

  struct Node {
    std::uint64_t key;
    std::uint64_t value;
    std::uint64_t height;
    Node* next[1];  // `height` links follow
  };

  static std::size_t node_bytes(int height) {
    return sizeof(Node) + (height - 1) * sizeof(Node*);
  }

  // The head sentinel (full height) is allocated from `a` sequentially.
  template <typename A>
  explicit TxSkipList(const A& a, std::uint64_t seed = 0x5eed)
      : seed_(seed) {
    head_ = static_cast<Node*>(a.malloc(node_bytes(kMaxHeight)));
    head_->key = 0;
    head_->value = 0;
    head_->height = kMaxHeight;
    for (int i = 0; i < kMaxHeight; ++i) head_->next[i] = nullptr;
  }

  template <typename A>
  void destroy(const A& a) {
    Node* n = head_;
    while (n != nullptr) {
      Node* nx = n->next[0];
      a.free(n);
      n = nx;
    }
    head_ = nullptr;
  }

  // Inserts (key, value); returns false if present. Keys must be > 0.
  template <typename A>
  bool insert(const A& acc, std::uint64_t key, std::uint64_t value) {
    TMX_ASSERT(key > 0);
    Node* preds[kMaxHeight];
    Node* found = find_preds(acc, key, preds);
    if (found != nullptr) return false;
    const int h = random_height();
    auto* node = static_cast<Node*>(acc.malloc(node_bytes(h)));
    acc.store(&node->key, key);
    acc.store(&node->value, value);
    acc.store(&node->height, static_cast<std::uint64_t>(h));
    for (int i = 0; i < h; ++i) {
      acc.store(&node->next[i], acc.load(&preds[i]->next[i]));
      acc.store(&preds[i]->next[i], node);
    }
    return true;
  }

  template <typename A>
  bool remove(const A& acc, std::uint64_t key) {
    Node* preds[kMaxHeight];
    Node* found = find_preds(acc, key, preds);
    if (found == nullptr) return false;
    const int h = static_cast<int>(acc.load(&found->height));
    for (int i = 0; i < h; ++i) {
      acc.store(&preds[i]->next[i], acc.load(&found->next[i]));
    }
    acc.free(found);
    return true;
  }

  template <typename A>
  bool lookup(const A& acc, std::uint64_t key,
              std::uint64_t* value = nullptr) const {
    Node* n = head_;
    for (int level = kMaxHeight - 1; level >= 0; --level) {
      for (Node* nx = acc.load(&n->next[level]);
           nx != nullptr && acc.load(&nx->key) < key;
           nx = acc.load(&n->next[level])) {
        n = nx;
      }
    }
    Node* cand = acc.load(&n->next[0]);
    if (cand == nullptr || acc.load(&cand->key) != key) return false;
    if (value != nullptr) *value = acc.load(&cand->value);
    return true;
  }

  // ---- Sequential verification helpers ----
  const Node* head() const { return head_; }
  std::size_t size_seq() const {
    std::size_t n = 0;
    for (Node* c = head_->next[0]; c != nullptr; c = c->next[0]) ++n;
    return n;
  }
  bool valid_seq() const {
    // Level 0 sorted; every higher level is a subsequence of level 0.
    std::uint64_t last = 0;
    for (Node* c = head_->next[0]; c != nullptr; c = c->next[0]) {
      if (c->key <= last) return false;
      last = c->key;
    }
    for (int level = 1; level < kMaxHeight; ++level) {
      Node* lower = head_->next[0];
      for (Node* c = head_->next[level]; c != nullptr; c = c->next[level]) {
        if (static_cast<int>(c->height) <= level) return false;
        while (lower != nullptr && lower != c) lower = lower->next[0];
        if (lower == nullptr) return false;  // not present at level 0
      }
    }
    return true;
  }

 private:
  template <typename A>
  Node* find_preds(const A& acc, std::uint64_t key,
                   Node* preds[kMaxHeight]) const {
    Node* n = head_;
    for (int level = kMaxHeight - 1; level >= 0; --level) {
      for (Node* nx = acc.load(&n->next[level]);
           nx != nullptr && acc.load(&nx->key) < key;
           nx = acc.load(&n->next[level])) {
        n = nx;
      }
      preds[level] = n;  // tmx-lint: allow(naked-store) — caller's array
    }
    Node* cand = acc.load(&n->next[0]);
    return (cand != nullptr && acc.load(&cand->key) == key) ? cand : nullptr;
  }

  int random_height() {
    // Geometric with p = 1/2, capped. Heights are derived from an atomic
    // sequence number so concurrent inserts (real-thread engine included)
    // draw independent, reproducible values without a data race.
    SplitMix64 sm(seed_ ^
                  (0x9e3779b97f4a7c15ULL *
                   height_seq_.fetch_add(1, std::memory_order_relaxed)));
    const std::uint64_t bits = sm.next();
    int h = 1;
    while (h < kMaxHeight && ((bits >> h) & 1)) ++h;
    return h;
  }

  Node* head_;
  std::uint64_t seed_;
  std::atomic<std::uint64_t> height_seq_{1};
};

}  // namespace tmx::ds
