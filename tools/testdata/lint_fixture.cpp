// Deliberately buggy fixture for tmx_lint's self-test: every rule must
// fire at least once on this file (the ctest asserts a nonzero exit).
// This file is never compiled.
#include <atomic>
#include <cstdlib>
#include <vector>

struct Node {
  int value;
  Node* next;
};

void fixture(Stm& stm, std::atomic<int>& counter, Node* head, int* cell) {
  stm.atomically([&](stm::Tx& tx) {
    void* p = malloc(32);             // raw-alloc
    void* q = std::malloc(16);        // raw-alloc (std-qualified)
    Node* n = new Node;               // raw-new-delete
    delete head->next;                // raw-new-delete
    *cell = 7;                        // naked-store (deref)
    head->value = 1;                  // naked-store (member)
    head[1].value = 2;                // (member of indexed lvalue)
    counter.fetch_add(1);             // atomic-in-tx
    std::vector<Node*> seen;          // tx-frame-dtor
    seen.push_back(tx.load(&head->next));
    free(p);                          // raw-alloc
    std::free(q);                     // raw-alloc
    (void)n;
  });
}
