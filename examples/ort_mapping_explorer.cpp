// ort_mapping_explorer: interactively inspect how each allocator's block
// layout interacts with the STM's ownership-record mapping — the mechanism
// behind Figure 5 and Section 5.2 of the paper.
//
//   ./build/examples/ort_mapping_explorer --size 16 --count 8 --shift 5
#include <cstdio>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/stm.hpp"
#include "harness/options.hpp"

int main(int argc, char** argv) {
  using namespace tmx;
  using K = harness::Flag::Kind;
  constexpr harness::Flag kFlags[] = {
      {"alloc", K::kText, "a,b,...", "glibc,hoard,tbb,tcmalloc",
       "allocators to inspect"},
      {"size", K::kInt, "BYTES", "16", "allocation size"},
      {"count", K::kInt, "N", "8", "consecutive allocations"},
  };
  const harness::Options opt(
      argc, argv,
      {{"ort_mapping_explorer: block layout vs ORT locks:", kFlags},
       harness::kRunFlags});
  const harness::RunSpec spec = opt.run_spec();
  const std::size_t size = static_cast<std::size_t>(opt.get_long("size"));
  const int count = static_cast<int>(opt.get_long("count"));

  std::printf("ORT mapping: index = (addr >> %u) mod 2^%u  "
              "(stripe = %u bytes)\n\n", spec.shift, spec.ort_log2,
              1u << spec.shift);

  for (const auto& name : opt.get_list("alloc")) {
    auto allocator = alloc::create_allocator(name);
    stm::Stm stm(spec.stm_config(allocator.get()));

    std::vector<void*> blocks;
    for (int i = 0; i < count; ++i) blocks.push_back(allocator->allocate(size));

    std::printf("%s: %d consecutive %zu-byte allocations\n", name.c_str(),
                count, size);
    int collisions = 0;
    for (int i = 0; i < count; ++i) {
      const auto addr = reinterpret_cast<std::uintptr_t>(blocks[i]);
      const std::size_t lo = stm.ort_index(blocks[i]);
      const std::size_t hi = stm.ort_index(
          static_cast<const char*>(blocks[i]) + allocator->usable_size(blocks[i]) - 1);
      bool shares_prev = false;
      if (i > 0) {
        const auto prev = static_cast<const char*>(blocks[i - 1]);
        const std::size_t prev_hi =
            stm.ort_index(prev + allocator->usable_size(blocks[i - 1]) - 1);
        shares_prev = prev_hi == lo || stm.ort_index(blocks[i - 1]) == lo;
        if (shares_prev) ++collisions;
      }
      std::printf("  block %d @ %#14llx  usable %3zu  ORT [%7zu..%7zu]%s\n",
                  i, static_cast<unsigned long long>(addr),
                  allocator->usable_size(blocks[i]), lo, hi,
                  shares_prev ? "  <-- shares a versioned lock with the "
                                "previous block" : "");
    }
    std::printf("  => %d of %d adjacent pairs share an ORT entry\n\n",
                collisions, count - 1);
  }
  std::printf(
      "Blocks sharing a versioned lock falsely conflict: a writer of one "
      "aborts readers of\nthe other (paper Figure 5). Try --shift 4, or "
      "--size 48 to see the rbtree case.\n");
  return 0;
}
