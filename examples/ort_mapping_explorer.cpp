// ort_mapping_explorer: interactively inspect how each allocator's block
// layout interacts with the STM's ownership-record mapping — the mechanism
// behind Figure 5 and Section 5.2 of the paper.
//
//   ./build/examples/ort_mapping_explorer --size 16 --count 8 --shift 5
//
// Each allocator is inspected in its own run, and a block's address is
// printed as its offset in the run's address space (sim/address_space.hpp),
// so the output is the same in every process.
#include <cstdio>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/stm.hpp"
#include "harness/obs_session.hpp"
#include "harness/options.hpp"
#include "harness/run_context.hpp"

int main(int argc, char** argv) {
  using namespace tmx;
  using K = harness::Flag::Kind;
  constexpr harness::Flag kFlags[] = {
      {"alloc", K::kModels, "a,b,...", "glibc,hoard,tbb,tcmalloc",
       "allocators to inspect"},
      {"size", K::kInt, "BYTES", "16", "allocation size"},
      {"count", K::kInt, "N", "8", "consecutive allocations"},
  };
  const harness::Options opt(
      argc, argv,
      {{"ort_mapping_explorer: block layout vs ORT locks:", kFlags},
       harness::kRunFlags, harness::kReportFlags});
  harness::RunSpec spec = opt.run_spec();
  const std::size_t size = static_cast<std::size_t>(opt.get_long("size"));
  const int count = static_cast<int>(opt.get_long("count"));
  harness::ObsSession obs(opt);

  std::printf("ORT mapping: index = (addr >> %u) mod 2^%u  "
              "(stripe = %u bytes)\n\n", spec.shift, spec.ort_log2,
              1u << spec.shift);

  for (const auto& name : opt.get_list("alloc")) {
    spec.allocator = name;
    harness::RunContext run(spec);
    {  // the STM ends before the run closes
      alloc::Allocator& allocator = run.allocator(/*instrument=*/false);
      stm::Stm stm(spec.stm_config(&allocator));
      const sim::AddressSpace& space = sim::context().space;

      std::vector<void*> blocks;
      for (int i = 0; i < count; ++i) {
        blocks.push_back(allocator.allocate(size));
      }

      std::printf("%s: %d consecutive %zu-byte allocations\n", name.c_str(),
                  count, size);
      int collisions = 0;
      for (int i = 0; i < count; ++i) {
        if (blocks[i] == nullptr) {  // an OOM the fault plane injected
          std::printf("  block %d: allocation failed\n", i);
          continue;
        }
        const std::uintptr_t offset =
            space.offset(reinterpret_cast<std::uintptr_t>(blocks[i]));
        const std::size_t usable = allocator.usable_size(blocks[i]);
        const std::size_t lo = stm.ort_index(blocks[i]);
        const std::size_t hi =
            stm.ort_index(static_cast<const char*>(blocks[i]) + usable - 1);
        bool shares_prev = false;
        if (i > 0 && blocks[i - 1] != nullptr) {
          const auto prev = static_cast<const char*>(blocks[i - 1]);
          const std::size_t prev_hi =
              stm.ort_index(prev + allocator.usable_size(blocks[i - 1]) - 1);
          shares_prev = prev_hi == lo || stm.ort_index(blocks[i - 1]) == lo;
          if (shares_prev) ++collisions;
        }
        std::printf("  block %d @ +0x%09llx  usable %3zu  "
                    "ORT [%7zu..%7zu]%s\n",
                    i, static_cast<unsigned long long>(offset), usable, lo, hi,
                    shares_prev ? "  <-- shares a versioned lock with the "
                                  "previous block" : "");
      }
      std::printf("  => %d of %d adjacent pairs share an ORT entry\n\n",
                  collisions, count - 1);
      for (void* b : blocks) allocator.deallocate(b);
    }
    obs.report(name + ".", run.finish());
  }
  std::printf(
      "Blocks sharing a versioned lock falsely conflict: a writer of one "
      "aborts readers of\nthe other (paper Figure 5). Try --shift 4, or "
      "--size 48 to see the rbtree case.\n");
  return obs.finish(0);
}
