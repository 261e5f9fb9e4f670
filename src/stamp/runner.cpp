#include <cstdio>
#include <cstdlib>

#include "alloc/instrument.hpp"
#include "prof/prof.hpp"
#include "stamp/app.hpp"

namespace tmx::stamp {

std::vector<std::string> app_names() {
  return {"bayes",     "genome", "intruder", "kmeans",
          "labyrinth", "ssca2",  "vacation", "yada"};
}

bool app_exists(const std::string& name) {
  for (const auto& n : app_names()) {
    if (n == name) return true;
  }
  return false;
}

AppResult run_app(const std::string& name, const AppContext& ctx) {
  if (name == "bayes") return run_bayes(ctx);
  if (name == "genome") return run_genome(ctx);
  if (name == "intruder") return run_intruder(ctx);
  if (name == "kmeans") return run_kmeans(ctx);
  if (name == "labyrinth") return run_labyrinth(ctx);
  if (name == "ssca2") return run_ssca2(ctx);
  if (name == "vacation") return run_vacation(ctx);
  if (name == "yada") return run_yada(ctx);
  std::fprintf(stderr, "unknown STAMP app '%s'\n", name.c_str());
  std::abort();
}

StampOutcome run_stamp(const StampRun& run) {
  harness::RunContext context(run, run.threads);
  StampOutcome out;
  {
    alloc::Allocator& allocator = context.allocator(run.instrument);
    stm::Stm stm(run.stm_config(&allocator));
    out.result = run_app(run.app, {&stm, run.run_config(run.threads),
                                   run.scale});
    if (auto* instr =
            alloc::find_layer<alloc::InstrumentingAllocator>(&allocator)) {
      out.profile = instr->profile();
    }
    // Final RSS/fragmentation row while the observed allocator is still
    // alive.
    if (run.prof) prof::sample_now();
  }
  out.planes = context.finish();
  return out;
}

}  // namespace tmx::stamp
