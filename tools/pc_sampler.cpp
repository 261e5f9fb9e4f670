// pc_sampler: a wall-clock program-counter sampler loaded with LD_PRELOAD,
// for hosts where perf_event_open is unavailable.
//
//   TMX_PCSAMPLE_OUT=/tmp/run LD_PRELOAD=.../libtmx_pc_sampler.so PROGRAM ...
//   python3 tools/pc_report.py /tmp/run.*
//
// A POSIX timer on CLOCK_MONOTONIC raises SIGPROF 20000 times a second;
// the handler stores the interrupted program counter. At exit the process
// writes TMX_PCSAMPLE_OUT.<pid>: a header, one "map LO HI BIAS PATH" line
// per executable PT_LOAD segment of each loaded object (BIAS is the
// loader's dlpi_addr, so PC - BIAS is the link-time address addr2line
// takes), then one PC per line, all in hex. Without TMX_PCSAMPLE_OUT the
// library does nothing.
//
// The timer is a timer_create timer, not setitimer: an execve deletes it,
// so a program that re-executes itself (perfbench's ASLR re-exec) is not
// killed by a SIGPROF arriving before the new image installs a handler.
// The re-executed image loads the library again and samples itself. Forked
// children do not inherit the timer and write nothing. A process that
// leaves through _exit skips the write, and so does one whose buffer was
// never reached by a sample.
#include <link.h>
#include <signal.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr std::size_t kCapacity = std::size_t{1} << 22;  // 32 MiB reserved

std::uint64_t* g_pcs = nullptr;  // pages become resident as samples land
std::atomic<std::size_t> g_count{0};
timer_t g_timer{};
bool g_armed = false;
pid_t g_pid = 0;  // the sampled process; a forked child writes nothing
constexpr long kHz = 20000;

void on_sample(int, siginfo_t*, void* uctx) {
  const auto* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uint64_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uint64_t>(uc->uc_mcontext.pc);
#else
  const std::uint64_t pc = 0;
  (void)uc;
#endif
  const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kCapacity) g_pcs[i] = pc;
}

// Writes each loaded object's executable segments. The main program's
// dlpi_name is empty, so its path comes from /proc/self/exe; objects with
// no file (the vDSO) are skipped and their samples report as unmapped.
int write_object(dl_phdr_info* info, std::size_t, void* data) {
  auto* out = static_cast<std::FILE*>(data);
  char exe[4096];
  const char* path = info->dlpi_name;
  if (path[0] == '\0') {
    const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (n <= 0) return 0;
    exe[n] = '\0';
    path = exe;
  }
  if (path[0] != '/') return 0;
  for (int k = 0; k < info->dlpi_phnum; ++k) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[k];
    if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) continue;
    const unsigned long long lo = info->dlpi_addr + ph.p_vaddr;
    std::fprintf(out, "map %llx %llx %llx %s\n", lo, lo + ph.p_memsz,
                 static_cast<unsigned long long>(info->dlpi_addr), path);
  }
  return 0;
}

__attribute__((constructor)) void start() {
  if (std::getenv("TMX_PCSAMPLE_OUT") == nullptr) return;
  void* buf = mmap(nullptr, kCapacity * sizeof(std::uint64_t),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buf == MAP_FAILED) return;
  g_pcs = static_cast<std::uint64_t*>(buf);
  struct sigaction sa = {};
  sa.sa_sigaction = on_sample;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;
  struct sigevent ev = {};
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &ev, &g_timer) != 0) return;
  struct itimerspec its = {};
  its.it_interval.tv_nsec = 1000000000L / kHz;
  its.it_value = its.it_interval;
  g_pid = getpid();
  g_armed = timer_settime(g_timer, 0, &its, nullptr) == 0;
}

__attribute__((destructor)) void finish() {
  if (!g_armed || getpid() != g_pid) return;
  timer_delete(g_timer);
  g_armed = false;
  const std::size_t taken = g_count.load(std::memory_order_relaxed);
  if (taken == 0) return;
  const std::size_t kept = taken < kCapacity ? taken : kCapacity;
  char path[4096];
  std::snprintf(path, sizeof path, "%s.%ld", std::getenv("TMX_PCSAMPLE_OUT"),
                static_cast<long>(getpid()));
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  std::fprintf(out, "tmx-pcsample-v1 hz %ld samples %zu dropped %zu\n", kHz,
               kept, taken - kept);
  dl_iterate_phdr(write_object, out);
  for (std::size_t i = 0; i < kept; ++i) {
    std::fprintf(out, "%llx\n", static_cast<unsigned long long>(g_pcs[i]));
  }
  std::fclose(out);
}

}  // namespace
