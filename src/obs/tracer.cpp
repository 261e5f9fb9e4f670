#include "obs/tracer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

namespace tmx::obs {

namespace {

std::uint64_t default_clock() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int default_tid() { return 0; }

ClockFn g_clock = &default_clock;
TidFn g_tid = &default_tid;

}  // namespace

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kTxBegin: return "tx_begin";
    case EventKind::kTxCommit: return "tx_commit";
    case EventKind::kTxAbort: return "tx_abort";
    case EventKind::kStripeAcquire: return "stripe_acquire";
    case EventKind::kStripeRelease: return "stripe_release";
    case EventKind::kAlloc: return "malloc";
    case EventKind::kFree: return "free";
    case EventKind::kCacheMiss: return "cache_miss";
    case EventKind::kCacheInval: return "cache_inval";
    case EventKind::kRunBegin: return "run_begin";
    case EventKind::kRunEnd: return "run_end";
    case EventKind::kCheckReport: return "check_report";
  }
  return "?";
}

void install_time_source(ClockFn clock, TidFn tid) {
  if (clock != nullptr) g_clock = clock;
  if (tid != nullptr) g_tid = tid;
}

std::uint64_t trace_clock() { return g_clock(); }

void record_event(EventKind kind, std::uint64_t a, std::uint64_t b,
                  std::uint8_t arg0, std::uint16_t arg1) {
  Tracer::instance().record(kind, a, b, arg0, arg1);
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

void Tracer::enable(std::size_t capacity_per_thread) {
  std::size_t cap = 8;
  while (cap < capacity_per_thread) cap <<= 1;
  capacity_ = cap;
  mask_ = cap - 1;
  for (auto& pb : buffers_) {
    pb->slots = std::make_unique<Event[]>(cap);
    pb->head = 0;
  }
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
}

bool Tracer::enabled() const { return trace_enabled(); }

void Tracer::record(EventKind kind, std::uint64_t a, std::uint64_t b,
                    std::uint8_t arg0, std::uint16_t arg1) {
  record_at(g_clock(), g_tid(), kind, a, b, arg0, arg1);
}

void Tracer::record_at(std::uint64_t ts, int tid, EventKind kind,
                       std::uint64_t a, std::uint64_t b, std::uint8_t arg0,
                       std::uint16_t arg1) {
  if (!trace_enabled()) return;  // direct calls respect disable() too
  if (capacity_ == 0 || tid < 0 || tid >= kMaxThreads) return;
  ThreadBuffer& buf = *buffers_[tid];
  Event& e = buf.slots[buf.head & mask_];
  e.ts = ts;
  e.a = a;
  e.b = b;
  e.tid = static_cast<std::uint32_t>(tid);
  e.kind = kind;
  e.arg0 = arg0;
  e.arg1 = arg1;
  ++buf.head;
}

std::vector<Event> Tracer::snapshot() const {
  std::vector<Event> out;
  out.reserve(size());
  for (const auto& pb : buffers_) {
    const ThreadBuffer& buf = *pb;
    if (buf.slots == nullptr) continue;
    const std::uint64_t count = std::min<std::uint64_t>(buf.head, capacity_);
    for (std::uint64_t i = buf.head - count; i < buf.head; ++i) {
      out.push_back(buf.slots[i & mask_]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& x, const Event& y) { return x.ts < y.ts; });
  return out;
}

void Tracer::clear() {
  for (auto& pb : buffers_) pb->head = 0;
}

std::vector<Event> Tracer::thread_events(int tid) const {
  std::vector<Event> out;
  if (tid < 0 || tid >= kMaxThreads || capacity_ == 0) return out;
  const ThreadBuffer& buf = *buffers_[tid];
  if (buf.slots == nullptr) return out;
  const std::uint64_t count = std::min<std::uint64_t>(buf.head, capacity_);
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = buf.head - count; i < buf.head; ++i) {
    out.push_back(buf.slots[i & mask_]);
  }
  return out;
}

std::uint64_t Tracer::dropped_by_thread(int tid) const {
  if (tid < 0 || tid >= kMaxThreads) return 0;
  const ThreadBuffer& buf = *buffers_[tid];
  return buf.head > capacity_ ? buf.head - capacity_ : 0;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t d = 0;
  for (const auto& pb : buffers_) {
    if (pb->head > capacity_) d += pb->head - capacity_;
  }
  return d;
}

std::size_t Tracer::size() const {
  std::size_t n = 0;
  for (const auto& pb : buffers_) {
    n += static_cast<std::size_t>(std::min<std::uint64_t>(pb->head, capacity_));
  }
  return n;
}

}  // namespace tmx::obs
