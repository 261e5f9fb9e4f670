#include "replay/trace_json.hpp"

#include <cinttypes>
#include <cstdio>
#include <iterator>

#include "alloc/instrument.hpp"

namespace tmx::replay {

namespace {

// A tx-abort record's cause: the software AbortCause (0-4), or 5 +
// HwAbortCause for a hybrid hardware-path abort.
const char* abort_cause_name(std::uint8_t cause) {
  static const char* names[] = {"read_locked", "write_locked", "validation",
                                "explicit",    "oom",          "hw_conflict",
                                "hw_capacity", "hw_spurious",  "hw_explicit"};
  return cause < std::size(names) ? names[cause] : "?";
}

const char* region_name(std::uint8_t region) {
  return alloc::region_name(static_cast<alloc::Region>(region));
}

}  // namespace

std::string chrome_trace_json(const Trace& t) {
  std::string out =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"pid\":0,\"tid\":0,\"ts\":0,\"ph\":\"M\",\"name\":\"process_name\","
      "\"args\":{\"name\":\"tmx\"}}";
  char buf[192];  // an element's longest piece, a malloc's, is under 130
  const auto add = [&](const char* fmt, auto... args) {
    const int n = std::snprintf(buf, sizeof buf, fmt, args...);
    out.append(buf, static_cast<std::size_t>(n));
  };
  for (const TraceRecord& r : t.records) {
    add(",{\"pid\":0,\"tid\":%" PRIu32 ",\"ts\":%" PRIu64 ".%03" PRIu64, r.tid,
        r.cycle / 1000, r.cycle % 1000);
    switch (r.kind) {
      case OpKind::kTxBegin:
        out += ",\"ph\":\"B\",\"name\":\"tx\"}";
        break;
      case OpKind::kTxCommit:
        add(",\"ph\":\"E\",\"name\":\"tx\",\"args\":{\"outcome\":\"commit\","
            "\"reads\":%" PRIu64 ",\"writes\":%" PRIu64 "}}",
            r.size, r.size2);
        break;
      case OpKind::kTxAbort:
        add(",\"ph\":\"E\",\"name\":\"tx\",\"args\":{\"outcome\":\"abort\","
            "\"cause\":\"%s\"}}",
            abort_cause_name(r.aux));
        break;
      case OpKind::kMalloc:
        add(",\"ph\":\"i\",\"s\":\"t\",\"name\":\"malloc\",\"args\":{"
            "\"size\":%" PRIu64 ",\"region\":\"%s\",\"addr\":\"+0x%" PRIx64
            "\"}}",
            r.size, region_name(r.aux), r.addr);
        break;
      case OpKind::kFree:
        add(",\"ph\":\"i\",\"s\":\"t\",\"name\":\"free\",\"args\":{"
            "\"region\":\"%s\",\"addr\":\"+0x%" PRIx64 "\"}}",
            region_name(r.aux), r.addr);
        break;
    }
  }
  out += "]}";
  return out;
}

}  // namespace tmx::replay
