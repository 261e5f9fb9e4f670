#include "replay/trace_format.hpp"

#include <cstdio>
#include <cstring>

namespace tmx::replay {

namespace {

// ---- primitive encoders -------------------------------------------------

void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void put_varint(std::string* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

// ---- primitive decoders (bounds-checked cursor) -------------------------

struct Cursor {
  const unsigned char* p;
  std::size_t n;
  std::size_t pos = 0;
  bool truncated = false;

  bool take(void* out, std::size_t k) {
    if (pos + k > n) {
      truncated = true;
      return false;
    }
    std::memcpy(out, p + pos, k);
    pos += k;
    return true;
  }

  bool u8(std::uint8_t* v) { return take(v, 1); }

  bool u32(std::uint32_t* v) {
    unsigned char b[4];
    if (!take(b, 4)) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return true;
  }

  bool u64(std::uint64_t* v) {
    unsigned char b[8];
    if (!take(b, 8)) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return true;
  }

  // Returns false on truncation; sets *ok=false (without truncation) on an
  // over-long varint, which the caller reports as corruption.
  bool varint(std::uint64_t* v, bool* ok) {
    *v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      std::uint8_t b;
      if (!u8(&b)) return false;
      *v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return true;
    }
    *ok = false;  // 10th continuation byte: not a valid LEB128-64 value
    return true;
  }
};

constexpr std::uint8_t kTagParallel = 0x08;
constexpr std::uint8_t kTagKnownBits = 0x0f;

}  // namespace

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kMalloc: return "malloc";
    case OpKind::kFree: return "free";
    case OpKind::kTxBegin: return "tx_begin";
    case OpKind::kTxCommit: return "tx_commit";
    case OpKind::kTxAbort: return "tx_abort";
  }
  return "?";
}

const char* read_status_name(ReadStatus s) {
  switch (s) {
    case ReadStatus::kOk: return "ok";
    case ReadStatus::kIoError: return "io_error";
    case ReadStatus::kBadMagic: return "bad_magic";
    case ReadStatus::kBadVersion: return "bad_version";
    case ReadStatus::kTruncated: return "truncated";
    case ReadStatus::kCorrupt: return "corrupt";
  }
  return "?";
}

std::uint64_t Trace::count(OpKind k) const {
  std::uint64_t n = 0;
  for (const TraceRecord& r : records) {
    if (r.kind == k) ++n;
  }
  return n;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t meta_fingerprint(const TraceMeta& m) {
  std::uint64_t h = fnv1a(m.allocator.data(), m.allocator.size());
  const std::uint64_t fields[4] = {m.threads, m.shift, m.ort_log2, m.seed};
  return fnv1a(fields, sizeof fields, h);
}

bool encode_trace(const Trace& t, std::string* out) {
  if (t.meta.allocator.size() > kMaxAllocatorNameLen) return false;
  if (t.records.size() > kMaxTraceRecords) return false;
  if (t.meta.threads == 0 || t.meta.threads > kMaxTraceThreads) return false;

  out->clear();
  out->append(kTraceMagic, sizeof kTraceMagic);
  put_u32(out, kTraceVersion);
  put_u32(out, 0);  // flags
  put_u32(out, t.meta.threads);
  put_u32(out, static_cast<std::uint32_t>(t.meta.allocator.size()));
  put_u32(out, t.meta.shift);
  put_u32(out, t.meta.ort_log2);
  put_u64(out, t.meta.seed);
  put_u64(out, 0);  // reserved
  put_u64(out, t.records.size());
  put_u64(out, meta_fingerprint(t.meta));
  out->append(t.meta.allocator);

  std::uint64_t prev_cycle = 0;
  std::uint64_t prev_addr = 0;
  for (const TraceRecord& r : t.records) {
    if (r.cycle < prev_cycle) return false;  // traces are cycle-sorted
    if (static_cast<std::uint8_t>(r.kind) >= kNumOpKinds) return false;
    if (r.tid >= t.meta.threads) return false;
    out->push_back(static_cast<char>(static_cast<std::uint8_t>(r.kind) |
                                     (r.parallel ? kTagParallel : 0)));
    put_varint(out, r.tid);
    put_varint(out, r.cycle - prev_cycle);
    prev_cycle = r.cycle;
    switch (r.kind) {
      case OpKind::kMalloc:
        put_varint(out, r.size);
        out->push_back(static_cast<char>(r.aux));
        put_varint(out, zigzag(static_cast<std::int64_t>(r.addr - prev_addr)));
        prev_addr = r.addr;
        break;
      case OpKind::kFree:
        out->push_back(static_cast<char>(r.aux));
        put_varint(out, zigzag(static_cast<std::int64_t>(r.addr - prev_addr)));
        prev_addr = r.addr;
        break;
      case OpKind::kTxBegin:
        break;
      case OpKind::kTxCommit:
        put_varint(out, r.size);
        put_varint(out, r.size2);
        break;
      case OpKind::kTxAbort:
        out->push_back(static_cast<char>(r.aux));
        break;
    }
  }
  put_u64(out, fnv1a(out->data(), out->size()));
  return true;
}

ReadStatus decode_trace(const std::string& bytes, Trace* out) {
  *out = Trace{};
  Cursor c{reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size()};

  char magic[8];
  if (!c.take(magic, sizeof magic)) return ReadStatus::kTruncated;
  if (std::memcmp(magic, kTraceMagic, sizeof magic) != 0) {
    return ReadStatus::kBadMagic;
  }
  std::uint32_t version = 0, flags = 0, name_len = 0;
  std::uint64_t reserved = 0, record_count = 0, fingerprint = 0;
  TraceMeta& m = out->meta;
  if (!c.u32(&version)) return ReadStatus::kTruncated;
  if (version != kTraceVersion) return ReadStatus::kBadVersion;
  if (!c.u32(&flags) || !c.u32(&m.threads) || !c.u32(&name_len) ||
      !c.u32(&m.shift) || !c.u32(&m.ort_log2) || !c.u64(&m.seed) ||
      !c.u64(&reserved) || !c.u64(&record_count) || !c.u64(&fingerprint)) {
    return ReadStatus::kTruncated;
  }
  if (flags != 0 || reserved != 0) return ReadStatus::kCorrupt;
  if (m.threads == 0 || m.threads > kMaxTraceThreads) return ReadStatus::kCorrupt;
  if (name_len > kMaxAllocatorNameLen) return ReadStatus::kCorrupt;
  if (record_count > kMaxTraceRecords) return ReadStatus::kCorrupt;
  if (m.shift > 16 || m.ort_log2 > 30) return ReadStatus::kCorrupt;

  m.allocator.resize(name_len);
  if (name_len != 0 && !c.take(m.allocator.data(), name_len)) {
    return ReadStatus::kTruncated;
  }
  if (meta_fingerprint(m) != fingerprint) return ReadStatus::kCorrupt;

  out->records.reserve(static_cast<std::size_t>(record_count));
  std::uint64_t cycle = 0;
  std::uint64_t prev_addr = 0;
  bool ok = true;
  for (std::uint64_t i = 0; i < record_count; ++i) {
    TraceRecord r;
    std::uint8_t tag = 0;
    if (!c.u8(&tag)) return ReadStatus::kTruncated;
    if ((tag & ~kTagKnownBits) != 0) return ReadStatus::kCorrupt;
    if ((tag & 0x07) >= kNumOpKinds) return ReadStatus::kCorrupt;
    r.kind = static_cast<OpKind>(tag & 0x07);
    r.parallel = (tag & kTagParallel) != 0;

    std::uint64_t tid = 0, dcycle = 0;
    if (!c.varint(&tid, &ok) || !c.varint(&dcycle, &ok)) {
      return ReadStatus::kTruncated;
    }
    if (!ok || tid >= m.threads) return ReadStatus::kCorrupt;
    r.tid = static_cast<std::uint32_t>(tid);
    cycle += dcycle;
    r.cycle = cycle;

    std::uint64_t v = 0;
    switch (r.kind) {
      case OpKind::kMalloc:
        if (!c.varint(&r.size, &ok) || !c.u8(&r.aux) || !c.varint(&v, &ok)) {
          return ReadStatus::kTruncated;
        }
        if (!ok || r.aux > 2) return ReadStatus::kCorrupt;  // alloc::Region
        r.addr = prev_addr + static_cast<std::uint64_t>(unzigzag(v));
        prev_addr = r.addr;
        break;
      case OpKind::kFree:
        if (!c.u8(&r.aux) || !c.varint(&v, &ok)) return ReadStatus::kTruncated;
        if (!ok || r.aux > 2) return ReadStatus::kCorrupt;
        r.addr = prev_addr + static_cast<std::uint64_t>(unzigzag(v));
        prev_addr = r.addr;
        break;
      case OpKind::kTxBegin:
        break;
      case OpKind::kTxCommit:
        if (!c.varint(&r.size, &ok) || !c.varint(&r.size2, &ok)) {
          return ReadStatus::kTruncated;
        }
        if (!ok) return ReadStatus::kCorrupt;
        break;
      case OpKind::kTxAbort:
        if (!c.u8(&r.aux)) return ReadStatus::kTruncated;
        // Software causes 0-4; hybrid hardware causes are offset by 5.
        if (r.aux > 8) return ReadStatus::kCorrupt;
        break;
    }
    out->records.push_back(r);
  }

  const std::size_t payload_end = c.pos;
  std::uint64_t checksum = 0;
  if (!c.u64(&checksum)) return ReadStatus::kTruncated;
  if (c.pos != bytes.size()) return ReadStatus::kCorrupt;  // trailing bytes
  if (checksum != fnv1a(bytes.data(), payload_end)) return ReadStatus::kCorrupt;
  return ReadStatus::kOk;
}

bool write_trace(const std::string& path, const Trace& t) {
  std::string bytes;
  if (!encode_trace(t, &bytes)) return false;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

ReadStatus read_trace(const std::string& path, Trace* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return ReadStatus::kIoError;
  std::string bytes;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  const bool io_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!io_ok) return ReadStatus::kIoError;
  return decode_trace(bytes, out);
}

}  // namespace tmx::replay
