// tmx-trace-v1: a versioned, compact binary format for allocation /
// transaction traces.
//
// A trace is the paper's experiment input made reusable: the sequence of
// malloc / free / tx-begin / tx-commit / tx-abort operations of one run,
// each stamped with its logical thread and virtual cycle, plus a header
// identifying the allocator and STM configuration that produced it. The
// same capture can then be replayed through *any* registered allocator
// model (replayer.hpp) to predict its Table 4 / Figure 5 placement
// behaviour without rerunning the workload — the central claim of the
// paper is that placement, not allocation speed, drives TM performance, so
// the request stream is the experiment.
//
// Layout (all integers little-endian):
//
//   magic            8 bytes  "tmxtrc1\n"
//   version          u32      1
//   flags            u32      0 (the reader refuses any other value)
//   threads          u32      logical thread count (tids are < threads)
//   name_len         u32      length of the allocator name (<= 64)
//   shift            u32      ORT bytes-per-stripe = 2^shift at capture
//   ort_log2         u32      ORT size = 2^ort_log2 at capture
//   seed             u64      experiment seed
//   reserved         u64      0 (likewise)
//   record_count     u64      number of records that follow
//   fingerprint      u64      meta_fingerprint() of the fields above
//   name             name_len bytes (the recording allocator model)
//   records          delta/varint encoded, see below
//   checksum         u64      FNV-1a over every preceding byte
//
// Records are LEB128 varints with two running deltas (cycle against the
// previous record — traces are cycle-sorted, so deltas are non-negative —
// and zigzag address against the previously referenced address):
//
//   tag      u8      kind in bits 0..2, bit 3 = parallel phase
//   tid      varint
//   dcycle   varint  cycle - previous record's cycle
//   payload  per kind:
//     kMalloc    size varint, region u8, zigzag addr delta
//     kFree      region u8, zigzag addr delta
//     kTxBegin   -
//     kTxCommit  reads varint, writes varint
//     kTxAbort   cause u8
//
// A capture holds every operation of its runs (harness/run_context.hpp),
// with addresses as offsets in the run's address space, so a seeded
// capture writes the same bytes in every process.
//
// The reader is strict: bad magic/version, a nonzero reserved field, an
// oversized name, an unknown tag or tag bit, an out-of-range tid/region, a
// record-count mismatch, trailing bytes or a checksum mismatch all reject
// the file with a typed status.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "replay/record.hpp"

namespace tmx::replay {

inline constexpr char kTraceMagic[8] = {'t', 'm', 'x', 't', 'r', 'c', '1',
                                        '\n'};
inline constexpr std::uint32_t kTraceVersion = 1;
inline constexpr std::size_t kMaxAllocatorNameLen = 64;
inline constexpr std::uint64_t kMaxTraceRecords = 1ull << 28;
inline constexpr std::uint32_t kMaxTraceThreads = 1u << 12;

const char* op_kind_name(OpKind k);

struct TraceMeta {
  std::string allocator;     // recording model ("" / "synthetic" = none)
  std::uint32_t threads = 1;
  std::uint32_t shift = 5;
  std::uint32_t ort_log2 = 20;
  std::uint64_t seed = 0;

  bool operator==(const TraceMeta&) const = default;
};

struct Trace {
  TraceMeta meta;
  std::vector<TraceRecord> records;  // non-decreasing cycle order

  std::uint64_t count(OpKind k) const;
};

// 64-bit FNV-1a over the configuration identity (allocator name, threads,
// shift, ort_log2, seed). Stored in the header and re-verified on read, so
// a replay report can state which capture configuration it compares against.
std::uint64_t meta_fingerprint(const TraceMeta& m);

// FNV-1a helper shared with the replayer's address fingerprints.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t seed = 14695981039346656037ull);

enum class ReadStatus {
  kOk = 0,
  kIoError,     // file missing / unreadable
  kBadMagic,    // not a tmx-trace file
  kBadVersion,  // tmx-trace, but not version 1
  kTruncated,   // ran out of bytes mid-header or mid-record
  kCorrupt,     // structural or checksum validation failed
};
const char* read_status_name(ReadStatus s);

// In-memory encode/decode — the property-test surface. encode fails (false)
// only on invalid input: cycles out of order, a name over the limit, or
// more than kMaxTraceRecords records.
bool encode_trace(const Trace& t, std::string* out);
ReadStatus decode_trace(const std::string& bytes, Trace* out);

// File wrappers around encode/decode.
bool write_trace(const std::string& path, const Trace& t);
ReadStatus read_trace(const std::string& path, Trace* out);

}  // namespace tmx::replay
