// Command-line parsing shared by every bench and example.
//
// Every flag is declared once, as a Flag in a table: kRunFlags (the run
// settings Options::run_spec() reads), kReportFlags (the artifacts
// harness::ObsSession writes, obs_session.hpp) or the binary's own table.
// A binary hands Options the tables it honours, and Options
//
//  * accepts `--name value`, `--name=value` and bare `--name` for flags
//    that take no value; list values are comma-separated;
//  * exits 2, naming the argument on stderr, on an unknown or repeated
//    flag, a positional argument, a missing value, or a value outside its
//    flag's domain;
//  * prints --help from the tables and exits 0, and prints the allocator
//    registry for --list-allocators and exits 0 (every binary has both).
//
// A flag's domain is its kind (numbers, registered allocators) and its
// hint, which --help prints: "a|b|c" is a closed set ("0|1" for toggles;
// an alternative "a[:NAME]" also takes "a:N"), "lo..hi" an integer range,
// and either ending in "[,...]" a comma list; any other hint ("N", "PATH")
// only names the value. Every given value is checked in the constructor,
// so code that reads a flag takes it as valid. Reading a flag no table
// declares is a programming error (it aborts), so --help lists every flag
// a binary reads.
#pragma once

#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "harness/run_spec.hpp"

namespace tmx::harness {

struct Flag {
  enum class Kind {
    kBare,      // no value: --quick
    kOptional,  // an optional value: --check or --check race
    kText,
    kInt,
    kReal,
    kInts,      // comma list of integers: --threads 1,2,4
    kModel,     // one registered allocator: --alloc tcmalloc
    kModels,    // comma list of registered allocators: --alloc glibc,tbb
  };
  const char* name;      // without the leading "--"
  Kind kind;
  const char* hint;      // the domain, or a placeholder ("N", "PATH")
  const char* fallback;  // value when the flag is absent; nullptr = none
  const char* help;      // --help text
};

struct FlagTable {
  const char* title;  // --help heading, printed as is
  std::span<const Flag> flags;
};

// Every flag Options::run_spec() reads.
extern const FlagTable kRunFlags;

// Thread and worker counts: sim::run_parallel's bound, 1..kMaxThreads.
inline constexpr const char* kThreadsHint = "1..256";

class Options {
 public:
  Options(int argc, char** argv, std::initializer_list<FlagTable> tables);

  // True when the flag was given.
  bool has(std::string_view name) const;
  // The given value, else the table's fallback, else "".
  std::string get(std::string_view name) const;
  long get_long(std::string_view name) const;
  double get_double(std::string_view name) const;
  std::vector<std::string> get_list(std::string_view name) const;
  // True when some flag whose name starts with `prefix` was given.
  bool has_prefix(std::string_view prefix) const;
  // The index of a closed-set flag's value among its hint's alternatives.
  std::size_t choice(std::string_view name) const;
  // Prints "<program>: <why> (see --help)" and exits 2.
  [[noreturn]] void usage_error(const std::string& why) const;

  // Every run setting, parsed once from kRunFlags: each plane's fields by
  // its row of harness::kPlanes (run_context.hpp), and `phase` from the
  // --phase-* flags. `allocator` keeps its default: each binary declares
  // its own --alloc (one model or a list it sweeps).
  RunSpec run_spec() const;

 private:
  const Flag* find(std::string_view name) const;
  const Flag& flag(std::string_view name) const;  // aborts when undeclared
  std::string help_text() const;

  std::string program_;
  std::vector<FlagTable> tables_;
  std::map<std::string, std::string, std::less<>> kv_;  // given flags
};

// Splits a comma list, dropping empty items.
std::vector<std::string> split_list(const std::string& s);

}  // namespace tmx::harness
