// tmx-lint: a tokenizer-level static pass enforcing transactional
// discipline in the STAMP ports, the transactional data structures, and the
// examples. No libclang: the rules below are decidable on a comment- and
// string-stripped token stream plus brace matching, which keeps the tool a
// single dependency-free translation unit the CI job can always build.
//
// A *TX region* is the body of a lambda passed to Stm::atomically (detected
// as the identifier `atomically` followed by a parenthesized lambda) or of
// any lambda/function whose parameter list mentions `stm::Tx&`, `TxAccess`
// or the access policy `const A& acc` (the structures' and STAMP ports'
// operations, instantiated with TxAccess inside transactions). Inside a TX
// region the rules are:
//
//   raw-alloc       malloc/free/calloc/realloc/strdup/aligned_alloc called
//                   directly (or std::-qualified) instead of through
//                   Tx::malloc / Tx::free / the access-policy wrappers.
//                   Member calls (tx.free, acc.malloc, A.allocate) are
//                   exempt: the receiver routes them correctly.
//   raw-new-delete  new / delete inside a transaction: the object's memory
//                   would bypass the transactional allocator entirely, so
//                   an abort leaks it and a conflicting commit double-runs
//                   constructors.
//   naked-store     a store through a raw pointer (`*p = v`, `p->f = v`,
//                   `p[i] = v`) instead of tx.store/acc.store: invisible to
//                   the write barriers, so neither conflict detection nor
//                   rollback covers it.
//   atomic-in-tx    std::atomic RMW (fetch_*/exchange/compare_exchange*)
//                   inside a transaction: the side effect escapes the
//                   write set and replays on every retry.
//   tx-frame-dtor   a local of a non-trivially-destructible standard type
//                   (std::vector, std::string, std::unique_ptr,
//                   std::function, std::map, ...) declared inside a TX
//                   region: an abort jumps from the barrier back to
//                   Stm::atomically's checkpoint without running
//                   destructors, so the local leaks. Keep such buffers as
//                   per-worker scratch outside the transaction.
//
// Suppression: `// tmx-lint: allow(rule)` on the offending line, or an
// allowlist file (--allowlist) of `rule path-substring` pairs. Findings are
// printed one per line in gcc format (`file:line: rule: message`) so
// editors and CI annotations can consume them; exit status is 1 when any
// finding survives suppression, 0 on a clean tree, 2 on usage errors.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Token {
  std::string text;
  int line;
};

struct Finding {
  std::string file;
  int line;
  std::string rule;
  std::string message;
};

struct AllowEntry {
  std::string rule;  // "*" matches every rule
  std::string path_substr;
};

// ---------------------------------------------------------------------------
// Phase 1: strip comments, strings and preprocessor lines, preserving line
// structure; collect inline `tmx-lint: allow(rule)` suppressions.
// ---------------------------------------------------------------------------

void collect_inline_allows(const std::string& src,
                           std::set<std::pair<int, std::string>>* allows) {
  int line = 1;
  std::size_t i = 0;
  const std::string tag = "tmx-lint: allow(";
  while ((i = src.find(tag, i)) != std::string::npos) {
    line = 1 + static_cast<int>(std::count(src.begin(),
                                           src.begin() +
                                               static_cast<std::ptrdiff_t>(i),
                                           '\n'));
    const std::size_t open = i + tag.size();
    const std::size_t close = src.find(')', open);
    if (close != std::string::npos) {
      // The tag suppresses its own line and the next one, so it can sit
      // either at the end of the offending line or on its own line above.
      allows->insert({line, src.substr(open, close - open)});
      allows->insert({line + 1, src.substr(open, close - open)});
    }
    i = open;
  }
}

std::string strip(const std::string& src) {
  std::string out;
  out.reserve(src.size());
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kPre };
  St st = St::kCode;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char n = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && n == '*') {
          st = St::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == '"') {
          st = St::kString;
          out += ' ';
        } else if (c == '\'') {
          st = St::kChar;
          out += ' ';
        } else if (c == '#' &&
                   (out.empty() || out.back() == '\n' ||
                    out.find_last_not_of(" \t") == std::string::npos ||
                    out[out.find_last_not_of(" \t")] == '\n')) {
          st = St::kPre;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case St::kLineComment:
        if (c == '\n') {
          st = St::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case St::kBlockComment:
        if (c == '*' && n == '/') {
          st = St::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case St::kString:
        if (c == '\\') {
          out += "  ";
          ++i;
          if (n == '\n') out.back() = '\n';
        } else if (c == '"') {
          st = St::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case St::kPre:
        if (c == '\\' && n == '\n') {
          out += " \n";
          ++i;
        } else if (c == '\n') {
          st = St::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Phase 2: tokenize. Identifiers, numbers, and multi-char operators that
// matter for the rules (== != <= >= -> :: && || += -= *= /= |= &= ^=) come
// out as single tokens; everything else is one char.
// ---------------------------------------------------------------------------

std::vector<Token> tokenize(const std::string& code) {
  std::vector<Token> toks;
  int line = 1;
  std::size_t i = 0;
  const auto two = [&](char a, char b) {
    return i + 1 < code.size() && code[i] == a && code[i + 1] == b;
  };
  while (i < code.size()) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < code.size() &&
             (std::isalnum(static_cast<unsigned char>(code[j])) ||
              code[j] == '_')) {
        ++j;
      }
      toks.push_back({code.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < code.size() &&
             (std::isalnum(static_cast<unsigned char>(code[j])) ||
              code[j] == '.' || code[j] == '\'')) {
        ++j;
      }
      toks.push_back({code.substr(i, j - i), line});
      i = j;
      continue;
    }
    static const char* kTwo[] = {"==", "!=", "<=", ">=", "->", "::", "&&",
                                 "||", "+=", "-=", "*=", "/=", "|=", "&=",
                                 "^=", "++", "--", "<<", ">>"};
    bool matched = false;
    for (const char* t : kTwo) {
      if (two(t[0], t[1])) {
        toks.push_back({t, line});
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    toks.push_back({std::string(1, c), line});
    ++i;
  }
  return toks;
}

// ---------------------------------------------------------------------------
// Phase 3: mark TX regions as token-index ranges.
// ---------------------------------------------------------------------------

// From toks[open] == "{", return the index of the matching "}".
std::size_t match_brace(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == "{") ++depth;
    if (toks[i].text == "}" && --depth == 0) return i;
  }
  return toks.size();
}

struct Region {
  std::size_t begin;  // index of the opening "{"
  std::size_t end;    // index of the matching "}"
  int line;           // where the region was introduced
};

std::vector<Region> find_tx_regions(const std::vector<Token>& toks) {
  std::vector<Region> regions;
  const auto add_body_after = [&](std::size_t from, int line) {
    for (std::size_t j = from; j < toks.size(); ++j) {
      if (toks[j].text == "{") {
        regions.push_back({j, match_brace(toks, j), line});
        return;
      }
      if (toks[j].text == ";") return;  // declaration, no body here
    }
  };
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    // stm.atomically([&](stm::Tx& tx) { ... })
    if (toks[i].text == "atomically" && toks[i + 1].text == "(") {
      add_body_after(i + 2, toks[i].line);
      continue;
    }
    // Any callable whose parameter list mentions stm::Tx&, TxAccess or the
    // access policy `const A& acc`: scan a parameter list "(...)" and look
    // at the token after ")".
    const bool policy = toks[i].text == "A" && toks[i + 1].text == "&" &&
                        i + 2 < toks.size() && toks[i + 2].text == "acc";
    if (toks[i].text == "Tx" || toks[i].text == "TxAccess" || policy) {
      // Walk back to the enclosing "(" at depth 1 — cheap bounded scan.
      int depth = 0;
      std::size_t open = std::string::npos;
      for (std::size_t j = i; j-- > 0 && i - j < 64;) {
        if (toks[j].text == ")") ++depth;
        if (toks[j].text == "(") {
          if (depth == 0) {
            open = j;
            break;
          }
          --depth;
        }
        if (toks[j].text == "{" || toks[j].text == ";") break;
      }
      if (open == std::string::npos) continue;
      // Find the close of that list, then require "{" (possibly after
      // specifiers like const/noexcept/-> type) before any ";".
      int d = 0;
      std::size_t close = std::string::npos;
      for (std::size_t j = open; j < toks.size(); ++j) {
        if (toks[j].text == "(") ++d;
        if (toks[j].text == ")" && --d == 0) {
          close = j;
          break;
        }
      }
      if (close == std::string::npos) continue;
      add_body_after(close + 1, toks[i].line);
    }
  }
  // Deduplicate / drop nested duplicates.
  std::sort(regions.begin(), regions.end(),
            [](const Region& a, const Region& b) { return a.begin < b.begin; });
  std::vector<Region> out;
  for (const Region& r : regions) {
    if (!out.empty() && r.begin <= out.back().end) continue;  // nested
    out.push_back(r);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Phase 4: the rules.
// ---------------------------------------------------------------------------

bool is_raw_alloc_name(const std::string& s) {
  static const char* kNames[] = {"malloc",        "free",    "calloc",
                                 "realloc",       "strdup",  "aligned_alloc",
                                 "posix_memalign"};
  for (const char* n : kNames) {
    if (s == n) return true;
  }
  return false;
}

bool is_atomic_rmw_name(const std::string& s) {
  static const char* kNames[] = {"fetch_add",
                                 "fetch_sub",
                                 "fetch_or",
                                 "fetch_and",
                                 "fetch_xor",
                                 "exchange",
                                 "compare_exchange_strong",
                                 "compare_exchange_weak"};
  for (const char* n : kNames) {
    if (s == n) return true;
  }
  return false;
}

// Standard types whose destructor releases something: containers, strings,
// streams, owning pointers and type-erased callables.
bool is_dtor_type_name(const std::string& s) {
  static const char* kNames[] = {
      "vector",        "deque",         "list",
      "forward_list",  "queue",         "stack",
      "priority_queue", "map",          "multimap",
      "set",           "multiset",      "unordered_map",
      "unordered_multimap", "unordered_set", "unordered_multiset",
      "string",        "wstring",       "basic_string",
      "stringstream",  "ostringstream", "istringstream",
      "unique_ptr",    "shared_ptr",    "weak_ptr",
      "function",      "any"};
  for (const char* n : kNames) {
    if (s == n) return true;
  }
  return false;
}

bool is_identifier(const std::string& s) {
  return !s.empty() &&
         (std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_');
}

// From toks[open] == "<", return the index just past the matching ">"
// (">>" closes two levels).
std::size_t skip_template_args(const std::vector<Token>& toks,
                               std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const std::string& s = toks[i].text;
    if (s == "<") ++depth;
    if (s == ">") --depth;
    if (s == ">>") depth -= 2;
    if (s == ";" || s == "{") return i;  // not a template argument list
    if (depth <= 0) return i + 1;
  }
  return toks.size();
}

void lint_region(const std::string& file, const std::vector<Token>& toks,
                 const Region& reg, std::vector<Finding>* out) {
  const auto prev = [&](std::size_t i) -> const std::string& {
    static const std::string kEmpty;
    return i > 0 ? toks[i - 1].text : kEmpty;
  };
  const auto next = [&](std::size_t i) -> const std::string& {
    static const std::string kEmpty;
    return i + 1 < toks.size() ? toks[i + 1].text : kEmpty;
  };
  for (std::size_t i = reg.begin + 1; i < reg.end; ++i) {
    const Token& t = toks[i];

    // raw-alloc: direct or std::-qualified allocator call.
    if (is_raw_alloc_name(t.text) && next(i) == "(") {
      const std::string& p = prev(i);
      const bool member = p == "." || p == "->";
      const bool qualified_std =
          p == "::" && i >= 2 && toks[i - 2].text == "std";
      const bool qualified_global = p == "::" && (i < 2 || toks[i - 2].text ==
                                                               ";" ||
                                                  toks[i - 2].text == "{" ||
                                                  toks[i - 2].text == "(" ||
                                                  toks[i - 2].text == "=");
      if (!member && (p != "::" || qualified_std || qualified_global)) {
        out->push_back({file, t.line, "raw-alloc",
                        t.text + "() inside a transaction bypasses "
                                 "Tx::malloc/Tx::free"});
      }
    }

    // raw-new-delete. (`= delete` — a deleted function — is not a call;
    // `= new ...` very much is.)
    if (t.text == "new") {
      out->push_back({file, t.line, "raw-new-delete",
                      "operator new inside a transaction bypasses the "
                      "transactional allocator"});
    }
    if (t.text == "delete" && prev(i) != "=" && prev(i) != "operator") {
      out->push_back({file, t.line, "raw-new-delete",
                      "operator delete inside a transaction bypasses "
                      "Tx::free"});
    }

    // naked-store, form 1: statement-initial dereference `*p = v`.
    if (t.text == "*" &&
        (prev(i) == ";" || prev(i) == "{" || prev(i) == "}")) {
      for (std::size_t j = i + 1; j < reg.end; ++j) {
        const std::string& s = toks[j].text;
        if (s == ";" || s == "{" || s == "}") break;
        if (s == "=") {
          out->push_back({file, t.line, "naked-store",
                          "store through a raw pointer inside a "
                          "transaction (use tx.store)"});
          break;
        }
      }
    }
    // naked-store, form 2: member store `p->f = v`.
    if (t.text == "->" && i + 2 < reg.end && next(i + 1) == "=") {
      out->push_back({file, toks[i + 1].line, "naked-store",
                      "member store through a raw pointer inside a "
                      "transaction (use tx.store)"});
    }
    // naked-store, form 3: indexed store `p[i] = v`. `] = {` is an array
    // declaration with an aggregate initializer, not a store.
    if (t.text == "]" && next(i) == "=" && next(i + 1) != "{") {
      out->push_back({file, t.line, "naked-store",
                      "indexed store inside a transaction (use tx.store)"});
    }

    // atomic-in-tx: RMW on a std::atomic.
    if (is_atomic_rmw_name(t.text) && (prev(i) == "." || prev(i) == "->") &&
        next(i) == "(") {
      out->push_back({file, t.line, "atomic-in-tx",
                      t.text + "() inside a transaction escapes the write "
                               "set and replays on every retry"});
    }

    // tx-frame-dtor: `std::T<...> name` or `auto name = std::T...` with T
    // non-trivially destructible. References, pointers, nested names
    // (std::vector<int>::iterator) and template arguments are not locals of
    // that type.
    if (t.text == "std" && next(i) == "::" && prev(i) != "::" &&
        prev(i) != "<" && prev(i) != "," && i + 2 < reg.end &&
        is_dtor_type_name(toks[i + 2].text)) {
      std::size_t j = i + 3;
      if (j < reg.end && toks[j].text == "<") j = skip_template_args(toks, j);
      const std::string& after = next(j);
      const bool declared =
          j + 1 < reg.end && is_identifier(toks[j].text) &&
          (after == ";" || after == "=" || after == "(" || after == "{" ||
           after == ",");
      const bool auto_init = prev(i) == "=" && i >= 3 &&
                             is_identifier(toks[i - 2].text) &&
                             toks[i - 3].text == "auto";
      if (declared || auto_init) {
        out->push_back({file, t.line, "tx-frame-dtor",
                        "std::" + toks[i + 2].text +
                            " local inside a transaction: an abort jumps "
                            "over its destructor (use per-worker scratch "
                            "outside atomically)"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

std::vector<AllowEntry> load_allowlist(const std::string& path, bool* ok) {
  std::vector<AllowEntry> entries;
  *ok = true;
  if (path.empty()) return entries;
  std::ifstream in(path);
  if (!in) {
    *ok = false;
    return entries;
  }
  std::string line;
  while (std::getline(in, line)) {
    const auto start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    std::istringstream ss(line);
    AllowEntry e;
    ss >> e.rule >> e.path_substr;
    if (!e.rule.empty()) entries.push_back(e);
  }
  return entries;
}

bool allowed(const Finding& f, const std::vector<AllowEntry>& allow,
             const std::set<std::pair<int, std::string>>& inline_allows) {
  if (inline_allows.count({f.line, f.rule}) != 0 ||
      inline_allows.count({f.line, "*"}) != 0) {
    return true;
  }
  for (const AllowEntry& e : allow) {
    if (e.rule != "*" && e.rule != f.rule) continue;
    if (e.path_substr.empty() ||
        f.file.find(e.path_substr) != std::string::npos) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string allow_path;
  bool quiet = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--allowlist" && i + 1 < argc) {
      allow_path = argv[++i];
    } else if (arg.rfind("--allowlist=", 0) == 0) {
      allow_path = arg.substr(std::strlen("--allowlist="));
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help") {
      std::printf("usage: tmx_lint [--allowlist FILE] [--quiet] FILE...\n"
                  "rules: raw-alloc raw-new-delete naked-store atomic-in-tx "
                  "tx-frame-dtor\n"
                  "suppress: '// tmx-lint: allow(rule)' on the line, or an "
                  "allowlist of 'rule path-substring' pairs\n");
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "tmx_lint: unknown option %s\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "tmx_lint: no input files (--help for usage)\n");
    return 2;
  }
  bool allow_ok = true;
  const std::vector<AllowEntry> allow = load_allowlist(allow_path, &allow_ok);
  if (!allow_ok) {
    std::fprintf(stderr, "tmx_lint: cannot read allowlist %s\n",
                 allow_path.c_str());
    return 2;
  }

  int total = 0;
  int suppressed = 0;
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "tmx_lint: cannot read %s\n", file.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string src = buf.str();

    std::set<std::pair<int, std::string>> inline_allows;
    collect_inline_allows(src, &inline_allows);
    const std::vector<Token> toks = tokenize(strip(src));
    const std::vector<Region> regions = find_tx_regions(toks);

    std::vector<Finding> findings;
    for (const Region& r : regions) lint_region(file, toks, r, &findings);
    for (const Finding& f : findings) {
      if (allowed(f, allow, inline_allows)) {
        ++suppressed;
        continue;
      }
      ++total;
      std::printf("%s:%d: %s: %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
    }
  }
  if (!quiet) {
    std::fprintf(stderr, "tmx_lint: %d finding(s), %d suppressed, %zu "
                         "file(s)\n",
                 total, suppressed, files.size());
  }
  return total > 0 ? 1 : 0;
}
