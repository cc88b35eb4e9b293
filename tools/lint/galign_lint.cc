// galign_lint: project-contract static analysis (DESIGN.md §10).
//
// A standalone token/regex-level scanner (no libclang) that enforces the
// contracts the compiler cannot see on its own:
//
//   unchecked-status       a Status/Result<T>-returning call whose result is
//                          discarded (second net behind [[nodiscard]]).
//   banned-nondeterminism  std::random_device, rand(), time(), or a
//                          std::chrono clock ::now() outside the whitelisted
//                          homes (common/rng, common/timer,
//                          common/run_context, common/durable_io).
//   unbudgeted-alloc       Matrix::Create / SparseMatrix::Create — the raw
//                          factories PR 4 replaced with TryCreate under a
//                          reserved MemoryScope. They must not come back.
//   layering               an #include that violates the module DAG
//                          (kLayerDag below). New subsystems extend the
//                          table; everything else is a diagnostic.
//   no-naked-throw         `throw` outside test code. Library errors travel
//                          as Status/Result, never as exceptions.
//
// Flow-aware rules (DESIGN.md §14) — built on a token-level function
// segmenter + name-based cross-TU call graph, not just per-line patterns:
//
//   context-dropped        a function holding a RunContext/CancelToken
//                          parameter calls a deadline-aware callee (any
//                          src/ function taking a context) without
//                          forwarding it, or never consults the parameter.
//   fault-site-audit       every fault site instrumented in src/ must be
//                          armed by a test; armed-but-nonexistent sites and
//                          one-edit-apart near-duplicates are violations.
//                          Full-tree scans only. --fault-audit prints the
//                          coverage table (always present in JSON).
//   budget-discipline      TryReserve must pair with Release/MemoryScope in
//                          the same function; TryCreate results must be
//                          ok()-checked before ValueOrDie.
//   guarded-by             `// galign: guarded_by(mu_)` annotations checked
//                          against lock acquisitions in every function that
//                          touches the annotated symbol (`Locked` suffix and
//                          `// galign: requires_lock(mu_)` exempt).
//   orphan-module          a src/**.h that no file under src, bench,
//                          examples or tools includes, other than its own
//                          .cc: code no program runs (tests do not count).
//                          Full-tree scans of a root that holds a program
//                          directory (bench, examples or tools) only.
//
// Output: text (default) `file:line: rule-id: message`, or --format=json.
// A committed baseline (--baseline=FILE, maintained by --write-baseline)
// grandfathers (rule,file) pairs without touching the code.
//
// Diagnostics are `file:line: rule-id: message`, one per line on stdout.
// Exit codes: 0 clean, 1 violations found, 2 usage/IO error.
//
// Suppression: append `// galign-lint: allow(rule-id): reason` to the
// offending line. The reason is mandatory; an allow without one is itself a
// violation (rule-id `bad-allow`).
//
// Scanning model: every file is first "sanitized" — string literals,
// character literals, and comments are blanked out (line structure
// preserved) — so a clock call mentioned in a log message or a banned name
// in a comment never fires a rule. Suppression comments are read from the
// original text.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------- DAG table
//
// Allowed module-level includes under src/ ("module" = the longest DAG
// entry that path-prefixes the file, falling back to the first path
// component). A module may always include itself. Nested entries such as
// graph/ann are layered *above* their parent directory: graph/ann may use
// graph, but graph may not reach back into graph/ann. Extend this table
// when adding a subsystem; an unknown module is a diagnostic, not a free
// pass.
struct LayerRule {
  const char* module;
  std::vector<const char*> may_include;
};
const std::vector<LayerRule> kLayerDag = {
    {"common", {}},
    {"la", {"common"}},
    {"graph", {"la", "common"}},
    {"graph/ann", {"graph", "la", "common"}},
    {"autograd", {"la", "common"}},
    {"manifold", {"la", "common"}},
    {"align", {"graph", "graph/ann", "la", "common"}},
    {"baselines", {"align", "autograd", "graph", "graph/ann", "la", "common"}},
    {"core", {"align", "autograd", "graph", "graph/ann", "la", "common"}},
    // Serving sits on top of everything it reads; nothing below may
    // include serve/ (the artifact is a consumer of core + ANN, never a
    // dependency of them).
    {"serve",
     {"core", "align", "autograd", "graph", "graph/ann", "la", "common"}},
    // The hot-swap watcher drives serve/ (it publishes into AlignServer);
    // serve/ proper may never reach back up into serve/swap/.
    {"serve/swap",
     {"serve", "core", "align", "autograd", "graph", "graph/ann", "la",
      "common"}},
};

// Longest kLayerDag module that path-prefixes `path` at a '/' boundary;
// empty when none matches. "graph/ann/lsh_index.cc" resolves to graph/ann,
// not graph, so nested subsystems get their own layer rule.
std::string DagModuleOf(const std::string& path) {
  std::string best;
  for (const auto& r : kLayerDag) {
    const std::string m = r.module;
    if (path.size() > m.size() && path.compare(0, m.size(), m) == 0 &&
        path[m.size()] == '/' && m.size() > best.size()) {
      best = m;
    }
  }
  return best;
}

// Files allowed to touch clocks/entropy directly: the abstractions every
// other call site must go through (plus durable_io's retry jitter).
const std::vector<const char*> kNondeterminismHomes = {
    "common/rng.h",         "common/rng.cc",        "common/timer.h",
    "common/run_context.h", "common/durable_io.h",  "common/durable_io.cc",
};

struct Diagnostic {
  std::string file;
  int line;
  std::string rule;
  std::string message;
  std::string rel{};  // scan-root-relative path; filled in before output
};

struct FileText {
  std::string path;       // path as reported in diagnostics
  std::string rel;        // path relative to the scan root, '/'-separated
  std::vector<std::string> raw;        // original lines
  std::vector<std::string> sanitized;  // strings/comments blanked
};

// Blanks string literals, char literals, // and /* */ comments with spaces,
// preserving newlines so line numbers survive. Handles raw strings
// R"delim(...)delim" and escape sequences inside quotes.
std::string Sanitize(const std::string& text) {
  std::string out(text);
  enum class St { kCode, kString, kChar, kLineComment, kBlockComment, kRaw };
  St st = St::kCode;
  std::string raw_delim;  // for raw strings: )delim"
  size_t i = 0;
  const size_t n = text.size();
  auto blank = [&](size_t at) {
    if (out[at] != '\n') out[at] = ' ';
  };
  while (i < n) {
    const char c = text[i];
    switch (st) {
      case St::kCode:
        if (c == '"') {
          // Raw string? Look back for R / uR / u8R / LR prefix.
          size_t j = i;
          bool is_raw = false;
          if (j > 0 && text[j - 1] == 'R') {
            size_t k = j - 1;
            if (k == 0 || !(isalnum(text[k - 1]) || text[k - 1] == '_'))
              is_raw = true;
            else if (k >= 1 && (text[k - 1] == 'u' || text[k - 1] == 'U' ||
                                text[k - 1] == 'L'))
              is_raw = true;
            else if (k >= 2 && text[k - 2] == 'u' && text[k - 1] == '8')
              is_raw = true;
          }
          if (is_raw) {
            size_t open = text.find('(', i + 1);
            if (open == std::string::npos) { ++i; break; }
            raw_delim = ")" + text.substr(i + 1, open - i - 1) + "\"";
            for (size_t k = i; k <= open; ++k) blank(k);
            i = open + 1;
            st = St::kRaw;
          } else {
            blank(i);
            ++i;
            st = St::kString;
          }
        } else if (c == '\'') {
          blank(i);
          ++i;
          st = St::kChar;
        } else if (c == '/' && i + 1 < n && text[i + 1] == '/') {
          blank(i);
          blank(i + 1);
          i += 2;
          st = St::kLineComment;
        } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
          blank(i);
          blank(i + 1);
          i += 2;
          st = St::kBlockComment;
        } else {
          ++i;
        }
        break;
      case St::kString:
        if (c == '\\' && i + 1 < n) {
          blank(i);
          blank(i + 1);
          i += 2;
        } else if (c == '"') {
          blank(i);
          ++i;
          st = St::kCode;
        } else {
          blank(i);
          ++i;
        }
        break;
      case St::kChar:
        if (c == '\\' && i + 1 < n) {
          blank(i);
          blank(i + 1);
          i += 2;
        } else if (c == '\'') {
          blank(i);
          ++i;
          st = St::kCode;
        } else {
          blank(i);
          ++i;
        }
        break;
      case St::kLineComment:
        if (c == '\n') {
          st = St::kCode;
          ++i;
        } else {
          blank(i);
          ++i;
        }
        break;
      case St::kBlockComment:
        if (c == '*' && i + 1 < n && text[i + 1] == '/') {
          blank(i);
          blank(i + 1);
          i += 2;
          st = St::kCode;
        } else {
          blank(i);
          ++i;
        }
        break;
      case St::kRaw:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t k = i; k < i + raw_delim.size(); ++k) blank(k);
          i += raw_delim.size();
          st = St::kCode;
        } else {
          blank(i);
          ++i;
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool Contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

// `// galign-lint: allow(rule-id): reason` — returns true when `rule` is
// suppressed on this raw line. An allow with an empty reason emits a
// `bad-allow` diagnostic (once per line) instead of suppressing.
const std::regex kAllowRe(
    R"(galign-lint:\s*allow\(([a-z-]+)\)\s*(?::\s*(\S.*)?)?)");

bool LineAllows(const std::string& raw_line, const std::string& rule,
                const std::string& file, int line_no,
                std::vector<Diagnostic>* diags, std::set<int>* bad_allow_seen) {
  auto begin =
      std::sregex_iterator(raw_line.begin(), raw_line.end(), kAllowRe);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const std::string allowed_rule = (*it)[1].str();
    const std::string reason = (*it)[2].matched ? (*it)[2].str() : "";
    if (reason.empty()) {
      if (bad_allow_seen->insert(line_no).second) {
        diags->push_back({file, line_no, "bad-allow",
                          "allow(" + allowed_rule +
                              ") needs a reason: `// galign-lint: allow(" +
                              allowed_rule + "): why`"});
      }
      continue;
    }
    if (allowed_rule == rule) return true;
  }
  return false;
}

// `#include "path"`; shared by the layering and orphan-module rules.
const std::regex kQuotedIncludeRe(R"(^\s*#\s*include\s+\"([^\"]+)\")");

// ------------------------------------------------------- rule: layering
void CheckLayering(const FileText& f, std::vector<Diagnostic>* diags,
                   std::set<int>* bad_allow) {
  if (f.rel.rfind("src/", 0) != 0) return;  // only library code is layered
  const std::string after = f.rel.substr(4);
  const size_t slash = after.find('/');
  if (slash == std::string::npos) return;
  std::string module = DagModuleOf(after);
  if (module.empty()) module = after.substr(0, slash);

  const LayerRule* rule = nullptr;
  for (const auto& r : kLayerDag)
    if (module == r.module) rule = &r;

  // Raw lines, not sanitized: the include path is itself a string literal.
  for (size_t i = 0; i < f.raw.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(f.raw[i], m, kQuotedIncludeRe)) continue;
    const std::string target = m[1].str();
    const std::string tmodule = DagModuleOf(target);
    // Same-dir includes and non-module includes (e.g. "gtest/...") have no
    // DAG prefix and are not layered.
    if (tmodule.empty()) continue;
    const int line_no = static_cast<int>(i) + 1;
    if (rule == nullptr) {
      if (LineAllows(f.raw[i], "layering", f.path, line_no, diags, bad_allow))
        continue;
      diags->push_back({f.path, line_no, "layering",
                        "module '" + module +
                            "' is not in the layering DAG table; add it to "
                            "kLayerDag in tools/lint/galign_lint.cc"});
      continue;
    }
    if (tmodule == module) continue;
    bool ok = false;
    for (const char* allowed : rule->may_include)
      if (tmodule == allowed) ok = true;
    if (ok) continue;
    if (LineAllows(f.raw[i], "layering", f.path, line_no, diags, bad_allow))
      continue;
    diags->push_back({f.path, line_no, "layering",
                      "'" + module + "' may not include '" + tmodule +
                          "' (allowed: self" +
                          [&] {
                            std::string s;
                            for (const char* a : rule->may_include)
                              s += std::string(", ") + a;
                            return s;
                          }() +
                          ")"});
  }
}

// --------------------------------------- rule: banned-nondeterminism
void CheckNondeterminism(const FileText& f, std::vector<Diagnostic>* diags,
                         std::set<int>* bad_allow) {
  for (const char* home : kNondeterminismHomes)
    if (EndsWith(f.rel, home)) return;

  static const std::regex bad_re(
      R"(std\s*::\s*random_device|\brand\s*\(|\bsrand\s*\(|\btime\s*\(|std\s*::\s*chrono\s*::\s*(steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\()");
  for (size_t i = 0; i < f.sanitized.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(f.sanitized[i], m, bad_re)) continue;
    const int line_no = static_cast<int>(i) + 1;
    if (LineAllows(f.raw[i], "banned-nondeterminism", f.path, line_no, diags,
                   bad_allow))
      continue;
    diags->push_back(
        {f.path, line_no, "banned-nondeterminism",
         "direct clock/entropy call '" + m[0].str() +
             "'; use common/rng (seeded), common/timer, or RunContext "
             "deadlines so runs stay bit-reproducible"});
  }
}

// ------------------------------------------- rule: unbudgeted-alloc
void CheckUnbudgetedAlloc(const FileText& f, std::vector<Diagnostic>* diags,
                          std::set<int>* bad_allow) {
  static const std::regex bad_re(R"(\b(Matrix|SparseMatrix)\s*::\s*Create\s*\()");
  for (size_t i = 0; i < f.sanitized.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(f.sanitized[i], m, bad_re)) continue;
    const int line_no = static_cast<int>(i) + 1;
    if (LineAllows(f.raw[i], "unbudgeted-alloc", f.path, line_no, diags,
                   bad_allow))
      continue;
    diags->push_back({f.path, line_no, "unbudgeted-alloc",
                      m[1].str() +
                          "::Create was retired by the memory-budget work; "
                          "use " +
                          m[1].str() +
                          "::TryCreate under a reserved MemoryScope "
                          "(DESIGN.md §9)"});
  }
}

// --------------------------------------------- rule: no-naked-throw
void CheckNakedThrow(const FileText& f, std::vector<Diagnostic>* diags,
                     std::set<int>* bad_allow) {
  if (f.rel.rfind("tests/", 0) == 0) return;  // test code may throw
  static const std::regex throw_re(R"(\bthrow\b)");
  for (size_t i = 0; i < f.sanitized.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(f.sanitized[i], m, throw_re)) continue;
    const int line_no = static_cast<int>(i) + 1;
    if (LineAllows(f.raw[i], "no-naked-throw", f.path, line_no, diags,
                   bad_allow))
      continue;
    diags->push_back({f.path, line_no, "no-naked-throw",
                      "library code reports failure through Status/Result, "
                      "never exceptions (DESIGN.md §7)"});
  }
}

// ------------------------------------------- rule: unchecked-status
//
// Phase 1 (per run): collect the names of functions declared in src/ headers
// whose return type is Status or Result<...>.  Phase 2: flag any statement
// that *begins* with a call to one of those names — i.e. the returned value
// is discarded. `(void)` casts, returns, assignments, macro wrapping, and
// condition contexts all consume the value and do not fire.
std::set<std::string> CollectStatusFunctions(
    const std::vector<FileText>& files) {
  std::set<std::string> names;
  static const std::regex decl_re(
      R"(^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|virtual\s+|inline\s+)*(?:::)?(?:galign::)?(?:Status|Result<[^;=]*>)\s+([A-Za-z_]\w*)\s*\()");
  for (const auto& f : files) {
    if (f.rel.rfind("src/", 0) != 0 || !EndsWith(f.rel, ".h")) continue;
    for (const auto& line : f.sanitized) {
      std::smatch m;
      if (std::regex_search(line, m, decl_re)) names.insert(m[1].str());
    }
  }
  // Never treat common identifier names as Status factories even if a
  // declaration matches: these collide with std/and member names too easily.
  for (const char* generic : {"OK", "get", "value", "status"})
    names.erase(generic);
  return names;
}

void CheckUncheckedStatus(const FileText& f,
                          const std::set<std::string>& status_fns,
                          std::vector<Diagnostic>* diags,
                          std::set<int>* bad_allow) {
  // Matches a line that *begins* with a call chain ending in NAME( — e.g.
  //   Foo(...);   obj.Foo(...)   ns::Obj::Foo(...)   ptr->Foo(...)
  // Anything consuming the value (return/=/(void)/macro wrap/if-cond) puts a
  // token before the chain and fails the anchored match.
  static const std::regex stmt_re(
      R"(^\s*(?:[A-Za-z_]\w*\s*(?:::|\.|->)\s*)*([A-Za-z_]\w*)\s*\()");
  for (size_t i = 0; i < f.sanitized.size(); ++i) {
    const std::string& line = f.sanitized[i];
    std::smatch m;
    if (!std::regex_search(line, m, stmt_re) || m.position(0) != 0) continue;
    const std::string name = m[1].str();
    if (status_fns.count(name) == 0) continue;
    // The value is only discarded when the statement ends right after the
    // call: balance parentheses from the call's '(' and require the next
    // token to be ';'. A following '.', '->', etc. (e.g. .CheckOK(), .ok())
    // consumes the result. Calls spanning lines are matched by scanning the
    // following lines too (bounded lookahead).
    size_t open = line.find('(', m.position(1));
    int depth = 0;
    size_t row = i, col = open;
    bool closed = false;
    for (size_t lookahead = 0; lookahead < 40 && row < f.sanitized.size();
         ++lookahead) {
      const std::string& l = f.sanitized[row];
      for (; col < l.size(); ++col) {
        if (l[col] == '(') ++depth;
        if (l[col] == ')' && --depth == 0) {
          closed = true;
          break;
        }
      }
      if (closed) break;
      ++row;
      col = 0;
    }
    if (!closed) continue;
    // Next non-space character after the close paren decides.
    char next = '\0';
    for (size_t r2 = row, c2 = col + 1; r2 < f.sanitized.size(); ++r2) {
      const std::string& l = f.sanitized[r2];
      const size_t pos = l.find_first_not_of(" \t", c2);
      if (pos != std::string::npos) {
        next = l[pos];
        break;
      }
      c2 = 0;
    }
    if (next != ';') continue;
    // Heuristic: the previous sanitized line must end a statement/block so
    // this really is an expression statement, not e.g. a continuation of
    // `return` or `=` from the line above, a declaration, or an if-cond.
    std::string prev;
    for (size_t j = i; j-- > 0;) {
      const auto& pl = f.sanitized[j];
      const size_t last = pl.find_last_not_of(" \t");
      if (last == std::string::npos) continue;
      prev = pl.substr(0, last + 1);
      break;
    }
    if (!prev.empty()) {
      const char tail = prev.back();
      if (tail != ';' && tail != '{' && tail != '}' && tail != ':') continue;
    }
    const int line_no = static_cast<int>(i) + 1;
    if (LineAllows(f.raw[i], "unchecked-status", f.path, line_no, diags,
                   bad_allow))
      continue;
    diags->push_back({f.path, line_no, "unchecked-status",
                      "result of Status/Result-returning call '" + name +
                          "' is discarded; check it, propagate it "
                          "(GALIGN_RETURN_NOT_OK), or assert it "
                          "(GALIGN_CHECK_OK)"});
  }
}

// ===================================================== flow-aware analysis
//
// The four contract rules below (context-dropped, fault-site-audit,
// budget-discipline, guarded-by) need more than per-line pattern matching:
// they reason about *functions* — their parameters, their bodies, and the
// calls they make. A full C++ parse is out of scope for a dependency-free
// TU, so the segmenter here is a pragmatic token-level pass over the
// sanitized text: good enough to recover function extents, parameter
// lists, and name-based call sites across every TU we scan, and honest
// about its limits (name-based linking, no overload resolution). Every
// rule built on it keeps the same allow()/baseline escape hatches as the
// per-line rules, so a mis-segmented corner case is a one-line
// suppression, never a blocked commit.

struct Token {
  std::string text;
  int line = 0;  // 1-based
  bool ident = false;
};

bool IsKeyword(const std::string& s) {
  static const std::set<std::string> kw = {
      "if",         "for",          "while",      "switch",
      "return",     "sizeof",       "catch",      "do",
      "else",       "case",         "new",        "delete",
      "goto",       "break",        "continue",   "static_cast",
      "dynamic_cast", "const_cast", "reinterpret_cast",
      "alignof",    "decltype",     "noexcept",   "throw",
      "co_return",  "co_await",     "co_yield",   "typeid",
      "assert",     "defined"};
  return kw.count(s) > 0;
}

// Tokens from the sanitized text. Preprocessor directives (and their
// backslash continuations) are dropped entirely so multi-line macro bodies
// like GALIGN_RETURN_NOT_OK never unbalance the segmenter's brace count.
std::vector<Token> Tokenize(const std::vector<std::string>& sanitized) {
  std::vector<Token> toks;
  bool in_pp = false;
  for (size_t ln = 0; ln < sanitized.size(); ++ln) {
    const std::string& l = sanitized[ln];
    const size_t first = l.find_first_not_of(" \t");
    if (!in_pp && first != std::string::npos && l[first] == '#') in_pp = true;
    if (in_pp) {
      const size_t last = l.find_last_not_of(" \t");
      in_pp = (last != std::string::npos && l[last] == '\\');
      continue;
    }
    for (size_t i = 0; i < l.size();) {
      const char c = l[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < l.size() &&
               (std::isalnum(static_cast<unsigned char>(l[j])) || l[j] == '_'))
          ++j;
        toks.push_back({l.substr(i, j - i), static_cast<int>(ln) + 1, true});
        i = j;
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t j = i;
        while (j < l.size() &&
               (std::isalnum(static_cast<unsigned char>(l[j])) ||
                l[j] == '_' || l[j] == '.' || l[j] == '\''))
          ++j;
        toks.push_back({l.substr(i, j - i), static_cast<int>(ln) + 1, false});
        i = j;
      } else if (c == ':' && i + 1 < l.size() && l[i + 1] == ':') {
        toks.push_back({"::", static_cast<int>(ln) + 1, false});
        i += 2;
      } else if (c == '-' && i + 1 < l.size() && l[i + 1] == '>') {
        toks.push_back({"->", static_cast<int>(ln) + 1, false});
        i += 2;
      } else {
        toks.push_back({std::string(1, c), static_cast<int>(ln) + 1, false});
        ++i;
      }
    }
  }
  return toks;
}

struct Param {
  std::string text;      // space-joined declaration tokens
  std::string name;      // declared name; "" when unnamed/not recovered
  bool is_ctx = false;   // RunContext / CancelToken typed
};

struct CallSite {
  std::string callee;  // identifier immediately before the '('
  int line = 0;
  std::set<std::string> arg_idents;  // every identifier inside the parens
};

struct FunctionInfo {
  std::string name;  // "Align", "~AlignServer", "operator=" ...
  std::string qual;  // enclosing class / out-of-line qualifier, or ""
  bool is_ctor_dtor = false;
  bool has_body = false;
  int sig_line = 0;
  int body_begin = 0, body_end = 0;  // 1-based line extent of { ... }
  std::vector<Param> params;
  std::vector<CallSite> calls;
  std::set<std::string> body_idents;
};

// Token-level function segmenter. Walks one file's token stream tracking
// namespace/class scope, recognises `name ( params ) quals { body }` and
// `name ( params ) ;` shapes (plus ctor-init lists, trailing return types,
// operator overloads, = 0/default/delete), and extracts per-function call
// sites while consuming bodies. Anything it cannot shape-match it skips
// without recording — unknown constructs cost recall, never a crash.
class Segmenter {
 public:
  explicit Segmenter(const std::vector<Token>& toks)
      : t_(toks), n_(toks.size()) {}

  std::vector<FunctionInfo> Run() {
    size_t guard = 0;
    while (i_ < n_ && ++guard < 4 * n_ + 64) Step();
    return std::move(fns_);
  }

 private:
  void Step() {
    const std::string& s = t_[i_].text;
    if (s == "namespace") {
      ParseNamespace();
    } else if (s == "class" || s == "struct" || s == "union") {
      ParseClassHead();
    } else if (s == "enum") {
      SkipEnum();
    } else if (s == "using" || s == "typedef" || s == "static_assert") {
      SkipToSemi();
    } else if (s == "template") {
      ++i_;
      SkipAngles();
    } else if ((s == "public" || s == "private" || s == "protected") &&
               i_ + 1 < n_ && t_[i_ + 1].text == ":") {
      i_ += 2;
    } else if (s == "{") {
      scopes_.push_back("");
      ++i_;
    } else if (s == "}") {
      if (!scopes_.empty()) scopes_.pop_back();
      ++i_;
    } else if (s == ";" || s == ",") {
      ++i_;
    } else {
      ParseDeclish();
    }
  }

  void SkipBalanced(const char* open, const char* close) {
    int depth = 0;
    while (i_ < n_) {
      const std::string& s = t_[i_].text;
      if (s == open) ++depth;
      if (s == close && --depth == 0) {
        ++i_;
        return;
      }
      ++i_;
    }
  }

  // `;` at zero brace/paren depth ends the statement (lambda bodies inside
  // initializers contain semicolons of their own).
  void SkipToSemi() {
    int bd = 0, pd = 0;
    while (i_ < n_) {
      const std::string& s = t_[i_].text;
      if (s == "{") ++bd;
      else if (s == "}") --bd;
      else if (s == "(") ++pd;
      else if (s == ")") --pd;
      else if (s == ";" && bd <= 0 && pd <= 0) {
        ++i_;
        return;
      }
      ++i_;
    }
  }

  void SkipAngles() {
    if (i_ >= n_ || t_[i_].text != "<") return;
    int depth = 0;
    while (i_ < n_) {
      const std::string& s = t_[i_].text;
      if (s == "<") ++depth;
      if (s == ">" && --depth == 0) {
        ++i_;
        return;
      }
      ++i_;
    }
  }

  void ParseNamespace() {
    ++i_;
    while (i_ < n_ && (t_[i_].ident || t_[i_].text == "::")) ++i_;
    if (i_ < n_ && t_[i_].text == "=") {
      SkipToSemi();  // namespace alias
      return;
    }
    if (i_ < n_ && t_[i_].text == "{") {
      scopes_.push_back("");
      ++i_;
    }
  }

  void ParseClassHead() {
    ++i_;
    std::string name;
    while (i_ < n_ && (t_[i_].ident || t_[i_].text == "final")) {
      if (t_[i_].ident && t_[i_].text != "final") name = t_[i_].text;
      ++i_;
    }
    if (i_ < n_ && t_[i_].text == ":") {  // base clause
      int angle = 0;
      while (i_ < n_) {
        const std::string& s = t_[i_].text;
        if (s == "<") ++angle;
        else if (s == ">") --angle;
        else if ((s == "{" && angle <= 0) || s == ";") break;
        ++i_;
      }
    }
    if (i_ < n_ && t_[i_].text == "{") {
      scopes_.push_back(name);
      ++i_;
    }
  }

  void SkipEnum() {
    ++i_;
    while (i_ < n_ && t_[i_].text != "{" && t_[i_].text != ";") ++i_;
    if (i_ < n_ && t_[i_].text == "{") SkipBalanced("{", "}");
  }

  // One declaration-or-definition statement at namespace/class scope.
  void ParseDeclish() {
    int angle = 0;
    std::string prev_ident, qual;
    bool tilde = false, after_colons = false;
    while (i_ < n_) {
      const Token& tk = t_[i_];
      const std::string& s = tk.text;
      if (s == ";") {
        ++i_;
        return;
      }
      if (s == "}") return;  // let Step() pop the scope
      if (s == "=") {
        SkipToSemi();
        return;
      }
      if (s == "{") {  // brace-init or inline aggregate; skip and continue
        SkipBalanced("{", "}");
        continue;
      }
      if (s == "<") {
        ++angle;
        ++i_;
        continue;
      }
      if (s == ">") {
        if (angle > 0) --angle;
        ++i_;
        continue;
      }
      if (s == "~") {
        tilde = true;
        ++i_;
        continue;
      }
      if (s == "::") {
        after_colons = true;
        ++i_;
        continue;
      }
      if (tk.ident && s == "operator") {
        ParseOperator(after_colons ? prev_ident : CurrentClass());
        return;
      }
      if (tk.ident) {
        if (angle == 0) {
          qual = after_colons ? prev_ident : "";
          prev_ident = s;
        }
        after_colons = false;
        ++i_;
        continue;
      }
      if (s == "(") {
        if (angle == 0 && !prev_ident.empty() && !IsKeyword(prev_ident) &&
            TryFunction(prev_ident, qual, tilde, tk.line))
          return;
        SkipBalanced("(", ")");
        continue;
      }
      after_colons = false;
      ++i_;  // & * [ ] , : attributes ...
    }
  }

  std::string CurrentClass() const {
    return scopes_.empty() ? std::string() : scopes_.back();
  }

  void ParseOperator(const std::string& qual) {
    const size_t save = i_;
    const int line = t_[i_].line;
    ++i_;  // past 'operator'
    std::string op;
    if (i_ + 1 < n_ && t_[i_].text == "(" && t_[i_ + 1].text == ")") {
      op = "()";
      i_ += 2;
    } else {
      while (i_ < n_ && t_[i_].text != "(" && t_[i_].text != ";" &&
             t_[i_].text != "{")
        op += t_[i_++].text;
    }
    if (i_ >= n_ || t_[i_].text != "(" ||
        !TryFunction("operator" + op, qual, false, line)) {
      i_ = save + 1;  // make progress; body (if any) parses as a scope
    }
  }

  bool TryFunction(const std::string& raw_name, const std::string& qual,
                   bool tilde, int line) {
    const size_t save = i_;
    FunctionInfo fn;
    fn.name = (tilde ? "~" : "") + raw_name;
    fn.qual = qual;
    fn.sig_line = line;
    const std::string cls = !qual.empty() ? qual : CurrentClass();
    fn.is_ctor_dtor = tilde || (!cls.empty() && raw_name == cls);
    if (!ParseParams(&fn.params)) {
      i_ = save;
      return false;
    }
    while (i_ < n_) {  // trailing qualifiers
      const std::string& s = t_[i_].text;
      if (s == "const" || s == "override" || s == "final" || s == "&" ||
          s == "&&" || s == "mutable" || s == "volatile" || s == "try") {
        ++i_;
      } else if (s == "noexcept") {
        ++i_;
        if (i_ < n_ && t_[i_].text == "(") SkipBalanced("(", ")");
      } else if (s == "->") {  // trailing return type
        ++i_;
        int angle = 0;
        while (i_ < n_) {
          const std::string& r = t_[i_].text;
          if (r == "<") ++angle;
          else if (r == ">") { if (angle > 0) --angle; }
          else if (angle == 0 && (r == "{" || r == ";" || r == "=")) break;
          ++i_;
        }
      } else {
        break;
      }
    }
    if (i_ >= n_) {
      i_ = save;
      return false;
    }
    const std::string& s = t_[i_].text;
    if (s == ";") {
      ++i_;
      fns_.push_back(std::move(fn));
      return true;
    }
    if (s == "=") {
      if (i_ + 1 < n_ &&
          (t_[i_ + 1].text == "0" || t_[i_ + 1].text == "default" ||
           t_[i_ + 1].text == "delete")) {
        SkipToSemi();
        fns_.push_back(std::move(fn));
        return true;
      }
      i_ = save;
      return false;
    }
    if (s == ":") {
      if (!fn.is_ctor_dtor || !SkipCtorInit()) {
        i_ = save;
        return false;
      }
    }
    if (i_ < n_ && t_[i_].text == "{") {
      fn.has_body = true;
      ConsumeBody(&fn);
      fns_.push_back(std::move(fn));
      return true;
    }
    i_ = save;
    return false;
  }

  // Positioned at ':'. Consumes member initializers up to the body '{'.
  // A '{' directly after ')' or '}' is the body; after an identifier or
  // '>' it is a brace-initializer and is skipped whole.
  bool SkipCtorInit() {
    ++i_;
    int pd = 0;
    std::string last = ":";
    while (i_ < n_) {
      const std::string& s = t_[i_].text;
      if (s == "(") {
        ++pd;
      } else if (s == ")") {
        --pd;
      } else if (s == "{" && pd == 0) {
        if (last == ")" || last == "}") return true;
        SkipBalanced("{", "}");
        last = "}";
        continue;
      } else if (s == ";") {
        return false;
      }
      last = s;
      ++i_;
    }
    return false;
  }

  bool ParseParams(std::vector<Param>* out) {
    ++i_;  // past '('
    int pd = 1, ad = 0, bd = 0, sd = 0;
    std::vector<Token> cur;
    auto flush = [&]() {
      if (cur.empty()) return;
      Param p;
      size_t end = cur.size();  // tokens before any default argument
      for (size_t k = 0; k < cur.size(); ++k) {
        p.text += (k ? " " : "") + cur[k].text;
        if (cur[k].text == "RunContext" || cur[k].text == "CancelToken")
          p.is_ctx = true;
        if (cur[k].text == "=" && end == cur.size()) end = k;
      }
      for (size_t k = end; k-- > 0;) {
        if (!cur[k].ident) continue;
        const std::string& c = cur[k].text;
        // Project style: parameter names are lower_snake; an Uppercase
        // token in name position means the parameter is unnamed.
        if (!IsKeyword(c) && !(c[0] >= 'A' && c[0] <= 'Z')) p.name = c;
        break;
      }
      out->push_back(std::move(p));
      cur.clear();
    };
    size_t guard = 0;
    while (i_ < n_ && ++guard < 100000) {
      const Token& tk = t_[i_];
      const std::string& s = tk.text;
      if (s == "(") ++pd;
      else if (s == ")") {
        if (--pd == 0) {
          flush();
          ++i_;
          return true;
        }
      } else if (s == "<") ++ad;
      else if (s == ">") { if (ad > 0) --ad; }
      else if (s == "{") ++bd;
      else if (s == "}") {
        if (bd == 0) return false;  // ran out of the statement: not params
        --bd;
      } else if (s == "[") ++sd;
      else if (s == "]") { if (sd > 0) --sd; }
      else if (s == ";") return false;
      if (s == "," && pd == 1 && ad == 0 && bd == 0 && sd == 0) {
        flush();
      } else {
        cur.push_back(tk);
      }
      ++i_;
    }
    return false;
  }

  // Positioned at the body '{'. Consumes the balanced body, recording every
  // identifier and every `ident (` call site with the identifiers that
  // appear between its parentheses (the arg set used for forwarding
  // checks). Nested calls each get their own CallSite.
  void ConsumeBody(FunctionInfo* fn) {
    fn->body_begin = t_[i_].line;
    int depth = 0;
    std::string prev;
    bool prev_ident = false;
    int prev_line = 0;
    while (i_ < n_) {
      const Token& tk = t_[i_];
      if (tk.text == "{") {
        ++depth;
      } else if (tk.text == "}") {
        if (--depth == 0) {
          fn->body_end = tk.line;
          ++i_;
          return;
        }
      } else if (tk.ident) {
        fn->body_idents.insert(tk.text);
      }
      if (tk.text == "(" && prev_ident && !IsKeyword(prev)) {
        CallSite cs;
        cs.callee = prev;
        cs.line = prev_line;
        int d = 0;
        for (size_t j = i_; j < n_ && j < i_ + 20000; ++j) {
          const std::string& a = t_[j].text;
          if (a == "(") ++d;
          else if (a == ")") {
            if (--d == 0) break;
          } else if (t_[j].ident) {
            cs.arg_idents.insert(a);
          }
        }
        fn->calls.push_back(std::move(cs));
      }
      prev = tk.text;
      prev_ident = tk.ident;
      prev_line = tk.line;
      ++i_;
    }
    fn->body_end = (n_ > 0) ? t_[n_ - 1].line : fn->body_begin;
  }

  const std::vector<Token>& t_;
  const size_t n_;
  size_t i_ = 0;
  std::vector<std::string> scopes_;  // namespace ("") / class (name) nesting
  std::vector<FunctionInfo> fns_;
};

std::vector<FunctionInfo> SegmentFile(const FileText& f) {
  return Segmenter(Tokenize(f.sanitized)).Run();
}

bool IsLibraryish(const std::string& rel) {
  // Rules about *library* obligations: tests may legitimately use the
  // 3-arg Align convenience, ValueOrDie, and friends.
  return rel.rfind("tests/", 0) != 0;
}

bool LowerContains(const std::string& s, const char* needle) {
  std::string l(s);
  std::transform(l.begin(), l.end(), l.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return l.find(needle) != std::string::npos;
}

// ----------------------------------------- rule: context-dropped
//
// "Ctx-capable" = any function declared in src/ with a RunContext or
// CancelToken parameter (excluding common/run_context.h itself — the
// abstraction's own plumbing — and ctors, which *store* contexts rather
// than honor them). This set is the transitive deadline frontier by
// construction: anything that takes a context is expected to forward or
// poll it, so calling one without a context strands the caller's deadline
// no matter how deep the callee eventually polls.
std::set<std::string> CollectCtxCapable(
    const std::vector<FileText>& files,
    const std::vector<std::vector<FunctionInfo>>& fns) {
  std::set<std::string> out;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const std::string& rel = files[fi].rel;
    if (rel.rfind("src/", 0) != 0) continue;
    if (EndsWith(rel, "common/run_context.h") ||
        EndsWith(rel, "common/run_context.cc"))
      continue;
    for (const FunctionInfo& fn : fns[fi]) {
      if (fn.is_ctor_dtor || fn.name.rfind("operator", 0) == 0) continue;
      for (const Param& p : fn.params)
        if (p.is_ctx) out.insert(fn.name);
    }
  }
  return out;
}

// A call forwards the caller's context when any argument identifier is one
// of the caller's ctx parameters, mentions ctx/context by name (covers
// derived contexts like `sub_ctx` and inline `ctx.WithTimeout(...)`), or is
// an explicit `Unbounded` opt-out.
bool CallForwardsCtx(const CallSite& c,
                     const std::vector<std::string>& ctx_names) {
  for (const std::string& a : c.arg_idents) {
    for (const std::string& n : ctx_names)
      if (a == n) return true;
    if (a == "Unbounded") return true;
    if (LowerContains(a, "ctx") || LowerContains(a, "context")) return true;
  }
  return false;
}

void CheckContextDropped(const FileText& f,
                         const std::vector<FunctionInfo>& fns,
                         const std::set<std::string>& ctx_capable,
                         std::vector<Diagnostic>* diags,
                         std::set<int>* bad_allow) {
  if (!IsLibraryish(f.rel)) return;
  for (const FunctionInfo& fn : fns) {
    if (!fn.has_body || fn.is_ctor_dtor) continue;
    std::vector<std::string> ctx_names;
    for (const Param& p : fn.params)
      if (p.is_ctx && !p.name.empty()) ctx_names.push_back(p.name);
    if (ctx_names.empty()) continue;
    // Stranded parameter: a named context that the body never consults or
    // forwards is a deadline sink. One-liners (trivial forwarders whose
    // param exists for interface shape) are exempt; so is an explicitly
    // unnamed parameter, which is the idiom for "deliberately ignored".
    for (const std::string& n : ctx_names) {
      if (fn.body_idents.count(n) > 0) continue;
      if (fn.body_end - fn.body_begin < 3) continue;
      if (LineAllows(f.raw[fn.sig_line - 1], "context-dropped", f.path,
                     fn.sig_line, diags, bad_allow))
        continue;
      diags->push_back(
          {f.path, fn.sig_line, "context-dropped",
           "'" + fn.name + "' takes RunContext/CancelToken '" + n +
               "' but never polls or forwards it; honor the deadline "
               "(ShouldStop/forwarding) or unname the parameter if ignoring "
               "it is deliberate (DESIGN.md §14)"});
    }
    for (const CallSite& c : fn.calls) {
      if (ctx_capable.count(c.callee) == 0) continue;
      if (CallForwardsCtx(c, ctx_names)) continue;
      const int line_no = c.line;
      if (line_no < 1 || line_no > static_cast<int>(f.raw.size())) continue;
      if (LineAllows(f.raw[line_no - 1], "context-dropped", f.path, line_no,
                     diags, bad_allow))
        continue;
      diags->push_back(
          {f.path, line_no, "context-dropped",
           "call to deadline-aware '" + c.callee + "' drops '" +
               ctx_names.front() + "'; forward the caller's RunContext (or "
               "pass RunContext::Unbounded() to opt out explicitly) so "
               "cancellation propagates (DESIGN.md §14)"});
    }
  }
}

// ----------------------------------------- rule: budget-discipline
//
// Two per-function dataflow checks over the §9 memory-budget contract:
//  (a) a raw MemoryBudget::TryReserve must be paired with a Release or a
//      MemoryScope somewhere in the same function — a function that only
//      acquires is either leaking or doing a cross-function handoff, which
//      must be declared with an allow() naming the releasing function;
//  (b) a TryCreate result must be ok()/status()-checked before its first
//      ValueOrDie/MoveValueOrDie in the function, and never consumed
//      in place as TryCreate(...).ValueOrDie().
void CheckBudgetDiscipline(const FileText& f,
                           const std::vector<FunctionInfo>& fns,
                           std::vector<Diagnostic>* diags,
                           std::set<int>* bad_allow) {
  if (!IsLibraryish(f.rel)) return;
  // The budget implementation itself pairs the primitives internally.
  if (EndsWith(f.rel, "common/memory_budget.h") ||
      EndsWith(f.rel, "common/memory_budget.cc"))
    return;
  for (const FunctionInfo& fn : fns) {
    if (!fn.has_body) continue;
    const CallSite* reserve = nullptr;
    bool released = fn.body_idents.count("MemoryScope") > 0;
    for (const CallSite& c : fn.calls) {
      if (c.callee == "TryReserve" && reserve == nullptr) reserve = &c;
      if (c.callee == "Release" || c.callee == "release") released = true;
    }
    if (reserve != nullptr && !released) {
      const int line_no = reserve->line;
      if (line_no >= 1 && line_no <= static_cast<int>(f.raw.size()) &&
          !LineAllows(f.raw[line_no - 1], "budget-discipline", f.path,
                      line_no, diags, bad_allow)) {
        diags->push_back(
            {f.path, line_no, "budget-discipline",
             "'" + fn.name + "' reserves budget (TryReserve) but has no "
             "Release or MemoryScope on any path; pair them, or declare the "
             "cross-function handoff with an allow() naming the releasing "
             "function (DESIGN.md §14)"});
      }
    }
    for (const CallSite& c : fn.calls) {
      if (c.callee != "TryCreate") continue;
      const int call_line = c.line;
      if (call_line < 1 || call_line > static_cast<int>(f.sanitized.size()))
        continue;
      const std::string& line = f.sanitized[call_line - 1];
      if (Contains(line, "ValueOrDie")) {
        if (LineAllows(f.raw[call_line - 1], "budget-discipline", f.path,
                       call_line, diags, bad_allow))
          continue;
        diags->push_back(
            {f.path, call_line, "budget-discipline",
             "TryCreate(...).ValueOrDie() consumes an unchecked allocation "
             "result in place; bind it and check ok() (an over-budget "
             "allocation must degrade, not abort — DESIGN.md §9/§14)"});
        continue;
      }
      // Recover the bound variable: the last `name =` before the TryCreate
      // token, joining up to two preceding lines for wrapped initializers.
      std::string window;
      int wstart = call_line - 1;
      if (wstart - 2 >= fn.body_begin - 1) wstart -= 2;
      else if (wstart - 1 >= fn.body_begin - 1) wstart -= 1;
      for (int l = wstart; l <= call_line - 1; ++l)
        window += f.sanitized[l] + "\n";
      const size_t at = window.rfind("TryCreate");
      if (at == std::string::npos) continue;
      static const std::regex assign_re(R"(([A-Za-z_]\w*)\s*=[^=])");
      std::string before = window.substr(0, at);
      std::string var;
      for (std::sregex_iterator it(before.begin(), before.end(), assign_re);
           it != std::sregex_iterator(); ++it)
        var = (*it)[1].str();
      if (var.empty()) continue;  // returned / passed through: checked later
      const std::regex use_re("\\b" + var +
                              R"(\s*\.\s*(Move)?ValueOrDie\s*\()");
      const std::regex check_re("\\b" + var + R"(\s*\.\s*(ok|status)\s*\()");
      int use_line = -1;
      const int body_last =
          std::min<int>(fn.body_end, static_cast<int>(f.sanitized.size()));
      for (int l = call_line; l < body_last; ++l) {
        if (std::regex_search(f.sanitized[l], use_re)) {
          use_line = l + 1;
          break;
        }
      }
      if (use_line < 0) continue;
      bool checked = false;
      for (int l = call_line - 1; l < use_line - 1; ++l) {
        if (std::regex_search(f.sanitized[l], check_re)) {
          checked = true;
          break;
        }
      }
      if (checked) continue;
      if (LineAllows(f.raw[use_line - 1], "budget-discipline", f.path,
                     use_line, diags, bad_allow))
        continue;
      diags->push_back(
          {f.path, use_line, "budget-discipline",
           "ValueOrDie on '" + var + "' without a prior ok()/status() check "
           "in '" + fn.name + "'; a failed TryCreate must be handled, not "
           "crashed through (DESIGN.md §9/§14)"});
    }
  }
}

// ----------------------------------------------- rule: guarded-by
//
// `// galign: guarded_by(mu_)` on a member/state declaration names the
// mutex that must be held wherever that symbol is touched. Enforcement is
// function-granular (coarse by design — a compile-free complement to the
// TSan gate, not a replacement): every function body in the annotation's
// file or its .h/.cc counterpart that mentions the symbol must acquire the
// mutex (lock_guard/unique_lock/scoped_lock/.lock()), carry a `Locked`
// name suffix, or carry `// galign: requires_lock(mu_)` on its signature.
// Ctors/dtors are exempt (no concurrent access during construction).
struct GuardedSymbol {
  std::string symbol;
  std::string mutex;
  std::string file;  // abs path of the annotation (diagnostic anchor)
  std::string rel;
  int line = 0;
};

const std::regex kGuardRe(R"(galign:\s*guarded_by\(([A-Za-z_]\w*)\))");
const std::regex kRequiresRe(R"(galign:\s*requires_lock\(([A-Za-z_]\w*)\))");

std::vector<GuardedSymbol> CollectGuarded(const std::vector<FileText>& files,
                                          std::vector<Diagnostic>* diags) {
  std::vector<GuardedSymbol> out;
  for (const FileText& f : files) {
    for (size_t i = 0; i < f.raw.size(); ++i) {
      std::smatch m;
      if (!std::regex_search(f.raw[i], m, kGuardRe)) continue;
      // The annotated symbol: last identifier before the first of ;={ on
      // the sanitized declaration line (skipping a closing param list, so
      // annotated accessor functions resolve to the function name).
      const std::string& decl = f.sanitized[i];
      size_t stop = decl.find_first_of(";={");
      if (stop == std::string::npos) stop = decl.size();
      std::string symbol;
      for (size_t j = stop; j-- > 0;) {
        const char c = decl[j];
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
          size_t b = j + 1;
          while (j > 0 && (std::isalnum(static_cast<unsigned char>(
                               decl[j - 1])) ||
                           decl[j - 1] == '_'))
            --j;
          symbol = decl.substr(j, b - j);
          break;
        }
      }
      const int line_no = static_cast<int>(i) + 1;
      if (symbol.empty() ||
          std::isdigit(static_cast<unsigned char>(symbol[0]))) {
        // A comment-only line (prose mentioning the syntax) is not an
        // annotation; an annotation must ride on its declaration's line.
        if (decl.find_first_not_of(" \t") == std::string::npos) continue;
        diags->push_back({f.path, line_no, "guarded-by",
                          "could not parse the declaration this guarded_by "
                          "annotation is attached to"});
        continue;
      }
      out.push_back({symbol, m[1].str(), f.path, f.rel, line_no});
    }
  }
  return out;
}

std::string CounterpartRel(const std::string& rel) {
  if (EndsWith(rel, ".h")) return rel.substr(0, rel.size() - 2) + ".cc";
  if (EndsWith(rel, ".cc")) return rel.substr(0, rel.size() - 3) + ".h";
  return std::string();
}

bool BodyLocks(const FileText& f, const FunctionInfo& fn,
               const std::string& mutex) {
  const std::regex lock_re(
      std::string(R"((lock_guard|unique_lock|scoped_lock)\b)"));
  const std::regex mu_re("\\b" + mutex + "\\b");
  const std::regex direct_re("\\b" + mutex + R"(\s*\.\s*lock\s*\()");
  const int lo = std::max(1, fn.body_begin);
  const int hi = std::min<int>(fn.body_end, static_cast<int>(f.sanitized.size()));
  for (int l = lo; l <= hi; ++l) {
    const std::string& s = f.sanitized[l - 1];
    if (std::regex_search(s, direct_re)) return true;
    if (std::regex_search(s, lock_re) && std::regex_search(s, mu_re))
      return true;
  }
  return false;
}

bool SigRequiresLock(const FileText& f, const FunctionInfo& fn,
                     const std::string& mutex) {
  for (int l = std::max(1, fn.sig_line - 1); l <= fn.sig_line; ++l) {
    std::smatch m;
    if (l <= static_cast<int>(f.raw.size()) &&
        std::regex_search(f.raw[l - 1], m, kRequiresRe) &&
        m[1].str() == mutex)
      return true;
  }
  return false;
}

void CheckGuardedBy(const FileText& f, const std::vector<FunctionInfo>& fns,
                    const std::vector<GuardedSymbol>& guarded,
                    std::vector<Diagnostic>* diags, std::set<int>* bad_allow) {
  for (const GuardedSymbol& g : guarded) {
    if (f.rel != g.rel && f.rel != CounterpartRel(g.rel)) continue;
    const std::regex sym_re("\\b" + g.symbol + "\\b");
    for (const FunctionInfo& fn : fns) {
      if (!fn.has_body || fn.is_ctor_dtor) continue;
      if (EndsWith(fn.name, "Locked")) continue;
      if (fn.body_idents.count(g.symbol) == 0) continue;
      if (fn.name == g.symbol) continue;  // the annotated function itself
      if (SigRequiresLock(f, fn, g.mutex)) continue;
      if (BodyLocks(f, fn, g.mutex)) continue;
      // Anchor the diagnostic on the first body line touching the symbol.
      int use_line = fn.body_begin;
      const int hi =
          std::min<int>(fn.body_end, static_cast<int>(f.sanitized.size()));
      for (int l = std::max(1, fn.body_begin); l <= hi; ++l) {
        if (std::regex_search(f.sanitized[l - 1], sym_re)) {
          use_line = l;
          break;
        }
      }
      if (LineAllows(f.raw[use_line - 1], "guarded-by", f.path, use_line,
                     diags, bad_allow))
        continue;
      diags->push_back(
          {f.path, use_line, "guarded-by",
           "'" + fn.name + "' touches '" + g.symbol + "' (guarded by '" +
               g.mutex + "', " + g.rel + ":" + std::to_string(g.line) +
               ") without acquiring it; lock, rename with a Locked suffix, "
               "or annotate `// galign: requires_lock(" + g.mutex +
               ")` (DESIGN.md §14)"});
    }
  }
}

// ------------------------------------------ rule: fault-site-audit
//
// The §8 fault-injection contract: every site instrumented in src/
// (ShouldFailIO/CorruptBuffer/Perturb string) must be armed by at least one
// test, every directly-armed site must exist somewhere, and no two src
// sites may sit one typo apart. Harvested from RAW lines — the sanitizer
// blanks exactly the string literals this rule is about. Runs only on
// default (full-tree) scans: a single-file scan has no test set to audit
// against.
struct FaultSite {
  std::string file;  // abs path of first instrumentation
  std::string rel;
  int line = 0;
  int arming_tests = 0;
  std::string raw_line{};  // for allow() suppression checks
};

int EditDistance(const std::string& a, const std::string& b) {
  const size_t n = a.size(), m = b.size();
  std::vector<int> prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

const std::regex kInstrumentRe(
    R"(\b(?:ShouldFailIO|CorruptBuffer|Perturb)\s*\(\s*"([^"]+)\")");
const std::regex kArmRe(R"(\bArm\s*\(\s*"([^"]+)\")");
const std::regex kDottedRe(R"re("([a-z0-9_]+(?:\.[a-z0-9_]+)+)")re");

void CheckFaultSiteAudit(const std::vector<FileText>& files,
                         std::map<std::string, FaultSite>* table,
                         std::vector<Diagnostic>* diags) {
  // site -> first src instrumentation
  std::map<std::string, FaultSite>& src_sites = *table;
  std::set<std::string> test_instrumented;   // sites defined in test code
  std::set<std::string> test_references;     // any dotted literal in tests
  std::map<std::string, int> reference_files;  // site -> #test files
  struct ArmAt {
    std::string file;
    std::string raw_line;
    int line;
  };
  std::map<std::string, ArmAt> direct_arms;

  for (const FileText& f : files) {
    const bool in_src = f.rel.rfind("src/", 0) == 0;
    const bool in_tests = f.rel.rfind("tests/", 0) == 0;
    if (!in_src && !in_tests) continue;
    std::set<std::string> refs_here;
    for (size_t i = 0; i < f.raw.size(); ++i) {
      const std::string& line = f.raw[i];
      if (in_src) {
        for (std::sregex_iterator it(line.begin(), line.end(), kInstrumentRe);
             it != std::sregex_iterator(); ++it) {
          const std::string site = (*it)[1].str();
          if (src_sites.count(site) == 0)
            src_sites[site] = {f.path, f.rel, static_cast<int>(i) + 1, 0,
                               line};
        }
      } else {
        for (std::sregex_iterator it(line.begin(), line.end(), kInstrumentRe);
             it != std::sregex_iterator(); ++it)
          test_instrumented.insert((*it)[1].str());
        for (std::sregex_iterator it(line.begin(), line.end(), kArmRe);
             it != std::sregex_iterator(); ++it) {
          const std::string site = (*it)[1].str();
          if (direct_arms.count(site) == 0)
            direct_arms[site] = {f.path, line, static_cast<int>(i) + 1};
        }
        for (std::sregex_iterator it(line.begin(), line.end(), kDottedRe);
             it != std::sregex_iterator(); ++it) {
          test_references.insert((*it)[1].str());
          refs_here.insert((*it)[1].str());
        }
      }
    }
    for (const std::string& r : refs_here) ++reference_files[r];
  }

  std::set<int> audit_bad_allow;  // per-audit bad-allow dedup
  for (auto& [site, info] : src_sites) {
    auto it = reference_files.find(site);
    info.arming_tests = (it == reference_files.end()) ? 0 : it->second;
    if (info.arming_tests == 0) {
      if (LineAllows(info.raw_line, "fault-site-audit", info.file, info.line,
                     diags, &audit_bad_allow))
        continue;
      diags->push_back(
          {info.file, info.line, "fault-site-audit",
           "fault site '" + site + "' is instrumented in src but no test "
           "arms or references it; add an arming test so the failure path "
           "stays executable (DESIGN.md §8/§14)"});
    }
  }
  for (const auto& [site, at] : direct_arms) {
    if (src_sites.count(site) > 0 || test_instrumented.count(site) > 0)
      continue;
    std::string nearest;
    int best = 3;
    for (const auto& [s, info] : src_sites) {
      const int d = EditDistance(site, s);
      if (d < best) {
        best = d;
        nearest = s;
      }
    }
    std::string msg = "test arms fault site '" + site +
                      "' which no src or test code instruments (phantom "
                      "site: the test exercises nothing)";
    if (!nearest.empty()) msg += "; did you mean '" + nearest + "'?";
    // allow() on the arming line suppresses (e.g. negative tests that arm
    // a deliberately-unknown site).
    if (!LineAllows(at.raw_line, "fault-site-audit", at.file, at.line, diags,
                    &audit_bad_allow))
      diags->push_back({at.file, at.line, "fault-site-audit", msg});
  }
  std::vector<std::string> names;
  for (const auto& [site, info] : src_sites) names.push_back(site);
  for (size_t a = 0; a < names.size(); ++a) {
    for (size_t b = a + 1; b < names.size(); ++b) {
      if (EditDistance(names[a], names[b]) <= 1) {
        const FaultSite& info = src_sites[names[b]];
        diags->push_back(
            {info.file, info.line, "fault-site-audit",
             "fault sites '" + names[a] + "' and '" + names[b] +
                 "' are one edit apart; likely a typo'd duplicate — rename "
                 "one or merge them"});
      }
    }
  }
}

// -------------------------------------------- rule: orphan-module
//
// A library header is live when a program reaches it: some file under src,
// bench, examples or tools includes it, other than the header's own .cc.
// Tests do not count — a module only its own test reaches is dead code
// built into every binary. Includes resolve against src/ and against the
// including file's directory. Reported on line 1 of the header, where an
// allow() comment suppresses it.
void CheckOrphanModules(const std::vector<FileText>& files,
                        std::vector<Diagnostic>* diags) {
  std::map<std::string, const FileText*> headers;  // rel path -> file
  for (const FileText& f : files) {
    if (f.rel.rfind("src/", 0) == 0 && fs::path(f.rel).extension() == ".h")
      headers[f.rel] = &f;
  }
  std::set<std::string> included;
  for (const FileText& f : files) {
    bool program_side = false;
    for (const char* d : {"src/", "bench/", "examples/", "tools/"})
      if (f.rel.rfind(d, 0) == 0) program_side = true;
    if (!program_side) continue;
    const fs::path dir = fs::path(f.rel).parent_path();
    for (const std::string& line : f.raw) {
      std::smatch m;
      if (!std::regex_search(line, m, kQuotedIncludeRe)) continue;
      for (const fs::path& candidate :
           {fs::path("src") / m[1].str(), dir / m[1].str()}) {
        const std::string rel = candidate.lexically_normal().generic_string();
        if (headers.count(rel) == 0) continue;
        const std::string own_cc = rel.substr(0, rel.size() - 2) + ".cc";
        if (f.rel != own_cc) included.insert(rel);
      }
    }
  }
  std::set<int> bad_allow;
  for (const auto& [rel, f] : headers) {
    if (included.count(rel) > 0) continue;
    bad_allow.clear();
    if (!f->raw.empty() &&
        LineAllows(f->raw[0], "orphan-module", f->path, 1, diags, &bad_allow))
      continue;
    diags->push_back(
        {f->path, 1, "orphan-module",
         "no file under src, bench, examples or tools includes '" + rel +
             "' other than its own .cc; delete the module or give it a "
             "program that runs it"});
  }
}

// -------------------------------------------------- output + baseline
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Baseline entries are (rule, file) pairs: every diagnostic of that rule in
// that file is grandfathered. Deliberately line-free so unrelated edits in
// a baselined file do not churn the baseline. Parsed with a strict regex —
// the file is machine-written by --write-baseline.
std::set<std::pair<std::string, std::string>> LoadBaseline(
    const fs::path& path, bool* ok) {
  std::set<std::pair<std::string, std::string>> out;
  std::ifstream in(path);
  *ok = static_cast<bool>(in);
  if (!*ok) return out;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  static const std::regex entry_re(
      R"re(\{\s*"rule"\s*:\s*"([^"]+)"\s*,\s*"file"\s*:\s*"([^"]+)"\s*\})re");
  for (std::sregex_iterator it(text.begin(), text.end(), entry_re);
       it != std::sregex_iterator(); ++it)
    out.insert({(*it)[1].str(), (*it)[2].str()});
  return out;
}

bool WriteBaseline(const fs::path& path,
                   const std::vector<Diagnostic>& diags) {
  std::set<std::pair<std::string, std::string>> entries;
  for (const Diagnostic& d : diags) entries.insert({d.rule, d.rel});
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"baseline\": [";
  bool first = true;
  for (const auto& [rule, file] : entries) {
    out << (first ? "" : ",") << "\n    {\"rule\": \"" << JsonEscape(rule)
        << "\", \"file\": \"" << JsonEscape(file) << "\"}";
    first = false;
  }
  out << (entries.empty() ? "" : "\n  ") << "]\n}\n";
  return static_cast<bool>(out);
}

// -------------------------------------------------------------- scanning
// examples/ holds its programs as .cpp files.
bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".cpp" || ext == ".h";
}

std::string RelPath(const fs::path& root, const fs::path& p) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  std::string s = (ec ? p : rel).generic_string();
  return s;
}

bool LoadFile(const fs::path& root, const fs::path& p, FileText* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  out->path = p.generic_string();
  out->rel = RelPath(root, p);
  out->raw = SplitLines(text);
  out->sanitized = SplitLines(Sanitize(text));
  return true;
}

void PrintDag() {
  std::printf("# galign layering DAG (module: allowed includes)\n");
  for (const auto& r : kLayerDag) {
    std::printf("%s:", r.module);
    if (r.may_include.empty()) std::printf(" (nothing below it)");
    for (const char* a : r.may_include) std::printf(" %s", a);
    std::printf("\n");
  }
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: galign_lint [--root=DIR] [--print-dag] [--format=text|json]\n"
      "                   [--baseline=FILE] [--write-baseline=FILE]\n"
      "                   [--fault-audit] [paths...]\n"
      "  Scans src/ bench/ examples/ tests/ tools/ under --root (default:\n"
      "  current directory) unless explicit paths are given. Paths may be\n"
      "  files or directories. The fault-site audit runs only on full-tree\n"
      "  scans (no explicit paths). --baseline suppresses grandfathered\n"
      "  (rule,file) pairs; --write-baseline blesses the current findings.\n"
      "  --fault-audit prints the site coverage table in text mode (always\n"
      "  present in JSON). Exit: 0 clean, 1 violations, 2 error.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::vector<fs::path> paths;
  bool print_dag = false;
  bool json = false;
  bool fault_audit_table = false;
  std::string baseline_file, write_baseline_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = fs::path(arg.substr(7));
    } else if (arg == "--root" && i + 1 < argc) {
      root = fs::path(argv[++i]);
    } else if (arg == "--print-dag") {
      print_dag = true;
    } else if (arg == "--format=json") {
      json = true;
    } else if (arg == "--format=text") {
      json = false;
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_file = arg.substr(11);
    } else if (arg.rfind("--write-baseline=", 0) == 0) {
      write_baseline_file = arg.substr(17);
    } else if (arg == "--fault-audit") {
      fault_audit_table = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      paths.emplace_back(arg);
    }
  }
  if (print_dag) {
    PrintDag();
    return 0;
  }
  std::error_code ec;
  root = fs::canonical(root, ec);
  if (ec) {
    std::fprintf(stderr, "galign_lint: bad --root: %s\n", ec.message().c_str());
    return 2;
  }
  const bool full_tree_scan = paths.empty();
  if (paths.empty()) {
    for (const char* d : {"src", "bench", "examples", "tests", "tools"}) {
      if (fs::exists(root / d)) paths.push_back(root / d);
    }
  }

  std::vector<FileText> files;
  for (const auto& p : paths) {
    const fs::path abs = p.is_absolute() ? p : root / p;
    if (!fs::exists(abs)) {
      std::fprintf(stderr, "galign_lint: no such path: %s\n",
                   abs.generic_string().c_str());
      return 2;
    }
    if (fs::is_directory(abs)) {
      for (auto it = fs::recursive_directory_iterator(abs);
           it != fs::recursive_directory_iterator(); ++it) {
        const fs::path& f = it->path();
        const std::string g = f.generic_string();
        // Fixture trees deliberately contain violations; skip them unless
        // the fixture dir itself was passed as the scan path.
        if (Contains(g, "lint_fixtures") &&
            !Contains(abs.generic_string(), "lint_fixtures")) {
          if (it->is_directory()) it.disable_recursion_pending();
          continue;
        }
        if (Contains(g, "/build")) {
          if (it->is_directory()) it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && IsSourceFile(f)) {
          FileText ft;
          if (LoadFile(root, f, &ft)) files.push_back(std::move(ft));
        }
      }
    } else if (IsSourceFile(abs)) {
      FileText ft;
      if (LoadFile(root, abs, &ft)) files.push_back(std::move(ft));
    }
  }
  std::sort(files.begin(), files.end(),
            [](const FileText& a, const FileText& b) { return a.rel < b.rel; });

  const std::set<std::string> status_fns = CollectStatusFunctions(files);

  // Flow layer: segment every file once, then derive the cross-TU sets the
  // flow rules consume (ctx-capable call graph frontier, guarded symbols).
  std::vector<std::vector<FunctionInfo>> fns;
  fns.reserve(files.size());
  for (const auto& f : files) fns.push_back(SegmentFile(f));
  const std::set<std::string> ctx_capable = CollectCtxCapable(files, fns);

  std::vector<Diagnostic> diags;
  const std::vector<GuardedSymbol> guarded = CollectGuarded(files, &diags);

  for (size_t fi = 0; fi < files.size(); ++fi) {
    const auto& f = files[fi];
    std::set<int> bad_allow_seen;
    CheckLayering(f, &diags, &bad_allow_seen);
    CheckNondeterminism(f, &diags, &bad_allow_seen);
    CheckUnbudgetedAlloc(f, &diags, &bad_allow_seen);
    CheckNakedThrow(f, &diags, &bad_allow_seen);
    CheckUncheckedStatus(f, status_fns, &diags, &bad_allow_seen);
    CheckContextDropped(f, fns[fi], ctx_capable, &diags, &bad_allow_seen);
    CheckBudgetDiscipline(f, fns[fi], &diags, &bad_allow_seen);
    CheckGuardedBy(f, fns[fi], guarded, &diags, &bad_allow_seen);
  }

  std::map<std::string, FaultSite> fault_table;
  if (full_tree_scan) CheckFaultSiteAudit(files, &fault_table, &diags);
  bool has_programs = false;
  for (const char* d : {"bench", "examples", "tools"})
    if (fs::is_directory(root / d)) has_programs = true;
  if (full_tree_scan && has_programs) CheckOrphanModules(files, &diags);

  // Fill scan-root-relative paths (baseline + JSON keys).
  {
    std::map<std::string, std::string> rel_of;
    for (const auto& f : files) rel_of[f.path] = f.rel;
    for (auto& d : diags) {
      auto it = rel_of.find(d.file);
      d.rel = (it == rel_of.end()) ? d.file : it->second;
    }
  }
  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.rel, a.line, a.rule) <
                     std::tie(b.rel, b.line, b.rule);
            });

  if (!write_baseline_file.empty()) {
    if (!WriteBaseline(root / write_baseline_file, diags)) {
      std::fprintf(stderr, "galign_lint: cannot write baseline: %s\n",
                   write_baseline_file.c_str());
      return 2;
    }
    std::printf("galign_lint: baselined %zu violation(s) to %s\n",
                diags.size(), write_baseline_file.c_str());
    return 0;
  }

  size_t baselined = 0;
  if (!baseline_file.empty()) {
    bool ok = false;
    const auto baseline = LoadBaseline(root / baseline_file, &ok);
    if (!ok) {
      std::fprintf(stderr, "galign_lint: cannot read baseline: %s\n",
                   baseline_file.c_str());
      return 2;
    }
    std::vector<Diagnostic> kept;
    for (auto& d : diags) {
      if (baseline.count({d.rule, d.rel}) > 0)
        ++baselined;
      else
        kept.push_back(std::move(d));
    }
    diags = std::move(kept);
  }

  if (json) {
    std::printf("{\n  \"clean\": %s,\n  \"files_scanned\": %zu,\n",
                diags.empty() ? "true" : "false", files.size());
    std::printf("  \"baselined\": %zu,\n", baselined);
    std::printf("  \"violations\": [");
    for (size_t i = 0; i < diags.size(); ++i) {
      const auto& d = diags[i];
      std::printf("%s\n    {\"file\": \"%s\", \"line\": %d, \"rule\": "
                  "\"%s\", \"message\": \"%s\"}",
                  i ? "," : "", JsonEscape(d.rel).c_str(), d.line,
                  JsonEscape(d.rule).c_str(), JsonEscape(d.message).c_str());
    }
    std::printf("%s],\n", diags.empty() ? "" : "\n  ");
    std::printf("  \"fault_sites\": [");
    size_t i = 0;
    for (const auto& [site, info] : fault_table) {
      std::printf("%s\n    {\"site\": \"%s\", \"file\": \"%s\", \"line\": "
                  "%d, \"arming_tests\": %d}",
                  i++ ? "," : "", JsonEscape(site).c_str(),
                  JsonEscape(info.rel).c_str(), info.line, info.arming_tests);
    }
    std::printf("%s]\n}\n", fault_table.empty() ? "" : "\n  ");
    return diags.empty() ? 0 : 1;
  }

  for (const auto& d : diags) {
    std::printf("%s:%d: %s: %s\n", d.file.c_str(), d.line, d.rule.c_str(),
                d.message.c_str());
  }
  if (fault_audit_table && !fault_table.empty()) {
    std::printf("# fault-site coverage (site  arming-test-files  "
                "instrumented-at)\n");
    for (const auto& [site, info] : fault_table)
      std::printf("%-28s %3d  %s:%d\n", site.c_str(), info.arming_tests,
                  info.rel.c_str(), info.line);
  }
  if (!diags.empty()) {
    std::fprintf(stderr, "galign_lint: %zu violation(s) in %zu file(s)\n",
                 diags.size(), files.size());
    return 1;
  }
  if (baselined > 0)
    std::fprintf(stderr, "galign_lint: %zu baselined violation(s) suppressed\n",
                 baselined);
  std::printf("galign_lint: clean (%zu files scanned)\n", files.size());
  return 0;
}
