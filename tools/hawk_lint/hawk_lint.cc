// hawk-lint: the repo's determinism & invariant static-analysis pass.
//
// A dependency-free C++17 token/decl-level scanner over src/, bench/,
// examples/ and tests/ (no LLVM dev dependency, so it builds everywhere CI
// does). Every rule encodes an invariant this repo has already paid to
// learn dynamically — the PR/incident behind each one is listed in
// docs/development.md#hawk-lint.
//
//   HL001  no positional brace-init of wire/event message structs
//   HL002  no iteration over unordered containers in determinism dirs
//   HL003  no wall-clock reads or rogue RNG outside allowlisted dirs
//          (tools/hawk_lint/wallclock_allowlist.txt is the single source
//          for the permitted directories)
//   HL004  no float/double accumulation into RunResult/RunCounters fields
//          without an `ordered-reduction` comment
//   HL005  every RunCounters field asserted in tests/ and documented in
//          docs/ (cross-file)
//   HL006  no CHECK-free discard of a Status/StatusOr return value
//
// Suppression syntax (the reason is mandatory; HL000 fires without one):
//   ... offending code ...  // hawk-lint: allow(HL003) measuring real RTT
// or, on its own line, suppressing the next line:
//   // hawk-lint: allow(HL002) order folded through a sort below
//
// Usage:
//   hawk_lint [--root=DIR] [--allowlist=FILE] [--list-rules] [files...]
//
// With no positional files the tree under --root (default ".") is scanned:
// src/, bench/, examples/, tests/ (tests/lint_fixtures/ excluded — the
// fixtures deliberately violate the rules) plus docs/*.md for the HL005
// cross-check. Explicit file arguments scan just those files (HL005 is
// skipped: it needs the whole tree). Exit status is 1 iff any finding
// survives suppression.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Rule table.
// ---------------------------------------------------------------------------

struct RuleInfo {
  const char* id;
  const char* summary;
};

constexpr RuleInfo kRules[] = {
    {"HL000", "malformed hawk-lint suppression (unknown rule or missing reason)"},
    {"HL001", "positional brace-init of a wire/event message struct"},
    {"HL002", "iteration over an unordered container in determinism-critical code"},
    {"HL003", "wall-clock read or RNG outside the allowlisted directories"},
    {"HL004", "floating-point accumulation into a RunResult/RunCounters field"},
    {"HL005", "RunCounters field missing from test assertions or the docs table"},
    {"HL006", "discarded Status/StatusOr return value"},
};

bool KnownRule(const std::string& id) {
  for (const RuleInfo& r : kRules) {
    if (id == r.id) {
      return true;
    }
  }
  return false;
}

// Message/event structs whose fields have already been silently swapped once
// (the PR 2 SimEvent positional brace-init incident): construction must go
// through named factories or per-field assignment, never positional braces.
const std::set<std::string>& MessageStructs() {
  static const std::set<std::string> kSet = {
      "SimEvent",       "ProbeMsg",        "TaskMsg",         "JobRefMsg",
      "JobSubmitMsg",   "StealRequestMsg", "StealResponseMsg", "HeartbeatMsg",
  };
  return kSet;
}

// Directories whose code feeds the deterministic simulation result. HL002
// and HL004 apply only here.
const std::vector<std::string>& DeterminismDirs() {
  static const std::vector<std::string> kDirs = {"src/sim", "src/scheduler", "src/core",
                                                 "src/cluster"};
  return kDirs;
}

// Built-in fallback for the HL003 allowlist when the config file is absent
// (e.g. fixture mini-trees). The real tree's single source of truth is
// tools/hawk_lint/wallclock_allowlist.txt.
const std::vector<std::string>& DefaultWallclockAllow() {
  static const std::vector<std::string> kDirs = {"src/runtime"};
  return kDirs;
}

// ---------------------------------------------------------------------------
// Source model: lines, comments, suppressions, tokens.
// ---------------------------------------------------------------------------

struct Token {
  std::string text;
  int line = 0;
  bool is_float_literal = false;
};

struct Suppression {
  std::string rule;
  int line = 0;       // Line the comment sits on.
  bool own_line = false;  // Comment-only line: also covers line + 1.
};

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct SourceFile {
  std::string rel;  // Root-relative, '/'-separated.
  std::vector<std::string> lines;
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  // line -> concatenated comment text on that line (suppression + marker
  // comments like `ordered-reduction` are looked up here).
  std::map<int, std::string> comments;
};

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

bool IsIdent(const std::string& t) { return !t.empty() && IsIdentStart(t[0]); }

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// Parses `hawk-lint: allow(RULE) reason` out of a comment. Emits HL000 for
// malformed or reasonless suppressions (which are then NOT honored).
void ParseSuppression(SourceFile& f, const std::string& comment, int line, bool own_line,
                      std::vector<Finding>* findings) {
  const size_t tag = comment.find("hawk-lint:");
  if (tag == std::string::npos) {
    return;
  }
  const size_t allow = comment.find("allow(", tag);
  if (allow == std::string::npos) {
    findings->push_back({f.rel, line, "HL000",
                         "malformed suppression: expected 'hawk-lint: allow(<rule>) <reason>'"});
    return;
  }
  const size_t open = allow + std::strlen("allow(");
  const size_t close = comment.find(')', open);
  if (close == std::string::npos) {
    findings->push_back({f.rel, line, "HL000", "malformed suppression: missing ')'"});
    return;
  }
  const std::string rule = Trim(comment.substr(open, close - open));
  if (!KnownRule(rule) || rule == "HL000") {
    findings->push_back(
        {f.rel, line, "HL000", "suppression names unknown rule '" + rule + "'"});
    return;
  }
  const std::string reason = Trim(comment.substr(close + 1));
  if (reason.empty()) {
    findings->push_back({f.rel, line, "HL000",
                         "suppression of " + rule +
                             " carries no reason — every allow() must say why"});
    return;
  }
  f.suppressions.push_back({rule, line, own_line});
}

// Tokenizes C++ source: skips comments (recording their text per line) and
// string/char literal contents; splits identifiers, numeric literals (with
// a float flag) and a small set of multi-char operators.
void Tokenize(SourceFile& f, const std::string& text, std::vector<Finding>* findings) {
  static const char* kMultiOps[] = {"::", "->", "+=", "-=", "<<", ">>",
                                    "==", "!=", "<=", ">=", "&&", "||"};
  int line = 1;
  size_t i = 0;
  const size_t n = text.size();
  size_t line_start = 0;

  auto record_comment = [&](int at_line, const std::string& body, bool own_line) {
    std::string& slot = f.comments[at_line];
    if (!slot.empty()) {
      slot += ' ';
    }
    slot += body;
    ParseSuppression(f, body, at_line, own_line, findings);
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_start = i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      const size_t end = text.find('\n', i);
      const std::string body = text.substr(i + 2, (end == std::string::npos ? n : end) - i - 2);
      const bool own_line =
          Trim(text.substr(line_start, i - line_start)).empty();
      record_comment(line, body, own_line);
      i = (end == std::string::npos) ? n : end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const size_t end = text.find("*/", i + 2);
      const size_t stop = (end == std::string::npos) ? n : end;
      const bool own_line = Trim(text.substr(line_start, i - line_start)).empty();
      record_comment(line, text.substr(i + 2, stop - i - 2), own_line);
      for (size_t k = i; k < stop; ++k) {
        if (text[k] == '\n') {
          ++line;
          line_start = k + 1;
        }
      }
      i = (end == std::string::npos) ? n : end + 2;
      continue;
    }
    // Raw string literal (basic R"delim(...)delim" support).
    if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
      const size_t paren = text.find('(', i + 2);
      if (paren != std::string::npos) {
        const std::string delim = text.substr(i + 2, paren - i - 2);
        const std::string closer = ")" + delim + "\"";
        const size_t end = text.find(closer, paren + 1);
        const size_t stop = (end == std::string::npos) ? n : end + closer.size();
        for (size_t k = i; k < stop; ++k) {
          if (text[k] == '\n') {
            ++line;
            line_start = k + 1;
          }
        }
        i = stop;
        continue;
      }
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && text[i] != quote) {
        if (text[i] == '\\' && i + 1 < n) {
          ++i;
        }
        if (text[i] == '\n') {
          ++line;
          line_start = i + 1;
        }
        ++i;
      }
      ++i;  // Closing quote.
      continue;
    }
    // Identifier.
    if (IsIdentStart(c)) {
      size_t j = i + 1;
      while (j < n && IsIdentChar(text[j])) {
        ++j;
      }
      f.tokens.push_back({text.substr(i, j - i), line, false});
      i = j;
      continue;
    }
    // Numeric literal (loose: handles 1'000, 0x1F, 1e-3, 2.5f).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
      size_t j = i;
      bool is_float = false;
      const bool hex = (c == '0' && i + 1 < n && (text[i + 1] == 'x' || text[i + 1] == 'X'));
      while (j < n) {
        const char d = text[j];
        if (std::isalnum(static_cast<unsigned char>(d)) || d == '\'' || d == '.') {
          if (d == '.' || (!hex && (d == 'e' || d == 'E' || d == 'f' || d == 'F'))) {
            is_float = true;
          }
          ++j;
          continue;
        }
        if ((d == '+' || d == '-') && j > i &&
            (text[j - 1] == 'e' || text[j - 1] == 'E' || text[j - 1] == 'p' ||
             text[j - 1] == 'P')) {
          ++j;
          continue;
        }
        break;
      }
      f.tokens.push_back({text.substr(i, j - i), line, is_float});
      i = j;
      continue;
    }
    // Multi-char operator.
    bool matched = false;
    for (const char* op : kMultiOps) {
      const size_t len = std::strlen(op);
      if (text.compare(i, len, op) == 0) {
        f.tokens.push_back({op, line, false});
        i += len;
        matched = true;
        break;
      }
    }
    if (matched) {
      continue;
    }
    f.tokens.push_back({std::string(1, c), line, false});
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Cross-file project context.
// ---------------------------------------------------------------------------

struct Project {
  std::vector<std::string> wallclock_allow;  // HL003-exempt dir prefixes.
  std::set<std::string> unordered_names;     // Variables declared as unordered containers.
  std::set<std::string> statusor_fns;        // Functions returning Status/StatusOr.
  // RunCounters fields: name -> declaration line in the counters header.
  std::vector<std::pair<std::string, int>> counter_field_lines;
  std::set<std::string> counter_fields;
  std::string counters_file;
  std::set<std::string> asserted_idents;  // Identifiers inside test assertion macros.
  std::string docs_text;                  // Concatenated docs/*.md + README.md.
};

bool HasDirPrefix(const std::string& rel, const std::string& prefix) {
  return rel.size() > prefix.size() && rel.compare(0, prefix.size(), prefix) == 0 &&
         rel[prefix.size()] == '/';
}

bool InAnyDir(const std::string& rel, const std::vector<std::string>& dirs) {
  for (const std::string& d : dirs) {
    if (HasDirPrefix(rel, d)) {
      return true;
    }
  }
  return false;
}

bool WordInText(const std::string& text, const std::string& word) {
  size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) {
      return true;
    }
    pos = end;
  }
  return false;
}

// Skips a balanced template-argument list starting at tokens[i] == "<".
// Returns the index one past the closing ">". Treats ">>" as two closes.
size_t SkipTemplateArgs(const std::vector<Token>& t, size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].text == "<") {
      ++depth;
    } else if (t[i].text == ">") {
      if (--depth == 0) {
        return i + 1;
      }
    } else if (t[i].text == ">>") {
      depth -= 2;
      if (depth <= 0) {
        return i + 1;
      }
    } else if (t[i].text == ";" || t[i].text == "{") {
      break;  // Not template args after all (comparison expression).
    }
  }
  return i;
}

// Collection pass: unordered-container variable names (any scanned file) and
// Status/StatusOr-returning function names (src/ only — the library API).
void Collect(const SourceFile& f, Project* p) {
  const std::vector<Token>& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& tok = t[i].text;
    if (tok == "unordered_map" || tok == "unordered_set" || tok == "unordered_multimap" ||
        tok == "unordered_multiset") {
      size_t j = i + 1;
      if (j < t.size() && t[j].text == "<") {
        j = SkipTemplateArgs(t, j);
      }
      while (j < t.size() &&
             (t[j].text == "&" || t[j].text == "*" || t[j].text == "const")) {
        ++j;
      }
      if (j < t.size() && IsIdent(t[j].text)) {
        p->unordered_names.insert(t[j].text);
      }
      continue;
    }
    if ((tok == "Status" || tok == "StatusOr") &&
        (f.rel.rfind("src/", 0) == 0 || f.rel.find("/src/") != std::string::npos)) {
      size_t j = i + 1;
      if (j < t.size() && t[j].text == "<") {
        j = SkipTemplateArgs(t, j);
      }
      while (j < t.size() && (t[j].text == "&" || t[j].text == "*")) {
        ++j;
      }
      if (j + 1 < t.size() && IsIdent(t[j].text) && t[j + 1].text == "(") {
        p->statusor_fns.insert(t[j].text);
      }
    }
  }
}

// Parses the RunCounters struct's field names out of the counters header.
void ParseCounterFields(const SourceFile& f, Project* p) {
  const std::vector<Token>& t = f.tokens;
  for (size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].text != "RunCounters" || t[i - 1].text != "struct" || t[i + 1].text != "{") {
      continue;
    }
    p->counters_file = f.rel;
    size_t j = i + 2;
    int depth = 1;
    std::vector<std::string> decl;  // Tokens of the current declaration.
    int decl_line = 0;
    while (j < t.size() && depth > 0) {
      const std::string& tok = t[j].text;
      if (tok == "{") {
        ++depth;
      } else if (tok == "}") {
        --depth;
      }
      if (depth == 1 && tok != "{" && tok != "}") {
        if (tok == ";") {
          // A data member declaration has no parens (functions do).
          if (!decl.empty() &&
              std::find(decl.begin(), decl.end(), "(") == decl.end()) {
            auto eq = std::find(decl.begin(), decl.end(), "=");
            auto end = (eq != decl.end()) ? eq : decl.end();
            for (auto it = end; it != decl.begin();) {
              --it;
              if (IsIdent(*it)) {
                p->counter_field_lines.emplace_back(*it, decl_line);
                p->counter_fields.insert(*it);
                break;
              }
            }
          }
          decl.clear();
        } else {
          if (decl.empty()) {
            decl_line = t[j].line;
          }
          decl.push_back(tok);
        }
      } else if (depth >= 2) {
        decl.clear();  // Inside a member function body: not a field.
      }
      ++j;
    }
    return;
  }
}

// Records every identifier appearing inside EXPECT_*/ASSERT_*/*CHECK*
// assertion macros of a test file (HL005's "asserted in tests" half).
void CollectAssertedIdents(const SourceFile& f, Project* p) {
  const std::vector<Token>& t = f.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    const std::string& tok = t[i].text;
    const bool is_assert = tok.rfind("EXPECT_", 0) == 0 || tok.rfind("ASSERT_", 0) == 0 ||
                           tok.find("CHECK") != std::string::npos;
    if (!is_assert || t[i + 1].text != "(") {
      continue;
    }
    int depth = 0;
    size_t j = i + 1;
    for (; j < t.size(); ++j) {
      if (t[j].text == "(") {
        ++depth;
      } else if (t[j].text == ")") {
        if (--depth == 0) {
          break;
        }
      } else if (IsIdent(t[j].text)) {
        p->asserted_idents.insert(t[j].text);
      }
    }
    i = j;
  }
}

// ---------------------------------------------------------------------------
// Rules.
// ---------------------------------------------------------------------------

// HL001: positional brace-init of a message/event struct. Empty braces
// (value-init) and designated initializers are fine; `Name{a, b, ...}` and
// `Name var{a, b, ...}` are not.
void RuleMessageBraceInit(const SourceFile& f, std::vector<Finding>* out) {
  const std::vector<Token>& t = f.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (MessageStructs().count(t[i].text) == 0) {
      continue;
    }
    if (i > 0 && (t[i - 1].text == "struct" || t[i - 1].text == "class")) {
      continue;  // The definition itself.
    }
    size_t brace = 0;
    if (t[i + 1].text == "{") {
      brace = i + 1;
    } else if (IsIdent(t[i + 1].text) && i + 2 < t.size() && t[i + 2].text == "{") {
      brace = i + 2;
    } else {
      continue;
    }
    if (brace + 1 >= t.size() || t[brace + 1].text == "}" || t[brace + 1].text == ".") {
      continue;  // Value-init or designated initializers.
    }
    out->push_back({f.rel, t[i].line, "HL001",
                    "positional brace-init of message struct '" + t[i].text +
                        "' — use its named factory or per-field assignment so fields "
                        "cannot be silently swapped (the PR 2 SimEvent incident)"});
  }
}

// HL002: iteration over unordered containers in determinism-critical dirs.
void RuleUnorderedIteration(const SourceFile& f, const Project& p,
                            std::vector<Finding>* out) {
  if (!InAnyDir(f.rel, DeterminismDirs())) {
    return;
  }
  const std::vector<Token>& t = f.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    // Range-for: `for ( ... : container )`.
    if (t[i].text == "for" && t[i + 1].text == "(") {
      int depth = 0;
      size_t colon = 0;
      size_t close = 0;
      for (size_t j = i + 1; j < t.size(); ++j) {
        if (t[j].text == "(") {
          ++depth;
        } else if (t[j].text == ")") {
          if (--depth == 0) {
            close = j;
            break;
          }
        } else if (t[j].text == ":" && depth == 1 && colon == 0) {
          colon = j;
        }
      }
      if (colon != 0 && close != 0) {
        for (size_t j = colon + 1; j < close; ++j) {
          if (IsIdent(t[j].text) && p.unordered_names.count(t[j].text) != 0) {
            out->push_back(
                {f.rel, t[i].line, "HL002",
                 "range-for over unordered container '" + t[j].text +
                     "' in determinism-critical code — iteration order is "
                     "unspecified; iterate a sorted copy or an ordered container"});
            break;
          }
        }
      }
      continue;
    }
    // Explicit iteration start: `container.begin()`. Lone `.end()` calls are
    // fine — they anchor `find() != end()` membership checks, which are
    // order-independent.
    if (IsIdent(t[i].text) && p.unordered_names.count(t[i].text) != 0 &&
        (t[i + 1].text == "." || t[i + 1].text == "->") && i + 3 < t.size()) {
      const std::string& m = t[i + 2].text;
      if ((m == "begin" || m == "cbegin") && t[i + 3].text == "(") {
        out->push_back({f.rel, t[i].line, "HL002",
                        "iterator over unordered container '" + t[i].text +
                            "' in determinism-critical code — iteration order is "
                            "unspecified; iterate a sorted copy or an ordered container"});
      }
    }
  }
}

// HL003: wall-clock reads and rogue RNG outside the allowlisted dirs. All
// simulation time must flow through SimTime, all randomness through Rng.
void RuleWallClock(const SourceFile& f, const Project& p, std::vector<Finding>* out) {
  if (InAnyDir(f.rel, p.wallclock_allow)) {
    return;
  }
  static const std::set<std::string> kBadTypes = {
      "system_clock", "steady_clock",  "high_resolution_clock",
      "random_device", "mt19937",      "mt19937_64",
      "minstd_rand",   "minstd_rand0", "default_random_engine",
      "knuth_b",       "ranlux24",     "ranlux48"};
  static const std::set<std::string> kBadCalls = {
      "rand",  "srand",        "drand48",      "lrand48",     "random",
      "time",  "gettimeofday", "clock_gettime", "timespec_get", "clock"};
  const std::vector<Token>& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& tok = t[i].text;
    if (kBadTypes.count(tok) != 0) {
      out->push_back({f.rel, t[i].line, "HL003",
                      "'" + tok +
                          "' outside the wall-clock allowlist — sim-visible time must "
                          "flow through SimTime and randomness through Rng (allowlist: "
                          "tools/hawk_lint/wallclock_allowlist.txt)"});
      continue;
    }
    if (kBadCalls.count(tok) != 0 && i + 1 < t.size() && t[i + 1].text == "(") {
      if (i > 0) {
        const std::string& prev = t[i - 1].text;
        if (prev == "." || prev == "->") {
          continue;  // Member call on some object; not the libc function.
        }
        if (prev == "::" && (i < 2 || t[i - 2].text != "std")) {
          continue;  // Qualified call into a project type.
        }
      }
      out->push_back({f.rel, t[i].line, "HL003",
                      "call to '" + tok +
                          "()' outside the wall-clock allowlist — sim-visible time must "
                          "flow through SimTime and randomness through Rng"});
    }
  }
}

// HL004: floating-point accumulation into RunResult/RunCounters fields.
// FP addition is order-dependent: a parallel or reordered reduction changes
// the bits. Accumulate integers, or document the fixed order with an
// `ordered-reduction` comment on the statement (or the line above).
void RuleFloatAccumulation(const SourceFile& f, const Project& p,
                           std::vector<Finding>* out) {
  if (!InAnyDir(f.rel, DeterminismDirs())) {
    return;
  }
  static const std::set<std::string> kResultFields = {"makespan_us", "total_busy_us",
                                                      "utilization_samples"};
  const std::vector<Token>& t = f.tokens;
  for (size_t i = 1; i < t.size(); ++i) {
    if (t[i].text != "+=" && t[i].text != "-=") {
      continue;
    }
    // LHS: walk back to the statement boundary; remember the trailing
    // identifier (the assigned field) and whether the chain mentions a
    // counters/result object.
    std::string lhs_field;
    bool counters_chain = false;
    for (size_t j = i; j-- > 0;) {
      const std::string& tok = t[j].text;
      if (tok == ";" || tok == "{" || tok == "}") {
        break;
      }
      if (IsIdent(tok)) {
        if (lhs_field.empty()) {
          lhs_field = tok;
        }
        if (tok == "counters" || tok == "result_" || tok == "result") {
          counters_chain = true;
        }
      }
    }
    const bool is_counter_field =
        p.counter_fields.count(lhs_field) != 0 || kResultFields.count(lhs_field) != 0;
    if (!is_counter_field && !counters_chain) {
      continue;
    }
    // RHS: scan to the end of the statement for floating-point signals.
    bool floaty = false;
    for (size_t j = i + 1; j < t.size() && t[j].text != ";"; ++j) {
      if (t[j].is_float_literal || t[j].text == "double" || t[j].text == "float") {
        floaty = true;
        break;
      }
    }
    if (!floaty) {
      continue;
    }
    const int line = t[i].line;
    auto has_marker = [&](int l) {
      auto it = f.comments.find(l);
      return it != f.comments.end() &&
             it->second.find("ordered-reduction") != std::string::npos;
    };
    if (has_marker(line) || has_marker(line - 1)) {
      continue;
    }
    out->push_back({f.rel, line, "HL004",
                    "floating-point accumulation into '" + lhs_field +
                        "' — FP addition is order-dependent; accumulate integers or "
                        "document the fixed order with an 'ordered-reduction' comment"});
  }
}

// HL006: a bare statement discarding a Status/StatusOr return value.
void RuleStatusDiscard(const SourceFile& f, const Project& p, std::vector<Finding>* out) {
  const std::vector<Token>& t = f.tokens;
  size_t stmt_start = 0;
  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& tok = t[i].text;
    if (tok == "{" || tok == "}") {
      stmt_start = i + 1;
      continue;
    }
    if (tok != ";") {
      continue;
    }
    const size_t a = stmt_start;
    stmt_start = i + 1;
    if (i == a || t[i - 1].text != ")") {
      continue;  // Not a bare `call(...);` statement.
    }
    // Match the closing paren back to its opener.
    int depth = 0;
    size_t open = 0;
    bool found = false;
    for (size_t j = i; j-- > a;) {
      if (t[j].text == ")") {
        ++depth;
      } else if (t[j].text == "(") {
        if (--depth == 0) {
          open = j;
          found = true;
          break;
        }
      }
    }
    if (!found || open == a) {
      continue;
    }
    const size_t name_idx = open - 1;
    if (!IsIdent(t[name_idx].text) || p.statusor_fns.count(t[name_idx].text) == 0) {
      continue;
    }
    // Everything before the name must be a pure qualifier chain
    // (`obj.`, `ptr->`, `ns::`) — otherwise the value is consumed
    // (assignment, return, macro argument...).
    bool chain_ok = true;
    size_t j = a;
    while (j < name_idx) {
      if (!IsIdent(t[j].text)) {
        chain_ok = false;
        break;
      }
      ++j;
      if (j >= name_idx) {
        chain_ok = false;  // Two adjacent identifiers (e.g. `return Foo(...)`).
        break;
      }
      if (t[j].text != "::" && t[j].text != "." && t[j].text != "->") {
        chain_ok = false;
        break;
      }
      ++j;
    }
    if (!chain_ok) {
      continue;
    }
    out->push_back({f.rel, t[name_idx].line, "HL006",
                    "result of Status/StatusOr-returning '" + t[name_idx].text +
                        "(...)' is discarded — HAWK_CHECK it, propagate it, or handle "
                        "the error"});
  }
}

// HL005 (cross-file): every RunCounters field must be asserted somewhere in
// tests/ and appear in the docs counter table. Catches silent-counter drift:
// a counter nobody asserts or documents is a counter nobody will notice
// breaking.
void RuleCounterCoverage(const Project& p, std::vector<Finding>* out) {
  if (p.counters_file.empty()) {
    return;
  }
  for (const auto& [field, line] : p.counter_field_lines) {
    const bool asserted = p.asserted_idents.count(field) != 0;
    const bool documented = WordInText(p.docs_text, field);
    if (asserted && documented) {
      continue;
    }
    std::string missing;
    if (!asserted) {
      missing += "no test assertion mentions it";
    }
    if (!documented) {
      if (!missing.empty()) {
        missing += " and ";
      }
      missing += "it is absent from docs/";
    }
    out->push_back({p.counters_file, line, "HL005",
                    "RunCounters field '" + field + "': " + missing +
                        " — every counter needs a test assertion and a row in the "
                        "docs counter table"});
  }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

struct Options {
  fs::path root = ".";
  fs::path allowlist;  // Empty: <root>/tools/hawk_lint/wallclock_allowlist.txt.
  std::vector<fs::path> files;
  bool list_rules = false;
};

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

std::string RelPath(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  std::string s = (ec || rel.empty()) ? p.generic_string() : rel.generic_string();
  return s;
}

std::vector<std::string> LoadAllowlist(const fs::path& path) {
  std::ifstream in(path);
  if (!in) {
    return DefaultWallclockAllow();
  }
  std::vector<std::string> dirs;
  std::string line;
  while (std::getline(in, line)) {
    const std::string entry = Trim(line.substr(0, line.find('#')));
    if (!entry.empty()) {
      dirs.push_back(entry);
    }
  }
  return dirs;
}

int Run(const Options& opt) {
  std::vector<Finding> findings;
  std::vector<SourceFile> files;
  Project project;
  project.wallclock_allow = LoadAllowlist(
      opt.allowlist.empty() ? opt.root / "tools/hawk_lint/wallclock_allowlist.txt"
                            : opt.allowlist);

  // Assemble the file list.
  std::vector<fs::path> paths;
  const bool tree_mode = opt.files.empty();
  if (tree_mode) {
    for (const char* dir : {"src", "bench", "examples", "tests"}) {
      const fs::path base = opt.root / dir;
      if (!fs::exists(base)) {
        continue;
      }
      for (const auto& entry : fs::recursive_directory_iterator(base)) {
        if (!entry.is_regular_file() || !IsSourceFile(entry.path())) {
          continue;
        }
        // Exclude fixtures relative to the scan root, so a fixture tree can
        // itself be scanned with --root=tests/lint_fixtures/<case>.
        const std::string rel =
            entry.path().lexically_relative(opt.root).generic_string();
        if (rel.find("lint_fixtures") != std::string::npos) {
          continue;  // The fixtures deliberately violate the rules.
        }
        paths.push_back(entry.path());
      }
    }
    // Docs for the HL005 cross-check.
    for (const char* doc_dir : {"docs", "."}) {
      const fs::path base = opt.root / doc_dir;
      if (!fs::exists(base)) {
        continue;
      }
      for (const auto& entry : fs::directory_iterator(base)) {
        if (entry.is_regular_file() && entry.path().extension() == ".md") {
          std::ifstream in(entry.path());
          std::stringstream ss;
          ss << in.rdbuf();
          project.docs_text += ss.str();
          project.docs_text += '\n';
        }
      }
    }
  } else {
    paths = opt.files;
  }
  std::sort(paths.begin(), paths.end());

  for (const fs::path& path : paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "hawk-lint: cannot read %s\n", path.string().c_str());
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    SourceFile f;
    f.rel = RelPath(path, opt.root);
    Tokenize(f, ss.str(), &findings);
    files.push_back(std::move(f));
  }

  // Pass 1: cross-file collection.
  for (const SourceFile& f : files) {
    Collect(f, &project);
    if (f.rel.find("results.h") != std::string::npos) {
      ParseCounterFields(f, &project);
    }
    if (HasDirPrefix(f.rel, "tests") || f.rel.find("/tests/") != std::string::npos) {
      CollectAssertedIdents(f, &project);
    }
  }

  // Pass 2: per-file rules.
  for (const SourceFile& f : files) {
    RuleMessageBraceInit(f, &findings);
    RuleUnorderedIteration(f, project, &findings);
    RuleWallClock(f, project, &findings);
    RuleFloatAccumulation(f, project, &findings);
    RuleStatusDiscard(f, project, &findings);
  }

  // Pass 3: cross-file rules (whole-tree scans only — explicit file lists
  // cannot prove absence).
  if (tree_mode) {
    RuleCounterCoverage(project, &findings);
  }

  // Apply suppressions (HL000 itself is never suppressible).
  std::vector<Finding> surviving;
  for (const Finding& finding : findings) {
    bool suppressed = false;
    if (finding.rule != "HL000") {
      for (const SourceFile& f : files) {
        if (f.rel != finding.file) {
          continue;
        }
        for (const Suppression& s : f.suppressions) {
          if (s.rule == finding.rule &&
              (s.line == finding.line || (s.own_line && s.line + 1 == finding.line))) {
            suppressed = true;
            break;
          }
        }
        break;
      }
    }
    if (!suppressed) {
      surviving.push_back(finding);
    }
  }

  std::sort(surviving.begin(), surviving.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
  for (const Finding& finding : surviving) {
    std::printf("%s:%d: %s: %s\n", finding.file.c_str(), finding.line, finding.rule.c_str(),
                finding.message.c_str());
  }
  std::printf("hawk-lint: %zu finding(s) across %zu file(s)\n", surviving.size(),
              files.size());
  return surviving.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> std::string {
      return arg.substr(std::strlen(prefix));
    };
    if (arg == "--list-rules") {
      opt.list_rules = true;
    } else if (arg.rfind("--root=", 0) == 0) {
      opt.root = value("--root=");
    } else if (arg.rfind("--allowlist=", 0) == 0) {
      opt.allowlist = value("--allowlist=");
    } else if (arg == "-h" || arg == "--help") {
      std::printf("usage: hawk_lint [--root=DIR] [--allowlist=FILE] [--list-rules] "
                  "[files...]\n\nrules:\n");
      for (const RuleInfo& r : kRules) {
        std::printf("  %s  %s\n", r.id, r.summary);
      }
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "hawk-lint: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      opt.files.push_back(arg);
    }
  }
  if (opt.list_rules) {
    for (const RuleInfo& r : kRules) {
      std::printf("%s  %s\n", r.id, r.summary);
    }
    return 0;
  }
  return Run(opt);
}
