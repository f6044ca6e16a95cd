#include "tools/rap_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

#include "tools/rap_lint/lexer.h"

namespace rap::lint {
namespace {

// Written split so the directive scanner never matches its own spelling
// when rap_lint lints its own sources.
constexpr const char* kDirectivePrefix = "rap-" "lint:";

const std::set<std::string, std::less<>> kBannedAlways = {
    "random_device", "mt19937", "mt19937_64", "default_random_engine",
    "minstd_rand", "minstd_rand0"};

// Flagged only when spelled as a call (`rand(`) or qualified (`std::rand`),
// so e.g. a member named `srand_count` never trips the rule.
const std::set<std::string, std::less<>> kBannedCalls = {"rand", "srand",
                                                         "time"};

const std::set<std::string, std::less<>> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

// std:: concurrency vocabulary with an annotated wrapper in src/util/mutex.h.
const std::set<std::string, std::less<>> kRawConcurrencyTypes = {
    "mutex",          "timed_mutex",
    "recursive_mutex", "recursive_timed_mutex",
    "shared_mutex",   "shared_timed_mutex",
    "lock_guard",     "scoped_lock",
    "unique_lock",    "shared_lock",
    "condition_variable", "condition_variable_any"};

// Built split so this file's own source never carries the identifier.
const std::string& no_tsa_macro() {
  static const std::string kMacro =
      std::string("RAP_NO_THREAD_") + "SAFETY_ANALYSIS";
  return kMacro;
}

// obs-layer entry points whose first argument names a metric or span.
const std::set<std::string, std::less<>> kTelemetryApis = {
    "add_counter",       "set_gauge",
    "observe",           "counter",
    "gauge",             "histogram",
    "Span",              "record_span_begin",
    "record_span_end",   "record_counter_event",
    "record_instant"};

const std::set<std::string, std::less<>> kSpanCtors = {"Span"};

/// rap.telemetry.v1 name grammar: [a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*
[[nodiscard]] bool valid_telemetry_name(std::string_view name) {
  if (name.empty()) return false;
  bool segment_start = true;
  for (const char c : name) {
    if (segment_start) {
      if (std::islower(static_cast<unsigned char>(c)) == 0) return false;
      segment_start = false;
      continue;
    }
    if (c == '.') {
      segment_start = true;
      continue;
    }
    if (std::islower(static_cast<unsigned char>(c)) == 0 &&
        std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '_') {
      return false;
    }
  }
  return !segment_start;  // no trailing dot
}

/// Per-line suppression sets plus directive-syntax findings (RAP007).
struct Suppressions {
  std::map<std::size_t, std::set<std::string>> allowed_by_line;
  std::vector<Finding> findings;

  [[nodiscard]] bool allows(std::size_t line, std::string_view rule) const {
    const auto it = allowed_by_line.find(line);
    return it != allowed_by_line.end() &&
           it->second.find(std::string(rule)) != it->second.end();
  }
};

void trim(std::string_view& s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0)
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0)
    s.remove_suffix(1);
}

/// Parses "RAP001, RAP005" into ids; returns false on any unknown id.
[[nodiscard]] bool parse_rule_list(std::string_view list,
                                   std::vector<std::string>& out) {
  const auto& known = known_rules();
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string_view::npos) comma = list.size();
    std::string_view id = list.substr(start, comma - start);
    trim(id);
    if (id.empty() ||
        std::find(known.begin(), known.end(), id) == known.end()) {
      return false;
    }
    out.emplace_back(id);
    if (comma == list.size()) break;
    start = comma + 1;
  }
  return !out.empty();
}

[[nodiscard]] Suppressions scan_directives(std::string_view path,
                                           const std::vector<std::string>& lines) {
  Suppressions sup;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t line_no = i + 1;
    const std::string& line = lines[i];
    const std::size_t at = line.find(kDirectivePrefix);
    if (at == std::string::npos) continue;
    std::string_view rest =
        std::string_view(line).substr(at + std::string_view(kDirectivePrefix).size());
    trim(rest);
    if (rest.rfind("order-free", 0) == 0) {
      // Applies to its own line (trailing comment) and the next line
      // (annotation comment above the loop).
      sup.allowed_by_line[line_no].insert("RAP002");
      sup.allowed_by_line[line_no + 1].insert("RAP002");
      continue;
    }
    const bool next_line = rest.rfind("allow-next-line(", 0) == 0;
    const bool same_line = rest.rfind("allow(", 0) == 0;
    if (next_line || same_line) {
      const std::size_t open = rest.find('(');
      const std::size_t close = rest.find(')', open);
      std::vector<std::string> ids;
      if (close != std::string_view::npos &&
          parse_rule_list(rest.substr(open + 1, close - open - 1), ids)) {
        const std::size_t target = next_line ? line_no + 1 : line_no;
        for (const std::string& id : ids) {
          sup.allowed_by_line[target].insert(id);
        }
        continue;
      }
    }
    sup.findings.push_back(
        {"RAP007", std::string(path), line_no,
         "unparseable rap-lint directive (expected allow(RAPnnn[, ...]), "
         "allow-next-line(RAPnnn[, ...]), or order-free)"});
  }
  return sup;
}

class Linter {
 public:
  Linter(std::string_view path, std::string_view source,
         const FileClass& file_class)
      : path_(path),
        file_class_(file_class),
        lines_(split_lines(source)),
        tokens_(tokenize(source)),
        sup_(scan_directives(path, lines_)) {}

  std::vector<Finding> run() {
    findings_ = std::move(sup_.findings);
    if (!file_class_.rng_exempt) check_banned_randomness();
    if (file_class_.determinism_core) check_unordered_iteration();
    if (file_class_.is_header) {
      check_pragma_once();
      check_using_namespace();
    }
    check_telemetry_names();
    if (file_class_.in_src) check_naked_new_delete();
    if (file_class_.concurrency_wrapped) check_raw_concurrency();
    if (file_class_.thread_spawn_banned) check_raw_threads();
    if (file_class_.in_src) check_unguarded_mutex_class();
    check_tsa_escape_justifications();
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                return a.line != b.line ? a.line < b.line : a.rule < b.rule;
              });
    return std::move(findings_);
  }

 private:
  [[nodiscard]] const Token* tok(std::size_t i) const noexcept {
    return i < tokens_.size() ? &tokens_[i] : nullptr;
  }

  [[nodiscard]] bool is_punct(std::size_t i, std::string_view text) const {
    const Token* t = tok(i);
    return t != nullptr && t->kind == TokenKind::kPunct && t->text == text;
  }

  [[nodiscard]] bool is_ident(std::size_t i, std::string_view text) const {
    const Token* t = tok(i);
    return t != nullptr && t->kind == TokenKind::kIdentifier && t->text == text;
  }

  void report(std::string_view rule, std::size_t line, std::string message) {
    if (sup_.allows(line, rule)) return;
    findings_.push_back({std::string(rule), path_, line, std::move(message)});
  }

  // RAP001 — all randomness flows through util::Rng (src/util/rng.*).
  void check_banned_randomness() {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      const Token& t = tokens_[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (kBannedAlways.find(t.text) != kBannedAlways.end()) {
        report("RAP001", t.line,
               "`" + t.text +
                   "` is banned: all randomness must flow through the seeded "
                   "util::Rng (src/util/rng.h) for reproducibility");
        continue;
      }
      if (kBannedCalls.find(t.text) != kBannedCalls.end()) {
        // `.time()` / `->time()` are member calls on some clock object, not
        // libc time(); `->` lexes as two punct tokens.
        const bool member_access =
            (i > 0 && is_punct(i - 1, ".")) ||
            (i > 1 && is_punct(i - 1, ">") && is_punct(i - 2, "-"));
        const bool call = is_punct(i + 1, "(");
        const bool qualified = i > 0 && is_punct(i - 1, "::");
        if (!member_access && (call || qualified)) {
          report("RAP001", t.line,
                 "`" + t.text +
                     "(` is banned: wall-clock/libc randomness breaks "
                     "reproducible runs; seed util::Rng explicitly or use "
                     "std::chrono::steady_clock for intervals");
        }
      }
    }
  }

  // RAP002 — no iteration-order-dependent loops over unordered containers
  // in the placement core. Two passes: learn which names are declared with
  // an unordered type, then inspect every range-for's range expression.
  void check_unordered_iteration() {
    const std::set<std::string> unordered_names = collect_unordered_names();
    for (std::size_t i = 0; i + 1 < tokens_.size(); ++i) {
      if (!is_ident(i, "for") || !is_punct(i + 1, "(")) continue;
      // Find the matching close paren and a top-level ':' (range-for);
      // a top-level ';' means a classic for statement.
      std::size_t depth = 0;
      std::size_t colon = 0;
      bool classic = false;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < tokens_.size(); ++j) {
        if (is_punct(j, "(") || is_punct(j, "[") || is_punct(j, "{")) {
          ++depth;
        } else if (is_punct(j, ")") || is_punct(j, "]") || is_punct(j, "}")) {
          --depth;
          if (depth == 0) {
            close = j;
            break;
          }
        } else if (depth == 1 && is_punct(j, ";")) {
          classic = true;
        } else if (depth == 1 && colon == 0 && is_punct(j, ":")) {
          colon = j;
        }
      }
      if (classic || colon == 0 || close == 0) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        const Token& t = tokens_[j];
        if (t.kind != TokenKind::kIdentifier) continue;
        const bool unordered_type =
            kUnorderedTypes.find(t.text) != kUnorderedTypes.end();
        const bool unordered_name =
            unordered_names.find(t.text) != unordered_names.end();
        if (unordered_type || unordered_name) {
          report("RAP002", tokens_[i].line,
                 "range-for over unordered container `" + t.text +
                     "` in placement core: iteration order is "
                     "implementation-defined and breaks bit-identical "
                     "determinism; iterate a sorted copy, or annotate "
                     "`// " + std::string(kDirectivePrefix) +
                     " order-free` if the body is order-insensitive");
          break;
        }
      }
    }
  }

  /// Names declared as `unordered_map<...> name` (or `...set`); template
  /// arguments are skipped by angle-bracket balancing.
  [[nodiscard]] std::set<std::string> collect_unordered_names() const {
    std::set<std::string> names;
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (tokens_[i].kind != TokenKind::kIdentifier ||
          kUnorderedTypes.find(tokens_[i].text) == kUnorderedTypes.end()) {
        continue;
      }
      std::size_t j = i + 1;
      if (!is_punct(j, "<")) continue;
      int angle = 0;
      for (; j < tokens_.size(); ++j) {
        if (is_punct(j, "<")) ++angle;
        if (is_punct(j, ">")) {
          --angle;
          if (angle == 0) {
            ++j;
            break;
          }
        }
      }
      while (is_punct(j, "&") || is_punct(j, "*")) ++j;  // ref/ptr decls
      const Token* name = tok(j);
      if (name != nullptr && name->kind == TokenKind::kIdentifier) {
        names.insert(name->text);
      }
    }
    return names;
  }

  // RAP003 — headers open with #pragma once (after comments, which the
  // lexer already discards).
  void check_pragma_once() {
    const bool ok = tokens_.size() >= 3 && is_punct(0, "#") &&
                    is_ident(1, "pragma") && is_ident(2, "once");
    if (!ok) {
      report("RAP003", tokens_.empty() ? 1 : tokens_[0].line,
             "header must start with `#pragma once` (before any other "
             "directive or declaration)");
    }
  }

  // RAP004 — `using namespace` leaks into every includer of a header.
  void check_using_namespace() {
    for (std::size_t i = 0; i + 1 < tokens_.size(); ++i) {
      if (is_ident(i, "using") && is_ident(i + 1, "namespace")) {
        report("RAP004", tokens_[i].line,
               "`using namespace` in a header pollutes every includer; "
               "qualify names or use a namespace alias");
      }
    }
  }

  // RAP005 — whole-literal names handed to the obs API must match the
  // rap.telemetry.v1 grammar. Names built at runtime (concatenation) are
  // out of scope for a static check and are skipped.
  void check_telemetry_names() {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (tokens_[i].kind != TokenKind::kIdentifier ||
          kTelemetryApis.find(tokens_[i].text) == kTelemetryApis.end()) {
        continue;
      }
      const bool span_ctor =
          kSpanCtors.find(tokens_[i].text) != kSpanCtors.end();
      std::size_t open = i + 1;
      // `Span span("name")` — a declared-variable constructor call.
      if (span_ctor && tok(open) != nullptr &&
          tokens_[open].kind == TokenKind::kIdentifier) {
        ++open;
      }
      const bool paren = is_punct(open, "(");
      const bool brace = is_punct(open, "{");
      if (!paren && !brace) continue;
      if (span_ctor) {
        // The name may be any argument (`Span("name")`, `Span(&tracer,
        // "name")`): validate every top-level whole-literal argument.
        check_span_args(open);
        continue;
      }
      const Token* lit = tok(open + 1);
      if (lit == nullptr || lit->kind != TokenKind::kString) continue;
      const bool whole_literal = is_punct(open + 2, ",") ||
                                 is_punct(open + 2, paren ? ")" : "}");
      if (!whole_literal) continue;
      check_name_literal(*lit);
    }
  }

  void check_name_literal(const Token& lit) {
    if (valid_telemetry_name(lit.text)) return;
    report("RAP005", lit.line,
           "metric/span name \"" + lit.text +
               "\" violates the rap.telemetry.v1 grammar "
               "[a-z][a-z0-9_]*(.[a-z][a-z0-9_]*)*: lowercase dotted "
               "segments only");
  }

  /// Validates whole-literal arguments of a Span constructor:
  /// string tokens at paren depth 1 bounded by '(' or ',' on the left and
  /// ',' or ')' on the right (concatenations are runtime names — skipped).
  void check_span_args(std::size_t open) {
    std::size_t depth = 0;
    for (std::size_t j = open; j < tokens_.size(); ++j) {
      if (is_punct(j, "(") || is_punct(j, "{")) {
        ++depth;
      } else if (is_punct(j, ")") || is_punct(j, "}")) {
        if (--depth == 0) return;
      } else if (depth == 1 && tokens_[j].kind == TokenKind::kString) {
        const bool left_ok = is_punct(j - 1, "(") || is_punct(j - 1, ",") ||
                             is_punct(j - 1, "{");
        const bool right_ok = is_punct(j + 1, ")") || is_punct(j + 1, ",") ||
                              is_punct(j + 1, "}");
        if (left_ok && right_ok) check_name_literal(tokens_[j]);
      }
    }
  }

  // RAP006 — ownership in src/ goes through smart pointers and containers.
  void check_naked_new_delete() {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (tokens_[i].kind != TokenKind::kIdentifier) continue;
      if (tokens_[i].text == "new") {
        report("RAP006", tokens_[i].line,
               "naked `new`: use std::make_unique/std::make_shared or a "
               "container");
      } else if (tokens_[i].text == "delete") {
        const bool deleted_fn = i > 0 && is_punct(i - 1, "=");
        const bool operator_decl = i > 0 && is_ident(i - 1, "operator");
        if (!deleted_fn && !operator_decl) {
          report("RAP006", tokens_[i].line,
                 "naked `delete`: owning raw pointers are banned in src/; "
                 "use RAII");
        }
      }
    }
  }

  // RAP008 — locking in src/ (outside src/util/) goes through the annotated
  // wrappers so Clang Thread Safety Analysis sees every acquire/release.
  void check_raw_concurrency() {
    for (std::size_t i = 2; i < tokens_.size(); ++i) {
      const Token& t = tokens_[i];
      if (t.kind != TokenKind::kIdentifier ||
          kRawConcurrencyTypes.find(t.text) == kRawConcurrencyTypes.end()) {
        continue;
      }
      if (!is_punct(i - 1, "::") || !is_ident(i - 2, "std")) continue;
      report("RAP008", t.line,
             "raw `std::" + t.text +
                 "` outside src/util/: use util::Mutex / util::MutexLock / "
                 "util::CondVar (src/util/mutex.h) so Thread Safety Analysis "
                 "sees the lock");
    }
  }

  // RAP009 — threads are spawned by util/thread_pool or serve/transport and
  // stay joinable everywhere; no ad-hoc std::thread, never detach().
  void check_raw_threads() {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      const Token& t = tokens_[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "thread" || t.text == "jthread") {
        const bool qualified =
            i >= 2 && is_punct(i - 1, "::") && is_ident(i - 2, "std");
        // `std::thread::hardware_concurrency()` is a capability query, not a
        // spawn site.
        const bool nested_name = is_punct(i + 1, "::");
        if (qualified && !nested_name) {
          report("RAP009", t.line,
                 "raw `std::" + t.text +
                     "` outside util/thread_pool and serve/transport: run "
                     "work on util::ThreadPool (pooled, joined, "
                     "TSan-covered) or extend the sanctioned list");
        }
      } else if (t.text == "detach") {
        const bool member_access =
            (i > 0 && is_punct(i - 1, ".")) ||
            (i > 1 && is_punct(i - 1, ">") && is_punct(i - 2, "-"));
        if (member_access && is_punct(i + 1, "(")) {
          report("RAP009", t.line,
                 "`.detach()` abandons a thread nothing can join or drain at "
                 "shutdown; keep handles joinable and reap them");
        }
      }
    }
  }

  // RAP010 — a class holding a util::Mutex member must put the lock to work:
  // at least one member annotated RAP_GUARDED_BY / RAP_PT_GUARDED_BY.
  // Class bodies are tracked with a brace stack; `class`/`struct` arms a
  // pending flag that the body's `{` consumes (cleared by `;`, `(`, `)` or
  // `=` so forward declarations, template parameter lists, and function
  // signatures never arm it).
  void check_unguarded_mutex_class() {
    struct Scope {
      bool is_class = false;
      std::size_t mutex_line = 0;  // first value-typed Mutex member; 0 = none
      std::string mutex_name;
      bool has_guarded = false;
    };
    std::vector<Scope> scopes;
    bool pending_class = false;
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      const Token& t = tokens_[i];
      if (t.kind == TokenKind::kIdentifier) {
        if ((t.text == "class" || t.text == "struct") &&
            !(i > 0 && is_ident(i - 1, "enum"))) {
          pending_class = true;
        } else if (!scopes.empty() && scopes.back().is_class) {
          Scope& scope = scopes.back();
          if (t.text == "Mutex" && scope.mutex_line == 0) {
            // `Mutex name_;` — a reference (`Mutex&`) is a guard over some
            // other object's lock and is exempt.
            const Token* name = tok(i + 1);
            if (name != nullptr && name->kind == TokenKind::kIdentifier &&
                is_punct(i + 2, ";")) {
              scope.mutex_line = t.line;
              scope.mutex_name = name->text;
            }
          } else if (t.text == "RAP_GUARDED_BY" ||
                     t.text == "RAP_PT_GUARDED_BY") {
            scope.has_guarded = true;
          }
        }
        continue;
      }
      if (t.kind != TokenKind::kPunct) continue;
      if (t.text == ";" || t.text == "(" || t.text == ")" || t.text == "=") {
        pending_class = false;
      } else if (t.text == "{") {
        scopes.push_back({pending_class, 0, "", false});
        pending_class = false;
      } else if (t.text == "}" && !scopes.empty()) {
        const Scope done = scopes.back();
        scopes.pop_back();
        if (done.is_class && done.mutex_line != 0 && !done.has_guarded) {
          report("RAP010", done.mutex_line,
                 "mutex member `" + done.mutex_name +
                     "` guards no annotated member: add RAP_GUARDED_BY(" +
                     done.mutex_name +
                     ") to the data it protects (or drop the mutex)");
        }
      }
    }
  }

  // RAP007 (escape-hatch half) — the analysis opt-out macro is only
  // acceptable with a written reason: a comment on the same or preceding
  // line. The `#define` lines in thread_annotations.h are the definition,
  // not a use.
  void check_tsa_escape_justifications() {
    for (const Token& t : tokens_) {
      if (t.kind != TokenKind::kIdentifier || t.text != no_tsa_macro()) {
        continue;
      }
      if (t.line == 0 || t.line > lines_.size()) continue;
      const std::string& line = lines_[t.line - 1];
      std::string_view trimmed(line);
      trim(trimmed);
      if (!trimmed.empty() && trimmed.front() == '#') continue;
      bool justified = line.find("//") != std::string::npos;
      // The macro usually sits on a continuation line of a multi-line
      // declaration; walk upward through the declaration until a comment
      // (justified) or the end of the previous statement (not justified).
      for (std::size_t k = t.line - 1; !justified && k >= 1; --k) {
        const std::string& above = lines_[k - 1];
        if (above.find("//") != std::string::npos) {
          justified = true;
          break;
        }
        std::string_view above_trimmed(above);
        trim(above_trimmed);
        if (above_trimmed.empty()) break;
        const char last = above_trimmed.back();
        if (last == ';' || last == '}' || last == '{') break;
      }
      if (justified) continue;
      report("RAP007", t.line,
             no_tsa_macro() +
                 " without a justification comment: state on the same or "
                 "preceding line why the analysis is structurally blind "
                 "here (DESIGN.md §15)");
    }
  }

  std::string path_;
  FileClass file_class_;
  std::vector<std::string> lines_;
  std::vector<Token> tokens_;
  Suppressions sup_;
  std::vector<Finding> findings_;
};

[[nodiscard]] bool path_contains(std::string_view path, std::string_view part) {
  return path.find(part) != std::string_view::npos;
}

}  // namespace

FileClass classify_path(std::string_view path) {
  FileClass fc;
  fc.is_header = path.size() >= 2 && (path.ends_with(".h") ||
                                      path.ends_with(".hpp") ||
                                      path.ends_with(".hh"));
  // Accept both repo-relative ("src/util/rng.h") and deeper spellings
  // ("/root/repo/src/util/rng.h"): classify on path components.
  fc.rng_exempt = path_contains(path, "src/util/rng.");
  fc.determinism_core =
      path_contains(path, "src/core/") || path_contains(path, "src/check/");
  fc.in_src = path.rfind("src/", 0) == 0 || path_contains(path, "/src/");
  fc.concurrency_wrapped = fc.in_src && !path_contains(path, "src/util/");
  fc.thread_spawn_banned = fc.in_src &&
                           !path_contains(path, "src/util/thread_pool.") &&
                           !path_contains(path, "src/serve/transport.");
  return fc;
}

std::vector<Finding> lint_file(std::string_view path, std::string_view source) {
  return lint_source(path, source, classify_path(path));
}

std::vector<Finding> lint_source(std::string_view path, std::string_view source,
                                 const FileClass& file_class) {
  return Linter(path, source, file_class).run();
}

std::string format_finding(const Finding& finding) {
  std::ostringstream out;
  out << finding.path << ":" << finding.line << ": [" << finding.rule << "] "
      << finding.message;
  return out.str();
}

const std::vector<std::string>& known_rules() {
  static const std::vector<std::string> kRules = {
      "RAP001", "RAP002", "RAP003", "RAP004", "RAP005",
      "RAP006", "RAP007", "RAP008", "RAP009", "RAP010"};
  return kRules;
}

}  // namespace rap::lint
