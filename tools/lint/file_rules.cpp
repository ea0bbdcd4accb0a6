// Single-file token rules: the eight legacy regex rules re-expressed over
// the token stream, plus the token-level rules the regex scanner could not
// express (no-mutable-global, check-no-side-effects). All of them ignore
// comments and string literals by construction: rules only ever look at
// code tokens.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "lint/include_graph.h"
#include "lint/rules.h"

namespace xfa::lint {
namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Indices of the tokens rules reason about: everything except comments and
/// preprocessor directives (those are handled by dedicated include/pragma
/// logic).
std::vector<std::size_t> code_indices(const SourceFile& f) {
  std::vector<std::size_t> code;
  code.reserve(f.tokens.size());
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    const TokenKind kind = f.tokens[i].kind;
    if (kind != TokenKind::kComment && kind != TokenKind::kPreprocessor)
      code.push_back(i);
  }
  return code;
}

struct Ctx {
  const SourceFile& f;
  const std::vector<std::size_t>& code;
  std::vector<Finding>& out;

  std::string_view text(std::size_t ci) const { return f.tok(f.tokens[code[ci]]); }
  const Token& tok(std::size_t ci) const { return f.tokens[code[ci]]; }
  bool is_ident(std::size_t ci, std::string_view name) const {
    return tok(ci).kind == TokenKind::kIdentifier && text(ci) == name;
  }
  bool is_kw(std::size_t ci, std::string_view name) const {
    return tok(ci).kind == TokenKind::kKeyword && text(ci) == name;
  }
  bool is_punct(std::size_t ci, std::string_view p) const {
    return tok(ci).kind == TokenKind::kPunct && text(ci) == p;
  }
  void report(std::size_t ci, const char* rule, std::string message) const {
    const Token& t = tok(ci);
    out.push_back({f.rel, t.line, t.col, rule, std::move(message), false, ""});
  }

  /// True when code[ci-2..ci] spell `std::<name>`.
  bool std_qualified(std::size_t ci) const {
    return ci >= 2 && is_punct(ci - 1, "::") && is_ident(ci - 2, "std");
  }
};

// --- rng-determinism -------------------------------------------------------

void rule_rng_determinism(const Ctx& c) {
  if (starts_with(c.f.rel, "sim/rng.")) return;
  for (std::size_t i = 0; i < c.code.size(); ++i) {
    if (c.tok(i).kind != TokenKind::kIdentifier) continue;
    const std::string_view name = c.text(i);
    std::string banned;
    if (name == "rand" && c.std_qualified(i)) {
      banned = "std::rand";
    } else if (name == "srand" || name == "random_device") {
      banned = std::string{name};
    } else if (name == "time" && i + 1 < c.code.size() &&
               c.is_punct(i + 1, "(")) {
      banned = "time(";
    } else {
      continue;
    }
    c.report(i, "rng-determinism",
             "'" + banned +
                 "' breaks trace reproducibility; draw from the scenario's "
                 "xfa::Rng (src/sim/rng.h) instead");
  }
}

// --- no-raw-assert ---------------------------------------------------------

void rule_no_raw_assert(const Ctx& c,
                        const std::vector<IncludeEdge>& includes) {
  for (std::size_t i = 0; i + 1 < c.code.size(); ++i) {
    if (c.is_ident(i, "assert") && c.is_punct(i + 1, "(")) {
      c.report(i, "no-raw-assert",
               "compiled out under NDEBUG; use XFA_CHECK from "
               "common/check.h");
    }
  }
  for (const IncludeEdge& edge : includes) {
    if (!edge.quoted && (edge.target == "cassert" ||
                         edge.target == "assert.h")) {
      c.out.push_back({c.f.rel, edge.line, 1, "no-raw-assert",
                       "include common/check.h instead of the C assert "
                       "header",
                       false, ""});
    }
  }
}

// --- pragma-once -----------------------------------------------------------

/// Collapses runs of whitespace so `#  pragma   once` normalizes.
bool is_pragma_once(std::string_view directive) {
  std::string squeezed;
  bool in_space = false;
  for (const char ch : directive) {
    if (ch == ' ' || ch == '\t' || ch == '\r') {
      in_space = true;
      continue;
    }
    if (in_space && !squeezed.empty()) squeezed.push_back(' ');
    in_space = false;
    squeezed.push_back(ch);
  }
  return starts_with(squeezed, "# pragma once") ||
         starts_with(squeezed, "#pragma once");
}

void rule_pragma_once(const SourceFile& f, std::vector<Finding>& out) {
  if (!f.is_header) return;
  for (const Token& t : f.tokens) {
    if (t.kind == TokenKind::kComment) continue;
    if (t.kind == TokenKind::kPreprocessor &&
        is_pragma_once(token_text(f.text, t))) {
      return;
    }
    out.push_back({f.rel, t.line, t.col, "pragma-once",
                   "headers must start with #pragma once (after leading "
                   "comments)",
                   false, ""});
    return;
  }
  out.push_back({f.rel, 1, 1, "pragma-once",
                 "empty header missing #pragma once", false, ""});
}

// --- exec-only-threads -----------------------------------------------------

void rule_exec_only_threads(const Ctx& c) {
  if (starts_with(c.f.rel, "exec/")) return;
  for (std::size_t i = 0; i < c.code.size(); ++i) {
    if (c.tok(i).kind != TokenKind::kIdentifier || !c.std_qualified(i))
      continue;
    const std::string_view name = c.text(i);
    if (name != "thread" && name != "jthread" && name != "async") continue;
    std::string message = "'std::";
    message += name;
    message +=
        "' bypasses the shared execution layer; use ThreadPool / TaskGroup "
        "/ parallel_for (src/exec) so scheduling stays deterministic and "
        "nested waits cannot deadlock";
    c.report(i, "exec-only-threads", std::move(message));
  }
}

// --- loop tracking shared by hoist-or-grid / fused-mi ----------------------

/// Calls `visit(ci, in_loop)` for every code token, where in_loop covers
/// both loop bodies (brace-tracked) and loop headers (`for (...)` before
/// the body opens).
template <typename Visit>
void walk_loops(const Ctx& c, Visit visit) {
  int depth = 0;
  int paren = 0;
  std::vector<int> loop_depths;  // brace depth of each enclosing loop body
  bool pending = false;          // saw for/while, waiting for '{' or ';'
  for (std::size_t i = 0; i < c.code.size(); ++i) {
    if (c.is_kw(i, "for") || c.is_kw(i, "while")) pending = true;
    visit(i, pending || !loop_depths.empty());
    if (c.tok(i).kind != TokenKind::kPunct) continue;
    const std::string_view p = c.text(i);
    if (p == "(") {
      ++paren;
    } else if (p == ")") {
      --paren;
    } else if (p == "{") {
      ++depth;
      if (pending) {
        loop_depths.push_back(depth);
        pending = false;
      }
    } else if (p == "}") {
      if (!loop_depths.empty() && loop_depths.back() == depth)
        loop_depths.pop_back();
      --depth;
    } else if (p == ";" && pending && paren == 0) {
      // Braceless loop body or a do/while tail — the `;`s inside a
      // `for (init; cond; step)` header sit at paren depth > 0 and must
      // not end the pending loop.
      pending = false;
    }
  }
}

// --- hoist-or-grid ---------------------------------------------------------

void rule_hoist_or_grid(const Ctx& c) {
  if (!starts_with(c.f.rel, "net/")) return;
  // The spatial index owns the one sanctioned bulk position query (its
  // rebuild loop); everything else in src/net must hoist or go through it.
  if (starts_with(c.f.rel, "net/neighbor_index.")) return;
  walk_loops(c, [&c](std::size_t i, bool in_loop) {
    if (!in_loop || !c.is_ident(i, "mobility_")) return;
    if (i + 3 >= c.code.size() || !c.is_punct(i + 1, ".") ||
        !c.is_ident(i + 2, "position") || !c.is_punct(i + 3, "(")) {
      return;
    }
    c.report(i, "hoist-or-grid",
             "per-iteration mobility position query in a src/net loop; "
             "hoist it out of the loop or use the spatial NeighborIndex "
             "(net/neighbor_index.h)");
  });
}

// --- fused-mi --------------------------------------------------------------

void rule_fused_mi(const Ctx& c) {
  if (!starts_with(c.f.rel, "ml/")) return;
  // The selection stage owns the sanctioned MI computation (its fused pass
  // and the oracle itself live there).
  if (starts_with(c.f.rel, "ml/feature_select.")) return;
  walk_loops(c, [&c](std::size_t i, bool in_loop) {
    if (!in_loop || !c.is_ident(i, "mutual_information")) return;
    if (i + 1 >= c.code.size() || !c.is_punct(i + 1, "(")) return;
    c.report(i, "fused-mi",
             "per-iteration mutual_information call in a src/ml loop; rank "
             "once with rank_features (ml/feature_select.h) — its fused "
             "counting pass computes every pairwise MI with memoized logs — "
             "and reuse the FeatureRanking");
  });
}

// --- status-not-abort ------------------------------------------------------

void rule_status_not_abort(const Ctx& c,
                           const std::vector<IncludeEdge>& includes) {
  if (!starts_with(c.f.rel, "scenario/")) return;
  // A scenario TU that does file I/O is a recoverable path: everything that
  // can go wrong there (corrupt bytes, ENOSPC, races with other processes)
  // is environmental, so abort-style contracts are banned in the whole TU.
  bool does_io = false;
  for (const IncludeEdge& edge : includes) {
    if (!edge.quoted && (edge.target == "fstream" ||
                         edge.target == "filesystem" ||
                         edge.target == "cstdio")) {
      does_io = true;
      break;
    }
  }
  if (!does_io) return;
  for (std::size_t i = 0; i < c.code.size(); ++i) {
    if (c.tok(i).kind != TokenKind::kIdentifier) continue;
    const std::string_view name = c.text(i);
    if (starts_with(name, "XFA_CHECK") || starts_with(name, "XFA_DCHECK")) {
      c.report(i, "status-not-abort",
               "this scenario TU does file I/O; recoverable failures must "
               "return Status/Result (common/status.h), not abort via "
               "XFA_CHECK");
    }
  }
}

// --- element-registry ------------------------------------------------------

/// The component classes only the element factory registry may instantiate.
/// Their constructors fork RNG streams, so construction order is behaviour;
/// the registry (scenario/graph/) is the one audited construction site.
bool element_owned_type(std::string_view name) {
  static constexpr std::string_view kTypes[] = {
      "Aodv",            "Dsr",
      "CbrSource",       "CbrSink",
      "TcpSource",       "TcpSink",
      "BlackholeAttack", "SelectiveDropAttack",
      "UpdateStormAttack", "DropAttack",
      "ImpersonationAttack",
  };
  for (const std::string_view type : kTypes)
    if (type == name) return true;
  return false;
}

void rule_element_registry(const Ctx& c) {
  if (starts_with(c.f.rel, "scenario/graph/")) return;
  for (std::size_t i = 0; i < c.code.size(); ++i) {
    if (c.tok(i).kind != TokenKind::kIdentifier ||
        !element_owned_type(c.text(i)))
      continue;
    // Mentions of the type (parameters, references, unique_ptr<T> members,
    // the defining `class X` / `X::X` itself) are fine; only construction
    // forms fire: `new X`, `make_unique<X`/`make_shared<X`, and stack
    // construction `X name(...)` / `X name{...}`.
    bool construction = false;
    if (i >= 1 && c.is_kw(i - 1, "new")) construction = true;
    if (i >= 3 && c.is_punct(i - 1, "::") && c.is_kw(i - 3, "new"))
      construction = true;  // namespace-qualified `new xfa::X`
    if (i >= 2 && c.is_punct(i - 1, "<") &&
        (c.is_ident(i - 2, "make_unique") || c.is_ident(i - 2, "make_shared")))
      construction = true;
    if (i + 2 < c.code.size() &&
        c.tok(i + 1).kind == TokenKind::kIdentifier &&
        (c.is_punct(i + 2, "(") || c.is_punct(i + 2, "{")))
      construction = true;
    if (!construction) continue;
    std::string msg = "'";
    msg += c.text(i);
    msg +=
        "' may only be constructed by its registered element "
        "(scenario/graph/registry.cpp); compose the node stack "
        "through the element graph instead of wiring it by hand";
    c.report(i, "element-registry", std::move(msg));
  }
}

// --- atomic-write ----------------------------------------------------------

void rule_atomic_write(const Ctx& c) {
  // The publication layer itself is the one audited writer.
  if (starts_with(c.f.rel, "common/atomic_file.")) return;
  for (std::size_t i = 0; i < c.code.size(); ++i) {
    if (c.tok(i).kind != TokenKind::kIdentifier) continue;
    const std::string_view name = c.text(i);
    // Reads (ifstream, fread...) are fine; only write-capable openers are
    // torn-file hazards.
    const bool stream = name == "ofstream";
    const bool cstdio = (name == "fopen" || name == "freopen") &&
                        i + 1 < c.code.size() && c.is_punct(i + 1, "(");
    if (!stream && !cstdio) continue;
    const std::string opener{name};
    c.report(i, "atomic-write",
             "'" + opener +
                 "' writes a file without crash-safe publication; route the "
                 "bytes through atomic_write_file / ArtifactStore "
                 "(common/atomic_file.h) so a kill at any instant cannot "
                 "leave a torn artifact");
  }
}

// --- check-no-side-effects -------------------------------------------------

void rule_check_no_side_effects(const Ctx& c) {
  for (std::size_t i = 0; i + 1 < c.code.size(); ++i) {
    if (c.tok(i).kind != TokenKind::kIdentifier) continue;
    const std::string_view name = c.text(i);
    if (!starts_with(name, "XFA_CHECK") && !starts_with(name, "XFA_DCHECK"))
      continue;
    if (!c.is_punct(i + 1, "(")) continue;
    int paren = 0;
    for (std::size_t j = i + 1; j < c.code.size(); ++j) {
      if (c.tok(j).kind != TokenKind::kPunct) continue;
      const std::string_view p = c.text(j);
      if (p == "(") {
        ++paren;
      } else if (p == ")") {
        if (--paren == 0) break;
      } else if (p == "++" || p == "--" || p == "=" || p == "+=" ||
                 p == "-=" || p == "*=" || p == "/=" || p == "%=" ||
                 p == "&=" || p == "|=" || p == "^=" || p == "<<=" ||
                 p == ">>=") {
        // `[=]` / `[x = y]` lambda captures are value semantics, not a
        // mutation of checked state.
        if (p == "=" && j > 0 &&
            (c.is_punct(j - 1, "[") || c.is_punct(j - 1, ","))) {
          continue;
        }
        std::string message = "side effect ('";
        message += p;
        message += "') inside ";
        message += name;
        message +=
            " arguments; check arguments may be evaluated a different "
            "number of times per build type — hoist the mutation out of "
            "the contract";
        c.report(j, "check-no-side-effects", std::move(message));
      }
    }
  }
}

// --- no-mutable-global -----------------------------------------------------

/// Scope classification for brace tracking: we only flag declarations made
/// directly at namespace scope (file scope counts as the global namespace).
enum class Scope { kNamespace, kOther };

bool statement_has_kw(const Ctx& c, std::size_t begin, std::size_t end,
                      std::string_view kw) {
  for (std::size_t i = begin; i < end; ++i)
    if (c.is_kw(i, kw)) return true;
  return false;
}

bool statement_has_punct(const Ctx& c, std::size_t begin, std::size_t end,
                         std::string_view p) {
  for (std::size_t i = begin; i < end; ++i)
    if (c.is_punct(i, p)) return true;
  return false;
}

void rule_no_mutable_global(const Ctx& c) {
  // The execution layer and the immutable env snapshot are the audited
  // exceptions; everything else must thread state through objects.
  if (starts_with(c.f.rel, "exec/") || starts_with(c.f.rel, "common/env."))
    return;

  std::vector<Scope> scopes = {Scope::kNamespace};
  std::size_t stmt_begin = 0;  // first code token of the current statement
  for (std::size_t i = 0; i < c.code.size(); ++i) {
    if (c.tok(i).kind != TokenKind::kPunct) continue;
    const std::string_view p = c.text(i);
    if (p == "{") {
      const bool ns = statement_has_kw(c, stmt_begin, i, "namespace") &&
                      !statement_has_kw(c, stmt_begin, i, "using");
      scopes.push_back(ns ? Scope::kNamespace : Scope::kOther);
      stmt_begin = i + 1;
    } else if (p == "}") {
      if (scopes.size() > 1) scopes.pop_back();
      // Resetting here makes a type-definition tail (`};`) an empty
      // statement, which the `e == b` disqualifier skips. The cost is
      // missing `struct { } x;`-style anonymous globals — acceptable for
      // a rule that must never cry wolf.
      stmt_begin = i + 1;
    } else if (p == ";") {
      if (scopes.back() == Scope::kNamespace) {
        // Candidate mutable global: `[static] Type name = init;` or
        // `[static] Type name;` with nothing that marks it immutable,
        // a type alias, a forward declaration, or a function.
        const std::size_t b = stmt_begin, e = i;
        const bool disqualified =
            e == b || statement_has_kw(c, b, e, "const") ||
            statement_has_kw(c, b, e, "constexpr") ||
            statement_has_kw(c, b, e, "constinit") ||
            statement_has_kw(c, b, e, "using") ||
            statement_has_kw(c, b, e, "typedef") ||
            statement_has_kw(c, b, e, "extern") ||
            statement_has_kw(c, b, e, "friend") ||
            statement_has_kw(c, b, e, "class") ||
            statement_has_kw(c, b, e, "struct") ||
            statement_has_kw(c, b, e, "union") ||
            statement_has_kw(c, b, e, "enum") ||
            statement_has_kw(c, b, e, "namespace") ||
            statement_has_kw(c, b, e, "template") ||
            statement_has_kw(c, b, e, "concept") ||
            statement_has_kw(c, b, e, "operator") ||
            statement_has_kw(c, b, e, "static_assert") ||
            statement_has_kw(c, b, e, "return") ||
            statement_has_punct(c, b, e, "(");
        bool has_name = false;  // some identifier to declare
        for (std::size_t k = b; k < e; ++k) {
          if (c.tok(k).kind == TokenKind::kIdentifier) {
            has_name = true;
            break;
          }
        }
        if (!disqualified && has_name) {
          c.report(b, "no-mutable-global",
                   "mutable namespace-scope state outside src/exec and "
                   "common/env.*; globals couple concurrent scenario runs "
                   "on the shared pool — make it const/constexpr, or own "
                   "it inside the object that uses it");
        }
      }
      stmt_begin = i + 1;
    }
  }
}

}  // namespace

void run_file_rules(const SourceFile& file, std::vector<Finding>& out) {
  const std::vector<std::size_t> code = code_indices(file);
  const Ctx c{file, code, out};
  const std::vector<IncludeEdge> includes = extract_includes(file);

  rule_rng_determinism(c);
  rule_no_raw_assert(c, includes);
  rule_pragma_once(file, out);
  rule_exec_only_threads(c);
  rule_hoist_or_grid(c);
  rule_fused_mi(c);
  rule_status_not_abort(c, includes);
  rule_element_registry(c);
  rule_atomic_write(c);
  rule_check_no_side_effects(c);
  rule_no_mutable_global(c);
}

}  // namespace xfa::lint
