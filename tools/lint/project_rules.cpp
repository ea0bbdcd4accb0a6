// Whole-tree rules: the include graph (layering DAG + cycle detection +
// IWYU-lite unused includes), CMake registration, and the cross-TU
// ordered-iteration determinism rule.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/include_graph.h"
#include "lint/rules.h"

namespace xfa::lint {
namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string_view strip_ext(std::string_view rel) {
  const std::size_t dot = rel.rfind('.');
  return dot == std::string_view::npos ? rel : rel.substr(0, dot);
}

// --- include-layering ------------------------------------------------------

void rule_include_layering(const Project& p, std::vector<Finding>& out) {
  for (const SourceFile& f : p.files) {
    const int from_band = layer_band(module_of(f.rel));
    if (from_band < 0) continue;
    for (const IncludeEdge& edge : extract_includes(f)) {
      if (!edge.quoted) continue;
      const SourceFile* target = p.find(edge.target);
      if (target == nullptr) continue;  // not an intra-src header
      const int to_band = layer_band(module_of(edge.target));
      if (to_band < 0 || to_band <= from_band) continue;
      std::string message = "'";
      message += module_of(f.rel);
      message += "' (band " + std::to_string(from_band) +
                 ") must not include '" + edge.target + "' from higher band " +
                 std::to_string(to_band) +
                 "; lower layers cannot depend on policy above them — invert "
                 "the dependency (interface in the lower layer, "
                 "implementation above)";
      out.push_back({f.rel, edge.line, 1, "include-layering",
                     std::move(message), false, ""});
    }
  }
}

// --- include-cycle ---------------------------------------------------------

void rule_include_cycle(const Project& p, std::vector<Finding>& out) {
  // DFS over the quoted intra-src graph; files are pre-sorted by rel so the
  // traversal (and therefore the reported witness cycle) is deterministic.
  std::map<std::string_view, std::vector<std::string_view>> graph;
  for (const SourceFile& f : p.files) {
    auto& edges = graph[f.rel];
    for (const IncludeEdge& edge : extract_includes(f)) {
      if (!edge.quoted) continue;
      const SourceFile* target = p.find(edge.target);
      if (target != nullptr) edges.push_back(target->rel);
    }
  }

  enum class Color { kWhite, kGray, kBlack };
  std::map<std::string_view, Color> color;
  for (const auto& [node, _] : graph) color[node] = Color::kWhite;

  std::vector<std::string_view> path;
  std::set<std::string> reported;

  // Iterative DFS with an explicit stack of (node, next-edge-index).
  for (const auto& [root, _] : graph) {
    if (color[root] != Color::kWhite) continue;
    std::vector<std::pair<std::string_view, std::size_t>> stack;
    stack.emplace_back(root, 0);
    color[root] = Color::kGray;
    path.push_back(root);
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const auto& edges = graph[node];
      if (next >= edges.size()) {
        color[node] = Color::kBlack;
        path.pop_back();
        stack.pop_back();
        continue;
      }
      const std::string_view to = edges[next++];
      if (color[to] == Color::kGray) {
        // Witness: the slice of `path` from `to` onward, plus the back edge.
        std::string cycle;
        bool in_cycle = false;
        for (const std::string_view n : path) {
          if (n == to) in_cycle = true;
          if (in_cycle) cycle += std::string{n} + " -> ";
        }
        cycle += std::string{to};
        if (reported.insert(cycle).second) {
          const SourceFile* at = p.find(node);
          out.push_back({at != nullptr ? at->rel : std::string{node}, 1, 1,
                         "include-cycle",
                         "include cycle: " + cycle +
                             "; no header in the loop is self-contained",
                         false, ""});
        }
      } else if (color[to] == Color::kWhite) {
        color[to] = Color::kGray;
        path.push_back(to);
        stack.emplace_back(to, 0);
      }
    }
  }
}

// --- unused-include (IWYU-lite) --------------------------------------------

/// Names a curated system header is known to provide. Matching a name here
/// marks the include used; angle includes not in this map are skipped
/// entirely (conservative: never flag what we cannot model).
const std::map<std::string_view, std::vector<std::string_view>>&
system_header_names() {
  static const std::map<std::string_view, std::vector<std::string_view>> kMap =
      {
          {"algorithm",
           {"sort", "stable_sort", "partial_sort", "nth_element", "min",
            "max", "minmax", "clamp", "min_element", "max_element", "find",
            "find_if", "find_if_not", "count", "count_if", "all_of", "any_of",
            "none_of", "copy", "copy_if", "fill", "transform", "remove",
            "remove_if", "unique", "reverse", "rotate", "shuffle", "swap",
            "lower_bound", "upper_bound", "binary_search", "equal",
            "mismatch", "merge", "set_intersection", "set_union",
            "lexicographical_compare", "for_each"}},
          {"array", {"array", "to_array"}},
          {"atomic", {"atomic", "atomic_flag", "memory_order",
                      "memory_order_relaxed", "memory_order_acquire",
                      "memory_order_release", "memory_order_seq_cst"}},
          {"bit", {"bit_cast", "endian", "popcount", "countl_zero",
                   "countr_zero", "rotl", "rotr", "has_single_bit",
                   "bit_ceil"}},
          {"chrono", {"chrono"}},
          {"cmath", {"sqrt", "sqrtf", "pow", "exp", "log", "log2", "log10",
                     "sin", "cos", "tan", "atan2", "hypot", "floor", "ceil",
                     "round", "lround", "fabs", "abs", "fmod", "isnan",
                     "isinf", "isfinite", "nan", "exp2", "lgamma", "erf"}},
          {"condition_variable", {"condition_variable", "cv_status",
                                  "notify_all_at_thread_exit"}},
          {"cstddef", {"size_t", "ptrdiff_t", "nullptr_t", "byte",
                       "max_align_t"}},
          {"cstdint",
           {"int8_t", "int16_t", "int32_t", "int64_t", "uint8_t", "uint16_t",
            "uint32_t", "uint64_t", "intptr_t", "uintptr_t", "intmax_t",
            "uintmax_t", "INT64_MAX", "UINT64_MAX", "UINT32_MAX"}},
          {"cstdio", {"FILE", "fopen", "fclose", "fread", "fwrite", "fflush",
                      "printf", "fprintf", "snprintf", "sscanf", "remove",
                      "rename", "perror", "stderr", "stdout", "puts",
                      "fputs", "fgets"}},
          {"cstdlib", {"malloc", "free", "calloc", "realloc", "exit",
                       "abort", "atexit", "getenv", "system", "strtol",
                       "strtoul", "strtod", "atoi", "atof", "qsort", "rand",
                       "srand", "EXIT_SUCCESS", "EXIT_FAILURE"}},
          {"cstring", {"memcpy", "memmove", "memset", "memcmp", "strlen",
                       "strcmp", "strncmp", "strcpy", "strncpy", "strcat",
                       "strchr", "strrchr", "strstr", "strerror"}},
          {"ctime", {"time", "time_t", "clock", "clock_t", "localtime",
                     "gmtime", "strftime", "difftime", "mktime", "timespec",
                     "clock_gettime", "nanosleep", "CLOCK_MONOTONIC",
                     "CLOCK_REALTIME", "CLOCK_THREAD_CPUTIME_ID"}},
          {"deque", {"deque"}},
          {"filesystem", {"filesystem"}},
          {"fstream", {"ifstream", "ofstream", "fstream", "filebuf"}},
          {"functional", {"function", "bind", "ref", "cref",
                          "reference_wrapper", "invoke", "hash", "less",
                          "greater", "equal_to", "plus", "minus",
                          "multiplies", "identity", "not_fn"}},
          {"future", {"future", "promise", "packaged_task", "async",
                      "launch", "shared_future", "future_status"}},
          {"iosfwd", {"ostream", "istream", "iostream", "stringstream",
                      "ostringstream", "istringstream", "streambuf"}},
          {"limits", {"numeric_limits"}},
          {"memory",
           {"unique_ptr", "shared_ptr", "weak_ptr", "make_unique",
            "make_shared", "allocator", "addressof", "align",
            "enable_shared_from_this", "default_delete", "to_address"}},
          {"mutex", {"mutex", "recursive_mutex", "timed_mutex", "lock_guard",
                     "unique_lock", "scoped_lock", "once_flag", "call_once",
                     "try_lock", "lock", "adopt_lock", "defer_lock"}},
          {"new", {"nothrow", "bad_alloc", "launder", "align_val_t",
                   "hardware_destructive_interference_size"}},
          {"numeric", {"accumulate", "iota", "inner_product", "reduce",
                       "partial_sum", "gcd", "lcm", "midpoint"}},
          {"optional", {"optional", "nullopt", "make_optional"}},
          {"ostream", {"ostream", "endl", "flush"}},
          {"random", {"mt19937", "mt19937_64", "minstd_rand",
                      "uniform_int_distribution", "uniform_real_distribution",
                      "normal_distribution", "random_device",
                      "bernoulli_distribution", "exponential_distribution"}},
          {"set", {"set", "multiset"}},
          {"span", {"span", "dynamic_extent", "as_bytes"}},
          {"sstream", {"stringstream", "ostringstream", "istringstream",
                       "stringbuf"}},
          {"string", {"string", "to_string", "stoi", "stol", "stoul",
                      "stoull", "stod", "stof", "getline", "char_traits",
                      "npos"}},
          {"string_view", {"string_view", "wstring_view"}},
          {"thread", {"thread", "jthread", "this_thread", "yield",
                      "sleep_for", "sleep_until", "get_id",
                      "hardware_concurrency"}},
          {"type_traits",
           {"enable_if", "enable_if_t", "is_same", "is_same_v", "decay",
            "decay_t", "remove_reference", "remove_reference_t",
            "remove_cvref_t", "is_integral", "is_integral_v",
            "is_floating_point", "is_floating_point_v", "is_arithmetic_v",
            "conditional_t", "is_trivially_copyable_v", "is_invocable_v",
            "invoke_result_t", "underlying_type_t", "is_base_of_v",
            "true_type", "false_type", "void_t", "is_convertible_v"}},
          {"unordered_map", {"unordered_map", "unordered_multimap"}},
          {"unordered_set", {"unordered_set", "unordered_multiset"}},
          {"utility",
           {"move", "forward", "swap", "pair", "make_pair", "exchange",
            "declval", "as_const", "in_place", "index_sequence",
            "make_index_sequence", "cmp_less", "cmp_greater", "unreachable",
            "piecewise_construct"}},
          {"variant", {"variant", "visit", "get_if", "holds_alternative",
                       "monostate", "variant_npos"}},
          {"vector", {"vector"}},
      };
  return kMap;
}

/// Declaration-anchored provided names of a repo header: macro names, type
/// names after class/struct/enum/union, enumerators, names followed by `(`
/// (functions and function-like usage), names bound by `using`, and names
/// declared at any scope with `=`/`;`/`{` after them when preceded by a
/// type-ish token. Generosity is safe here: the more names a header is
/// credited with, the less likely a false "unused" finding.
std::set<std::string_view> provided_names(const SourceFile& h) {
  std::set<std::string_view> names;
  // Macro definitions.
  for (const Token& t : h.tokens) {
    if (t.kind != TokenKind::kPreprocessor) continue;
    std::string_view text = h.tok(t);
    const std::size_t def = text.find("define");
    if (def == std::string_view::npos) continue;
    std::size_t i = def + 6;
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[j])) != 0 ||
            text[j] == '_'))
      ++j;
    if (j > i) names.insert(text.substr(i, j - i));
  }

  // Code-token anchors.
  std::vector<std::size_t> code;
  for (std::size_t i = 0; i < h.tokens.size(); ++i) {
    const TokenKind k = h.tokens[i].kind;
    if (k != TokenKind::kComment && k != TokenKind::kPreprocessor)
      code.push_back(i);
  }
  int enum_depth = -1;  // brace depth of an open enum body, -1 when none
  int depth = 0;
  bool enum_pending = false;
  for (std::size_t ci = 0; ci < code.size(); ++ci) {
    const Token& t = h.tokens[code[ci]];
    const std::string_view text = h.tok(code[ci]);
    if (t.kind == TokenKind::kPunct) {
      if (text == "{") {
        ++depth;
        if (enum_pending) {
          enum_depth = depth;
          enum_pending = false;
        }
      } else if (text == "}") {
        if (enum_depth == depth) enum_depth = -1;
        --depth;
      } else if (text == ";") {
        enum_pending = false;
      }
      continue;
    }
    if (t.kind == TokenKind::kKeyword) {
      if (text == "enum") enum_pending = true;
      continue;
    }
    if (t.kind != TokenKind::kIdentifier) continue;

    // Enumerators: identifiers directly inside an enum body.
    if (enum_depth == depth && enum_depth != -1) {
      names.insert(text);
      continue;
    }
    const auto prev_is_kw = [&](std::string_view kw) {
      return ci > 0 && h.tokens[code[ci - 1]].kind == TokenKind::kKeyword &&
             h.tok(code[ci - 1]) == kw;
    };
    // Type names and alias names.
    if (prev_is_kw("class") || prev_is_kw("struct") || prev_is_kw("union") ||
        prev_is_kw("enum") || prev_is_kw("using") || prev_is_kw("typedef") ||
        prev_is_kw("concept")) {
      names.insert(text);
      continue;
    }
    if (ci + 1 < code.size()) {
      const std::string_view next = h.tok(code[ci + 1]);
      const TokenKind nk = h.tokens[code[ci + 1]].kind;
      // Functions, function-like macros, constructor-style names.
      if (nk == TokenKind::kPunct && next == "(") {
        names.insert(text);
        continue;
      }
      // `Type name = ...;` / `Type name;` / `Type name{...};` where the
      // previous token looks like the end of a type.
      if (nk == TokenKind::kPunct &&
          (next == "=" || next == ";" || next == "{") && ci > 0) {
        const Token& pt = h.tokens[code[ci - 1]];
        const std::string_view ptext = h.tok(code[ci - 1]);
        const bool typeish =
            pt.kind == TokenKind::kIdentifier ||
            pt.kind == TokenKind::kKeyword ||
            (pt.kind == TokenKind::kPunct &&
             (ptext == ">" || ptext == "*" || ptext == "&"));
        if (typeish) names.insert(text);
      }
    }
  }
  return names;
}

void rule_unused_include(const Project& p, std::vector<Finding>& out) {
  // Usage universe per file: every identifier/keyword code token. Built
  // lazily per file below; provided-name sets are memoized per header.
  std::map<std::string_view, std::set<std::string_view>> provided_cache;
  const auto provided_for = [&](const SourceFile& h) ->
      const std::set<std::string_view>& {
        const auto it = provided_cache.find(h.rel);
        if (it != provided_cache.end()) return it->second;
        return provided_cache.emplace(h.rel, provided_names(h)).first->second;
      };

  for (const SourceFile& f : p.files) {
    std::set<std::string_view> used;
    bool placement_new = false;  // `new (addr) T` requires <new>
    for (std::size_t i = 0; i < f.tokens.size(); ++i) {
      const TokenKind k = f.tokens[i].kind;
      if (k == TokenKind::kIdentifier) used.insert(f.tok(i));
      if (k == TokenKind::kKeyword && f.tok(i) == "new" &&
          i + 1 < f.tokens.size() &&
          f.tokens[i + 1].kind == TokenKind::kPunct && f.tok(i + 1) == "(")
        placement_new = true;
    }
    for (const IncludeEdge& edge : extract_includes(f)) {
      const std::vector<std::string_view>* sys_names = nullptr;
      const std::set<std::string_view>* repo_names = nullptr;
      if (edge.quoted) {
        const SourceFile* target = p.find(edge.target);
        if (target == nullptr) continue;  // outside src/, cannot model
        // Paired header: x.cpp includes x.h to honor its own declarations.
        if (!f.is_header && strip_ext(f.rel) == strip_ext(edge.target))
          continue;
        repo_names = &provided_for(*target);
        if (repo_names->empty()) continue;  // nothing anchored — skip
      } else {
        const auto& sys = system_header_names();
        const auto it = sys.find(edge.target);
        if (it == sys.end()) continue;  // unmapped system header — skip
        sys_names = &it->second;
      }
      bool hit = !edge.quoted && edge.target == "new" && placement_new;
      if (hit) {
        // fallthrough to report check below
      } else if (sys_names != nullptr) {
        for (const std::string_view n : *sys_names)
          if (used.count(n) != 0) {
            hit = true;
            break;
          }
      } else {
        for (const std::string_view n : *repo_names)
          if (used.count(n) != 0) {
            hit = true;
            break;
          }
      }
      if (!hit) {
        out.push_back(
            {f.rel, edge.line, 1, "unused-include",
             "no name provided by '" + edge.target +
                 "' is used in this TU; drop the include (or include what "
                 "is actually load-bearing)",
             false, ""});
      }
    }
  }
}

// --- cmake-registered ------------------------------------------------------

void rule_cmake_registered(const Project& p, std::vector<Finding>& out) {
  for (const SourceFile& f : p.files) {
    if (f.is_header) continue;
    if (p.cmake_text.find(f.rel) == std::string::npos) {
      out.push_back({f.rel, 1, 1, "cmake-registered",
                     "translation unit is not listed in src/CMakeLists.txt; "
                     "unbuilt code silently escapes compilation and "
                     "sanitizer coverage",
                     false, ""});
    }
  }
}

// --- ordered-iteration -----------------------------------------------------

bool in_ordered_scope(std::string_view rel) {
  return starts_with(rel, "audit/") || starts_with(rel, "features/") ||
         starts_with(rel, "cfa/") || starts_with(rel, "eval/") ||
         starts_with(rel, "scenario/");
}

/// Names declared with an unordered container type in `f`:
/// `std::unordered_map<K, V> name` → "name". Template arguments are skipped
/// by angle-bracket counting (`>>` closes two).
void collect_unordered_decls(const SourceFile& f,
                             std::set<std::string_view>& names) {
  std::vector<std::size_t> code;
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    const TokenKind k = f.tokens[i].kind;
    if (k != TokenKind::kComment && k != TokenKind::kPreprocessor)
      code.push_back(i);
  }
  for (std::size_t ci = 0; ci < code.size(); ++ci) {
    if (f.tokens[code[ci]].kind != TokenKind::kIdentifier) continue;
    if (!starts_with(f.tok(code[ci]), "unordered_")) continue;
    std::size_t j = ci + 1;
    if (j < code.size() && f.tokens[code[j]].kind == TokenKind::kPunct &&
        f.tok(code[j]) == "<") {
      int angle = 0;
      for (; j < code.size(); ++j) {
        if (f.tokens[code[j]].kind != TokenKind::kPunct) continue;
        const std::string_view t = f.tok(code[j]);
        if (t == "<") ++angle;
        else if (t == ">") --angle;
        else if (t == ">>") angle -= 2;
        else if (t == ";") break;  // malformed / not a declaration
        if (angle <= 0) {
          ++j;
          break;
        }
      }
    }
    // The declared name may sit behind ref/pointer/const decoration:
    // `const std::unordered_map<int, int>& counts`.
    while (j < code.size() &&
           ((f.tokens[code[j]].kind == TokenKind::kPunct &&
             (f.tok(code[j]) == "&" || f.tok(code[j]) == "*" ||
              f.tok(code[j]) == "&&")) ||
            (f.tokens[code[j]].kind == TokenKind::kKeyword &&
             f.tok(code[j]) == "const")))
      ++j;
    if (j < code.size() && f.tokens[code[j]].kind == TokenKind::kIdentifier)
      names.insert(f.tok(code[j]));
  }
}

void rule_ordered_iteration(const Project& p, std::vector<Finding>& out) {
  for (const SourceFile& f : p.files) {
    if (!in_ordered_scope(f.rel)) continue;

    // Unordered-typed names visible to this TU: its own declarations plus
    // those of its direct repo includes (members reached via accessors).
    std::set<std::string_view> unordered;
    collect_unordered_decls(f, unordered);
    for (const IncludeEdge& edge : extract_includes(f)) {
      if (!edge.quoted) continue;
      const SourceFile* target = p.find(edge.target);
      if (target != nullptr) collect_unordered_decls(*target, unordered);
    }

    std::vector<std::size_t> code;
    for (std::size_t i = 0; i < f.tokens.size(); ++i) {
      const TokenKind k = f.tokens[i].kind;
      if (k != TokenKind::kComment && k != TokenKind::kPreprocessor)
        code.push_back(i);
    }
    const auto text = [&](std::size_t ci) { return f.tok(code[ci]); };
    for (std::size_t ci = 0; ci + 1 < code.size(); ++ci) {
      if (f.tokens[code[ci]].kind != TokenKind::kKeyword ||
          text(ci) != "for")
        continue;
      if (f.tokens[code[ci + 1]].kind != TokenKind::kPunct ||
          text(ci + 1) != "(")
        continue;
      // Find a `:` at paren depth 1 (range-for separator), then scan the
      // range expression up to the matching `)`.
      int paren = 0;
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t j = ci + 1; j < code.size(); ++j) {
        if (f.tokens[code[j]].kind != TokenKind::kPunct) continue;
        const std::string_view t = text(j);
        if (t == "(") {
          ++paren;
        } else if (t == ")") {
          if (--paren == 0) {
            close = j;
            break;
          }
        } else if (t == ":" && paren == 1 && colon == 0) {
          colon = j;
        } else if (t == ";" && paren == 1) {
          break;  // classic for-loop, not range-for
        }
      }
      if (colon == 0 || close == 0) continue;
      bool unordered_range = false;
      std::string_view last_ident;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (f.tokens[code[j]].kind != TokenKind::kIdentifier) continue;
        last_ident = text(j);
        if (starts_with(last_ident, "unordered_")) unordered_range = true;
      }
      if (!unordered_range && !last_ident.empty() &&
          unordered.count(last_ident) != 0) {
        unordered_range = true;
      }
      if (unordered_range) {
        const Token& at = f.tokens[code[ci]];
        out.push_back(
            {f.rel, at.line, at.col, "ordered-iteration",
             "range-for over an unordered container in an artifact-emitting "
             "module; hash-order leaks into emitted bytes — iterate a "
             "sorted view or an order-preserving structure",
             false, ""});
      }
    }
  }
}

}  // namespace

void run_project_rules(const Project& p, std::vector<Finding>& out) {
  rule_include_layering(p, out);
  rule_include_cycle(p, out);
  rule_unused_include(p, out);
  rule_cmake_registered(p, out);
  rule_ordered_iteration(p, out);
}

}  // namespace xfa::lint
