// Self-test for the xfa_lint framework: lexer edge cases, one positive and
// one negative fixture per rule, the graph-rule mini trees, suppression
// accounting, and the README rule-table drift check.
//
// XFA_LINT_FIXTURES and XFA_LINT_REPO_ROOT are provided by CMake.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/include_graph.h"
#include "lint/lint.h"
#include "lint/report.h"
#include "lint/rules.h"
#include "lint/token.h"

namespace xfa::lint {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string fixture(const std::string& name) {
  return read_file(std::string{XFA_LINT_FIXTURES} + "/rules/" + name);
}

/// Lints one fixture file under a crafted rel path (directory-scoped rules
/// key off the path) and returns the active finding rule ids.
std::vector<std::string> rules_fired(const std::string& rel,
                                     const std::string& name) {
  const LintResult r = lint_source(rel, fixture(name));
  std::vector<std::string> ids;
  for (const Finding& f : r.findings) ids.push_back(f.rule);
  return ids;
}

bool fired(const std::vector<std::string>& ids, const std::string& rule) {
  return std::find(ids.begin(), ids.end(), rule) != ids.end();
}

// --- lexer -----------------------------------------------------------------

std::vector<Token> lex_kind(const std::string& text, TokenKind kind) {
  std::vector<Token> out;
  for (const Token& t : lex(text))
    if (t.kind == kind) out.push_back(t);
  return out;
}

TEST(Lexer, RawStringWithCustomDelimiterSwallowsTriggers) {
  const std::string text =
      "const char* t = R\"xy(srand(1); \"quoted\" )\" )xy\";\nint after;\n";
  const auto strings = lex_kind(text, TokenKind::kString);
  ASSERT_EQ(strings.size(), 1u);
  // Everything between the custom delimiters is one string token, including
  // the plain `)\"` that would close a default raw string.
  EXPECT_NE(token_text(text, strings[0]).find("srand"), std::string::npos);
  std::vector<std::string> idents;
  for (const Token& t : lex_kind(text, TokenKind::kIdentifier))
    idents.emplace_back(token_text(text, t));
  EXPECT_EQ(std::count(idents.begin(), idents.end(), "srand"), 0);
  EXPECT_EQ(std::count(idents.begin(), idents.end(), "after"), 1);
}

TEST(Lexer, EncodingPrefixedRawString) {
  const std::string text = "auto s = u8R\"(no \"escape\" here)\";";
  ASSERT_EQ(lex_kind(text, TokenKind::kString).size(), 1u);
}

TEST(Lexer, DigitSeparatorsStayOneNumber) {
  const std::string text = "auto n = 1'000'000 + 0x1F'FFp3 + 0b1010'0101;";
  const auto numbers = lex_kind(text, TokenKind::kNumber);
  ASSERT_EQ(numbers.size(), 3u);
  EXPECT_EQ(token_text(text, numbers[0]), "1'000'000");
}

TEST(Lexer, LineContinuationInsideLineComment) {
  // The splice glues the second physical line onto the comment, so
  // `assert` never becomes a code token.
  const std::string text = "// trailing splice \\\nassert(x);\nint real;\n";
  std::vector<std::string> idents;
  for (const Token& t : lex_kind(text, TokenKind::kIdentifier))
    idents.emplace_back(token_text(text, t));
  EXPECT_EQ(std::count(idents.begin(), idents.end(), "assert"), 0);
  EXPECT_EQ(std::count(idents.begin(), idents.end(), "real"), 1);
}

TEST(Lexer, LineContinuationExtendsDirective) {
  const std::string text = "#define LONG_MACRO(a) \\\n  ((a) + 1)\nint x;\n";
  const auto pp = lex_kind(text, TokenKind::kPreprocessor);
  ASSERT_EQ(pp.size(), 1u);
  EXPECT_NE(token_text(text, pp[0]).find("+ 1"), std::string::npos);
}

TEST(Lexer, BlockCommentsDoNotNest) {
  // C++ block comments end at the FIRST `*/`; the tail is real code.
  const std::string text = "/* outer /* inner */ int visible; /* x */";
  std::vector<std::string> idents;
  for (const Token& t : lex_kind(text, TokenKind::kIdentifier))
    idents.emplace_back(token_text(text, t));
  EXPECT_EQ(std::count(idents.begin(), idents.end(), "visible"), 1);
  EXPECT_EQ(std::count(idents.begin(), idents.end(), "inner"), 0);
}

TEST(Lexer, MaximalMunchPunctuation) {
  const std::string text = "a <<= b; c <=> d; e ->* f; g :: h;";
  std::vector<std::string> puncts;
  for (const Token& t : lex_kind(text, TokenKind::kPunct))
    puncts.emplace_back(token_text(text, t));
  EXPECT_TRUE(std::find(puncts.begin(), puncts.end(), "<<=") != puncts.end());
  EXPECT_TRUE(std::find(puncts.begin(), puncts.end(), "<=>") != puncts.end());
  EXPECT_TRUE(std::find(puncts.begin(), puncts.end(), "->*") != puncts.end());
  EXPECT_TRUE(std::find(puncts.begin(), puncts.end(), "::") != puncts.end());
}

TEST(Lexer, HashMidLineIsNotADirective) {
  const std::string text = "int a = 1;\n#define REAL 2\nauto s = \"#fake\";";
  const auto pp = lex_kind(text, TokenKind::kPreprocessor);
  ASSERT_EQ(pp.size(), 1u);
  EXPECT_NE(token_text(text, pp[0]).find("REAL"), std::string::npos);
}

// --- trap file: triggers only inside comments/strings ----------------------

TEST(Rules, TrapFileStaysSilent) {
  const LintResult r = lint_source("ml/traps.cpp", fixture("traps.cpp"));
  EXPECT_TRUE(r.findings.empty())
      << render_text(r) << "token rules must ignore comments and strings";
}

// --- one positive / one negative fixture per file rule ----------------------

TEST(Rules, RngDeterminism) {
  const auto pos = rules_fired("sim/seed.cpp", "rng_pos.cpp");
  EXPECT_TRUE(fired(pos, "rng-determinism"));
  EXPECT_TRUE(rules_fired("sim/rng.cpp", "rng_neg.cpp").empty());
}

TEST(Rules, NoRawAssert) {
  EXPECT_TRUE(fired(rules_fired("ml/math.cpp", "assert_pos.cpp"),
                    "no-raw-assert"));
  EXPECT_FALSE(fired(rules_fired("ml/math.cpp", "assert_neg.cpp"),
                     "no-raw-assert"));
}

TEST(Rules, PragmaOnce) {
  EXPECT_TRUE(fired(rules_fired("ml/missing.h", "pragma_pos.h"),
                    "pragma-once"));
  EXPECT_FALSE(fired(rules_fired("ml/guarded.h", "pragma_neg.h"),
                     "pragma-once"));
}

TEST(Rules, ExecOnlyThreads) {
  EXPECT_TRUE(fired(rules_fired("net/worker.cpp", "threads_pos.cpp"),
                    "exec-only-threads"));
  EXPECT_FALSE(fired(rules_fired("exec/pool_impl.cpp", "threads_neg.cpp"),
                     "exec-only-threads"));
}

TEST(Rules, FusedMi) {
  EXPECT_TRUE(fired(rules_fired("ml/rank.cpp", "fusedmi_pos.cpp"),
                    "fused-mi"));
  EXPECT_FALSE(fired(rules_fired("ml/rank.cpp", "fusedmi_neg.cpp"),
                     "fused-mi"));
  // The selection stage itself owns the oracle and the fused pass.
  EXPECT_FALSE(fired(rules_fired("ml/feature_select.cpp", "fusedmi_pos.cpp"),
                     "fused-mi"));
  // Scoped to src/ml only.
  EXPECT_FALSE(fired(rules_fired("cfa/model.cpp", "fusedmi_pos.cpp"),
                     "fused-mi"));
}

TEST(Rules, HoistOrGrid) {
  EXPECT_TRUE(fired(rules_fired("net/chan.cpp", "hoist_pos.cpp"),
                    "hoist-or-grid"));
  EXPECT_FALSE(fired(rules_fired("net/chan.cpp", "hoist_neg.cpp"),
                     "hoist-or-grid"));
}

TEST(Rules, StatusNotAbort) {
  EXPECT_TRUE(fired(rules_fired("scenario/loader.cpp", "status_pos.cpp"),
                    "status-not-abort"));
  EXPECT_FALSE(fired(rules_fired("scenario/tick.cpp", "status_neg.cpp"),
                     "status-not-abort"));
}

TEST(Rules, ElementRegistry) {
  const auto pos = rules_fired("net/handwired.cpp", "element_pos.cpp");
  // One finding per construction form: stack, brace, make_unique,
  // make_shared, new, qualified new.
  EXPECT_EQ(std::count(pos.begin(), pos.end(), "element-registry"), 6);
  EXPECT_FALSE(fired(rules_fired("net/handwired.cpp", "element_neg.cpp"),
                     "element-registry"));
  // The registry itself is the audited construction site.
  EXPECT_FALSE(fired(rules_fired("scenario/graph/registry.cpp",
                                 "element_pos.cpp"),
                     "element-registry"));
}

TEST(Rules, AtomicWrite) {
  const auto pos = rules_fired("scenario/writer.cpp", "atomicwrite_pos.cpp");
  EXPECT_EQ(std::count(pos.begin(), pos.end(), "atomic-write"), 3);
  EXPECT_TRUE(
      rules_fired("common/atomic_file.cpp", "atomicwrite_neg.cpp").empty());
}

TEST(Rules, CheckNoSideEffects) {
  const auto pos = rules_fired("ml/checks.cpp", "sidefx_pos.cpp");
  EXPECT_EQ(std::count(pos.begin(), pos.end(), "check-no-side-effects"), 2);
  EXPECT_FALSE(fired(rules_fired("ml/checks.cpp", "sidefx_neg.cpp"),
                     "check-no-side-effects"));
}

TEST(Rules, NoMutableGlobal) {
  const auto pos = rules_fired("sim/globals.cpp", "global_pos.cpp");
  EXPECT_EQ(std::count(pos.begin(), pos.end(), "no-mutable-global"), 2);
  EXPECT_FALSE(fired(rules_fired("sim/clean.cpp", "global_neg.cpp"),
                     "no-mutable-global"));
}

// --- suppressions -----------------------------------------------------------

TEST(Rules, SuppressionsCountAndGoStale) {
  const LintResult r = lint_source("sim/seed2.cpp", fixture("suppress.cpp"));
  EXPECT_TRUE(r.findings.empty()) << render_text(r);
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "rng-determinism");
  EXPECT_NE(r.suppressed[0].suppress_reason.find("fixture demonstrates"),
            std::string::npos);
  ASSERT_EQ(r.unused_suppressions.size(), 1u);
  EXPECT_EQ(r.unused_suppressions[0].rule, "no-raw-assert");
}

// --- project rules over the mini trees --------------------------------------

TEST(GraphRules, CleanTreeHasNoFindings) {
  const LintResult r =
      run_lint(std::string{XFA_LINT_FIXTURES} + "/graph_pos");
  EXPECT_TRUE(r.findings.empty()) << render_text(r);
  EXPECT_EQ(r.files_scanned, 5u);
}

TEST(GraphRules, NegativeTreeSurfacesEachGraphRule) {
  const LintResult r =
      run_lint(std::string{XFA_LINT_FIXTURES} + "/graph_neg");
  std::vector<std::string> ids;
  for (const Finding& f : r.findings) ids.push_back(f.rule);
  EXPECT_TRUE(fired(ids, "include-layering")) << render_text(r);
  EXPECT_TRUE(fired(ids, "include-cycle")) << render_text(r);
  EXPECT_TRUE(fired(ids, "unused-include")) << render_text(r);
  EXPECT_TRUE(fired(ids, "cmake-registered")) << render_text(r);
  EXPECT_TRUE(fired(ids, "ordered-iteration")) << render_text(r);
}

TEST(GraphRules, LayerBandsMatchDeclaredDag) {
  EXPECT_EQ(layer_band("common"), 0);
  EXPECT_EQ(layer_band("exec"), 0);
  EXPECT_EQ(layer_band("sim"), 1);
  EXPECT_EQ(layer_band("net"), 1);
  EXPECT_EQ(layer_band("mobility"), 1);
  EXPECT_EQ(layer_band("routing"), 2);
  EXPECT_EQ(layer_band("transport"), 2);
  EXPECT_EQ(layer_band("attacks"), 2);
  EXPECT_EQ(layer_band("faults"), 2);
  EXPECT_EQ(layer_band("audit"), 2);
  EXPECT_EQ(layer_band("features"), 3);
  EXPECT_EQ(layer_band("ml"), 3);
  EXPECT_EQ(layer_band("cfa"), 3);
  EXPECT_EQ(layer_band("eval"), 3);
  EXPECT_EQ(layer_band("scenario"), 3);
  EXPECT_EQ(layer_band("tools"), -1);
}

// --- determinism of the parallel scan ---------------------------------------

TEST(Determinism, ReportIdenticalAcrossThreadCounts) {
  const std::string root = std::string{XFA_LINT_FIXTURES} + "/graph_neg";
  const LintResult a = run_lint(root, 1);
  const LintResult b = run_lint(root, 4);
  EXPECT_EQ(render_json(a), render_json(b));
  EXPECT_EQ(render_sarif(a), render_sarif(b));
}

// --- registry and docs -------------------------------------------------------

TEST(Registry, StableOrderAndLookup) {
  const auto& rules = rule_registry();
  EXPECT_GE(rules.size(), 15u);
  EXPECT_TRUE(std::is_sorted(
      rules.begin(), rules.end(),
      [](const RuleInfo& x, const RuleInfo& y) { return x.id < y.id; }));
  EXPECT_NE(find_rule("include-layering"), nullptr);
  EXPECT_EQ(find_rule("not-a-rule"), nullptr);
}

TEST(Docs, ReadmeRuleTableMatchesRegistry) {
  const std::string readme =
      read_file(std::string{XFA_LINT_REPO_ROOT} + "/README.md");
  const std::string begin = "<!-- xfa-lint-rules-begin -->";
  const std::string end = "<!-- xfa-lint-rules-end -->";
  const std::size_t b = readme.find(begin);
  const std::size_t e = readme.find(end);
  ASSERT_NE(b, std::string::npos) << "README.md lost the rule-table markers";
  ASSERT_NE(e, std::string::npos);
  const std::string embedded =
      readme.substr(b + begin.size(), e - b - begin.size());
  // The embedded block is exactly the generated table (modulo the
  // surrounding newlines the markers sit on).
  std::string expected = "\n";
  expected += render_rule_table();
  EXPECT_EQ(embedded, expected)
      << "README rule table drifted; regenerate with scripts/check.sh or "
         "`xfa_lint --list`";
}

}  // namespace
}  // namespace xfa::lint
