// Contract-macro behaviour: XFA_CHECK must stay armed in release builds
// (this suite runs under NDEBUG in tier-1 CI) and report enough context to
// debug from the failure line alone. Result<T>::value() is the checked
// accessor built on it. Also the strict integer parser (common/parse.h) and
// the XFA_* environment snapshot built on it (common/env.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/env.h"
#include "common/parse.h"
#include "common/status.h"
#include "exec/thread_pool.h"

namespace xfa {
namespace {

TEST(CheckTest, PassingChecksAreSilent) {
  XFA_CHECK(true);
  XFA_CHECK(1 + 1 == 2) << "never rendered";
  XFA_CHECK_EQ(4, 4);
  XFA_CHECK_NE(4, 5);
  XFA_CHECK_LT(4, 5);
  XFA_CHECK_LE(4, 4);
  XFA_CHECK_GT(5, 4);
  XFA_CHECK_GE(4, 4);
}

TEST(CheckDeathTest, FailureReportsExpressionAndLocation) {
  EXPECT_DEATH(XFA_CHECK(2 + 2 == 5), "check_test.cpp.*2 \\+ 2 == 5");
}

TEST(CheckDeathTest, StreamedMessageIsIncluded) {
  EXPECT_DEATH(XFA_CHECK(false) << "ttl=" << 7, "ttl=7");
}

TEST(CheckDeathTest, ComparisonVariantsPrintBothOperands) {
  const int lo = 3;
  const int hi = 9;
  EXPECT_DEATH(XFA_CHECK_GE(lo, hi), "lo >= hi.*\\(3 vs. 9\\)");
  EXPECT_DEATH(XFA_CHECK_LT(hi, lo), "hi < lo.*\\(9 vs. 3\\)");
  EXPECT_DEATH(XFA_CHECK_EQ(lo, hi) << "context", "\\(3 vs. 9\\) context");
}

TEST(CheckDeathTest, CheckComposesWithControlFlow) {
  // The macros must behave as single statements under unbraced if/else.
  const bool flag = true;
  if (flag)
    XFA_CHECK(true);
  else
    XFA_CHECK(false);
  EXPECT_DEATH({ if (flag) XFA_CHECK(false) << "branch"; }, "branch");
}

TEST(CheckTest, StreamedMessageIsLazyOnSuccess) {
  // Hot paths stream expensive renderings (e.g. `<< pkt.describe()`) onto
  // checks; the operands must only be evaluated on the failure arm.
  int rendered = 0;
  const auto describe = [&rendered] {
    ++rendered;
    return std::string("expensive");
  };
  XFA_CHECK(true) << describe();
  XFA_CHECK_EQ(2, 2) << describe() << describe();
  EXPECT_EQ(rendered, 0);
  EXPECT_DEATH(XFA_CHECK(false) << describe(), "expensive");
}

TEST(CheckTest, DcheckMatchesBuildConfiguration) {
#ifdef NDEBUG
  // Compiled to a dead loop: the condition must not be evaluated.
  bool evaluated = false;
  XFA_DCHECK(((evaluated = true), false));
  EXPECT_FALSE(evaluated);
#else
  EXPECT_DEATH(XFA_DCHECK(false), "false");
#endif
}

Result<std::unique_ptr<int>> make_owned(int value) {
  return std::make_unique<int>(value);
}

TEST(ResultTest, ValueMovesOutOfTemporaries) {
  // A move-only T can only come out of an rvalue Result by move.
  const std::unique_ptr<int> owned = make_owned(7).value();
  ASSERT_NE(owned, nullptr);
  EXPECT_EQ(*owned, 7);
  EXPECT_EQ(*(*make_owned(8)), 8);

  // Lvalues still hand out references; std::move(*r) moves explicitly.
  Result<std::unique_ptr<int>> held = make_owned(9);
  EXPECT_EQ(*held.value(), 9);
  EXPECT_EQ(**held, 9);
  const std::unique_ptr<int> taken = std::move(*held);
  EXPECT_EQ(*taken, 9);
  EXPECT_EQ(held.value(), nullptr);
}

TEST(ResultDeathTest, ValueOfErrorAbortsWithTheStatus) {
  const auto failing = [] {
    return Result<std::unique_ptr<int>>(
        Status{StatusCode::kNotFound, "no such trace"});
  };
  EXPECT_DEATH((void)failing().value(), "kNotFound: no such trace");
}

TEST(ParseU64Test, AcceptsOnlyDigitsThatFit) {
  EXPECT_EQ(parse_u64("0").value(), 0u);
  EXPECT_EQ(parse_u64("0042").value(), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615").value(), UINT64_MAX);
  for (const char* bad : {"", "-1", "+2", " 3", "3 ", "10s", "abc", "0x10",
                          "1.5", "18446744073709551616"}) {
    const Result<std::uint64_t> parsed = parse_u64(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

/// Sets XFA_* integer variables and re-snapshots; TearDown puts back
/// whatever the process environment held before the test.
class EnvSnapshotTest : public ::testing::Test {
 protected:
  static constexpr const char* kNames[] = {"XFA_THREADS",
                                           "XFA_TRACE_DEADLINE_MS"};

  void SetUp() override {
    for (std::size_t i = 0; i < std::size(kNames); ++i) {
      const char* value = std::getenv(kNames[i]);
      if (value != nullptr) saved_[i] = value;
    }
  }
  void TearDown() override {
    for (std::size_t i = 0; i < std::size(kNames); ++i) {
      if (saved_[i])
        setenv(kNames[i], saved_[i]->c_str(), 1);
      else
        unsetenv(kNames[i]);
    }
    refresh_env_for_testing();
  }

  std::optional<std::string> saved_[std::size(kNames)];
};

TEST_F(EnvSnapshotTest, StrictIntegersOverrideDefaults) {
  setenv("XFA_THREADS", "3", 1);
  setenv("XFA_TRACE_DEADLINE_MS", "250", 1);
  refresh_env_for_testing();
  EXPECT_EQ(env().threads, 3u);
  EXPECT_EQ(env().trace_deadline_ms, 250);

  // The pool-size limit itself is a valid value.
  setenv("XFA_THREADS", std::to_string(kMaxThreads).c_str(), 1);
  refresh_env_for_testing();
  EXPECT_EQ(env().threads, kMaxThreads);
}

TEST_F(EnvSnapshotTest, MalformedOrOutOfRangeValuesKeepDefaults) {
  // An int overflow, plain text, a unit suffix and a sign: none may become
  // a number.
  const EnvSnapshot defaults;
  for (const char* bad : {"99999999999", "abc", "10s", "-1"}) {
    setenv("XFA_TRACE_DEADLINE_MS", bad, 1);
    refresh_env_for_testing();
    EXPECT_EQ(env().trace_deadline_ms, defaults.trace_deadline_ms) << bad;
  }

  // A sign, and one past the pool-size limit: the snapshot only stores the
  // value, so no thread is started here.
  for (const std::string& bad : {std::string("+4"),
                                 std::to_string(kMaxThreads + 1)}) {
    setenv("XFA_THREADS", bad.c_str(), 1);
    refresh_env_for_testing();
    EXPECT_EQ(env().threads, defaults.threads) << bad;
  }
}

}  // namespace
}  // namespace xfa
