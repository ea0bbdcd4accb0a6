// The xfa_bench command line, driven as a subprocess: smoke stdout is
// byte-identical at --threads 1 and 8, two processes racing on one trace
// cache both print the reference bytes and leave exactly one artifact per
// trace unit and no .tmp/.corrupt litter, and every malformed, over-limit
// or unknown flag is a usage error (exit 2) that runs nothing and writes no
// --out file.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exec/thread_pool.h"

namespace xfa {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// The shell command that runs `xfa_bench <args>` in fast mode with the
/// trace cache at `cache_dir`, or with no cache when `cache_dir` is empty.
/// XFA_NO_CACHE is always set explicitly, because the robustness gate in
/// scripts/check.sh exports XFA_NO_CACHE=1 around its ctest run.
std::string bench_command(const std::string& cache_dir,
                          const std::string& args) {
  const std::string cache = cache_dir.empty()
                                ? std::string("XFA_NO_CACHE=1")
                                : "XFA_NO_CACHE=0 XFA_CACHE_DIR=" + cache_dir;
  return "XFA_FAST=1 " + cache + " " + XFA_BENCH_BINARY + " " + args;
}

/// Runs one xfa_bench with stdout to `out_path` and stderr to `err_path`;
/// returns the raw std::system status.
int run_bench(const std::string& cache_dir, const std::string& args,
              const std::string& out_path, const std::string& err_path) {
  const std::string command = bench_command(cache_dir, args) + " > " +
                              out_path + " 2> " + err_path;
  return std::system(command.c_str());
}

bool exited_with(int status, int code) {
  return WIFEXITED(status) && WEXITSTATUS(status) == code;
}

/// Cache-directory census: .trc artifacts versus everything else (temp
/// files, quarantined copies), none of which may outlive a clean exit.
struct CacheCensus {
  std::size_t artifacts = 0;
  std::vector<std::string> litter;
};

CacheCensus census(const std::string& cache_dir) {
  CacheCensus result;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(cache_dir, ec)) {
    if (entry.path().extension() == ".trc")
      ++result.artifacts;
    else
      result.litter.push_back(entry.path().filename().string());
  }
  return result;
}

class BenchCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "xfa_bench_cli_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  /// Asserts that `xfa_bench smoke <flag> --out=FILE` exits 2, creates no
  /// FILE and no trace cache, and prints nothing on stdout.
  void expect_usage_error(const std::string& flag) {
    const std::string out_file = path("out.txt");
    const std::string cache_dir = path("cache");
    const int status =
        run_bench(cache_dir, "smoke " + flag + " --out=" + out_file,
                  path("stdout"), path("stderr"));
    EXPECT_TRUE(exited_with(status, 2))
        << flag << ": raw status " << status << ", stderr "
        << read_file(path("stderr"));
    EXPECT_FALSE(std::filesystem::exists(out_file)) << flag;
    EXPECT_FALSE(std::filesystem::exists(cache_dir)) << flag;
    EXPECT_EQ(read_file(path("stdout")), "") << flag;
  }

  std::string dir_;
};

TEST_F(BenchCliTest, SmokeStdoutIdenticalAtOneAndEightThreads) {
  ASSERT_TRUE(exited_with(
      run_bench("", "smoke --threads=1", path("t1"), path("t1.err")), 0))
      << read_file(path("t1.err"));
  ASSERT_TRUE(exited_with(
      run_bench("", "smoke --threads=8", path("t8"), path("t8.err")), 0))
      << read_file(path("t8.err"));
  const std::string reference = read_file(path("t1"));
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(read_file(path("t8")), reference);
}

TEST_F(BenchCliTest, ConcurrentRunsOnOneCacheMatchAndLeaveNoLitter) {
  // The reference run's own cache holds one artifact per trace unit.
  const std::string ref_cache = path("ref_cache");
  ASSERT_TRUE(exited_with(run_bench(ref_cache, "smoke --threads=2",
                                    path("ref"), path("ref.err")),
                          0))
      << read_file(path("ref.err"));
  const std::string reference = read_file(path("ref"));
  ASSERT_FALSE(reference.empty());
  const std::size_t units = census(ref_cache).artifacts;
  ASSERT_GT(units, 0u);

  // Two processes simulate every unit into one empty cache at once. Each
  // publishes identical bytes through a unique temp and an atomic rename,
  // so one artifact per unit survives and neither process fails.
  const std::string race_cache = path("race_cache");
  const std::string worker = bench_command(race_cache, "smoke --threads=2");
  const std::string command =
      "( " + worker + " > " + path("a") + " 2> " + path("a.err") +
      "; echo $? > " + path("a.status") + " ) & ( " + worker + " > " +
      path("b") + " 2> " + path("b.err") + "; echo $? > " +
      path("b.status") + " ) & wait";
  ASSERT_EQ(std::system(command.c_str()), 0);
  EXPECT_EQ(read_file(path("a.status")), "0\n") << read_file(path("a.err"));
  EXPECT_EQ(read_file(path("b.status")), "0\n") << read_file(path("b.err"));
  EXPECT_EQ(read_file(path("a")), reference);
  EXPECT_EQ(read_file(path("b")), reference);

  const CacheCensus after = census(race_cache);
  EXPECT_EQ(after.artifacts, units);
  EXPECT_TRUE(after.litter.empty()) << "stray " << after.litter.front();
}

TEST_F(BenchCliTest, MalformedOrOverLimitValuesAreUsageErrors) {
  // Numeric flags take digits only, so a sign must not wrap into an
  // unsigned value (-1 as 2^64-1 workers). A count above kMaxThreads is
  // refused before any pool is built, and an empty --out path would
  // otherwise write the report to stdout.
  const std::vector<std::string> flags = {
      "--threads=-1", "--threads=+2", "--threads=0",
      "--threads=" + std::to_string(kMaxThreads + 1), "--out="};
  for (const std::string& flag : flags) expect_usage_error(flag);
}

TEST_F(BenchCliTest, RetiredRunModeFlagsAreUnknown) {
  // The flags of the removed sharded-sweep and checkpoint/resume modes: a
  // stale script that passes one must fail loudly, not run a full sweep.
  for (const char* retired :
       {"shard=0/2", "merge", "checkpoint=ckpt", "resume"}) {
    const std::string flag = std::string("--") + retired;
    expect_usage_error(flag);
    EXPECT_NE(read_file(path("stderr")).find("unknown flag: " + flag),
              std::string::npos)
        << read_file(path("stderr"));
  }
}

}  // namespace
}  // namespace xfa
