// Sharded-sweep harness: drives the real xfa_bench binary as subprocesses
// (like crash_resume_test) to prove the --shard=K/N / --merge contract:
// every distinct trace unit lands in exactly one shard for several K/N
// splits, the merged output is byte-identical to the unsharded run at both
// ends of the thread spectrum, a merge over an incomplete cache fails
// loudly instead of silently re-simulating, two shard workers racing on
// the same cache directory leave exactly one artifact per unit and zero
// .tmp/.corrupt litter, and a signed --threads/--shard value is a usage
// error.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace xfa {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// Runs `xfa_bench <args>` with stdout captured to `out_path`, the trace
/// cache rooted at `cache_dir`, and fast mode keeping the runtime bounded.
/// XFA_NO_CACHE is force-cleared: the shard/merge contract under test IS
/// the cache, and the robustness gate in scripts/check.sh exports
/// XFA_NO_CACHE=1 around its ctest invocation. Returns the raw std::system
/// status.
int run_bench(const std::string& cache_dir, const std::string& args,
              const std::string& out_path) {
  const std::string command = "XFA_FAST=1 XFA_NO_CACHE=0 XFA_CACHE_DIR=" +
                              cache_dir + " " + XFA_BENCH_BINARY + " " +
                              args + " > " + out_path + " 2>/dev/null";
  return std::system(command.c_str());
}

bool exited_zero(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Cache-directory census: .trc artifacts versus everything else (temp
/// files, quarantined corpses — all of which must be gone once the workers
/// exit).
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

/// Parses run_shard's deterministic progress line
/// "shard K/N: X of T distinct trace unit(s)" out of a captured stdout.
bool parse_shard_counts(const std::string& out, std::size_t* owned,
                        std::size_t* total) {
  unsigned long long k = 0, n = 0, x = 0, t = 0;
  const char* line = out.c_str();
  for (;;) {
    if (std::sscanf(line, "shard %llu/%llu: %llu of %llu", &k, &n, &x, &t) ==
        4) {
      *owned = static_cast<std::size_t>(x);
      *total = static_cast<std::size_t>(t);
      return true;
    }
    const char* next = std::strchr(line, '\n');
    if (next == nullptr) return false;
    line = next + 1;
  }
}

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "xfa_shard_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string cache(const std::string& tag) {
    const std::string path = dir_ + "/cache_" + tag;
    std::filesystem::create_directories(path);
    return path;
  }

  std::string dir_;
};

TEST_F(ShardTest, EveryUnitLandsInExactlyOneShardAcrossSplits) {
  // More shards than the smoke plan's 10 units is a deliberate edge: some
  // shards must own zero and still exit cleanly.
  for (const std::size_t shards : {2u, 3u, 4u, 12u}) {
    std::string tag = "n";
    tag += std::to_string(shards);
    const std::string cache_dir = cache(tag);
    std::size_t owned_sum = 0;
    std::size_t total = 0;
    for (std::size_t k = 0; k < shards; ++k) {
      const std::string out = dir_ + "/" + tag + "_k" + std::to_string(k);
      const std::string split =
          std::to_string(k) + "/" + std::to_string(shards);
      ASSERT_TRUE(exited_zero(
          run_bench(cache_dir, "smoke --shard=" + split + " --threads=2",
                    out)))
          << split;
      std::size_t owned = 0, reported_total = 0;
      ASSERT_TRUE(parse_shard_counts(read_file(out), &owned, &reported_total))
          << split;
      owned_sum += owned;
      if (total == 0) total = reported_total;
      EXPECT_EQ(reported_total, total) << split;
    }
    // Exactly-once coverage: the per-shard owned counts sum to the unit
    // total, and the shared cache holds one artifact per unit (an overlap
    // would make owned_sum exceed the artifact count).
    EXPECT_GT(total, 0u) << tag;
    EXPECT_EQ(owned_sum, total) << tag;
    const CacheCensus after = census(cache_dir);
    EXPECT_EQ(after.artifacts, total) << tag;
    EXPECT_TRUE(after.litter.empty())
        << tag << ": stray " << after.litter.front();
  }
}

TEST_F(ShardTest, MergedOutputByteIdenticalToUnshardedAcrossThreadCounts) {
  const std::string ref_out = dir_ + "/ref";
  ASSERT_TRUE(
      exited_zero(run_bench(cache("ref"), "smoke --threads=2", ref_out)));
  const std::string reference = read_file(ref_out);
  ASSERT_FALSE(reference.empty());

  const std::string cache_dir = cache("sharded");
  for (const char* split : {"0/2", "1/2"}) {
    ASSERT_TRUE(exited_zero(
        run_bench(cache_dir, std::string("smoke --shard=") + split,
                  dir_ + "/shard")))
        << split;
  }
  for (const int threads : {1, 8}) {
    const std::string out = dir_ + "/merged_t" + std::to_string(threads);
    ASSERT_TRUE(exited_zero(run_bench(
        cache_dir, "smoke --merge --threads=" + std::to_string(threads),
        out)))
        << threads;
    EXPECT_EQ(read_file(out), reference) << "--threads=" << threads;
  }
}

TEST_F(ShardTest, MergeOverIncompleteCacheFailsLoudly) {
  const std::string cache_dir = cache("partial");
  ASSERT_TRUE(exited_zero(
      run_bench(cache_dir, "smoke --shard=0/2", dir_ + "/shard0")));
  // Shard 1/2 never ran: the merge must refuse to silently re-simulate the
  // missing units.
  const int status =
      run_bench(cache_dir, "smoke --merge", dir_ + "/merged");
  EXPECT_FALSE(exited_zero(status));
}

TEST_F(ShardTest, MalformedNumericFlagsAreUsageErrors) {
  // Numeric flags take digits only. A sign must not wrap into an unsigned
  // value (--threads=-1 as 2^64-1 workers, --shard=0/-1 as shard 0 of
  // 2^64-1): each is a usage error that runs nothing and writes no --out
  // file.
  const std::string cache_dir = cache("flags");
  for (const std::string flag : {"--threads=-1", "--threads=+2",
                                 "--shard=0/-1", "--shard=+0/2"}) {
    const std::string out_file = dir_ + "/out.txt";
    const int status = run_bench(
        cache_dir, "smoke " + flag + " --out=" + out_file, dir_ + "/stdout");
    ASSERT_TRUE(WIFEXITED(status)) << flag;
    EXPECT_EQ(WEXITSTATUS(status), 2) << flag;
    EXPECT_FALSE(std::filesystem::exists(out_file)) << flag;
  }
}

TEST_F(ShardTest, ConcurrentWorkersOneArtifactPerUnitNoLitter) {
  const std::string ref_out = dir_ + "/ref";
  ASSERT_TRUE(
      exited_zero(run_bench(cache("ref"), "smoke --threads=2", ref_out)));
  const std::string reference = read_file(ref_out);

  // Two full shard workers (--shard=0/1 owns every unit) race on one cache
  // directory: both simulate every unit and publish identical bytes through
  // unique temps and atomic renames — exactly one .trc per unit survives
  // and neither process may fail.
  const std::string cache_dir = cache("race");
  const std::string worker = "XFA_FAST=1 XFA_NO_CACHE=0 XFA_CACHE_DIR=" +
                             cache_dir + " " + XFA_BENCH_BINARY +
                             " smoke --shard=0/1";
  const std::string command =
      "( " + worker + " > " + dir_ + "/race_a 2>/dev/null; echo $? > " +
      dir_ + "/status_a ) & ( " + worker + " > " + dir_ +
      "/race_b 2>/dev/null; echo $? > " + dir_ + "/status_b ) & wait";
  ASSERT_EQ(std::system(command.c_str()), 0);
  EXPECT_EQ(read_file(dir_ + "/status_a"), "0\n");
  EXPECT_EQ(read_file(dir_ + "/status_b"), "0\n");

  std::size_t owned = 0, total = 0;
  ASSERT_TRUE(parse_shard_counts(read_file(dir_ + "/race_a"), &owned, &total));
  EXPECT_EQ(owned, total);
  const CacheCensus after = census(cache_dir);
  EXPECT_EQ(after.artifacts, total);
  EXPECT_TRUE(after.litter.empty()) << "stray " << after.litter.front();

  // The racy cache still merges to the reference bytes.
  const std::string merged = dir_ + "/merged";
  ASSERT_TRUE(exited_zero(run_bench(cache_dir, "smoke --merge", merged)));
  EXPECT_EQ(read_file(merged), reference);
}

}  // namespace
}  // namespace xfa
