// Crash-injection harness for the checkpoint store: a subprocess running
// `xfa_bench smoke --checkpoint=DIR` SIGKILLs itself after the Nth stored
// unit (XFA_CRASH_AFTER_UNITS), then a `--resume` run must load the stored
// units, skip them, and produce output byte-identical to an uninterrupted
// run — for several kill points and both ends of the thread spectrum. The
// store itself (torn and foreign unit files, fresh opens, overwrites,
// concurrent stores) is exercised directly by CheckpointStoreTest.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/atomic_file.h"
#include "common/status.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "features/schema.h"
#include "scenario/checkpoint.h"

namespace xfa {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// Environment shared by every subprocess: fast mode keeps the runtime
/// bounded and a disabled trace cache makes the checkpoint the *only* resume
/// mechanism under test.
constexpr char kEnv[] = "XFA_FAST=1 XFA_NO_CACHE=1 ";

int run_bench(const std::string& args, const std::string& extra_env = {}) {
  const std::string command =
      kEnv + extra_env + " " + XFA_BENCH_BINARY + " " + args + " 2>/dev/null";
  return std::system(command.c_str());
}

/// True when `dir` holds at least one checkpoint unit file.
bool holds_unit_file(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec))
    if (entry.path().extension() == ".ckpt") return true;
  return false;
}

bool died_by_sigkill(int status) {
  // The command runs under `sh -c`; depending on the shell the kill surfaces
  // as a real WIFSIGNALED status or as exit code 128+SIGKILL.
  if (WIFSIGNALED(status)) return WTERMSIG(status) == SIGKILL;
  return WIFEXITED(status) && WEXITSTATUS(status) == 128 + SIGKILL;
}

class CrashResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "xfa_crash_resume_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

/// One complete kill-at-unit-N / resume cycle; compares the resumed output
/// against `reference` byte for byte.
void kill_and_resume(const std::string& dir, const std::string& reference,
                     int threads, int kill_after) {
  // Named locals (not inline std::to_string temporaries) sidestep GCC 12's
  // spurious -Wrestrict on `"literal" + std::string&&` under -Werror.
  const std::string threads_str = std::to_string(threads);
  const std::string kill_str = std::to_string(kill_after);
  const std::string tag = "t" + threads_str + "_k" + kill_str;
  const std::string checkpoint = dir + "/cp_" + tag;
  const std::string partial_out = dir + "/partial_" + tag + ".txt";
  const std::string resumed_out = dir + "/resumed_" + tag + ".txt";

  const int crash_status = run_bench(
      "smoke --threads=" + threads_str + " --checkpoint=" + checkpoint +
          " --out=" + partial_out,
      "XFA_CRASH_AFTER_UNITS=" + kill_str);
  ASSERT_TRUE(died_by_sigkill(crash_status))
      << tag << ": expected SIGKILL, got raw status " << crash_status;
  ASSERT_TRUE(holds_unit_file(checkpoint)) << tag;

  const int resume_status = run_bench(
      "smoke --threads=" + threads_str + " --checkpoint=" + checkpoint +
          " --resume --out=" + resumed_out);
  ASSERT_EQ(resume_status, 0) << tag;
  EXPECT_EQ(read_file(resumed_out), reference) << tag << ": resumed output "
                                                  "differs from the "
                                                  "uninterrupted run";
}

TEST_F(CrashResumeTest, KillPointsResumeByteIdenticalAcrossThreadCounts) {
  // The uninterrupted reference, no checkpointing involved.
  const std::string ref_out = dir_ + "/ref.txt";
  ASSERT_EQ(run_bench("smoke --threads=8 --out=" + ref_out), 0);
  const std::string reference = read_file(ref_out);
  ASSERT_FALSE(reference.empty());

  // --threads must not change bytes either, with or without a checkpoint.
  const std::string ref1_out = dir_ + "/ref1.txt";
  ASSERT_EQ(run_bench("smoke --threads=1 --out=" + ref1_out), 0);
  ASSERT_EQ(read_file(ref1_out), reference);

  for (const int threads : {1, 8}) {
    for (const int kill_after : {2, 7, 13}) {
      kill_and_resume(dir_, reference, threads, kill_after);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_F(CrashResumeTest, ResumeAfterCleanRunRecomputesNothingAndMatches) {
  const std::string ref_out = dir_ + "/ref.txt";
  ASSERT_EQ(run_bench("smoke --threads=8 --out=" + ref_out), 0);
  const std::string reference = read_file(ref_out);

  const std::string checkpoint = dir_ + "/cp";
  const std::string first_out = dir_ + "/first.txt";
  ASSERT_EQ(run_bench("smoke --threads=8 --checkpoint=" + checkpoint +
                      " --out=" + first_out),
            0);
  EXPECT_EQ(read_file(first_out), reference);

  // A complete checkpoint means the resume loads every unit; the run is
  // pure unit-file reads plus printing.
  const std::string resumed_out = dir_ + "/resumed.txt";
  ASSERT_EQ(run_bench("smoke --threads=8 --checkpoint=" + checkpoint +
                      " --resume --out=" + resumed_out),
            0);
  EXPECT_EQ(read_file(resumed_out), reference);
}

TEST_F(CrashResumeTest, ResumeWithoutCheckpointFlagIsUsageError) {
  const int status =
      run_bench("smoke --resume --out=" + dir_ + "/never_written.txt");
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/never_written.txt"));
}

// --- The checkpoint store itself (library level, no subprocess) -----------

class CheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "xfa_checkpoint_store_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    install_checkpoint_store(nullptr);
    std::filesystem::remove_all(dir_);
  }

  static void write_bytes(const std::string& path, std::string_view bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
};

/// A deterministic schema-wide trace that trains a full detector without a
/// simulation.
RawTrace sample_trace(std::uint64_t salt) {
  const FeatureSchema schema = FeatureSchema::standard();
  RawTrace trace;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL ^ salt;
  for (int i = 0; i < 60; ++i) {
    trace.times.push_back(5.0 * (i + 1));
    std::vector<double> row(schema.size());
    for (double& value : row) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      value = static_cast<double>((state >> 30) % 1000) / 10.0;
    }
    trace.rows.push_back(std::move(row));
    trace.labels.push_back(0);
  }
  return trace;
}

// A unit file cut short at *every* byte offset (a torn copy; atomic rename
// never publishes one, but the store must not trust that) reads as a miss,
// is quarantined, and the unit is then stored again cleanly.
TEST_F(CheckpointStoreTest, TruncatedUnitFileIsQuarantinedAndStoredAgain) {
  CheckpointStore store;
  ASSERT_TRUE(store.open(dir_, /*resume=*/false).ok());
  ASSERT_TRUE(store.append("unit/a", "payload-a").ok());
  const std::string path = store.unit_path("unit/a");
  const std::string bytes = read_file(path);
  ASSERT_FALSE(bytes.empty());

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_bytes(path, std::string_view(bytes).substr(0, len));
    CheckpointStore resumed;
    ASSERT_TRUE(resumed.open(dir_, /*resume=*/true).ok()) << "len " << len;
    std::string payload;
    EXPECT_FALSE(resumed.lookup("unit/a", payload)) << "len " << len;
    EXPECT_EQ(read_file(path + ".corrupt").size(), len) << "len " << len;
    EXPECT_FALSE(std::filesystem::exists(path)) << "len " << len;

    ASSERT_TRUE(resumed.append("unit/a", "payload-a").ok()) << "len " << len;
    ASSERT_TRUE(resumed.lookup("unit/a", payload)) << "len " << len;
    EXPECT_EQ(payload, "payload-a") << "len " << len;
    EXPECT_EQ(read_file(path), bytes) << "len " << len;
  }
}

// Foreign bytes, another store's artifact and a bit-flipped unit all fail
// validation: each is quarantined, and the checkpointed helpers recompute
// the unit bit-identically and store it again.
TEST_F(CheckpointStoreTest,
       ForeignOrCorruptUnitFileIsQuarantinedAndRecomputed) {
  const RawTrace train = sample_trace(1);
  const RawTrace eval = sample_trace(2);
  const Result<Detector> reference =
      train_detector_checked(train, make_c45_factory());
  ASSERT_TRUE(reference.ok()) << reference.status().to_string();
  const std::vector<EventScore> want = reference->score_trace(eval);

  CheckpointStore store;
  ASSERT_TRUE(store.open(dir_, /*resume=*/false).ok());
  install_checkpoint_store(&store);
  Result<CheckpointedDetector> trained =
      train_detector_checkpointed(train, make_c45_factory());
  ASSERT_TRUE(trained.ok()) << trained.status().to_string();
  ASSERT_FALSE(trained->unit_key.empty());
  const std::string model_path = store.unit_path(trained->unit_key);
  const std::string model_bytes = read_file(model_path);
  ASSERT_FALSE(model_bytes.empty());

  std::string flipped = model_bytes;
  flipped[flipped.size() / 2] ^= 0x10;
  // The same payload framed as a trace-cache artifact: valid, not ours.
  const std::string other_path = dir_ + "/other.trc";
  ASSERT_TRUE(write_framed_file(other_path, "XFATRC3", model_bytes).ok());
  const std::string other_store = read_file(other_path);
  for (const std::string& bad :
       {std::string("definitely not a unit"), other_store, flipped}) {
    write_bytes(model_path, bad);
    Result<CheckpointedDetector> again =
        train_detector_checkpointed(train, make_c45_factory());
    ASSERT_TRUE(again.ok()) << again.status().to_string();
    EXPECT_EQ(again->unit_key, trained->unit_key);
    EXPECT_EQ(read_file(model_path + ".corrupt"), bad);
    EXPECT_EQ(read_file(model_path), model_bytes);
    const std::vector<EventScore> got =
        score_trace_checkpointed(again->detector, again->unit_key, eval);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].avg_match_count, want[i].avg_match_count) << i;
      EXPECT_EQ(got[i].avg_probability, want[i].avg_probability) << i;
    }
  }
}

TEST_F(CheckpointStoreTest, NoInstalledStoreComputesNoUnitKey) {
  ASSERT_EQ(checkpoint_store(), nullptr);
  const Result<CheckpointedDetector> trained =
      train_detector_checkpointed(sample_trace(1), make_c45_factory());
  ASSERT_TRUE(trained.ok()) << trained.status().to_string();
  EXPECT_TRUE(trained->unit_key.empty());
}

// A fresh --checkpoint hides every unit of an earlier run by deleting its
// unit files, and touches nothing else in the directory.
TEST_F(CheckpointStoreTest, FreshOpenHidesEarlierUnitsAndKeepsForeignFiles) {
  std::string old_path;
  {
    CheckpointStore store;
    ASSERT_TRUE(store.open(dir_, /*resume=*/false).ok());
    ASSERT_TRUE(store.append("unit/old", "stale").ok());
    ASSERT_TRUE(store.append("unit/older", "staler").ok());
    old_path = store.unit_path("unit/old");
  }
  const std::vector<std::string> foreign = {
      dir_ + "/notes.txt", dir_ + "/0123456789abcdef.trc",
      dir_ + "/0123456789abcdef.ckpt.corrupt", dir_ + "/xyz.ckpt",
      old_path + ".corrupt"};
  for (const std::string& path : foreign) write_bytes(path, "keep me");
  std::filesystem::create_directories(dir_ + "/0123456789abcdef.ckpt.d");

  CheckpointStore store;
  ASSERT_TRUE(store.open(dir_, /*resume=*/false).ok());
  std::string payload;
  EXPECT_FALSE(store.lookup("unit/old", payload));
  EXPECT_FALSE(store.lookup("unit/older", payload));
  EXPECT_FALSE(std::filesystem::exists(old_path));
  for (const std::string& path : foreign)
    EXPECT_EQ(read_file(path), "keep me") << path;
  EXPECT_TRUE(std::filesystem::is_directory(dir_ + "/0123456789abcdef.ckpt.d"));
}

TEST_F(CheckpointStoreTest, StoringAKeyAgainKeepsTheLastPayload) {
  {
    CheckpointStore store;
    ASSERT_TRUE(store.open(dir_, /*resume=*/false).ok());
    ASSERT_TRUE(store.append("unit/a", "first").ok());
    ASSERT_TRUE(store.append("unit/a", "second").ok());
  }
  CheckpointStore store;
  ASSERT_TRUE(store.open(dir_, /*resume=*/true).ok());
  std::string payload;
  ASSERT_TRUE(store.lookup("unit/a", payload));
  EXPECT_EQ(payload, "second");
}

// Pool workers store concurrently with no lock: unique temps plus atomic
// renames keep every unit intact (the TSan gate runs this suite).
TEST_F(CheckpointStoreTest, ConcurrentPoolStoresOfDistinctKeysAllReadBack) {
  constexpr int kUnits = 64;
  const auto payload_of = [](int i) {
    return std::string(static_cast<std::size_t>(100 + i), 'a' + i % 26);
  };
  CheckpointStore store;
  ASSERT_TRUE(store.open(dir_, /*resume=*/false).ok());
  ThreadPool pool(4);
  TaskGroup group(pool);
  for (int i = 0; i < kUnits; ++i) {
    group.submit([&store, &payload_of, i] {
      return store.append("unit/" + std::to_string(i), payload_of(i));
    });
  }
  ASSERT_TRUE(group.wait().ok());

  CheckpointStore resumed;
  ASSERT_TRUE(resumed.open(dir_, /*resume=*/true).ok());
  for (int i = 0; i < kUnits; ++i) {
    std::string payload;
    ASSERT_TRUE(resumed.lookup("unit/" + std::to_string(i), payload)) << i;
    EXPECT_EQ(payload, payload_of(i)) << i;
  }
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".ckpt") << entry.path();
    ++files;
  }
  EXPECT_EQ(files, static_cast<std::size_t>(kUnits));
}

}  // namespace
}  // namespace xfa
