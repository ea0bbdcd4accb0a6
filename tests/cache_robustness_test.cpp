// Corruption-sweep coverage for the self-healing trace cache (XFATRC3):
// no on-disk bytes — truncated, bit-flipped, or hostile — may crash or abort
// the process; every invalid artifact must end in quarantine + regeneration.
// Also the runner's cache-only mode, which loads but never simulates.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/atomic_file.h"
#include "common/crc64.h"
#include "common/env.h"
#include "scenario/cache.h"
#include "scenario/runner.h"
#include "scenario/trace_serial.h"

namespace xfa {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void put_pod(std::string& buffer, const T& value) {
  buffer.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Wraps a payload in a *valid* XFATRC3 header (correct size and CRC), so a
/// test exercises the inner length-field validation rather than the checksum.
std::string with_valid_header(const std::string& payload) {
  std::string file = "XFATRC3";
  put_pod(file, static_cast<std::uint64_t>(payload.size()));
  put_pod(file, crc64(payload.data(), payload.size()));
  file += payload;
  return file;
}

ScenarioResult sample_result() {
  ScenarioResult result;
  result.trace.times = {5, 10, 15};
  result.trace.rows = {{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}};
  result.summary.data_originated = 100;
  result.summary.data_delivered = 90;
  result.summary.packet_delivery_ratio = 0.9;
  result.summary.scheduler_events = 12345;
  result.summary.channel.fault_corrupted = 7;
  result.summary.monitor_audit_packets = 55;
  return result;
}

class CacheRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "xfa_cache_robustness_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    unsetenv("XFA_NO_CACHE");
    refresh_env_for_testing();
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    unsetenv("XFA_CACHE_DIR");
    unsetenv("XFA_NO_CACHE");
    refresh_env_for_testing();
  }

  std::string dir_;
};

TEST_F(CacheRobustnessTest, RoundTripPreservesEverything) {
  const TraceCache cache(dir_);
  const ScenarioResult stored = sample_result();
  ASSERT_TRUE(cache.store("key", stored).ok());

  const Result<ScenarioResult> loaded = cache.load("key");
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->trace.times, stored.trace.times);
  EXPECT_EQ(loaded->trace.rows, stored.trace.rows);
  EXPECT_EQ(loaded->summary.data_originated, 100u);
  EXPECT_EQ(loaded->summary.data_delivered, 90u);
  EXPECT_DOUBLE_EQ(loaded->summary.packet_delivery_ratio, 0.9);
  EXPECT_EQ(loaded->summary.scheduler_events, 12345u);
  EXPECT_EQ(loaded->summary.channel.fault_corrupted, 7u);
  EXPECT_EQ(loaded->summary.monitor_audit_packets, 55u);
}

TEST_F(CacheRobustnessTest, MissIsNotFoundAndQuarantinesNothing) {
  const TraceCache cache(dir_);
  const Result<ScenarioResult> missing = cache.load("never stored");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(CacheRobustnessTest, DisabledCacheLoadsAndStoresNothing) {
  setenv("XFA_NO_CACHE", "1", 1);
  refresh_env_for_testing();
  const TraceCache cache(dir_);
  EXPECT_FALSE(cache.enabled());
  EXPECT_TRUE(cache.store("key", sample_result()).ok());  // silently skipped
  const Result<ScenarioResult> loaded = cache.load("key");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// Truncation at *every* byte offset — which includes every section boundary
// (mid-magic, mid-size, mid-CRC, mid-key, mid-times, mid-rows, mid-summary) —
// must fail soft as kCorruptArtifact, quarantine the file, and leave the
// cache ready to accept a regenerated artifact.
TEST_F(CacheRobustnessTest, TruncationSweepQuarantinesEveryPrefix) {
  const TraceCache cache(dir_);
  const ScenarioResult stored = sample_result();
  ASSERT_TRUE(cache.store("key", stored).ok());
  const std::string path = cache.artifact_path("key");
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 0u);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_file(path, bytes.substr(0, len));
    const Result<ScenarioResult> loaded = cache.load("key");
    ASSERT_FALSE(loaded.ok()) << "prefix length " << len;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptArtifact)
        << "prefix length " << len << ": " << loaded.status().to_string();
    EXPECT_FALSE(std::filesystem::exists(path)) << "prefix length " << len;
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"))
        << "prefix length " << len;
    std::filesystem::remove(path + ".corrupt");
  }

  // The store self-heals: regenerating publishes a fully valid artifact.
  ASSERT_TRUE(cache.store("key", stored).ok());
  const Result<ScenarioResult> healed = cache.load("key");
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->trace.rows, stored.trace.rows);
}

// Single-byte corruption anywhere in the file — header or payload — must be
// caught (magic, size, or CRC64 check) and quarantined, never parsed.
TEST_F(CacheRobustnessTest, BitFlipSweepQuarantinesEveryByte) {
  const TraceCache cache(dir_);
  ASSERT_TRUE(cache.store("key", sample_result()).ok());
  const std::string path = cache.artifact_path("key");
  const std::string bytes = read_file(path);

  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0xFF);
    write_file(path, flipped);
    const Result<ScenarioResult> loaded = cache.load("key");
    ASSERT_FALSE(loaded.ok()) << "flipped byte " << pos;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptArtifact)
        << "flipped byte " << pos << ": " << loaded.status().to_string();
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"))
        << "flipped byte " << pos;
    std::filesystem::remove(path + ".corrupt");
  }
}

// Hostile length fields behind a *valid* checksum: a corrupt key_size, times
// count, or rows×columns product must be rejected by bounds validation
// before it can drive an allocation or out-of-bounds read.
TEST_F(CacheRobustnessTest, HostileLengthFieldsFailSoft) {
  const TraceCache cache(dir_);
  const std::string path = cache.artifact_path("k");
  constexpr std::uint64_t kHuge = 0xFFFFFFFFFFFFFFF0ULL;

  const auto expect_corrupt = [&](const std::string& payload,
                                  const char* what) {
    write_file(path, with_valid_header(payload));
    const Result<ScenarioResult> loaded = cache.load("k");
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptArtifact) << what;
    std::filesystem::remove(path + ".corrupt");
  };

  {  // key_size far beyond the payload
    std::string payload;
    put_pod(payload, kHuge);
    expect_corrupt(payload, "hostile key_size");
  }
  {  // times count far beyond the payload
    std::string payload;
    put_pod(payload, std::uint64_t{1});
    payload += 'k';
    put_pod(payload, kHuge);
    expect_corrupt(payload, "hostile times count");
  }
  {  // rows count far beyond the payload (columns = 1)
    std::string payload;
    put_pod(payload, std::uint64_t{1});
    payload += 'k';
    put_pod(payload, std::uint64_t{0});  // no times
    put_pod(payload, kHuge);             // rows
    put_pod(payload, std::uint64_t{1});  // columns
    expect_corrupt(payload, "hostile rows count");
  }
  {  // columns count whose rows*columns*8 product overflows any bound
    std::string payload;
    put_pod(payload, std::uint64_t{1});
    payload += 'k';
    put_pod(payload, std::uint64_t{0});  // no times
    put_pod(payload, std::uint64_t{1});  // rows
    put_pod(payload, kHuge);             // columns
    expect_corrupt(payload, "hostile columns count");
  }
  {  // zero-columns artifact claiming more empty rows than the payload size
    std::string payload;
    put_pod(payload, std::uint64_t{1});
    payload += 'k';
    put_pod(payload, std::uint64_t{0});  // no times
    put_pod(payload, kHuge);             // rows
    put_pod(payload, std::uint64_t{0});  // columns
    expect_corrupt(payload, "hostile empty-row count");
  }
}

TEST_F(CacheRobustnessTest, TrailingBytesAreCorruption) {
  const TraceCache cache(dir_);
  ASSERT_TRUE(cache.store("key", sample_result()).ok());
  const std::string path = cache.artifact_path("key");
  const std::string bytes = read_file(path);
  constexpr std::size_t kHeaderSize = 7 + 2 * sizeof(std::uint64_t);
  ASSERT_GT(bytes.size(), kHeaderSize);

  // Re-wrap the original payload plus two stray bytes with a *valid* header,
  // so only the trailing-bytes check can reject it.
  write_file(path, with_valid_header(bytes.substr(kHeaderSize) + "xx"));
  const Result<ScenarioResult> loaded = cache.load("key");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptArtifact);
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
}

TEST_F(CacheRobustnessTest, HashCollisionArtifactIsLeftIntact) {
  const TraceCache cache(dir_);
  ASSERT_TRUE(cache.store("key a", sample_result()).ok());
  // Simulate an fnv1a filename collision: a healthy artifact for "key a"
  // sitting where "key b" would live. It belongs to someone else — report a
  // miss and leave the file alone.
  const std::string path_b = cache.artifact_path("key b");
  std::filesystem::copy_file(cache.artifact_path("key a"), path_b);

  const Result<ScenarioResult> loaded = cache.load("key b");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(std::filesystem::exists(path_b));
  EXPECT_FALSE(std::filesystem::exists(path_b + ".corrupt"));
}

TEST_F(CacheRobustnessTest, StoreIntoUnwritableDirectoryFailsSoft) {
  // The cache "directory" is an existing regular file, so create_directories
  // cannot succeed; store must report kIoError and publish nothing.
  const std::string blocker = dir_ + "/not_a_directory";
  write_file(blocker, "occupied");
  const TraceCache cache(blocker);
  const Status status = cache.store("key", sample_result());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST_F(CacheRobustnessTest, StoreRefusesRaggedRows) {
  const TraceCache cache(dir_);
  ScenarioResult ragged = sample_result();
  ragged.trace.rows.back().pop_back();
  const Status status = cache.store("key", ragged);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(cache.artifact_path("key")));
}

// End-to-end self-healing: corrupting the published artifact of a real run
// must be transparent — the next run quarantines it and regenerates the
// byte-identical trace (determinism makes the comparison exact).
TEST_F(CacheRobustnessTest, PipelineRegeneratesCorruptedArtifact) {
  setenv("XFA_CACHE_DIR", dir_.c_str(), 1);
  refresh_env_for_testing();
  ScenarioConfig config;
  config.node_count = 15;
  config.duration = 150;
  config.seed = 42;
  config.traffic.max_connections = 8;

  const Result<ScenarioResult> first = run_scenario_checked(config);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  const TraceCache cache;
  const std::string path = cache.artifact_path(config.cache_key());
  ASSERT_TRUE(std::filesystem::exists(path));

  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  write_file(path, bytes);

  const Result<ScenarioResult> second = run_scenario_checked(config);
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_EQ(second->trace.rows, first->trace.rows);
  EXPECT_EQ(second->trace.times, first->trace.times);
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  // The regenerated artifact is valid again.
  const Result<ScenarioResult> reloaded = cache.load(config.cache_key());
  EXPECT_TRUE(reloaded.ok()) << reloaded.status().to_string();
}

// Cache-only mode (set_require_cached_traces): a miss is kNotFound naming
// the key and writes nothing; a hit returns exactly the stored trace.
TEST_F(CacheRobustnessTest, CacheOnlyModeLoadsButNeverSimulates) {
  setenv("XFA_CACHE_DIR", dir_.c_str(), 1);
  refresh_env_for_testing();
  ScenarioConfig config;
  config.node_count = 15;
  config.duration = 150;
  config.seed = 43;
  config.traffic.max_connections = 8;
  const std::string key = config.cache_key();

  struct CacheOnly {
    CacheOnly() { set_require_cached_traces(true); }
    ~CacheOnly() { set_require_cached_traces(false); }
  };
  {
    const CacheOnly cache_only;
    const Result<ScenarioResult> missing = run_scenario_checked(config);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
    EXPECT_NE(missing.status().message().find(key), std::string::npos)
        << missing.status().to_string();
    EXPECT_TRUE(std::filesystem::is_empty(dir_));
  }

  const Result<ScenarioResult> simulated = run_scenario_checked(config);
  ASSERT_TRUE(simulated.ok()) << simulated.status().to_string();
  std::string want;
  ASSERT_TRUE(append_scenario_payload(want, *simulated).ok());

  const CacheOnly cache_only;
  const Result<ScenarioResult> cached = run_scenario_checked(config);
  ASSERT_TRUE(cached.ok()) << cached.status().to_string();
  std::string got;
  ASSERT_TRUE(append_scenario_payload(got, *cached).ok());
  EXPECT_EQ(got, want);
  EXPECT_EQ(cached->trace.labels, simulated->trace.labels);
}

// --- Stale-temp sweep (pid-aware) -----------------------------------------
//
// Regression coverage for the sweep race: the old age-based sweep could
// delete the temp file of a *live* writer that was merely slow (overloaded
// host, cold disk), making its rename publish nothing. The sweep is now
// keyed on the writer pid embedded in the temp name; age applies only to
// names that do not parse.

/// A pid that cannot belong to a live process: far beyond every Linux
/// pid_max default (kernel cap is 2^22), so kill(pid, 0) reports ESRCH.
constexpr unsigned long long kDeadPid = 4000000ULL + (1ULL << 22);

TEST_F(CacheRobustnessTest, SweepRemovesDeadWritersTempImmediately) {
  const std::string stale =
      dir_ + "/artifact.bin." + std::to_string(kDeadPid) + ".7.tmp";
  write_file(stale, "half-written payload");
  sweep_stale_temps(dir_);
  EXPECT_FALSE(std::filesystem::exists(stale));
}

TEST_F(CacheRobustnessTest, SweepSparesLiveWritersFreshTemp) {
  const std::string live = dir_ + "/artifact.bin." +
                           std::to_string(::getpid()) + ".0.tmp";
  write_file(live, "a slow but live writer's bytes");
  sweep_stale_temps(dir_);
  EXPECT_TRUE(std::filesystem::exists(live));
}

TEST_F(CacheRobustnessTest, SweepSparesYoungUnparseableTempNames) {
  // Pre-unique-scheme litter: no embedded pid, so only the 24 h age bound
  // may remove it — a freshly written one must survive.
  const std::string legacy = dir_ + "/artifact.bin.tmp";
  write_file(legacy, "legacy temp");
  sweep_stale_temps(dir_);
  EXPECT_TRUE(std::filesystem::exists(legacy));
}

TEST_F(CacheRobustnessTest, StoreSweepsDeadTempButSparesLiveOne) {
  // The integration path: TraceCache::store runs the sweep as a side effect.
  const std::string stale =
      dir_ + "/other.bin." + std::to_string(kDeadPid) + ".3.tmp";
  const std::string live =
      dir_ + "/other.bin." + std::to_string(::getpid()) + ".3.tmp";
  write_file(stale, "crashed writer");
  write_file(live, "concurrent writer");

  const TraceCache cache(dir_);
  ASSERT_TRUE(cache.store("key", sample_result()).ok());
  EXPECT_FALSE(std::filesystem::exists(stale));
  EXPECT_TRUE(std::filesystem::exists(live));
  // And the store itself published (the sweep never eats the active temp).
  EXPECT_TRUE(cache.load("key").ok());
}

}  // namespace
}  // namespace xfa
