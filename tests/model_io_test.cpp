// Round-trip and corruption-sweep coverage for the XFAMDL1 model store:
// a loaded model must score bit-identically to the one it was saved from,
// and no on-disk bytes — truncated, bit-flipped, or hostile length fields
// behind a valid CRC — may crash, abort, or silently mis-score; every
// invalid artifact must end in quarantine + transparent retrain.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/crc64.h"
#include "common/env.h"
#include "common/serial.h"
#include "ml/c45.h"
#include "ml/model_io.h"
#include "ml/naive_bayes.h"
#include "ml/ripper.h"
#include "scenario/model_store.h"
#include "scenario/pipeline.h"

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

/// Wraps a payload in a *valid* XFAMDL1 header (correct size and CRC), so a
/// test exercises the inner validation rather than the checksum.
std::string with_valid_header(const std::string& payload) {
  std::string file = "XFAMDL1";
  put_pod(file, static_cast<std::uint64_t>(payload.size()));
  put_pod(file, crc64(payload.data(), payload.size()));
  file += payload;
  return file;
}

/// A small deterministic nominal dataset with learnable structure. The
/// informative feature is deliberately the HIGHEST column (2): every fitted
/// model must then reference column 2, so reloading with max_columns=1
/// exercises the out-of-range column check for all three classifiers.
Dataset sample_dataset() {
  Dataset data;
  data.cardinality = {3, 4, 3, 3};
  data.names = {"a", "b", "c", "label"};
  std::uint64_t state = 12345;
  for (int i = 0; i < 120; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const int a = static_cast<int>((state >> 33) % 3);
    const int b = static_cast<int>((state >> 13) % 4);
    const int c = static_cast<int>((state >> 23) % 3);
    const int label = (state >> 40) % 5 == 0 ? (c + 1) % 3 : c;
    data.rows.push_back({a, b, c, label});
  }
  return data;
}

/// Corruption-sweep offsets for a file of `size` bytes: every byte of the
/// head (the entire frame header plus the discretizer prefix lives there)
/// and of the tail, and a prime-strided sample of the body. A dense
/// every-byte sweep would be quadratic in the file size — each probe
/// rewrites and re-reads the whole ~0.5 MB artifact — for no extra
/// assurance, since the CRC covers all positions identically.
std::vector<std::size_t> sweep_offsets(std::size_t size) {
  constexpr std::size_t kDense = 512;
  constexpr std::size_t kStride = 4099;  // prime: never phase-locks framing
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < size && i < kDense; ++i) offsets.push_back(i);
  for (std::size_t i = kDense; i + kDense < size; i += kStride)
    offsets.push_back(i);
  for (std::size_t i = size > kDense ? size - kDense : kDense; i < size; ++i)
    offsets.push_back(i);
  return offsets;
}

/// A deterministic schema-wide trace that trains a full detector without a
/// simulation: varied, finite values in every standard feature column.
RawTrace sample_trace(std::uint64_t salt) {
  const FeatureSchema schema = FeatureSchema::standard();
  RawTrace trace;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL ^ salt;
  for (int i = 0; i < 80; ++i) {
    trace.times.push_back(5.0 * (i + 1));
    std::vector<double> row(schema.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      row[c] = static_cast<double>((state >> 30) % 1000) / 10.0;
    }
    trace.rows.push_back(std::move(row));
    trace.labels.push_back(0);
  }
  return trace;
}

std::vector<std::unique_ptr<Classifier>> all_classifiers() {
  std::vector<std::unique_ptr<Classifier>> out;
  out.push_back(std::make_unique<C45>());
  out.push_back(std::make_unique<Ripper>());
  out.push_back(std::make_unique<NaiveBayes>());
  return out;
}

// --- Classifier payload round-trips --------------------------------------

TEST(ModelIoTest, ClassifierRoundTripIsBitIdentical) {
  const Dataset data = sample_dataset();
  const std::vector<std::size_t> features = {0, 1, 2};
  for (const auto& original : all_classifiers()) {
    original->fit(DatasetView(data), features, 3);

    std::string payload;
    SerialWriter writer(payload);
    ASSERT_TRUE(save_classifier(*original, writer).ok()) << original->name();

    SerialReader reader(payload);
    Result<std::unique_ptr<Classifier>> loaded =
        load_classifier(reader, data.columns());
    ASSERT_TRUE(loaded.ok()) << original->name() << ": "
                             << loaded.status().to_string();
    EXPECT_EQ(reader.remaining(), 0u) << original->name();
    EXPECT_STREQ((*loaded)->name(), original->name());
    EXPECT_EQ((*loaded)->label_cardinality(), original->label_cardinality());

    // Separate scratches: NBC's spans alias the buffer they are handed.
    std::vector<double> want_scratch(original->label_cardinality());
    std::vector<double> got_scratch(original->label_cardinality());
    for (const std::vector<int>& row : data.rows) {
      const std::span<const double> want =
          original->predict_dist(row, want_scratch);
      const std::span<const double> got =
          (*loaded)->predict_dist(row, got_scratch);
      ASSERT_EQ(got.size(), want.size()) << original->name();
      for (std::size_t v = 0; v < want.size(); ++v)  // exact doubles
        ASSERT_EQ(got[v], want[v]) << original->name() << " class " << v;
    }
    EXPECT_EQ((*loaded)->describe(data.names), original->describe(data.names))
        << original->name();
  }
}

TEST(ModelIoTest, NaiveBayesStateBytesArePinned) {
  // NBC keeps its tables in a scoring-friendly in-memory layout and
  // transposes to the stored [class][value] order on save; this pins the
  // stored bytes of a fixed-seed fit so a layout change cannot alter
  // XFAMDL1 files.
  const Dataset data = sample_dataset();
  NaiveBayes nbc;
  nbc.fit(DatasetView(data), {0, 1, 2}, 3);
  std::string state;
  SerialWriter writer(state);
  ASSERT_TRUE(nbc.save_state(writer).ok());
  EXPECT_EQ(state.size(), 452u);
  EXPECT_EQ(crc64(state.data(), state.size()), 0xc810e3c7e2a1fb2fULL);

  NaiveBayes restored;
  SerialReader reader(state);
  ASSERT_TRUE(restored.load_state(reader, data.columns()).ok());
  std::string resaved;
  SerialWriter rewriter(resaved);
  ASSERT_TRUE(restored.save_state(rewriter).ok());
  EXPECT_EQ(resaved, state);
}

TEST(ModelIoTest, UnfittedClassifierRefusesToSave) {
  for (const auto& unfitted : all_classifiers()) {
    std::string payload;
    SerialWriter writer(payload);
    const Status status = save_classifier(*unfitted, writer);
    EXPECT_FALSE(status.ok()) << unfitted->name();
    EXPECT_TRUE(payload.empty()) << unfitted->name();
  }
}

TEST(ModelIoTest, UnknownClassifierNameIsCorrupt) {
  std::string payload;
  SerialWriter writer(payload);
  writer.str("FUTURE-MODEL");
  writer.str("");  // empty state blob
  SerialReader reader(payload);
  const Result<std::unique_ptr<Classifier>> loaded =
      load_classifier(reader, 4);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptArtifact);
}

/// Truncating the classifier payload at every byte must fail soft: the
/// bounds-checked reader reports kCorruptArtifact, never reads out of
/// bounds, and never aborts.
TEST(ModelIoTest, ClassifierPayloadTruncationSweepFailsSoft) {
  const Dataset data = sample_dataset();
  for (const auto& original : all_classifiers()) {
    original->fit(DatasetView(data), {0, 1, 2}, 3);
    std::string payload;
    SerialWriter writer(payload);
    ASSERT_TRUE(save_classifier(*original, writer).ok());
    for (std::size_t len = 0; len < payload.size(); ++len) {
      const std::string prefix = payload.substr(0, len);
      SerialReader reader(prefix);
      const Result<std::unique_ptr<Classifier>> loaded =
          load_classifier(reader, data.columns());
      // Either the blob framing or the classifier's own validation rejects.
      ASSERT_FALSE(loaded.ok()) << original->name() << " prefix " << len;
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptArtifact)
          << original->name() << " prefix " << len;
    }
  }
}

/// Stored column indices at or above max_columns must be rejected: a loaded
/// model is handed rows exactly max_columns wide and an unvalidated index
/// would read out of bounds on the first predict.
TEST(ModelIoTest, OutOfRangeColumnIndexIsCorrupt) {
  const Dataset data = sample_dataset();
  for (const auto& original : all_classifiers()) {
    original->fit(DatasetView(data), {0, 1, 2}, 3);
    std::string payload;
    SerialWriter writer(payload);
    ASSERT_TRUE(save_classifier(*original, writer).ok());
    // Reload claiming the rows are narrower than the fitted feature columns.
    SerialReader reader(payload);
    const Result<std::unique_ptr<Classifier>> loaded =
        load_classifier(reader, 1);
    ASSERT_FALSE(loaded.ok()) << original->name();
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptArtifact)
        << original->name();
  }
}

// --- Detector round-trips -------------------------------------------------

class ModelStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "xfa_model_store_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/detector.mdl";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  std::string path_;
};

void expect_scores_bit_identical(const Detector& a, const Detector& b,
                                 const RawTrace& trace, const char* what) {
  const std::vector<EventScore> want = a.score_trace(trace);
  const std::vector<EventScore> got = b.score_trace(trace);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].avg_match_count, want[i].avg_match_count)
        << what << " event " << i;
    EXPECT_EQ(got[i].avg_probability, want[i].avg_probability)
        << what << " event " << i;
  }
}

TEST_F(ModelStoreTest, DetectorRoundTripScoresBitIdentical) {
  const RawTrace train = sample_trace(1);
  const RawTrace eval = sample_trace(2);
  for (const NamedFactory& named : paper_classifiers()) {
    const Result<Detector> trained =
        train_detector_checked(train, named.factory);
    ASSERT_TRUE(trained.ok()) << named.name << ": "
                              << trained.status().to_string();

    const Result<std::string> payload = serialize_detector(*trained);
    ASSERT_TRUE(payload.ok()) << named.name;
    const Result<Detector> loaded = detector_from_payload(*payload);
    ASSERT_TRUE(loaded.ok()) << named.name << ": "
                             << loaded.status().to_string();

    EXPECT_EQ(loaded->threshold_match, trained->threshold_match) << named.name;
    EXPECT_EQ(loaded->threshold_probability, trained->threshold_probability)
        << named.name;
    EXPECT_EQ(loaded->model.skipped_columns(), trained->model.skipped_columns())
        << named.name;
    expect_scores_bit_identical(*trained, *loaded, eval, named.name.c_str());
  }
}

TEST_F(ModelStoreTest, SaveLoadFileRoundTrip) {
  const RawTrace train = sample_trace(1);
  const Detector trained =
      train_detector_checked(train, make_nbc_factory()).value();
  ASSERT_TRUE(save_detector(trained, path_).ok());

  const Result<Detector> loaded = load_detector(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  expect_scores_bit_identical(trained, *loaded, sample_trace(2), "file");
}

TEST_F(ModelStoreTest, MissingFileIsNotFound) {
  const Result<Detector> loaded = load_detector(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

/// Options for the corruption sweeps: one sampling period and fewer buckets
/// make the serialized artifact several times smaller, which is what bounds
/// the sweeps' runtime (every probe rewrites and re-reads the whole file).
DetectorOptions sweep_options() {
  DetectorOptions options;
  options.buckets = 3;
  options.periods = {5};
  return options;
}

TEST_F(ModelStoreTest, TruncationSweepQuarantinesEveryPrefix) {
  const Detector trained =
      train_detector_checked(sample_trace(1), make_nbc_factory(),
                             sweep_options())
          .value();
  ASSERT_TRUE(save_detector(trained, path_).ok());
  const std::string bytes = read_file(path_);
  ASSERT_GT(bytes.size(), 0u);

  for (const std::size_t len : sweep_offsets(bytes.size())) {
    write_file(path_, bytes.substr(0, len));
    const Result<Detector> loaded = load_detector(path_);
    ASSERT_FALSE(loaded.ok()) << "prefix length " << len;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptArtifact)
        << "prefix length " << len << ": " << loaded.status().to_string();
    EXPECT_FALSE(std::filesystem::exists(path_)) << "prefix length " << len;
    EXPECT_TRUE(std::filesystem::exists(path_ + ".corrupt"))
        << "prefix length " << len;
    std::filesystem::remove(path_ + ".corrupt");
  }
}

TEST_F(ModelStoreTest, BitFlipSweepQuarantinesEveryByte) {
  const Detector trained =
      train_detector_checked(sample_trace(1), make_nbc_factory(),
                             sweep_options())
          .value();
  ASSERT_TRUE(save_detector(trained, path_).ok());
  const std::string bytes = read_file(path_);

  for (const std::size_t pos : sweep_offsets(bytes.size())) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0xFF);
    write_file(path_, flipped);
    const Result<Detector> loaded = load_detector(path_);
    ASSERT_FALSE(loaded.ok()) << "flipped byte " << pos;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptArtifact)
        << "flipped byte " << pos << ": " << loaded.status().to_string();
    EXPECT_TRUE(std::filesystem::exists(path_ + ".corrupt"))
        << "flipped byte " << pos;
    std::filesystem::remove(path_ + ".corrupt");
  }
}

/// Hostile length fields behind a *valid* checksum: every count is validated
/// against the remaining payload before it drives an allocation.
TEST_F(ModelStoreTest, HostileLengthFieldsFailSoft) {
  constexpr std::uint64_t kHuge = 0xFFFFFFFFFFFFFFF0ULL;

  const auto expect_corrupt = [&](const std::string& payload,
                                  const char* what) {
    write_file(path_, with_valid_header(payload));
    const Result<Detector> loaded = load_detector(path_);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptArtifact)
        << what << ": " << loaded.status().to_string();
    std::filesystem::remove(path_ + ".corrupt");
  };

  {  // discretizer column count far beyond the payload
    std::string payload;
    put_pod(payload, std::int32_t{5});   // buckets
    put_pod(payload, double{0.25});      // min_relative_gap
    put_pod(payload, kHuge);             // column count
    expect_corrupt(payload, "hostile discretizer column count");
  }
  {  // a real detector whose discretizer column count is rewritten huge
     // (offset 12: i32 buckets + f64 gap precede it) with the CRC recomputed
    const Detector trained =
        train_detector_checked(sample_trace(1), make_nbc_factory()).value();
    const Result<std::string> payload = serialize_detector(trained);
    ASSERT_TRUE(payload.ok());
    std::string mutated = *payload;
    ASSERT_GT(mutated.size(), 20u);
    const std::uint64_t huge = kHuge;
    std::memcpy(mutated.data() + 12, &huge, sizeof huge);
    expect_corrupt(mutated, "rewritten discretizer column count");
  }
  {  // empty payload behind a valid header
    expect_corrupt(std::string(), "empty payload");
  }
}

// --- Feature-selection record (DESIGN.md §16) -----------------------------

FeatureSelectionConfig sweep_selection() {
  FeatureSelectionConfig selection;
  selection.ranker = FeatureRanker::MutualInformation;
  selection.top_k = 3;
  return selection;
}

/// A CFA payload prefix up to (but excluding) the selection record: a valid
/// schema, label and skipped column section, so every probe below exercises
/// the record's own validation.
std::string cfa_prefix_before_selection() {
  std::string payload;
  SerialWriter writer(payload);
  writer.size(6);            // schema width
  writer.sizes({0, 1, 2});   // label columns
  writer.sizes({3});         // skipped columns
  return payload;
}

/// Hostile selection records behind valid framing: every malformed field —
/// unknown version, out-of-range ranker bytes, non-finite config values,
/// hostile counts, out-of-range / duplicate ranked columns, non-monotone
/// scores, selected-out columns that were never skipped — must surface as
/// kCorruptArtifact from the bounds-checked reader, never an abort.
TEST(ModelIoTest, HostileSelectionRecordsFailSoft) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto expect_corrupt = [](const std::string& payload,
                                 const char* what) {
    CrossFeatureModel model;
    SerialReader reader(payload);
    const Status status = model.load_payload(reader);
    ASSERT_FALSE(status.ok()) << what;
    EXPECT_EQ(status.code(), StatusCode::kCorruptArtifact)
        << what << ": " << status.to_string();
    EXPECT_FALSE(model.trained()) << what;
  };

  struct Probe {
    const char* what;
    std::function<void(SerialWriter&)> record;
  };
  const auto valid_config = [](SerialWriter& w) {
    w.pod(std::uint32_t{1});  // record version
    w.pod(std::uint8_t{1});   // config ranker: mutual information
    w.size(3);                // top_k
    w.pod(double{0.0});       // min_score
    w.pod(double{0.25});      // holdout_fraction
    w.size(512);              // max_rank_rows
  };
  const std::vector<Probe> probes = {
      {"unknown record version",
       [](SerialWriter& w) { w.pod(std::uint32_t{2}); }},
      {"config ranker out of range",
       [](SerialWriter& w) {
         w.pod(std::uint32_t{1});
         w.pod(std::uint8_t{7});
       }},
      {"non-finite min_score",
       [&](SerialWriter& w) {
         w.pod(std::uint32_t{1});
         w.pod(std::uint8_t{1});
         w.size(3);
         w.pod(nan);
         w.pod(double{0.25});
         w.size(512);
       }},
      {"ranking ranker out of range",
       [&](SerialWriter& w) {
         valid_config(w);
         w.pod(std::uint8_t{9});
       }},
      {"ranked count beyond the width cap",
       [&](SerialWriter& w) {
         valid_config(w);
         w.pod(std::uint8_t{1});
         w.size((1 << 16) + 1);
       }},
      {"ranked column beyond the width cap",
       [&](SerialWriter& w) {
         valid_config(w);
         w.pod(std::uint8_t{1});
         w.size(1);
         w.size(1 << 16);  // at the kMaxSchemaWidth cap: rejected
         w.pod(double{0.5});
       }},
      {"duplicate ranked column",
       [&](SerialWriter& w) {
         valid_config(w);
         w.pod(std::uint8_t{1});
         w.size(2);
         w.size(0);
         w.pod(double{0.5});
         w.size(0);
         w.pod(double{0.4});
       }},
      {"ranking scores increase",
       [&](SerialWriter& w) {
         valid_config(w);
         w.pod(std::uint8_t{1});
         w.size(2);
         w.size(0);
         w.pod(double{0.1});
         w.size(1);
         w.pod(double{0.5});
       }},
      {"non-finite ranking score",
       [&](SerialWriter& w) {
         valid_config(w);
         w.pod(std::uint8_t{1});
         w.size(1);
         w.size(0);
         w.pod(nan);
       }},
      {"selected-out column never skipped",
       [&](SerialWriter& w) {
         valid_config(w);
         w.pod(std::uint8_t{1});
         w.size(0);
         w.sizes({2});  // a surviving label column, not a skipped one
       }},
      {"selected-out column out of range",
       [&](SerialWriter& w) {
         valid_config(w);
         w.pod(std::uint8_t{1});
         w.size(0);
         w.sizes({100});
       }},
  };
  for (const Probe& probe : probes) {
    std::string payload = cfa_prefix_before_selection();
    SerialWriter writer(payload);
    probe.record(writer);
    expect_corrupt(payload, probe.what);
  }
}

/// Truncating a genuine selection-bearing CFA payload at every byte must
/// fail soft — the record's reads are all bounds-checked.
TEST(ModelIoTest, SelectionPayloadTruncationSweepFailsSoft) {
  const Dataset data = sample_dataset();
  CrossFeatureModel original;
  FeatureSelectionConfig selection = sweep_selection();
  ASSERT_TRUE(
      original.train(data, {0, 1, 2, 3}, make_c45_factory(), selection, 1)
          .ok());

  std::string payload;
  SerialWriter writer(payload);
  ASSERT_TRUE(original.save_payload(writer).ok());

  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::string prefix = payload.substr(0, len);
    CrossFeatureModel model;
    SerialReader reader(prefix);
    const Status status = model.load_payload(reader);
    ASSERT_FALSE(status.ok()) << "prefix " << len;
    EXPECT_EQ(status.code(), StatusCode::kCorruptArtifact) << "prefix " << len;
  }
}

/// End-to-end through the model store: a detector trained with selection
/// saves, reloads, keeps its selection record and scores bit-identically.
TEST_F(ModelStoreTest, SelectedDetectorRoundTripScoresBitIdentical) {
  const RawTrace train = sample_trace(1);
  DetectorOptions options;
  options.selection = sweep_selection();
  options.selection.top_k = 16;
  const Result<Detector> trained =
      train_detector_checked(train, make_c45_factory(), options);
  ASSERT_TRUE(trained.ok()) << trained.status().to_string();
  ASSERT_GT(trained->model.selected_out_columns().size(), 0u);
  ASSERT_EQ(trained->model.submodel_count(), 16u);

  ASSERT_TRUE(save_detector(*trained, path_).ok());
  const Result<Detector> loaded = load_detector(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->model.selection().ranker, FeatureRanker::MutualInformation);
  EXPECT_EQ(loaded->model.selected_out_columns(),
            trained->model.selected_out_columns());
  EXPECT_EQ(loaded->model.ranking().ranked.size(),
            trained->model.ranking().ranked.size());
  expect_scores_bit_identical(*trained, *loaded, sample_trace(2), "selected");
}

TEST_F(ModelStoreTest, ForeignMagicIsQuarantined) {
  write_file(path_, with_valid_header("anything"));
  std::string bytes = read_file(path_);
  bytes[6] = '2';  // XFAMDL1 -> XFAMDL2: a future format this build predates
  write_file(path_, bytes);
  const Result<Detector> loaded = load_detector(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptArtifact);
  EXPECT_TRUE(std::filesystem::exists(path_ + ".corrupt"));
}

/// The caller-facing recovery contract: corrupt file -> quarantine ->
/// retrain -> re-save -> loads cleanly and scores exactly like the retrain.
TEST_F(ModelStoreTest, CorruptedModelRecoveredByRetrain) {
  const RawTrace train = sample_trace(1);
  const Detector first =
      train_detector_checked(train, make_c45_factory()).value();
  ASSERT_TRUE(save_detector(first, path_).ok());

  std::string bytes = read_file(path_);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  write_file(path_, bytes);

  const Result<Detector> corrupt = load_detector(path_);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kCorruptArtifact);
  EXPECT_TRUE(std::filesystem::exists(path_ + ".corrupt"));

  // Retrain (deterministic: same trace, same options) and republish.
  const Detector retrained =
      train_detector_checked(train, make_c45_factory()).value();
  ASSERT_TRUE(save_detector(retrained, path_).ok());
  const Result<Detector> healed = load_detector(path_);
  ASSERT_TRUE(healed.ok()) << healed.status().to_string();
  expect_scores_bit_identical(first, *healed, sample_trace(2), "healed");
}

}  // namespace
}  // namespace xfa
