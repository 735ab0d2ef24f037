// Tests for crash-safe training (ISSUE 6): the GCK1 checkpoint container,
// the corruption matrix (truncation, per-section bit flips, bad
// magic/version, fingerprint mismatch, generation fallback), the
// CheckpointManager cadence/pruning behavior, and the kill-point
// crash-resume harness asserting bit-identical resumed training for
// GARCIA (both phases, full-graph and sampled) and the baselines, on and
// off epoch boundaries, plus models::TrainLoop's per-generation snapshot
// contract and its refusal of checkpoint positions a Fit cannot reach, and
// a Fit on a heap that earlier work left dirty (TrainLoop retains freed
// memory between steps).

#include "train/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/crc32.h"
#include "core/heap_retention.h"
#include "core/matrix.h"
#include "core/rng.h"
#include "core/sectioned_file.h"
#include "data/scenario.h"
#include "models/common.h"
#include "models/garcia_model.h"
#include "models/lightgcn.h"
#include "models/sgl.h"
#include "models/wide_deep.h"

namespace garcia::train {
namespace {

namespace fs = std::filesystem;
using core::Matrix;

std::string TempDir(const std::string& name) {
  const std::string dir = "/tmp/garcia_ckpt_" + name;
  fs::remove_all(dir);
  return dir;
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

bool SameMatrix(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// A small but fully populated checkpoint exercising every section.
TrainCheckpoint MakeCheckpoint(uint64_t seed) {
  core::Rng rng(seed);
  TrainCheckpoint ck;
  ck.config_fingerprint = 0xfeedfacecafef00dULL ^ seed;
  ck.phase = 1;
  ck.epoch = 3;
  ck.step_in_epoch = 7;
  ck.global_step = 42;
  ck.diagnostics = {0.5f, 1.25f, -2.0f};
  ck.params = {Matrix::Randn(4, 3, &rng), Matrix::Randn(2, 5, &rng)};
  ck.adam_t = 42;
  ck.adam_m = {Matrix::Randn(4, 3, &rng), Matrix::Randn(2, 5, &rng)};
  ck.adam_v = {Matrix::Randn(4, 3, &rng), Matrix::Randn(2, 5, &rng)};
  core::Rng s0(seed + 1), s1(seed + 2);
  s0.NextU64();
  s1.Normal();  // leaves a cached Box-Muller value in the state
  ck.rng_streams = {s0.ExportState(), s1.ExportState()};
  ck.has_iterator = true;
  ck.iterator_cursor = 5;
  ck.iterator_order = {4, 1, 0, 3, 2, 6, 5};
  return ck;
}

/// The six GCK1 payloads as views into `bytes`, through the core
/// container reader (the offsets the corruption tests aim at).
core::Result<std::vector<std::string_view>> Sections(const std::string& bytes) {
  std::vector<const char*> names;
  for (uint32_t id = 1; id <= 6; ++id) {
    names.push_back(CheckpointSectionName(static_cast<CheckpointSectionId>(id)));
  }
  return core::SectionedFile{"GCK1", 1, names}.Decode(bytes, "test");
}

size_t OffsetOf(const std::string& bytes, std::string_view payload) {
  return static_cast<size_t>(payload.data() - bytes.data());
}

void ExpectEqualCheckpoints(const TrainCheckpoint& a, const TrainCheckpoint& b) {
  EXPECT_EQ(a.config_fingerprint, b.config_fingerprint);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.step_in_epoch, b.step_in_epoch);
  EXPECT_EQ(a.global_step, b.global_step);
  EXPECT_EQ(a.diagnostics, b.diagnostics);
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t i = 0; i < a.params.size(); ++i) {
    EXPECT_TRUE(SameMatrix(a.params[i], b.params[i]));
    EXPECT_TRUE(SameMatrix(a.adam_m[i], b.adam_m[i]));
    EXPECT_TRUE(SameMatrix(a.adam_v[i], b.adam_v[i]));
  }
  EXPECT_EQ(a.adam_t, b.adam_t);
  ASSERT_EQ(a.rng_streams.size(), b.rng_streams.size());
  for (size_t i = 0; i < a.rng_streams.size(); ++i) {
    EXPECT_EQ(a.rng_streams[i].words, b.rng_streams[i].words);
    EXPECT_EQ(a.rng_streams[i].has_cached_normal,
              b.rng_streams[i].has_cached_normal);
    EXPECT_EQ(a.rng_streams[i].cached_normal, b.rng_streams[i].cached_normal);
  }
  EXPECT_EQ(a.has_iterator, b.has_iterator);
  EXPECT_EQ(a.iterator_cursor, b.iterator_cursor);
  EXPECT_EQ(a.iterator_order, b.iterator_order);
}

// ----------------------------------------------------------- container

TEST(CheckpointContainerTest, EncodeDecodeRoundTrip) {
  TrainCheckpoint ck = MakeCheckpoint(11);
  auto decoded = DecodeCheckpoint(EncodeCheckpoint(ck), "test");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectEqualCheckpoints(ck, *decoded);
}

TEST(CheckpointContainerTest, EncodingIsDeterministic) {
  EXPECT_EQ(EncodeCheckpoint(MakeCheckpoint(5)),
            EncodeCheckpoint(MakeCheckpoint(5)));
}

TEST(CheckpointContainerTest, ListsAllSixSectionsInOrder) {
  const std::string bytes = EncodeCheckpoint(MakeCheckpoint(1));
  auto sections = Sections(bytes);
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  ASSERT_EQ((*sections).size(), 6u);
  // 12-byte file header, then per section a 16-byte header (u32 id first)
  // and the payload, back to back.
  size_t offset = 12;
  for (uint32_t i = 0; i < 6; ++i) {
    offset += 16;
    ASSERT_EQ(OffsetOf(bytes, (*sections)[i]), offset);
    uint32_t id = 0;
    std::memcpy(&id, bytes.data() + offset - 16, sizeof(id));
    EXPECT_EQ(id, i + 1);
    offset += (*sections)[i].size();
  }
  EXPECT_EQ(offset, bytes.size());
}

// Byte-for-byte pin of the GCK1 encoding: the CRC-32 and size of fixed
// checkpoints, recorded when the container moved to core/sectioned_file.
// A change here breaks every checkpoint already on disk.
TEST(CheckpointContainerTest, GoldenBytesPinned) {
  const struct {
    uint64_t seed;
    size_t size;
    uint32_t crc;
  } cases[] = {{1, 667, 0x6aaa5ec8u}, {4, 667, 0x5dd707f0u}};
  for (const auto& c : cases) {
    const std::string bytes = EncodeCheckpoint(MakeCheckpoint(c.seed));
    EXPECT_EQ(bytes.size(), c.size) << "seed " << c.seed;
    EXPECT_EQ(core::Crc32(bytes.data(), bytes.size()), c.crc)
        << "seed " << c.seed;
  }
}

// GCK1 is strict: the six sections in id order, nothing else. Swapping two
// whole sections (headers and payloads) is caught by the id check.
TEST(CheckpointContainerTest, SectionsOutOfOrderRejected) {
  const std::string bytes = EncodeCheckpoint(MakeCheckpoint(2));
  auto sections = Sections(bytes);
  ASSERT_TRUE(sections.ok());
  const size_t config_at = OffsetOf(bytes, (*sections)[0]) - 16;
  const size_t progress_at = OffsetOf(bytes, (*sections)[1]) - 16;
  const size_t params_at = OffsetOf(bytes, (*sections)[2]) - 16;
  const std::string swapped =
      bytes.substr(0, config_at) +
      bytes.substr(progress_at, params_at - progress_at) +
      bytes.substr(config_at, progress_at - config_at) +
      bytes.substr(params_at);
  ASSERT_EQ(swapped.size(), bytes.size());
  auto decoded = DecodeCheckpoint(swapped, "test");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("config section has id 2"),
            std::string::npos)
      << decoded.status().ToString();
}

TEST(CheckpointContainerTest, BadMagicRejected) {
  std::string bytes = EncodeCheckpoint(MakeCheckpoint(2));
  bytes[0] = 'X';
  auto decoded = DecodeCheckpoint(bytes, "test");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("not a GCK1"), std::string::npos);
}

TEST(CheckpointContainerTest, UnsupportedVersionRejected) {
  std::string bytes = EncodeCheckpoint(MakeCheckpoint(2));
  bytes[4] = 99;  // version field follows the 4-byte magic
  auto decoded = DecodeCheckpoint(bytes, "test");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
}

TEST(CheckpointContainerTest, EveryTruncationPointRejected) {
  const std::string bytes = EncodeCheckpoint(MakeCheckpoint(3));
  // Cut inside the header, each section header, and each payload.
  for (size_t cut : {size_t{2}, size_t{9}, size_t{14}, size_t{30},
                     bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    auto decoded = DecodeCheckpoint(bytes.substr(0, cut), "test");
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut << " was accepted";
  }
}

TEST(CheckpointContainerTest, BitFlipInEverySectionIsDetectedAndNamed) {
  const std::string bytes = EncodeCheckpoint(MakeCheckpoint(4));
  auto sections = Sections(bytes);
  ASSERT_TRUE(sections.ok());
  for (uint32_t i = 0; i < (*sections).size(); ++i) {
    const std::string_view payload = (*sections)[i];
    std::string corrupt = bytes;
    corrupt[OffsetOf(bytes, payload) + payload.size() / 2] ^= 0x01;
    auto decoded = DecodeCheckpoint(corrupt, "test");
    ASSERT_FALSE(decoded.ok())
        << "flip in section " << i + 1 << " was accepted";
    const char* name =
        CheckpointSectionName(static_cast<CheckpointSectionId>(i + 1));
    EXPECT_NE(decoded.status().message().find(name), std::string::npos)
        << "error does not name section " << name << ": "
        << decoded.status().ToString();
    EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(CheckpointContainerTest, MomentCountMismatchRejected) {
  TrainCheckpoint ck = MakeCheckpoint(6);
  ck.adam_m.pop_back();
  ck.adam_v.pop_back();
  auto decoded = DecodeCheckpoint(EncodeCheckpoint(ck), "test");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("optimizer tracks"),
            std::string::npos);
}

TEST(CheckpointContainerTest, IteratorCursorPastEndRejected) {
  TrainCheckpoint ck = MakeCheckpoint(7);
  ck.iterator_cursor = ck.iterator_order.size() + 1;
  auto decoded = DecodeCheckpoint(EncodeCheckpoint(ck), "test");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("cursor"), std::string::npos);
}

TEST(CheckpointContainerTest, IteratorOrderNotAPermutationRejected) {
  // MakeCheckpoint's order is a permutation of [0, 7).
  TrainCheckpoint duplicated = MakeCheckpoint(7);
  duplicated.iterator_order[1] = duplicated.iterator_order[0];
  TrainCheckpoint out_of_range = MakeCheckpoint(7);
  out_of_range.iterator_order[3] = 7;
  for (const TrainCheckpoint& ck : {duplicated, out_of_range}) {
    auto decoded = DecodeCheckpoint(EncodeCheckpoint(ck), "test");
    ASSERT_FALSE(decoded.ok());
    const std::string msg = decoded.status().message();
    EXPECT_NE(msg.find(CheckpointSectionName(CheckpointSectionId::kIterator)),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("permutation"), std::string::npos) << msg;
  }
}

TEST(CheckpointContainerTest, AllZeroRngStateRejected) {
  TrainCheckpoint ck = MakeCheckpoint(8);
  ck.rng_streams[0] = core::RngState{};  // all-zero words
  auto decoded = DecodeCheckpoint(EncodeCheckpoint(ck), "test");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("all-zero"), std::string::npos);
}

// ---------------------------------------------------- files & generations

TEST(CheckpointFileTest, SaveLoadRoundTripLeavesNoTempFile) {
  const std::string dir = TempDir("file_roundtrip");
  fs::create_directories(dir);
  const std::string path = dir + "/" + CheckpointFileName(10);
  TrainCheckpoint ck = MakeCheckpoint(9);
  ASSERT_TRUE(SaveCheckpoint(path, ck).ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectEqualCheckpoints(ck, *loaded);
  fs::remove_all(dir);
}

TEST(CheckpointFileTest, ListStepsIgnoresForeignAndTempFiles) {
  const std::string dir = TempDir("list_steps");
  fs::create_directories(dir);
  ASSERT_TRUE(SaveCheckpoint(dir + "/" + CheckpointFileName(30),
                             MakeCheckpoint(1)).ok());
  ASSERT_TRUE(SaveCheckpoint(dir + "/" + CheckpointFileName(7),
                             MakeCheckpoint(1)).ok());
  WriteRaw(dir + "/checkpoint-00000012.gck.tmp", "torn");
  WriteRaw(dir + "/notes.txt", "hello");
  WriteRaw(dir + "/checkpoint-abc.gck", "bogus name");
  EXPECT_EQ(ListCheckpointSteps(dir), (std::vector<uint64_t>{7, 30}));
  EXPECT_TRUE(ListCheckpointSteps(dir + "/missing").empty());
  fs::remove_all(dir);
}

TEST(CheckpointFileTest, LatestFallsBackPastCorruptGeneration) {
  const std::string dir = TempDir("fallback");
  fs::create_directories(dir);
  TrainCheckpoint ck = MakeCheckpoint(12);
  ck.global_step = 10;
  ASSERT_TRUE(SaveCheckpoint(dir + "/" + CheckpointFileName(10), ck).ok());
  // Newest generation is torn (as if a non-atomic writer died mid-write).
  const std::string full = EncodeCheckpoint(ck);
  WriteRaw(dir + "/" + CheckpointFileName(20), full.substr(0, full.size() / 2));

  auto resumed = LoadLatestCheckpoint(dir, ck.config_fingerprint);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ((*resumed).loaded_step, 10u);
  ASSERT_EQ((*resumed).skipped.size(), 1u);
  EXPECT_NE((*resumed).skipped[0].find(CheckpointFileName(20)),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(CheckpointFileTest, AllGenerationsCorruptIsIoErrorListingEach) {
  const std::string dir = TempDir("all_corrupt");
  fs::create_directories(dir);
  WriteRaw(dir + "/" + CheckpointFileName(1), "garbage");
  WriteRaw(dir + "/" + CheckpointFileName(2), "more garbage");
  auto resumed = LoadLatestCheckpoint(dir, 0);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), core::StatusCode::kIoError);
  EXPECT_NE(resumed.status().message().find(CheckpointFileName(1)),
            std::string::npos);
  EXPECT_NE(resumed.status().message().find(CheckpointFileName(2)),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(CheckpointFileTest, EmptyDirectoryIsNotFound) {
  const std::string dir = TempDir("empty");
  fs::create_directories(dir);
  EXPECT_EQ(LoadLatestCheckpoint(dir, 0).status().code(),
            core::StatusCode::kNotFound);
  EXPECT_EQ(LoadLatestCheckpoint(dir + "/never_created", 0).status().code(),
            core::StatusCode::kNotFound);
  fs::remove_all(dir);
}

TEST(CheckpointFileTest, FingerprintMismatchIsRefusedNotSkipped) {
  const std::string dir = TempDir("fingerprint");
  fs::create_directories(dir);
  TrainCheckpoint ck = MakeCheckpoint(13);
  ASSERT_TRUE(SaveCheckpoint(dir + "/" + CheckpointFileName(5), ck).ok());
  auto resumed = LoadLatestCheckpoint(dir, ck.config_fingerprint + 1);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(resumed.status().message().find("refusing to resume"),
            std::string::npos);
  fs::remove_all(dir);
}

// ------------------------------------------------------------- manager

TrainCheckpoint MinimalSnapshot(uint64_t step) {
  TrainCheckpoint ck;
  ck.global_step = step;
  core::Rng rng(step + 1);
  ck.rng_streams = {rng.ExportState()};
  return ck;
}

TEST(CheckpointManagerTest, CadenceWritesAndKeepKPruning) {
  const std::string dir = TempDir("manager_prune");
  CheckpointManager mgr(
      {dir, /*every_steps=*/1, /*keep=*/2, /*fingerprint=*/77, {}});
  EXPECT_TRUE(mgr.enabled());
  EXPECT_FALSE(mgr.Resume().has_value());  // fresh start
  for (uint64_t step = 1; step <= 5; ++step) {
    mgr.AtStepEnd(step, [&] { return MinimalSnapshot(step); });
  }
  EXPECT_EQ(mgr.writes(), 5u);
  EXPECT_EQ(ListCheckpointSteps(dir), (std::vector<uint64_t>{4, 5}));
  auto resumed = LoadLatestCheckpoint(dir, 77);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ((*resumed).loaded_step, 5u);
  // The manager stamps the fingerprint and step into every generation.
  EXPECT_EQ((*resumed).checkpoint.config_fingerprint, 77u);
  fs::remove_all(dir);
}

TEST(CheckpointManagerTest, DisabledManagerIsInert) {
  CheckpointManager mgr({"", 0, 2, 0, {}});
  EXPECT_FALSE(mgr.enabled());
  EXPECT_FALSE(mgr.Resume().has_value());
  mgr.AtStepEnd(1, [] {
    ADD_FAILURE() << "snapshot materialized while disabled";
    return TrainCheckpoint{};
  });
  EXPECT_EQ(mgr.writes(), 0u);
}

TEST(CheckpointManagerTest, NonCadenceStepsDoNotSnapshot) {
  const std::string dir = TempDir("manager_cadence");
  CheckpointManager mgr({dir, /*every_steps=*/10, 2, 0, {}});
  int snapshots = 0;
  for (uint64_t step = 1; step <= 25; ++step) {
    mgr.AtStepEnd(step, [&] {
      ++snapshots;
      return MinimalSnapshot(step);
    });
  }
  EXPECT_EQ(snapshots, 2);
  EXPECT_EQ(ListCheckpointSteps(dir), (std::vector<uint64_t>{10, 20}));
  fs::remove_all(dir);
}

TEST(CheckpointManagerTest, ResumeSweepsStrayTempFiles) {
  const std::string dir = TempDir("manager_tmp");
  fs::create_directories(dir);
  ASSERT_TRUE(SaveCheckpoint(dir + "/" + CheckpointFileName(3),
                             MinimalSnapshot(3)).ok());
  WriteRaw(dir + "/checkpoint-00000006.gck.tmp", "stranded");
  CheckpointManager mgr({dir, 1, 2, 0, {}});
  auto resumed = mgr.Resume();
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->global_step, 3u);
  EXPECT_FALSE(fs::exists(dir + "/checkpoint-00000006.gck.tmp"));
  fs::remove_all(dir);
}

// ------------------------------------------------- crash-resume harness

data::ScenarioConfig TinyDataConfig() {
  data::ScenarioConfig cfg;
  cfg.num_queries = 150;
  cfg.num_services = 60;
  cfg.num_intentions = 30;
  cfg.num_trees = 4;
  cfg.num_impressions = 6000;
  cfg.head_fraction = 0.06;
  return cfg;
}

const data::Scenario& Tiny() {
  static const data::Scenario* s =
      new data::Scenario(data::GenerateScenario(TinyDataConfig()));
  return *s;
}

models::TrainConfig FastTrainConfig() {
  models::TrainConfig cfg;
  cfg.embedding_dim = 16;
  cfg.pretrain_epochs = 3;
  cfg.finetune_epochs = 6;
  cfg.max_batches_per_epoch = 10;
  cfg.batch_size = 512;
  cfg.cl_batch_size = 96;
  return cfg;
}
// With this config GARCIA runs 3 epochs x 5 pretrain steps (global steps
// 1..15), then 6 epochs x 10 finetune steps (16..75).

struct RunResult {
  Matrix queries;
  Matrix services;
};

void ExpectBitIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_TRUE(SameMatrix(a.queries, b.queries))
      << "query embeddings diverged";
  EXPECT_TRUE(SameMatrix(a.services, b.services))
      << "service embeddings diverged";
}

std::string ReadFile(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Every generation file in `a` has a same-named file in `b` with the same
/// bytes, and vice versa.
void ExpectSameGenerations(const std::string& a_dir, const std::string& b_dir) {
  auto generations = [](const std::string& dir) {
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(dir)) files.push_back(e.path());
    std::sort(files.begin(), files.end());
    return files;
  };
  const std::vector<fs::path> a = generations(a_dir);
  const std::vector<fs::path> b = generations(b_dir);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].filename(), b[i].filename());
    EXPECT_EQ(ReadFile(a[i]), ReadFile(b[i]))
        << "checkpoint " << a[i].filename() << " diverged";
  }
}

template <typename ModelT>
RunResult FitAndExport(const models::TrainConfig& cfg) {
  ModelT model(cfg);
  model.Fit(Tiny());
  return {model.ExportQueryEmbeddings(Tiny()),
          model.ExportServiceEmbeddings(Tiny())};
}

/// Trains with an armed kill-point, asserts the simulated crash fires,
/// then restarts over the same checkpoint directory (a fresh model, as a
/// process restart would construct) and runs to completion.
template <typename ModelT>
RunResult CrashThenResume(models::TrainConfig cfg, KillPoint point,
                          uint64_t step) {
  cfg.checkpoint_fault = {point, step};
  bool killed = false;
  try {
    ModelT victim(cfg);
    victim.Fit(Tiny());
  } catch (const TrainingKilled& k) {
    killed = true;
    EXPECT_EQ(k.point, point);
    EXPECT_EQ(k.step, step);
  }
  EXPECT_TRUE(killed) << "kill-point " << KillPointName(point)
                      << " never fired at step " << step;
  cfg.checkpoint_fault = {};
  return FitAndExport<ModelT>(cfg);
}

models::TrainConfig CheckpointedConfig(const std::string& dir_name,
                                       uint64_t every = 3) {
  models::TrainConfig cfg = FastTrainConfig();
  cfg.checkpoint_dir = TempDir(dir_name);
  cfg.checkpoint_every_steps = every;
  return cfg;
}

TEST(CrashResumeTest, CheckpointingItselfIsNonInvasive) {
  // Same trajectory with and without checkpointing: the manager must
  // observe training, never perturb it.
  const RunResult plain = FitAndExport<models::GarciaModel>(FastTrainConfig());
  models::TrainConfig cfg = CheckpointedConfig("noninvasive");
  const RunResult checkpointed = FitAndExport<models::GarciaModel>(cfg);
  ExpectBitIdentical(plain, checkpointed);
  EXPECT_FALSE(ListCheckpointSteps(cfg.checkpoint_dir).empty());
  fs::remove_all(cfg.checkpoint_dir);
}

TEST(CrashResumeTest, GarciaEveryKillPointClassResumesBitIdentical) {
  const RunResult reference =
      FitAndExport<models::GarciaModel>(FastTrainConfig());
  // One kill per class, spread over both phases (pretrain ends at 15):
  // cadence steps are multiples of 3; 25 is deliberately off-cadence.
  const struct {
    KillPoint point;
    uint64_t step;
  } kills[] = {
      {KillPoint::kBeforeWrite, 6},         // pretrain
      {KillPoint::kMidWriteTruncate, 9},    // pretrain, torn newest gen
      {KillPoint::kAfterWrite, 15},         // pretrain/finetune boundary
      {KillPoint::kPostWriteBitFlip, 21},   // finetune, corrupt newest gen
      {KillPoint::kBetweenCheckpoints, 25}, // finetune, mid-epoch replay
  };
  for (const auto& kill : kills) {
    SCOPED_TRACE(KillPointName(kill.point));
    models::TrainConfig cfg = CheckpointedConfig("garcia_kill");
    const RunResult resumed = CrashThenResume<models::GarciaModel>(
        cfg, kill.point, kill.step);
    ExpectBitIdentical(reference, resumed);
    fs::remove_all(cfg.checkpoint_dir);
  }
}

TEST(CrashResumeTest, GarciaSampledFanoutResumesBitIdentical) {
  models::TrainConfig base = FastTrainConfig();
  base.sample_fanout = 8;
  const RunResult reference = FitAndExport<models::GarciaModel>(base);
  for (uint64_t step : {uint64_t{9}, uint64_t{24}}) {  // one per phase
    SCOPED_TRACE(step);
    models::TrainConfig cfg = base;
    cfg.checkpoint_dir = TempDir("garcia_sampled");
    cfg.checkpoint_every_steps = 3;
    const RunResult resumed = CrashThenResume<models::GarciaModel>(
        cfg, KillPoint::kAfterWrite, step);
    ExpectBitIdentical(reference, resumed);
    fs::remove_all(cfg.checkpoint_dir);
  }
}

TEST(CrashResumeTest, LightGcnResumesBitIdentical) {
  const RunResult reference = FitAndExport<models::LightGcn>(FastTrainConfig());
  models::TrainConfig cfg = CheckpointedConfig("lightgcn");
  const RunResult resumed = CrashThenResume<models::LightGcn>(
      cfg, KillPoint::kPostWriteBitFlip, 12);
  ExpectBitIdentical(reference, resumed);
  fs::remove_all(cfg.checkpoint_dir);
}

TEST(CrashResumeTest, SglResumesBitIdentical) {
  // SGL's auxiliary views draw the training rng after the batch is planned,
  // so a snapshot must carry the stream state from the end of the step.
  const RunResult reference = FitAndExport<models::Sgl>(FastTrainConfig());
  models::TrainConfig cfg = CheckpointedConfig("sgl");
  const RunResult resumed =
      CrashThenResume<models::Sgl>(cfg, KillPoint::kAfterWrite, 12);
  ExpectBitIdentical(reference, resumed);
  fs::remove_all(cfg.checkpoint_dir);
}

TEST(CrashResumeTest, WideDeepResumesBitIdentical) {
  // WideDeep has no exported embeddings; compare predictions instead.
  models::TrainConfig plain = FastTrainConfig();
  models::WideDeep reference(plain);
  reference.Fit(Tiny());
  const std::vector<float> want = reference.Predict(Tiny(), Tiny().test);

  models::TrainConfig cfg = CheckpointedConfig("wide_deep");
  cfg.checkpoint_fault = {KillPoint::kBetweenCheckpoints, 14};
  bool killed = false;
  try {
    models::WideDeep victim(cfg);
    victim.Fit(Tiny());
  } catch (const TrainingKilled&) {
    killed = true;
  }
  ASSERT_TRUE(killed);
  cfg.checkpoint_fault = {};
  models::WideDeep resumed(cfg);
  resumed.Fit(Tiny());
  const std::vector<float> got = resumed.Predict(Tiny(), Tiny().test);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << "prediction " << i << " diverged";
  }
  fs::remove_all(cfg.checkpoint_dir);
}

TEST(CrashResumeTest, EpochBoundaryResumesBitIdentical) {
  // Every 5 steps, a kAfterWrite kill lands exactly on an epoch's last
  // step: the snapshot re-enters with step_in_epoch == cap and must fall
  // through to the next epoch with the uninterrupted shuffle.
  const RunResult garcia =
      FitAndExport<models::GarciaModel>(FastTrainConfig());
  // Step 10 ends pretrain epoch 1 (not the phase boundary); step 25 ends
  // finetune epoch 0.
  for (uint64_t step : {uint64_t{10}, uint64_t{25}}) {
    SCOPED_TRACE(step);
    models::TrainConfig cfg = CheckpointedConfig("garcia_boundary", 5);
    ExpectBitIdentical(garcia, CrashThenResume<models::GarciaModel>(
                                   cfg, KillPoint::kAfterWrite, step));
    fs::remove_all(cfg.checkpoint_dir);
  }
  // Step 10 ends LightGCN epoch 0.
  const RunResult lightgcn = FitAndExport<models::LightGcn>(FastTrainConfig());
  models::TrainConfig cfg = CheckpointedConfig("lightgcn_boundary", 5);
  ExpectBitIdentical(lightgcn, CrashThenResume<models::LightGcn>(
                                   cfg, KillPoint::kAfterWrite, 10));
  fs::remove_all(cfg.checkpoint_dir);
}

// ------------------------------------------------ snapshot contract

/// The loop-written fields of one generation: (global_step, phase, epoch,
/// step_in_epoch, has_iterator, rng_streams.size(), diagnostics.size()).
using SnapshotRow =
    std::tuple<uint64_t, uint32_t, uint64_t, uint64_t, bool, size_t, size_t>;

/// One phase of a model's schedule as the snapshots must report it.
struct PhaseShape {
  uint64_t epochs;
  uint64_t steps_per_epoch;
  bool has_iterator;
};

/// Fits with a generation every 5 steps, all kept, and decodes each one.
template <typename ModelT>
std::vector<SnapshotRow> SnapshotTable(models::TrainConfig cfg,
                                       const std::string& dir_name) {
  cfg.checkpoint_dir = TempDir(dir_name);
  cfg.checkpoint_every_steps = 5;
  cfg.checkpoint_keep = 0;
  ModelT(cfg).Fit(Tiny());
  std::vector<SnapshotRow> rows;
  for (uint64_t step : ListCheckpointSteps(cfg.checkpoint_dir)) {
    auto ck = LoadCheckpoint(cfg.checkpoint_dir + "/" +
                             CheckpointFileName(step));
    EXPECT_TRUE(ck.ok()) << ck.status().ToString();
    if (!ck.ok()) continue;
    const TrainCheckpoint& c = *ck;
    rows.emplace_back(c.global_step, c.phase, c.epoch, c.step_in_epoch,
                      c.has_iterator, c.rng_streams.size(),
                      c.diagnostics.size());
  }
  fs::remove_all(cfg.checkpoint_dir);
  return rows;
}

/// The table a schedule implies: one row per 5th global step, placed in
/// its phase, epoch and 1-based step.
std::vector<SnapshotRow> ExpectedTable(const std::vector<PhaseShape>& phases,
                                       size_t rng_streams,
                                       size_t diagnostics) {
  std::vector<SnapshotRow> rows;
  uint64_t done = 0;
  for (uint32_t p = 0; p < phases.size(); ++p) {
    const PhaseShape& ph = phases[p];
    const uint64_t total = ph.epochs * ph.steps_per_epoch;
    for (uint64_t k = 0; k < total; ++k) {
      const uint64_t global_step = done + k + 1;
      if (global_step % 5 != 0) continue;
      rows.emplace_back(global_step, p, k / ph.steps_per_epoch,
                        k % ph.steps_per_epoch + 1, ph.has_iterator,
                        rng_streams, diagnostics);
    }
    done += total;
  }
  return rows;
}

TEST(CrashResumeTest, GarciaSnapshotContract) {
  // 3 pretrain epochs x 5 steps without an iterator, then 6 finetune
  // epochs x 10 steps; streams {train, sampler}; three loss probes.
  const std::vector<SnapshotRow> want =
      ExpectedTable({{3, 5, false}, {6, 10, true}}, 2, 3);
  ASSERT_EQ(want.size(), 15u);
  EXPECT_EQ(SnapshotTable<models::GarciaModel>(FastTrainConfig(),
                                               "contract_garcia"),
            want);
  models::TrainConfig sampled = FastTrainConfig();
  sampled.sample_fanout = 8;
  EXPECT_EQ(SnapshotTable<models::GarciaModel>(sampled,
                                               "contract_garcia_sampled"),
            want);
}

TEST(CrashResumeTest, BaselineSnapshotContract) {
  // One phase of 9 epochs x 10 steps over the iterator; no diagnostics.
  const std::vector<SnapshotRow> gnn = ExpectedTable({{9, 10, true}}, 2, 0);
  ASSERT_EQ(gnn.size(), 18u);
  EXPECT_EQ(SnapshotTable<models::LightGcn>(FastTrainConfig(),
                                            "contract_lightgcn"),
            gnn);
  EXPECT_EQ(SnapshotTable<models::Sgl>(FastTrainConfig(), "contract_sgl"),
            gnn);
  // WideDeep has a single rng stream.
  EXPECT_EQ(SnapshotTable<models::WideDeep>(FastTrainConfig(),
                                            "contract_wide_deep"),
            ExpectedTable({{9, 10, true}}, 1, 0));
}

TEST(CrashResumeTest, CheckpointBytesRepeatable) {
  // Every generation of a sampled GARCIA run (both phases) must carry the
  // same bytes when the run is repeated.
  models::TrainConfig cfg = FastTrainConfig();
  cfg.pretrain_epochs = 2;
  cfg.finetune_epochs = 3;
  cfg.max_batches_per_epoch = 6;
  cfg.sample_fanout = 8;
  cfg.checkpoint_every_steps = 4;
  cfg.checkpoint_keep = 0;  // keep every generation

  models::TrainConfig first = cfg;
  first.checkpoint_dir = TempDir("repeat_first");
  models::GarciaModel(first).Fit(Tiny());

  models::TrainConfig second = cfg;
  second.checkpoint_dir = TempDir("repeat_second");
  models::GarciaModel(second).Fit(Tiny());

  ExpectSameGenerations(first.checkpoint_dir, second.checkpoint_dir);
  fs::remove_all(first.checkpoint_dir);
  fs::remove_all(second.checkpoint_dir);
}

TEST(CrashResumeTest, SecondFitOnDirtyHeapMatchesLoneFit) {
  // TrainLoop keeps freed memory in the heap between steps (DESIGN.md
  // §5p), so a Fit hands out memory that earlier work left dirty instead of
  // fresh zeroed pages. A Fit that read memory before writing it would
  // diverge here. The second Fit runs inside an outer retention scope, so
  // nothing is trimmed after the dirtying Fit and the NaN scribbles.
  models::TrainConfig cfg = FastTrainConfig();
  cfg.checkpoint_every_steps = 5;
  cfg.checkpoint_keep = 0;  // keep every generation

  models::TrainConfig lone = cfg;
  lone.checkpoint_dir = TempDir("heap_lone");
  const RunResult lone_result = FitAndExport<models::GarciaModel>(lone);

  models::TrainConfig second = cfg;
  second.checkpoint_dir = TempDir("heap_second");
  RunResult second_result;
  {
    core::HeapRetention retain;
    // Another seed on sampled blocks: other values in other chunk sizes.
    models::TrainConfig dirty = cfg;
    dirty.seed = 11;
    dirty.sample_fanout = 4;
    dirty.checkpoint_dir = TempDir("heap_dirty");
    FitAndExport<models::GarciaModel>(dirty);
    fs::remove_all(dirty.checkpoint_dir);
    // Fill freed chunks of many sizes with NaN bytes.
    std::vector<std::vector<float>> scribbles;
    for (size_t n = 16; n <= (size_t{1} << 20); n *= 2) {
      scribbles.emplace_back(n, std::numeric_limits<float>::quiet_NaN());
      scribbles.emplace_back(n + 3, std::numeric_limits<float>::quiet_NaN());
    }
    scribbles.clear();
    second_result = FitAndExport<models::GarciaModel>(second);
  }
  ExpectBitIdentical(lone_result, second_result);
  ExpectSameGenerations(lone.checkpoint_dir, second.checkpoint_dir);
  fs::remove_all(lone.checkpoint_dir);
  fs::remove_all(second.checkpoint_dir);
}

TEST(CrashResumeTest, RepeatedCrashesStillConverge) {
  // Kill the run twice at different points; the second resume must pick
  // up from the second run's newer generations.
  const RunResult reference =
      FitAndExport<models::GarciaModel>(FastTrainConfig());
  models::TrainConfig cfg = CheckpointedConfig("garcia_twice");
  cfg.checkpoint_fault = {KillPoint::kAfterWrite, 9};
  try {
    models::GarciaModel first(cfg);
    first.Fit(Tiny());
  } catch (const TrainingKilled&) {
  }
  cfg.checkpoint_fault = {KillPoint::kBetweenCheckpoints, 40};
  try {
    models::GarciaModel second(cfg);
    second.Fit(Tiny());
  } catch (const TrainingKilled&) {
  }
  cfg.checkpoint_fault = {};
  const RunResult resumed = FitAndExport<models::GarciaModel>(cfg);
  ExpectBitIdentical(reference, resumed);
  fs::remove_all(cfg.checkpoint_dir);
}

TEST(CrashResumeDeathTest, ChangedConfigRefusesResume) {
  models::TrainConfig cfg = CheckpointedConfig("garcia_refuse");
  cfg.checkpoint_fault = {KillPoint::kAfterWrite, 6};
  try {
    models::GarciaModel victim(cfg);
    victim.Fit(Tiny());
  } catch (const TrainingKilled&) {
  }
  cfg.checkpoint_fault = {};
  cfg.learning_rate *= 2.0f;  // a trajectory-relevant change
  models::GarciaModel restarted(cfg);
  EXPECT_DEATH(restarted.Fit(Tiny()), "refusing to resume");
  fs::remove_all(cfg.checkpoint_dir);
}

/// Runs a checkpointed Fit to a kAfterWrite kill at `step`, then rewrites
/// that generation with `edit` applied. The file keeps the run's own
/// fingerprint and valid CRCs, so only the edited position is wrong.
template <typename ModelT, typename Edit>
models::TrainConfig WriteEditedGeneration(const std::string& dir_name,
                                          uint64_t step, Edit edit) {
  models::TrainConfig cfg = CheckpointedConfig(dir_name);
  cfg.checkpoint_fault = {KillPoint::kAfterWrite, step};
  try {
    ModelT(cfg).Fit(Tiny());
  } catch (const TrainingKilled&) {
  }
  cfg.checkpoint_fault = {};
  const std::string path =
      cfg.checkpoint_dir + "/" + CheckpointFileName(step);
  auto ck = LoadCheckpoint(path);
  if (!ck.ok()) {
    ADD_FAILURE() << ck.status().ToString();
    return cfg;
  }
  TrainCheckpoint edited = std::move(*ck);
  EXPECT_EQ(edited.config_fingerprint,
            models::TrainFingerprint(cfg, ModelT(cfg).name(), Tiny()));
  edit(&edited);
  EXPECT_TRUE(SaveCheckpoint(path, edited).ok());
  return cfg;
}

TEST(CrashResumeDeathTest, UnreachablePhaseRefusesResume) {
  // GARCIA runs phases 0 and 1; a phase-2 checkpoint must not silently
  // restart from fresh weights.
  models::TrainConfig cfg = WriteEditedGeneration<models::GarciaModel>(
      "garcia_phase2", 6, [](TrainCheckpoint* ck) { ck->phase = 2; });
  models::GarciaModel restarted(cfg);
  EXPECT_DEATH(restarted.Fit(Tiny()), "refusing to resume: checkpoint phase 2");
  fs::remove_all(cfg.checkpoint_dir);
}

TEST(CrashResumeDeathTest, BaselinePhaseOneRefusesResume) {
  // The baselines run a single phase 0.
  models::TrainConfig cfg = WriteEditedGeneration<models::LightGcn>(
      "lightgcn_phase1", 6, [](TrainCheckpoint* ck) { ck->phase = 1; });
  models::LightGcn restarted(cfg);
  EXPECT_DEATH(restarted.Fit(Tiny()), "refusing to resume: checkpoint phase 1");
  fs::remove_all(cfg.checkpoint_dir);
}

TEST(CrashResumeDeathTest, StepPastPretrainCapRefusesResume) {
  // GARCIA pretraining runs 5 steps per epoch under FastTrainConfig.
  models::TrainConfig cfg = WriteEditedGeneration<models::GarciaModel>(
      "garcia_step99", 6, [](TrainCheckpoint* ck) { ck->step_in_epoch = 99; });
  models::GarciaModel restarted(cfg);
  EXPECT_DEATH(restarted.Fit(Tiny()),
               "refusing to resume: checkpoint step_in_epoch 99");
  fs::remove_all(cfg.checkpoint_dir);
}

TEST(CrashResumeDeathTest, EveryUnreachableFieldIsNamed) {
  // Step 6 is pretrain epoch 1, step 1 of GARCIA's 3 x 5 pretrain steps.
  const struct {
    const char* what;
    void (*edit)(TrainCheckpoint*);
  } cases[] = {
      {"epoch 3 of phase 0", [](TrainCheckpoint* ck) { ck->epoch = 3; }},
      {"has_iterator=1",
       [](TrainCheckpoint* ck) {
         ck->has_iterator = true;
         ck->iterator_order = {0};
       }},
      {"1 rng_streams", [](TrainCheckpoint* ck) { ck->rng_streams.pop_back(); }},
      {"2 diagnostics", [](TrainCheckpoint* ck) { ck->diagnostics.pop_back(); }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    models::TrainConfig cfg =
        WriteEditedGeneration<models::GarciaModel>("garcia_field", 6, c.edit);
    models::GarciaModel restarted(cfg);
    EXPECT_DEATH(restarted.Fit(Tiny()),
                 std::string("refusing to resume: checkpoint .*") + c.what);
    fs::remove_all(cfg.checkpoint_dir);
  }
}

TEST(TrainLoopDeathTest, FitInsideNoGradScopeFails) {
  // Every Fit runs through TrainLoop::Run, which refuses an inference scope
  // before the first step builds a loss with no gradient.
  models::GarciaModel garcia(FastTrainConfig());
  models::WideDeep wide_deep(FastTrainConfig());
  nn::NoGradScope no_grad;
  EXPECT_DEATH(garcia.Fit(Tiny()), "training inside an nn::NoGradScope");
  EXPECT_DEATH(wide_deep.Fit(Tiny()), "training inside an nn::NoGradScope");
}

TEST(CrashResumeTest, FingerprintSeparatesModelsAndConfigs) {
  const models::TrainConfig cfg = FastTrainConfig();
  const uint64_t garcia =
      models::TrainFingerprint(cfg, "GARCIA", Tiny());
  EXPECT_EQ(garcia, models::TrainFingerprint(cfg, "GARCIA", Tiny()));
  EXPECT_NE(garcia, models::TrainFingerprint(cfg, "LightGCN", Tiny()));
  models::TrainConfig other = cfg;
  other.seed += 1;
  EXPECT_NE(garcia, models::TrainFingerprint(other, "GARCIA", Tiny()));
  // The checkpoint knobs never change the trajectory, so they must not
  // change the fingerprint (resume across them is legal).
  models::TrainConfig knobs = cfg;
  knobs.checkpoint_every_steps = 17;
  knobs.checkpoint_dir = "/elsewhere";
  EXPECT_EQ(garcia, models::TrainFingerprint(knobs, "GARCIA", Tiny()));
  // Pinned value: GCK1 generations already on disk carry this hash, so
  // adding, removing or reordering TrainConfig fields must not change it.
  EXPECT_EQ(garcia, 0x862ff92a40f36be2ULL);
}

}  // namespace
}  // namespace garcia::train
