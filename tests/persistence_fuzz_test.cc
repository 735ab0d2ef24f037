// Seeded mutation fuzz test over the three on-disk decoders: GCK1
// checkpoints (train::DecodeCheckpoint), GIV2 index dumps (IvfIndex::Load)
// and GEM2 embedding dumps (EmbeddingStore::Load), all through their
// public entry points (the two loaders via temp files).
//
// Each iteration applies one or two mutations — bit flips, truncation,
// inserted bytes, edits to size and count fields, section swaps — to a
// valid artifact, then decodes the result twice:
//   * raw: the CRCs are stale, so any input that differs from the valid
//     artifact must be rejected;
//   * resealed: every CRC that still frames is recomputed, so the
//     structural validators behind the checksum are what get exercised.
// Properties: no crash and no sanitizer report (the suite runs in the
// ASan/UBSan lane of scripts/check.sh), and every accepted input
// re-encodes to exactly its own bytes (each format has one encoding).
// The seed and the iteration count are fixed, so a failure replays.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/crc32.h"
#include "core/matrix.h"
#include "core/rng.h"
#include "serving/embedding_store.h"
#include "serving/ivf_index.h"
#include "train/checkpoint.h"

namespace garcia {
namespace {

using core::Matrix;

constexpr uint64_t kSeed = 20261017;
constexpr int kIterations = 2000;  // per format

enum class Format { kGck1, kGiv2, kGem2 };

const char* FormatName(Format f) {
  switch (f) {
    case Format::kGck1: return "GCK1";
    case Format::kGiv2: return "GIV2";
    case Format::kGem2: return "GEM2";
  }
  return "?";
}

std::string TempPath(const char* name) {
  return std::string("/tmp/garcia_fuzz_") + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
bool Peek(const std::string& bytes, size_t at, T* out) {
  if (at > bytes.size() || bytes.size() - at < sizeof(T)) return false;
  std::memcpy(out, bytes.data() + at, sizeof(T));
  return true;
}

template <typename T>
void Poke(std::string* bytes, size_t at, T value) {
  if (at > bytes->size() || bytes->size() - at < sizeof(T)) return;
  std::memcpy(bytes->data() + at, &value, sizeof(T));
}

// ------------------------------------------------------------ valid inputs

std::string ValidCheckpoint() {
  core::Rng rng(1);
  train::TrainCheckpoint ck;
  ck.config_fingerprint = 0x1234abcd5678ef00ULL;
  ck.phase = 1;
  ck.epoch = 2;
  ck.step_in_epoch = 3;
  ck.global_step = 9;
  ck.diagnostics = {0.25f, -1.5f};
  ck.params = {Matrix::Randn(3, 2, &rng), Matrix::Randn(1, 4, &rng)};
  ck.adam_t = 9;
  ck.adam_m = {Matrix::Randn(3, 2, &rng), Matrix::Randn(1, 4, &rng)};
  ck.adam_v = {Matrix::Randn(3, 2, &rng), Matrix::Randn(1, 4, &rng)};
  core::Rng s0(2), s1(3);
  s1.Normal();
  ck.rng_streams = {s0.ExportState(), s1.ExportState()};
  ck.has_iterator = true;
  ck.iterator_cursor = 2;
  ck.iterator_order = {2, 0, 3, 1};
  return train::EncodeCheckpoint(ck);
}

// --------------------------------------------------------------- decoding

/// Decodes `bytes` through the format's public entry point. Returns true
/// when accepted, after checking that the decoded value re-encodes to
/// exactly `bytes`.
bool AcceptsCanonically(Format format, const std::string& bytes) {
  const std::string in = TempPath("in");
  const std::string out = TempPath("out");
  std::string reencoded;
  switch (format) {
    case Format::kGck1: {
      auto ck = train::DecodeCheckpoint(bytes, "fuzz");
      if (!ck.ok()) return false;
      reencoded = train::EncodeCheckpoint(*ck);
      break;
    }
    case Format::kGiv2: {
      WriteAll(in, bytes);
      auto index = serving::IvfIndex::Load(in);
      if (!index.ok()) return false;
      EXPECT_TRUE((*index).Save(out).ok());
      reencoded = ReadAll(out);
      break;
    }
    case Format::kGem2: {
      WriteAll(in, bytes);
      auto store = serving::EmbeddingStore::Load(in);
      if (!store.ok()) return false;
      EXPECT_TRUE((*store).Save(out).ok());
      reencoded = ReadAll(out);
      break;
    }
  }
  EXPECT_TRUE(reencoded == bytes)
      << FormatName(format) << " accepted a non-canonical input of "
      << bytes.size() << " bytes (re-encodes to " << reencoded.size() << ")";
  return true;
}

// --------------------------------------------------------------- layout

/// Byte offsets of the fields a size/count edit targets, and the section
/// blocks (header + payload) a swap exchanges, read off a valid artifact.
struct Layout {
  std::vector<std::pair<size_t, size_t>> fields;  // (offset, width)
  std::vector<std::pair<size_t, size_t>> blocks;  // (offset, length)
};

Layout LayoutOf(Format format, const std::string& bytes) {
  Layout layout;
  if (format == Format::kGem2) {
    // magic | u32 version | u64 rows | u64 cols | u32 crc | rows.
    layout.fields = {{8, 8}, {16, 8}};
    uint64_t rows = 0, cols = 0;
    Peek(bytes, 8, &rows);
    Peek(bytes, 16, &cols);
    for (uint64_t r = 0; r < rows; ++r) {
      layout.blocks.emplace_back(28 + r * cols * 4, cols * 4);
    }
    return layout;
  }
  // magic | u32 version | u32 count | {u32 id, u64 size, u32 crc, payload}.
  layout.fields.emplace_back(8, 4);
  size_t pos = 12;
  uint64_t size = 0;
  while (Peek(bytes, pos + 4, &size) && pos + 16 + size <= bytes.size()) {
    layout.fields.emplace_back(pos + 4, 8);   // the section's size
    layout.fields.emplace_back(pos + 16, 4);  // the payload's first word
    layout.blocks.emplace_back(pos, 16 + size);
    pos += 16 + size;
  }
  return layout;
}

/// Recomputes every checksum that still frames after a mutation.
void Reseal(Format format, std::string* bytes) {
  if (format == Format::kGem2) {
    if (bytes->size() >= 28) {
      Poke(bytes, 24, core::Crc32(bytes->data() + 28, bytes->size() - 28));
    }
    return;
  }
  size_t pos = 12;
  uint64_t size = 0;
  while (Peek(*bytes, pos + 4, &size) && pos + 16 <= bytes->size() &&
         size <= bytes->size() - pos - 16) {
    Poke(bytes, pos + 12, core::Crc32(bytes->data() + pos + 16, size));
    pos += 16 + size;
  }
}

// -------------------------------------------------------------- mutations

enum Mutation {
  kBitFlip,
  kTruncate,
  kInsert,
  kFieldEdit,
  kSwap,
  kNumMutations
};

void Mutate(const Layout& layout, core::Rng* rng, std::string* bytes) {
  const auto pick = [&](size_t n) {
    return static_cast<size_t>(rng->UniformInt(n));
  };
  switch (pick(kNumMutations)) {
    case kBitFlip: {
      // At most three bits per mutation: CRC-32 detects every error of up
      // to three bits in payloads of this size.
      const size_t flips = 1 + pick(3);
      for (size_t i = 0; i < flips && !bytes->empty(); ++i) {
        (*bytes)[pick(bytes->size())] ^= static_cast<char>(1u << pick(8));
      }
      break;
    }
    case kTruncate:
      if (!bytes->empty()) bytes->resize(pick(bytes->size()));
      break;
    case kInsert: {
      std::string junk(1 + pick(8), '\0');
      for (char& c : junk) c = static_cast<char>(pick(256));
      bytes->insert(pick(bytes->size() + 1), junk);
      break;
    }
    case kFieldEdit: {
      const auto [at, width] = layout.fields[pick(layout.fields.size())];
      uint64_t old = 0;
      if (width == 4) {
        uint32_t v = 0;
        Peek(*bytes, at, &v);
        old = v;
      } else {
        Peek(*bytes, at, &old);
      }
      const uint64_t candidates[] = {old + 1, old - 1, old + 4, old - 4,
                                     old * 2, 0, 0xffffffffull,
                                     rng->NextU64()};
      const uint64_t value = candidates[pick(std::size(candidates))];
      if (width == 4) {
        Poke(bytes, at, static_cast<uint32_t>(value));
      } else {
        Poke(bytes, at, value);
      }
      break;
    }
    case kSwap: {
      if (layout.blocks.size() < 2) break;
      size_t a = pick(layout.blocks.size()), b = pick(layout.blocks.size());
      if (a == b) b = (a + 1) % layout.blocks.size();
      if (a > b) std::swap(a, b);
      const auto [a_at, a_len] = layout.blocks[a];
      const auto [b_at, b_len] = layout.blocks[b];
      if (b_at + b_len > bytes->size()) break;
      // Exchange the two blocks; the bytes between them keep their order.
      *bytes = bytes->substr(0, a_at) + bytes->substr(b_at, b_len) +
               bytes->substr(a_at + a_len, b_at - a_at - a_len) +
               bytes->substr(a_at, a_len) + bytes->substr(b_at + b_len);
      break;
    }
  }
}

// --------------------------------------------------------------- fuzz loop

struct Tally {
  int resealed_accepted = 0;
  int resealed_rejected = 0;
};

Tally Fuzz(Format format, const std::string& valid, uint64_t seed) {
  EXPECT_TRUE(AcceptsCanonically(format, valid)) << FormatName(format);
  const Layout layout = LayoutOf(format, valid);
  core::Rng rng(seed);
  Tally tally;
  for (int it = 0; it < kIterations; ++it) {
    std::string bytes = valid;
    const int mutations = 1 + static_cast<int>(rng.UniformInt(2));
    for (int m = 0; m < mutations; ++m) Mutate(layout, &rng, &bytes);

    EXPECT_TRUE(!AcceptsCanonically(format, bytes) || bytes == valid)
        << FormatName(format) << " iteration " << it
        << ": a mutated input passed its stale checksums";

    Reseal(format, &bytes);
    if (AcceptsCanonically(format, bytes)) {
      ++tally.resealed_accepted;
    } else {
      ++tally.resealed_rejected;
    }
  }
  std::remove(TempPath("in").c_str());
  std::remove(TempPath("out").c_str());
  return tally;
}

TEST(PersistenceFuzzTest, Gck1CheckpointDecoder) {
  const Tally t = Fuzz(Format::kGck1, ValidCheckpoint(), kSeed);
  // Resealed inputs must both fail and pass the validators behind the
  // checksums, or those validators went unexercised.
  EXPECT_GT(t.resealed_accepted, 0);
  EXPECT_GT(t.resealed_rejected, 0);
}

TEST(PersistenceFuzzTest, Giv2IndexLoader) {
  core::Rng rng(5);
  const Matrix catalog = Matrix::Randn(40, 6, &rng);
  serving::RetrievalConfig cfg;
  cfg.nlist = 4;
  cfg.seed = 5;
  const std::string path = TempPath("valid.giv");
  ASSERT_TRUE(serving::IvfIndex::Build(catalog, cfg).Save(path).ok());
  const Tally t = Fuzz(Format::kGiv2, ReadAll(path), kSeed + 1);
  EXPECT_GT(t.resealed_accepted, 0);
  EXPECT_GT(t.resealed_rejected, 0);
  std::remove(path.c_str());
}

TEST(PersistenceFuzzTest, Gem2EmbeddingStoreLoader) {
  core::Rng rng(6);
  const std::string path = TempPath("valid.gem");
  ASSERT_TRUE(
      serving::EmbeddingStore(Matrix::Randn(6, 4, &rng)).Save(path).ok());
  const Tally t = Fuzz(Format::kGem2, ReadAll(path), kSeed + 2);
  EXPECT_GT(t.resealed_accepted, 0);
  EXPECT_GT(t.resealed_rejected, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace garcia
