#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/backoff.h"
#include "core/clock.h"
#include "core/crc32.h"
#include "core/rng.h"

namespace garcia::core {
namespace {

TEST(ManualClockTest, TimeMovesOnlyWhenAdvanced) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100u);
  clock.AdvanceMicros(50);
  EXPECT_EQ(clock.NowMicros(), 150u);
  clock.SleepMicros(25);
  EXPECT_EQ(clock.NowMicros(), 175u);
  clock.Reset();
  EXPECT_EQ(clock.NowMicros(), 0u);
}

TEST(SystemClockTest, MonotoneAndSleeps) {
  SystemClock clock;
  const uint64_t t0 = clock.NowMicros();
  clock.SleepMicros(1000);
  EXPECT_GE(clock.NowMicros(), t0 + 1000);
}

TEST(BackoffTest, GrowsExponentiallyWithoutJitter) {
  BackoffConfig cfg;
  cfg.initial_micros = 100;
  cfg.multiplier = 2.0;
  cfg.max_micros = 450;
  cfg.jitter = 0.0;
  EXPECT_EQ(BackoffDelayMicros(cfg, 0, nullptr), 100u);
  EXPECT_EQ(BackoffDelayMicros(cfg, 1, nullptr), 200u);
  EXPECT_EQ(BackoffDelayMicros(cfg, 2, nullptr), 400u);
  EXPECT_EQ(BackoffDelayMicros(cfg, 3, nullptr), 450u);  // capped
}

TEST(BackoffTest, JitterStaysInBandAndIsDeterministic) {
  BackoffConfig cfg;
  cfg.initial_micros = 1000;
  cfg.multiplier = 1.0;
  cfg.max_micros = 1000;
  cfg.jitter = 0.5;
  Rng rng_a(7), rng_b(7);
  for (size_t i = 0; i < 100; ++i) {
    const uint64_t d = BackoffDelayMicros(cfg, i, &rng_a);
    EXPECT_GE(d, 500u);
    EXPECT_LE(d, 1000u);
    EXPECT_EQ(d, BackoffDelayMicros(cfg, i, &rng_b));
  }
}

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(s, std::strlen(s)), 0xcbf43926u);
}

TEST(Crc32Test, StreamingMatchesOneShot) {
  const char* s = "the quick brown fox jumps over the lazy dog";
  const size_t n = std::strlen(s);
  uint32_t streamed = 0;
  streamed = Crc32Update(streamed, s, 10);
  streamed = Crc32Update(streamed, s + 10, n - 10);
  EXPECT_EQ(streamed, Crc32(s, n));
}

// The byte-at-a-time table loop Crc32Update's slice-by-8 must reproduce.
uint32_t BytewiseCrc32(uint32_t crc, const unsigned char* p, size_t n) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  uint32_t c = crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.UniformInt(256));
  }
  return bytes;
}

TEST(Crc32Test, SliceBy8MatchesBytewiseAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buf = RandomBytes(8 + 67, 28);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 67; ++len) {
      ASSERT_EQ(Crc32(buf.data() + offset, len),
                BytewiseCrc32(0, buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
  const std::vector<unsigned char> big = RandomBytes(size_t{1} << 20, 29);
  EXPECT_EQ(Crc32(big.data(), big.size()),
            BytewiseCrc32(0, big.data(), big.size()));
}

TEST(Crc32Test, StreamingSplitAtEveryOffsetMatchesOneShot) {
  const std::vector<unsigned char> buf = RandomBytes(41, 30);
  const uint32_t one_shot = Crc32(buf.data(), buf.size());
  for (size_t split = 0; split <= 16; ++split) {
    const uint32_t head = Crc32Update(0, buf.data(), split);
    EXPECT_EQ(Crc32Update(head, buf.data() + split, buf.size() - split),
              one_shot)
        << "split at " << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  unsigned char buf[64];
  for (size_t i = 0; i < sizeof(buf); ++i) buf[i] = static_cast<unsigned char>(i);
  const uint32_t clean = Crc32(buf, sizeof(buf));
  buf[17] ^= 0x40;
  EXPECT_NE(Crc32(buf, sizeof(buf)), clean);
}

}  // namespace
}  // namespace garcia::core
