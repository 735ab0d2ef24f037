// Tests for the shared persistence primitives: core::ReadFile's size cap
// and the core::SectionedFile container (encoding layout, and each
// validation step of the reader in its documented order).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/fileio.h"
#include "core/sectioned_file.h"

namespace garcia::core {
namespace {

std::string TempPath(const char* name) {
  return std::string("/tmp/garcia_fileio_") + name;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------- ReadFile

TEST(ReadFileTest, ReadsWholeFileAtTheCap) {
  const std::string path = TempPath("at_cap");
  const std::string bytes(100000, 'x');  // spans several read chunks
  WriteBytes(path, bytes);
  auto read = ReadFile(path, bytes.size());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, bytes);
  std::remove(path.c_str());
}

TEST(ReadFileTest, OneByteOverTheCapIsIoErrorNamingTheCap) {
  const std::string path = TempPath("over_cap");
  WriteBytes(path, std::string(1001, 'x'));
  auto read = ReadFile(path, 1000);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_NE(read.status().message().find("1000-byte read cap"),
            std::string::npos)
      << read.status().ToString();
  std::remove(path.c_str());
}

TEST(ReadFileTest, MissingFileIsIoError) {
  auto read = ReadFile(TempPath("does_not_exist"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

// ----------------------------------------------------------- SectionedFile

constexpr const char* kNames[] = {"alpha", "beta", "gamma"};
constexpr SectionedFile kFormat{"TST1", 7, kNames};

std::string Sample() { return kFormat.Encode({"a", "", "gamma payload"}); }

Result<std::vector<std::string_view>> Decode(const std::string& bytes) {
  return kFormat.Decode(bytes, "origin");
}

std::string ErrorOf(const std::string& bytes) {
  auto decoded = Decode(bytes);
  EXPECT_FALSE(decoded.ok()) << "accepted";
  if (decoded.ok()) return "";
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded.status().message().rfind("origin: ", 0), 0u)
      << decoded.status().message();
  return decoded.status().message();
}

template <typename T>
void Poke(std::string* bytes, size_t at, T value) {
  std::memcpy(bytes->data() + at, &value, sizeof(T));
}

TEST(SectionedFileTest, LayoutAndZeroCopyViews) {
  const std::string bytes = Sample();
  // 12-byte header, then 16-byte section headers and the payloads.
  ASSERT_EQ(bytes.size(), 12u + 3 * 16 + 1 + 0 + 13);
  EXPECT_EQ(bytes.substr(0, 4), "TST1");
  auto decoded = Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const std::vector<std::string_view>& views = *decoded;
  ASSERT_EQ(views.size(), 3u);
  EXPECT_EQ(views[0], "a");
  EXPECT_EQ(views[1], "");
  EXPECT_EQ(views[2], "gamma payload");
  EXPECT_EQ(views[0].data(), bytes.data() + 28);  // views, not copies
  EXPECT_EQ(views[2].data(), bytes.data() + 12 + 3 * 16 + 1);
}

TEST(SectionedFileTest, EachCheckFailsWithItsOwnMessage) {
  const std::string good = Sample();
  std::string bad = good;
  bad[0] = 'X';
  EXPECT_NE(ErrorOf(bad).find("not a TST1 container"), std::string::npos);
  EXPECT_NE(ErrorOf("TS").find("not a TST1 container"), std::string::npos);
  EXPECT_NE(ErrorOf(good.substr(0, 6)).find("truncated TST1 header"),
            std::string::npos);

  bad = good;
  Poke<uint32_t>(&bad, 4, 8);
  EXPECT_NE(ErrorOf(bad).find("unsupported TST1 version 8"),
            std::string::npos);

  bad = good;
  Poke<uint32_t>(&bad, 8, 4);
  EXPECT_NE(ErrorOf(bad).find("holds 4 sections, expected 3"),
            std::string::npos);

  bad = good;
  Poke<uint32_t>(&bad, 12 + 16 + 1, 3);  // beta's id
  EXPECT_NE(ErrorOf(bad).find("TST1 beta section has id 3, expected 2"),
            std::string::npos);

  bad = good;
  Poke<uint64_t>(&bad, 12 + 4, 1000);  // alpha's size
  EXPECT_NE(ErrorOf(bad).find("TST1 alpha section claims 1000 bytes"),
            std::string::npos);

  EXPECT_NE(ErrorOf(good.substr(0, 12 + 10)).find("truncated TST1 alpha"),
            std::string::npos);

  bad = good;
  bad.back() ^= 0x01;  // inside gamma's payload
  const std::string crc = ErrorOf(bad);
  EXPECT_NE(crc.find("gamma"), std::string::npos) << crc;
  EXPECT_NE(crc.find("checksum"), std::string::npos) << crc;

  EXPECT_NE(ErrorOf(good + "!").find("trailing"), std::string::npos);
}

TEST(SectionedFileTest, ChecksRunInTheDocumentedOrder) {
  // Bad magic wins over everything after it; a bad version over the count.
  std::string bad = Sample();
  bad[0] = 'X';
  Poke<uint32_t>(&bad, 4, 8);
  EXPECT_NE(ErrorOf(bad).find("not a TST1"), std::string::npos);
  bad = Sample();
  Poke<uint32_t>(&bad, 4, 8);
  Poke<uint32_t>(&bad, 8, 4);
  EXPECT_NE(ErrorOf(bad).find("version"), std::string::npos);
  // A corrupt payload and trailing bytes: the checksum is reported first.
  bad = Sample();
  bad.back() ^= 0x01;
  EXPECT_NE(ErrorOf(bad + "!").find("checksum"), std::string::npos);
}

TEST(ByteReaderTest, ReadsAreBoundsCheckedAndAllOrNothing) {
  const std::string bytes("\x01\x00\x00\x00\x02", 5);
  ByteReader r(bytes);
  uint32_t word = 0;
  ASSERT_TRUE(r.Pod(&word));
  EXPECT_EQ(word, 1u);
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_FALSE(r.Pod(&word));  // 4 bytes asked, 1 left: cursor unchanged
  EXPECT_EQ(r.remaining(), 1u);
  std::string_view view;
  EXPECT_FALSE(r.View(2, &view));
  ASSERT_TRUE(r.View(1, &view));
  EXPECT_EQ(view.data(), bytes.data() + 4);
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(r.Bytes(nullptr, 0));
}

}  // namespace
}  // namespace garcia::core
