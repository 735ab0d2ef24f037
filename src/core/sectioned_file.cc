#include "core/sectioned_file.h"

#include "core/crc32.h"
#include "core/macros.h"

namespace garcia::core {

namespace {

constexpr size_t kMagicBytes = 4;
// u32 id + u64 payload size + u32 crc32.
constexpr size_t kSectionHeaderBytes = 16;

}  // namespace

std::string SectionedFile::Encode(
    std::initializer_list<std::string_view> payloads) const {
  GARCIA_CHECK_EQ(magic.size(), kMagicBytes);
  GARCIA_CHECK_EQ(payloads.size(), section_names.size());
  size_t total = kMagicBytes + 2 * sizeof(uint32_t);
  for (std::string_view p : payloads) total += kSectionHeaderBytes + p.size();
  std::string out;
  out.reserve(total);
  out.append(magic);
  AppendPod(&out, version);
  AppendPod(&out, static_cast<uint32_t>(payloads.size()));
  uint32_t id = 1;
  for (std::string_view p : payloads) {
    AppendPod(&out, id++);
    AppendPod(&out, static_cast<uint64_t>(p.size()));
    AppendPod(&out, Crc32(p.data(), p.size()));
    out.append(p);
  }
  return out;
}

Result<std::vector<std::string_view>> SectionedFile::Decode(
    std::string_view bytes, const std::string& origin) const {
  const std::string tag(magic);
  auto fail = [&](const std::string& what) {
    return Status::InvalidArgument(origin + ": " + what);
  };

  if (bytes.substr(0, magic.size()) != magic) {
    return fail("not a " + tag + " container");
  }
  ByteReader r(bytes.substr(magic.size()));
  uint32_t stored_version = 0, count = 0;
  if (!r.Pod(&stored_version)) return fail("truncated " + tag + " header");
  if (stored_version != version) {
    return fail("unsupported " + tag + " version " +
                std::to_string(stored_version));
  }
  if (!r.Pod(&count)) return fail("truncated " + tag + " header");
  if (count != section_names.size()) {
    return fail(tag + " holds " + std::to_string(count) +
                " sections, expected " +
                std::to_string(section_names.size()));
  }

  std::vector<std::string_view> payloads(count);
  for (uint32_t i = 0; i < count; ++i) {
    const std::string section = tag + " " + section_names[i] + " section";
    uint32_t id = 0, crc = 0;
    uint64_t size = 0;
    if (!r.Pod(&id) || !r.Pod(&size) || !r.Pod(&crc)) {
      return fail("truncated " + section + " header");
    }
    if (id != i + 1) {
      return fail(section + " has id " + std::to_string(id) + ", expected " +
                  std::to_string(i + 1));
    }
    if (!r.View(size, &payloads[i])) {
      return fail(section + " claims " + std::to_string(size) +
                  " bytes but only " + std::to_string(r.remaining()) +
                  " remain");
    }
    if (Crc32(payloads[i].data(), payloads[i].size()) != crc) {
      return fail(section + " checksum mismatch (corrupt bytes)");
    }
  }
  if (!r.exhausted()) {
    return fail("trailing garbage after the last " + tag + " section");
  }
  return payloads;
}

}  // namespace garcia::core
