// Copyright (c) 2026 GARCIA reproduction authors.
// The one sectioned, CRC-checked container behind the GCK1 training
// checkpoints (train/checkpoint.h) and the GIV2 IVF index dumps
// (serving/ivf_index.h), plus the bounds-checked byte reader every on-disk
// decoder uses (GCK1, GIV2 and the flat GEM2 embedding dump).
//
// Layout, all integers little-endian as written by the host:
//
//   magic (4 bytes) | u32 version | u32 num_sections
//   then num_sections times: u32 id | u64 payload_size | u32 crc32 | payload
//
// Ids run 1..n in order; there are no optional, repeated or unknown
// sections, so a list of payloads has exactly one encoding. The reader
// validates the whole container before any payload is interpreted and
// hands the payloads back as views into the caller's buffer (no copies):
//   1. magic            "<origin>: not a <MAGIC> container"
//   2. version          "<origin>: unsupported <MAGIC> version <v>"
//   3. section count    must equal the format's number of section names
//   4. each id          must equal its 1-based position
//   5. each size        must fit in the bytes that remain
//   6. each CRC-32      "<origin>: <MAGIC> <name> section checksum mismatch"
//   7. trailing bytes   none allowed after the last section
// Every failure is kInvalidArgument and names the origin; 4-6 also name
// the section.

#ifndef GARCIA_CORE_SECTIONED_FILE_H_
#define GARCIA_CORE_SECTIONED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace garcia::core {

/// Appends the raw bytes of a trivially copyable value.
template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Bounds-checked sequential reader over a byte view. Every read either
/// succeeds entirely or returns false and leaves the cursor unchanged.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  bool Pod(T* out) {
    return Bytes(out, sizeof(T));
  }

  bool Bytes(void* out, size_t n) {
    if (n > remaining()) return false;
    if (n > 0) std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  /// Zero-copy form of Bytes: `out` views the next n bytes.
  bool View(size_t n, std::string_view* out) {
    if (n > remaining()) return false;
    *out = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

/// One container format: its 4-byte magic, its version, and its section
/// names in id order (ids 1..n). Each format declares one constant, e.g.
///   constexpr const char* kNames[] = {"meta", "lists"};
///   constexpr core::SectionedFile kFormat{"ABC1", 1, kNames};
struct SectionedFile {
  std::string_view magic;
  uint32_t version = 0;
  std::span<const char* const> section_names;

  /// Encodes one payload per section name, in id order; each payload is
  /// appended once.
  std::string Encode(std::initializer_list<std::string_view> payloads) const;

  /// Validates `bytes` as this format (see the header comment for the
  /// checks and their order) and returns one payload view per section,
  /// pointing into `bytes`; the caller keeps `bytes` alive while it reads
  /// them. `origin` (usually the file path) prefixes every error.
  Result<std::vector<std::string_view>> Decode(std::string_view bytes,
                                               const std::string& origin) const;
};

}  // namespace garcia::core

#endif  // GARCIA_CORE_SECTIONED_FILE_H_
