#include "serving/embedding_store.h"

#include <cstring>
#include <fstream>

#include "core/crc32.h"
#include "core/fileio.h"
#include "core/macros.h"

namespace garcia::serving {

namespace {

// v1 ("GEMB") carried no checksum; it is recognized only to reject it.
constexpr char kMagicV1Retired[4] = {'G', 'E', 'M', 'B'};
constexpr char kMagicV2[4] = {'G', 'E', 'M', '2'};
constexpr uint32_t kVersion = 2;
constexpr uint64_t kMaxRows = 1ull << 32;
constexpr uint64_t kMaxCols = 1ull << 16;

template <typename T>
bool ReadPod(std::ifstream& f, T* out) {
  f.read(reinterpret_cast<char*>(out), sizeof(T));
  return static_cast<bool>(f);
}

}  // namespace

const float* EmbeddingStore::vector(uint32_t id) const {
  GARCIA_CHECK_LT(id, embeddings_.rows());
  return embeddings_.row(id);
}

const float* EmbeddingStore::Find(uint32_t id) const {
  if (id >= embeddings_.rows()) return nullptr;
  return embeddings_.row(id);
}

core::Status EmbeddingStore::Save(const std::string& path) const {
  // Serialize to a buffer, then publish atomically (temp + fsync +
  // rename): a crash mid-save leaves either the previous dump intact or
  // the new one complete, never a torn file a reloading server would
  // reject at startup.
  const uint64_t rows = embeddings_.rows();
  const uint64_t cols = embeddings_.cols();
  const uint64_t payload_bytes = rows * cols * sizeof(float);
  const uint32_t crc = core::Crc32(embeddings_.data(), payload_bytes);
  std::string bytes;
  bytes.reserve(24 + payload_bytes);
  bytes.append(kMagicV2, 4);
  bytes.append(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
  bytes.append(reinterpret_cast<const char*>(&rows), sizeof(rows));
  bytes.append(reinterpret_cast<const char*>(&cols), sizeof(cols));
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  bytes.append(reinterpret_cast<const char*>(embeddings_.data()),
               payload_bytes);
  return core::WriteFileAtomic(path, bytes.data(), bytes.size());
}

core::Result<EmbeddingStore> EmbeddingStore::Load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return core::Status::IoError("cannot open " + path);
  f.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(f.tellg());
  f.seekg(0, std::ios::beg);

  char magic[4];
  f.read(magic, 4);
  if (!f) return core::Status::InvalidArgument(path + " is too short");

  if (std::memcmp(magic, kMagicV1Retired, 4) == 0) {
    return core::Status::InvalidArgument(
        path + ": legacy v1 embedding store has no checksum; re-save");
  }
  if (std::memcmp(magic, kMagicV2, 4) != 0) {
    return core::Status::InvalidArgument(path + " is not an embedding store");
  }
  uint32_t version = 0;
  if (!ReadPod(f, &version)) {
    return core::Status::InvalidArgument("truncated header in " + path);
  }
  if (version != kVersion) {
    return core::Status::InvalidArgument(
        "unsupported embedding store version " + std::to_string(version));
  }

  uint64_t rows = 0, cols = 0;
  if (!ReadPod(f, &rows) || !ReadPod(f, &cols)) {
    return core::Status::InvalidArgument("truncated header in " + path);
  }
  if (rows == 0 || cols == 0 || rows > kMaxRows || cols > kMaxCols) {
    return core::Status::InvalidArgument("corrupt embedding store header");
  }
  // rows*cols*4 cannot overflow: bounded by 2^32 * 2^16 * 4 = 2^50.
  const uint64_t payload_bytes = rows * cols * sizeof(float);
  if (payload_bytes > kMaxPayloadBytes) {
    return core::Status::InvalidArgument(
        "embedding store header claims " + std::to_string(payload_bytes) +
        " payload bytes, over the " + std::to_string(kMaxPayloadBytes) +
        " cap");
  }
  uint32_t expected_crc = 0;
  if (!ReadPod(f, &expected_crc)) {
    return core::Status::InvalidArgument("truncated header in " + path);
  }
  // Validate the claimed payload against the actual file size BEFORE
  // allocating: a crafted 20-byte header must not drive a huge allocation,
  // and trailing garbage means the file is not what the header says.
  const uint64_t header_bytes = static_cast<uint64_t>(f.tellg());
  if (file_size < header_bytes + payload_bytes) {
    return core::Status::IoError("truncated embedding store " + path);
  }
  if (file_size > header_bytes + payload_bytes) {
    return core::Status::InvalidArgument(
        "trailing garbage after embedding payload in " + path);
  }

  core::Matrix m(rows, cols);
  f.read(reinterpret_cast<char*>(m.data()),
         static_cast<std::streamsize>(payload_bytes));
  if (!f) return core::Status::IoError("truncated embedding store " + path);
  if (core::Crc32(m.data(), payload_bytes) != expected_crc) {
    return core::Status::InvalidArgument(
        "embedding store checksum mismatch in " + path +
        " (stored dump is corrupt)");
  }
  return EmbeddingStore(std::move(m));
}

}  // namespace garcia::serving
