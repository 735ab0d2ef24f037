// Copyright (c) 2026 GARCIA reproduction authors.
// Persistent embedding store: the offline-to-online hand-off of Fig. 9
// ("embedding inference for queries and services is daily executed for
// online serving"). Binary format with a small versioned header and a
// CRC-32 payload checksum, so a corrupt daily dump is rejected at load time
// instead of silently serving garbage embeddings.

#ifndef GARCIA_SERVING_EMBEDDING_STORE_H_
#define GARCIA_SERVING_EMBEDDING_STORE_H_

#include <cstdint>
#include <string>

#include "core/matrix.h"
#include "core/status.h"

namespace garcia::serving {

/// Row i holds entity i's embedding.
class EmbeddingStore {
 public:
  EmbeddingStore() = default;
  explicit EmbeddingStore(core::Matrix embeddings)
      : embeddings_(std::move(embeddings)) {}

  size_t size() const { return embeddings_.rows(); }
  size_t dim() const { return embeddings_.cols(); }
  bool empty() const { return embeddings_.empty(); }

  const core::Matrix& matrix() const { return embeddings_; }

  /// Row of a known-valid id. Aborts on out-of-range — use only where the
  /// id was already validated; serving paths should prefer Find().
  const float* vector(uint32_t id) const;

  /// Non-aborting lookup: nullptr when the id is not in the store (e.g. a
  /// cold-start tail query absent from yesterday's dump).
  const float* Find(uint32_t id) const;
  bool Contains(uint32_t id) const { return id < embeddings_.rows(); }

  /// Binary serialization. Save writes format v2: "GEM2" magic, u32
  /// version, u64 rows/cols, CRC-32 of the payload, row-major floats.
  /// Load accepts v2 only, so every load is CRC-checked: a legacy v1
  /// ("GEMB", no checksum) file is rejected with a named InvalidArgument.
  /// Load also rejects truncation, trailing garbage, and headers whose
  /// claimed payload exceeds the actual file size or the global cap.
  core::Status Save(const std::string& path) const;
  static core::Result<EmbeddingStore> Load(const std::string& path);

  /// Hard cap on the payload a header may claim (guards a crafted tiny
  /// file from triggering an enormous allocation).
  static constexpr uint64_t kMaxPayloadBytes = 1ull << 34;  // 16 GiB

 private:
  core::Matrix embeddings_;
};

}  // namespace garcia::serving

#endif  // GARCIA_SERVING_EMBEDDING_STORE_H_
