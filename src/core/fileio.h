// Copyright (c) 2026 GARCIA reproduction authors.
// Crash-safe file primitives shared by every on-disk artifact: GEM2
// embedding dumps (serving/embedding_store.h), GCK1 training checkpoints
// (train/checkpoint.h) and GIV2 IVF index dumps (serving/ivf_index.h).
// GCK1 and GIV2 share one container codec (core/sectioned_file.h).
//
// The atomic write protocol is the classic temp-file dance: write the full
// payload to "<path>.tmp", fsync the file, rename(2) it over the final
// path, then fsync the containing directory. A crash at any instant leaves
// either the previous version of `path` intact or the new one complete —
// never a torn file under the final name. (A stray .tmp may survive a
// crash; readers must ignore it and writers overwrite it.)

#ifndef GARCIA_CORE_FILEIO_H_
#define GARCIA_CORE_FILEIO_H_

#include <cstddef>
#include <limits>
#include <string>

#include "core/status.h"

namespace garcia::core {

/// Atomically replaces `path` with the given bytes (see header comment).
/// On failure the previous content of `path`, if any, is untouched.
Status WriteFileAtomic(const std::string& path, const void* data,
                       size_t num_bytes);

/// Whole-file read. Fails with kIoError when the file is missing or larger
/// than `max_bytes` (a cap against reading a bogus multi-GiB artifact into
/// memory before any header validation has run). The size is checked with
/// fstat before the first byte is read, so an oversized file costs no read
/// at all, and the buffer is reserved once at the file's size; the cap is
/// re-checked while reading in case the file grows meanwhile.
Result<std::string> ReadFile(
    const std::string& path,
    size_t max_bytes = std::numeric_limits<size_t>::max());

}  // namespace garcia::core

#endif  // GARCIA_CORE_FILEIO_H_
