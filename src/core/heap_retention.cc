#include "core/heap_retention.h"

#include <cstddef>
#include <cstdlib>
#include <mutex>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace garcia::core {

namespace {

// While retaining: allocations of at least this size are still mmapped, so
// one huge matrix cannot pin memory in the heap.
constexpr size_t kMmapThreshold = size_t{4} << 20;
// While retaining: free memory at the top of the heap is kept up to this
// size (one full-graph step's tape, with headroom).
constexpr size_t kTrimThreshold = size_t{64} << 20;
// After the last scope: the trim threshold glibc's own dynamic rule pairs
// with kMmapThreshold. The mmap threshold stays: no call turns glibc's
// dynamic threshold back on.
constexpr size_t kRestoredTrimThreshold = 2 * kMmapThreshold;

std::mutex depth_mu;
int depth = 0;  // guarded by depth_mu

}  // namespace

// mallopt's result is deliberately not checked: ASan and TSan intercept it
// and report their own values, and a refused setting only costs speed.
HeapRetention::HeapRetention() {
  std::lock_guard<std::mutex> lock(depth_mu);
  if (depth++ > 0) return;
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, static_cast<int>(kMmapThreshold));
  mallopt(M_TRIM_THRESHOLD, static_cast<int>(kTrimThreshold));
#endif
}

HeapRetention::~HeapRetention() {
  std::lock_guard<std::mutex> lock(depth_mu);
  if (--depth > 0) return;
#ifdef __GLIBC__
  mallopt(M_TRIM_THRESHOLD, static_cast<int>(kRestoredTrimThreshold));
  // glibc compares the heap top with the trim threshold only inside a free()
  // of at least 64 KiB. Make one here, so the top is trimmed now, inside
  // Fit, and not at the first large free of what runs next (the export,
  // timed in refresh_s). volatile keeps the pair from being elided.
  void* volatile trigger = std::malloc(size_t{64} << 10);
  std::free(trigger);
#endif
}

int HeapRetention::Depth() {
  std::lock_guard<std::mutex> lock(depth_mu);
  return depth;
}

}  // namespace garcia::core
