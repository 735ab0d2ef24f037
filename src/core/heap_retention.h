// Copyright (c) 2026 GARCIA reproduction authors.
// Allocator retention while a model trains (DESIGN.md §5p).

#ifndef GARCIA_CORE_HEAP_RETENTION_H_
#define GARCIA_CORE_HEAP_RETENTION_H_

namespace garcia::core {

/// RAII scope that keeps glibc from handing freed heap memory back to the
/// kernel while it is alive. Every training step builds and frees a tape of
/// tens of MB; by default glibc trims the freed top of the heap (and unmaps
/// chunks above its mmap threshold) at every step, and the next step faults
/// the same pages back in. Held by models::TrainLoop for a whole Fit.
///
/// The setting is process-global, so scopes are counted process-wide under
/// a mutex: the first live scope raises glibc's mmap and trim thresholds,
/// scopes that nest or overlap from other threads change nothing, and the
/// last one to close lowers the trim threshold again and has glibc trim the
/// free top of the heap at once, so what runs after training does not keep
/// training's high-water mark. It does not call malloc_trim(0): that would
/// also return the free chunks inside the heap, which the export forward
/// reuses, and the export would fault them all back in (DESIGN.md §5p).
/// Without glibc the scope only counts.
class HeapRetention {
 public:
  HeapRetention();
  ~HeapRetention();

  HeapRetention(const HeapRetention&) = delete;
  HeapRetention& operator=(const HeapRetention&) = delete;

  /// Live scopes in the process.
  static int Depth();
};

}  // namespace garcia::core

#endif  // GARCIA_CORE_HEAP_RETENTION_H_
