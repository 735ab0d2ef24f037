// Copyright (c) 2026 GARCIA reproduction authors.
// Ascending-ticket sequencer for ordered critical sections run from many
// threads (the serving resolve phase of serving::ResilientRanker).

#ifndef GARCIA_CORE_TICKET_GATE_H_
#define GARCIA_CORE_TICKET_GATE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>

namespace garcia::core {

/// Ascending-ticket sequencer: thread t calls WaitTurn(t), performs its
/// ordered critical section, then FinishTurn(t) hands the turn to t+1.
/// This is the per-request countdown handoff used by the serving resolve
/// phase — a ring of slot cvs so each FinishTurn wakes only the slot the
/// next ticket waits on, instead of a single cv broadcast to every
/// blocked request.
class TicketGate {
 public:
  explicit TicketGate(size_t slots = 16);

  TicketGate(const TicketGate&) = delete;
  TicketGate& operator=(const TicketGate&) = delete;

  /// Blocks until `ticket` holds the turn. Each ticket value must be
  /// used at most once; a ticket below the current turn means the caller
  /// reused an index and is a checked bug.
  void WaitTurn(uint64_t ticket);

  /// Releases the turn held by `ticket` to ticket + 1.
  void FinishTurn(uint64_t ticket);

  /// Restarts the sequence at `next`. Callers must ensure no thread is
  /// waiting when they reset (run boundaries in the serving harness).
  void Reset(uint64_t next = 0);

  uint64_t current_turn() const {
    return turn_.load(std::memory_order_acquire);
  }

 private:
  struct Slot {
    std::mutex m;
    std::condition_variable cv;
  };

  std::deque<Slot> slots_;  // deque: Slot is not movable
  std::atomic<uint64_t> turn_{0};
};

}  // namespace garcia::core

#endif  // GARCIA_CORE_TICKET_GATE_H_
