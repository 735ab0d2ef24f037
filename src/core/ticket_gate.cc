#include "core/ticket_gate.h"

#include "core/macros.h"

namespace garcia::core {

TicketGate::TicketGate(size_t slots) : slots_(slots == 0 ? 1 : slots) {}

void TicketGate::WaitTurn(uint64_t ticket) {
  // A ticket below the published turn was already finished: an index was
  // issued twice, which would silently corrupt the ordered section.
  GARCIA_CHECK_GE(ticket, turn_.load(std::memory_order_acquire));
  if (turn_.load(std::memory_order_acquire) == ticket) return;
  Slot& slot = slots_[ticket % slots_.size()];
  std::unique_lock<std::mutex> lock(slot.m);
  slot.cv.wait(lock, [&] {
    return turn_.load(std::memory_order_acquire) >= ticket;
  });
  GARCIA_CHECK_EQ(turn_.load(std::memory_order_acquire), ticket);
}

void TicketGate::FinishTurn(uint64_t ticket) {
  GARCIA_CHECK_EQ(turn_.load(std::memory_order_acquire), ticket);
  turn_.store(ticket + 1, std::memory_order_release);
  Slot& slot = slots_[(ticket + 1) % slots_.size()];
  {
    // Empty critical section: a waiter is either before its predicate
    // check (and will observe the new turn) or parked in wait (and will
    // receive the notify). Without the lock the store/notify pair could
    // slip between the two and the wakeup would be lost.
    std::lock_guard<std::mutex> lock(slot.m);
  }
  slot.cv.notify_all();
}

void TicketGate::Reset(uint64_t next) {
  turn_.store(next, std::memory_order_release);
}

}  // namespace garcia::core
