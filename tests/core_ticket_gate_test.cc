// Copyright (c) 2026 GARCIA reproduction authors.
// TicketGate: ascending retirement of concurrently claimed tickets (run
// under TSan) and sequence reset.

#include "core/ticket_gate.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace garcia::core {
namespace {

// Workers claim tickets through an ascending atomic cursor — the same
// claim discipline BatchRanker uses (a blocked WaitTurn only ever waits on
// tickets other live workers hold, so the handoff chain cannot stall) —
// and the gate must retire them strictly in ticket order regardless of
// which worker drew which ticket.
TEST(TicketGateTest, SequencesConcurrentClaimsAscending) {
  for (size_t threads : {2u, 4u, 8u}) {
    TicketGate gate;
    constexpr uint64_t kTickets = 200;
    std::vector<uint64_t> order;  // guarded by the gate itself
    std::atomic<uint64_t> cursor{0};
    std::vector<std::thread> workers;
    for (size_t w = 0; w < threads; ++w) {
      workers.emplace_back([&] {
        for (;;) {
          const uint64_t t = cursor.fetch_add(1);
          if (t >= kTickets) return;
          gate.WaitTurn(t);
          order.push_back(t);  // inside the turn: no race by construction
          gate.FinishTurn(t);
        }
      });
    }
    for (auto& w : workers) w.join();
    ASSERT_EQ(order.size(), kTickets);
    for (uint64_t i = 0; i < kTickets; ++i) EXPECT_EQ(order[i], i);
    EXPECT_EQ(gate.current_turn(), kTickets);
  }
}

TEST(TicketGateTest, ResetRestartsTheSequence) {
  TicketGate gate(4);
  gate.WaitTurn(0);
  gate.FinishTurn(0);
  gate.WaitTurn(1);
  gate.FinishTurn(1);
  EXPECT_EQ(gate.current_turn(), 2u);
  gate.Reset(0);
  EXPECT_EQ(gate.current_turn(), 0u);
  gate.WaitTurn(0);
  gate.FinishTurn(0);
  EXPECT_EQ(gate.current_turn(), 1u);
}

}  // namespace
}  // namespace garcia::core
