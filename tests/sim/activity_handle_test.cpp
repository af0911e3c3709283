// Activity handle lifetime: the engine owns every activity and frees its
// slot right after completion, so a handle must read done() whoever reuses
// the slot; wait-any state must outlive the awaiter's resume while members
// are pending; and activities that never start die with the engine.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "platform/clusters.hpp"
#include "sim/engine.hpp"

namespace tir::sim {
namespace {

platform::Platform two_hosts() {
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = 2;
  spec.cores_per_node = 2;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1e8;
  spec.link_latency = 1e-4;
  platform::build_flat_cluster(p, spec);
  return p;
}

TEST(ActivityHandle, CompletedHandleStaysDoneAfterItsSlotIsReused) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  eng.spawn("a", 0, 0, [](Ctx& ctx) -> Coro {
    Engine& e = ctx.engine();
    const ActivityHandle first = e.start_timer(1.0);
    co_await ctx.wait(first);
    EXPECT_TRUE(first.done());
    const ActivityHandle second = e.start_timer(1.0);
    EXPECT_EQ(second.get(), first.get());  // the freed slot is the next one used
    EXPECT_TRUE(first.done());
    EXPECT_FALSE(second.done());
    co_await ctx.wait(first);  // stale handle: no suspension
    EXPECT_DOUBLE_EQ(ctx.now(), 1.0);
    // Chaining the stale handle must not complete the slot's new occupant.
    e.chain(e.start_timer(0.5), first);
    co_await ctx.wait(second);
    EXPECT_DOUBLE_EQ(ctx.now(), 2.0);
    for (int i = 0; i < 100; ++i) co_await ctx.sleep(0.5);
  });
  eng.run();
  EXPECT_EQ(eng.activities_created(), 103u);
  EXPECT_EQ(eng.activity_slots(), 2u);  // at most two activities live at once
}

TEST(ActivityHandle, WaitAnyResumesBeforeItsOtherMembersComplete) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  std::vector<std::string> log;
  ActivityHandle slow;
  eng.spawn("any", 0, 0, [&](Ctx& ctx) -> Coro {
    Engine& e = ctx.engine();
    slow = e.start_timer(9.0);
    std::vector<ActivityHandle> group = {e.start_timer(5.0), e.start_timer(2.0), slow};
    const int first = co_await ctx.wait_any(group);
    log.push_back("first " + std::to_string(first) + " @" + std::to_string(ctx.now()));
    // Members 0 and 2 of the first group are still pending: its state must
    // stay reserved, or this group would reuse it and be woken at t=5.
    group = {e.start_timer(10.0), slow};
    const int second = co_await ctx.wait_any(group);
    log.push_back("second " + std::to_string(second) + " @" + std::to_string(ctx.now()));
  });
  eng.spawn("plain", 1, 0, [&](Ctx& ctx) -> Coro {
    co_await ctx.sleep(1.0);
    co_await ctx.wait(slow);  // a plain waiter beside two wait-any members
    log.push_back("plain @" + std::to_string(ctx.now()));
  });
  eng.run();
  // Waiters on `slow` wake in registration order: the first group's spent
  // membership (t=0), the plain waiter (t=1), the second group (t=2).
  EXPECT_EQ(log, (std::vector<std::string>{"first 1 @2.000000", "plain @9.000000",
                                           "second 1 @9.000000"}));
  EXPECT_DOUBLE_EQ(eng.now(), 12.0);
}

TEST(ActivityHandle, ZeroWorkExecIsDoneAtBirth) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  eng.spawn("a", 0, 0, [](Ctx& ctx) -> Coro {
    Engine& e = ctx.engine();
    const ActivityHandle nothing = e.start_exec(0, 0, 0.0, 1e9);
    EXPECT_TRUE(nothing.done());
    co_await ctx.wait(nothing);
    EXPECT_DOUBLE_EQ(ctx.now(), 0.0);
    const ActivityHandle work = e.start_exec(0, 0, 1e9, 1e9);
    EXPECT_EQ(work.get(), nothing.get());
    EXPECT_TRUE(nothing.done());
    co_await ctx.wait(work);
    EXPECT_DOUBLE_EQ(ctx.now(), 1.0);
  });
  eng.run();
  EXPECT_EQ(eng.activities_created(), 2u);
}

TEST(ActivityHandle, GateAwaitedByTwoActorsWakesBothInOrder) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  ActivityHandle gate;
  ActivityHandle chained;
  std::vector<std::string> order;
  const auto waiter = [&](const char* name, ActivityHandle* on) {
    return [&order, name, on](Ctx& ctx) -> Coro {
      const ActivityHandle held = *on;
      co_await ctx.wait(held);
      EXPECT_TRUE(held.done());
      order.push_back(std::string(name) + "@" + std::to_string(ctx.now()));
    };
  };
  eng.spawn("a", 0, 0, waiter("a", &gate));
  eng.spawn("b", 0, 1, waiter("b", &gate));
  eng.spawn("c", 1, 0, waiter("c", &chained));
  eng.spawn("opener", 1, 1, [&](Ctx& ctx) -> Coro {
    ctx.engine().chain(gate, chained);  // a third waiter on the gate, after a and b
    co_await ctx.sleep(3.0);
    EXPECT_FALSE(gate.done());
    ctx.engine().complete_now(gate);  // both waiters still hold the handle
    EXPECT_TRUE(gate.done());
    EXPECT_TRUE(chained.done());
  });
  gate = eng.make_gate();
  chained = eng.make_gate();
  eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a@3.000000", "b@3.000000", "c@3.000000"}));
}

TEST(ActivityHandle, EngineDestroyedWithUnstartedActivities) {
  const platform::Platform p = two_hosts();
  {
    Engine eng(p);
    const ActivityHandle gate = eng.make_gate();
    const ActivityHandle never_started = eng.make_comm(0, 1, 1e6, 1.0, 1.0, /*start_now=*/false);
    const ActivityHandle chained = eng.make_gate();
    eng.chain(never_started, chained);
    eng.spawn("gate", 0, 0, [gate](Ctx& ctx) -> Coro { co_await ctx.wait(gate); });
    eng.spawn("recv", 1, 0, [never_started](Ctx& ctx) -> Coro {
      co_await ctx.wait(never_started);
    });
    eng.spawn("any", 1, 1, [gate, chained](Ctx& ctx) -> Coro {
      const std::vector<ActivityHandle> group = {gate, chained};
      co_await ctx.wait_any(group);
    });
    EXPECT_THROW(eng.run(), DeadlockError);
    EXPECT_FALSE(gate.done());
    EXPECT_FALSE(never_started.done());
  }  // suspended actors and their activities go with the engine
}

}  // namespace
}  // namespace tir::sim
