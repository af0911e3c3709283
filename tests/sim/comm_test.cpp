// Communication activities: latency + transfer phases, factors, pending
// start (rendezvous-style), loopback, and contention between flows.
#include <gtest/gtest.h>

#include <vector>

#include "platform/clusters.hpp"
#include "sim/engine.hpp"

namespace tir::sim {
namespace {

// 4 hosts on one switch; host links 1e8 B/s, 1e-4 s latency each hop.
platform::Platform quad() {
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = 4;
  spec.cores_per_node = 1;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1e8;
  spec.link_latency = 1e-4;
  platform::build_flat_cluster(p, spec);
  return p;
}

TEST(Comm, TimeIsLatencyPlusBytesOverBandwidth) {
  const platform::Platform p = quad();
  Engine eng(p);
  eng.spawn("a", 0, 0, [](Ctx& ctx) -> Coro {
    co_await ctx.wait(ctx.engine().make_comm(0, 1, 1e6));
  });
  eng.run();
  // Route latency = 2e-4 (two hops); transfer = 1e6 / 1e8 = 1e-2.
  EXPECT_NEAR(eng.now(), 2e-4 + 1e-2, 1e-12);
}

TEST(Comm, LatencyAndBandwidthFactorsScale) {
  const platform::Platform p = quad();
  Engine eng(p);
  eng.spawn("a", 0, 0, [](Ctx& ctx) -> Coro {
    co_await ctx.wait(ctx.engine().make_comm(0, 1, 1e6, /*lat_factor=*/2.0,
                                             /*bw_factor=*/0.5));
  });
  eng.run();
  EXPECT_NEAR(eng.now(), 4e-4 + 2e-2, 1e-12);
}

TEST(Comm, PendingCommWaitsForExplicitStart) {
  const platform::Platform p = quad();
  Engine eng(p);
  ActivityHandle comm;
  double receiver_end = 0.0;
  eng.spawn("receiver", 1, 0, [&](Ctx& ctx) -> Coro {
    co_await ctx.wait(comm);
    receiver_end = ctx.now();
  });
  eng.spawn("starter", 0, 0, [&](Ctx& ctx) -> Coro {
    co_await ctx.sleep(1.0);
    ctx.engine().start_activity(comm);  // rendezvous reached at t=1
  });
  comm = eng.make_comm(0, 1, 1e6, 1.0, 1.0, /*start_now=*/false);
  eng.run();
  EXPECT_NEAR(receiver_end, 1.0 + 2e-4 + 1e-2, 1e-9);
}

TEST(Comm, LoopbackUsesLoopbackParameters) {
  platform::Platform p = quad();
  p.set_loopback(1e9, 1e-6);
  Engine eng(p);
  eng.spawn("a", 0, 0, [](Ctx& ctx) -> Coro {
    co_await ctx.wait(ctx.engine().make_comm(2, 2, 1e6));
  });
  eng.run();
  EXPECT_NEAR(eng.now(), 1e-6 + 1e-3, 1e-12);
}

TEST(Comm, ZeroByteCommStillPaysLatency) {
  const platform::Platform p = quad();
  Engine eng(p);
  eng.spawn("a", 0, 0, [](Ctx& ctx) -> Coro {
    co_await ctx.wait(ctx.engine().make_comm(0, 1, 0.0));
  });
  eng.run();
  EXPECT_NEAR(eng.now(), 2e-4, 1e-9);
}

TEST(Comm, UncontendedModeIgnoresSharing) {
  const platform::Platform p = quad();
  Engine eng(p, EngineConfig{Sharing::Uncontended});
  // Two flows out of host 0 simultaneously; without contention each gets
  // the full link rate.
  eng.spawn("a", 0, 0, [](Ctx& ctx) -> Coro {
    Engine& e = ctx.engine();
    std::vector<ActivityHandle> comms = {e.make_comm(0, 1, 1e6), e.make_comm(0, 2, 1e6)};
    co_await ctx.wait(comms[0]);
    co_await ctx.wait(comms[1]);
  });
  eng.run();
  EXPECT_NEAR(eng.now(), 2e-4 + 1e-2, 1e-9);
}

TEST(Comm, MaxMinModeSharesTheCommonUplink) {
  const platform::Platform p = quad();
  Engine eng(p, EngineConfig{Sharing::MaxMin});
  eng.spawn("a", 0, 0, [](Ctx& ctx) -> Coro {
    Engine& e = ctx.engine();
    std::vector<ActivityHandle> comms = {e.make_comm(0, 1, 1e6), e.make_comm(0, 2, 1e6)};
    co_await ctx.wait(comms[0]);
    co_await ctx.wait(comms[1]);
  });
  eng.run();
  // Both flows share host 0's uplink (1e8): each transfers at 5e7 -> 2e-2.
  EXPECT_NEAR(eng.now(), 2e-4 + 2e-2, 1e-9);
}

TEST(Comm, MaxMinDisjointFlowsDoNotShare) {
  const platform::Platform p = quad();
  Engine eng(p, EngineConfig{Sharing::MaxMin});
  double t0 = 0.0;
  double t1 = 0.0;
  eng.spawn("a", 0, 0, [&](Ctx& ctx) -> Coro {
    co_await ctx.wait(ctx.engine().make_comm(0, 1, 1e6));
    t0 = ctx.now();
  });
  eng.spawn("b", 2, 0, [&](Ctx& ctx) -> Coro {
    co_await ctx.wait(ctx.engine().make_comm(2, 3, 1e6));
    t1 = ctx.now();
  });
  eng.run();
  EXPECT_NEAR(t0, 2e-4 + 1e-2, 1e-9);
  EXPECT_NEAR(t1, 2e-4 + 1e-2, 1e-9);
}

TEST(Comm, BothSenderAndReceiverCanAwaitTheSameComm) {
  const platform::Platform p = quad();
  Engine eng(p);
  ActivityHandle comm;
  double sender_end = 0.0;
  double receiver_end = 0.0;
  eng.spawn("sender", 0, 0, [&](Ctx& ctx) -> Coro {
    co_await ctx.wait(comm);
    sender_end = ctx.now();
  });
  eng.spawn("receiver", 1, 0, [&](Ctx& ctx) -> Coro {
    co_await ctx.wait(comm);
    receiver_end = ctx.now();
  });
  comm = eng.make_comm(0, 1, 1e6);
  eng.run();
  EXPECT_DOUBLE_EQ(sender_end, receiver_end);
  EXPECT_GT(sender_end, 0.0);
}

TEST(Comm, CrossCabinetLatencyIsLarger) {
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = 4;
  spec.link_bandwidth = 1e8;
  spec.link_latency = 1e-4;
  platform::build_cabinet_cluster(p, spec, 2, 1e9, 5e-5);
  Engine eng(p);
  double same = 0.0;
  double cross = 0.0;
  eng.spawn("a", 0, 0, [&](Ctx& ctx) -> Coro {
    Engine& e = ctx.engine();
    // hosts 0 and 2 share cabinet 0; hosts 0 and 1 are in different cabinets
    co_await ctx.wait(e.make_comm(0, 2, 1.0));
    same = ctx.now();
    co_await ctx.wait(e.make_comm(0, 1, 1.0));
    cross = ctx.now() - same;
  });
  eng.run();
  EXPECT_NEAR(same, 2e-4, 1e-6);
  EXPECT_NEAR(cross, 2e-4 + 1e-4, 1e-6);
}

TEST(Comm, EqualMessagesShareConstantDelayLanes) {
  const platform::Platform p = quad();
  for (const Sharing sharing : {Sharing::Uncontended, Sharing::MaxMin}) {
    Engine eng(p, EngineConfig{sharing});
    constexpr int kMessages = 5;
    std::vector<double> done;
    eng.spawn("a", 0, 0, [&](Ctx& ctx) -> Coro {
      std::vector<ActivityHandle> comms;
      // Three destinations, one route latency and bandwidth: one duration.
      for (int i = 0; i < kMessages; ++i) {
        comms.push_back(ctx.engine().make_comm(0, 1 + i % 3, 1e6));
      }
      for (const ActivityHandle& c : comms) {
        co_await ctx.wait(c);
        done.push_back(ctx.now());
      }
    });
    eng.run();
    ASSERT_EQ(done.size(), static_cast<std::size_t>(kMessages));
    if (sharing == Sharing::Uncontended) {
      for (const double t : done) EXPECT_NEAR(t, 2e-4 + 1e-2, 1e-12);
      // One latency lane and one transfer lane: only their heads take heap
      // slots, the other 2 x 4 phases queue behind them.
      EXPECT_EQ(eng.heap_inserts(), 2u);
      EXPECT_EQ(eng.lane_appends(), 2u * (kMessages - 1));
    } else {
      // Latency phases still share a lane; max-min flows, retimed by the
      // solver, always take heap slots.
      EXPECT_EQ(eng.heap_inserts(), 1u + kMessages);
      EXPECT_EQ(eng.lane_appends(), kMessages - 1u);
    }
  }
}

}  // namespace
}  // namespace tir::sim
