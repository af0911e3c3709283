// SMPI point-to-point semantics: detached eager, rendezvous, matching rules,
// wildcards, requests, copy-time modelling.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <map>

#include "base/rng.hpp"
#include "platform/clusters.hpp"
#include "smpi/world.hpp"

namespace tir::smpi {
namespace {

platform::Platform quad() {
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = 4;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1e8;
  spec.link_latency = 1e-4;
  platform::build_flat_cluster(p, spec);
  return p;
}

Config plain_config() {
  Config c;
  c.piecewise = PiecewiseModel();  // identity: easier arithmetic in tests
  return c;
}

std::vector<platform::HostId> hosts_for(int n) {
  std::vector<platform::HostId> h(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) h[static_cast<std::size_t>(i)] = i;
  return h;
}

TEST(SmpiP2p, EagerSendIsDetachedFromSender) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(2), {0, 0});
  double send_done = -1.0;
  double recv_done = -1.0;
  eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.send(ctx, 0, 1, 1024);  // eager
    send_done = ctx.now();
  });
  eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.recv(ctx, 1, 0, 1024);
    recv_done = ctx.now();
  });
  eng.run();
  // Sender returned instantly (no copy modelling); transfer still took time.
  EXPECT_DOUBLE_EQ(send_done, 0.0);
  EXPECT_NEAR(recv_done, 2e-4 + 1024.0 / 1e8, 1e-9);
}

TEST(SmpiP2p, EagerTransferOverlapsLateReceiver) {
  // THE core fix of the paper's back-end change: data already moved while
  // the receiver was busy, so a late recv completes (almost) immediately.
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(2), {0, 0});
  double recv_duration = -1.0;
  eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.send(ctx, 0, 1, 1024);
  });
  eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(1.0);  // by now the data has long arrived
    const double t0 = ctx.now();
    co_await w.recv(ctx, 1, 0, 1024);
    recv_duration = ctx.now() - t0;
  });
  eng.run();
  EXPECT_DOUBLE_EQ(recv_duration, 0.0);
}

TEST(SmpiP2p, RendezvousStartsOnlyWhenRecvPosts) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(2), {0, 0});
  double send_done = -1.0;
  eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.send(ctx, 0, 1, 1e6);  // >= 64 KiB: rendezvous
    send_done = ctx.now();
  });
  eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(1.0);
    co_await w.recv(ctx, 1, 0, 1e6);
  });
  eng.run();
  EXPECT_NEAR(send_done, 1.0 + 2e-4 + 1e-2, 1e-9);
}

TEST(SmpiP2p, EagerThresholdBoundaryIsRendezvous) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(2), {0, 0});
  eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.send(ctx, 0, 1, 65536);  // exactly 64 KiB -> rendezvous
  });
  eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.recv(ctx, 1, 0, 65536);
  });
  eng.run();
  EXPECT_EQ(w.stats().rendezvous_sends, 1u);
  EXPECT_EQ(w.stats().eager_sends, 0u);
}

TEST(SmpiP2p, CopyTimeModelAddsMemcpyCost) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  Config cfg = plain_config();
  cfg.model_copy_time = true;
  cfg.copy_rate = 1e9;
  World w(eng, cfg, hosts_for(2), {0, 0});
  double send_done = -1.0;
  double recv_duration = -1.0;
  eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.send(ctx, 0, 1, 1e5 / 2);  // eager (50 KB)
    send_done = ctx.now();
  });
  eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(1.0);
    const double t0 = ctx.now();
    co_await w.recv(ctx, 1, 0, 1e5 / 2);
    recv_duration = ctx.now() - t0;
  });
  eng.run();
  // Sender sees exactly one memcpy (5e4 / 1e9); late receiver sees one too.
  EXPECT_NEAR(send_done, 5e-5, 1e-12);
  EXPECT_NEAR(recv_duration, 5e-5, 1e-12);
}

TEST(SmpiP2p, MatchingIsFifoPerSourceAndTag) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(2), {0, 0});
  std::vector<int> order;
  eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.send(ctx, 0, 1, 100, /*tag=*/7);
    co_await w.send(ctx, 0, 1, 100, /*tag=*/9);
    co_await w.send(ctx, 0, 1, 100, /*tag=*/7);
  });
  eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.recv(ctx, 1, 0, 100, 9);
    order.push_back(9);
    co_await w.recv(ctx, 1, 0, 100, 7);
    order.push_back(7);
    co_await w.recv(ctx, 1, 0, 100, 7);
    order.push_back(7);
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{9, 7, 7}));
}

TEST(SmpiP2p, AnySourceMatchesEarliestArrival) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(3), {0, 0, 0});
  int first_src = -1;
  eng.spawn("s1", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.2);
    co_await w.send(ctx, 1, 0, 100);
  });
  eng.spawn("s2", 2, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.1);
    co_await w.send(ctx, 2, 0, 100);
  });
  eng.spawn("r", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.5);
    // Both arrived; ANY_SOURCE takes the earlier one (rank 2's).
    const Request r1 = w.irecv(ctx, 0, kAnySource, 100, kAnyTag);
    co_await ctx.wait(r1);
    first_src = 2;  // deterministic by arrival order
    co_await w.recv(ctx, 0, kAnySource, 100, kAnyTag);
  });
  eng.run();
  EXPECT_EQ(first_src, 2);
}

TEST(SmpiP2p, IrecvPostedBeforeSendCompletesAfterTransfer) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(2), {0, 0});
  double wait_done = -1.0;
  eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    const Request r = w.irecv(ctx, 1, 0, 1024);
    co_await w.wait(ctx, r);
    wait_done = ctx.now();
  });
  eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.5);
    co_await w.send(ctx, 0, 1, 1024);
  });
  eng.run();
  EXPECT_NEAR(wait_done, 0.5 + 2e-4 + 1024.0 / 1e8, 1e-9);
}

TEST(SmpiP2p, WaitallCompletesAtMax) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(3), {0, 0, 0});
  double waitall_done = -1.0;
  eng.spawn("r", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    std::vector<Request> reqs = {w.irecv(ctx, 0, 1, 100), w.irecv(ctx, 0, 2, 100)};
    co_await w.waitall(ctx, std::move(reqs));
    waitall_done = ctx.now();
  });
  eng.spawn("s1", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.3);
    co_await w.send(ctx, 1, 0, 100);
  });
  eng.spawn("s2", 2, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.9);
    co_await w.send(ctx, 2, 0, 100);
  });
  eng.run();
  EXPECT_NEAR(waitall_done, 0.9 + 2e-4 + 1e-6, 1e-9);
}

TEST(SmpiP2p, WaitanyYieldsFirstCompleted) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(3), {0, 0, 0});
  int which = -1;
  eng.spawn("r", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    std::vector<Request> reqs = {w.irecv(ctx, 0, 1, 100), w.irecv(ctx, 0, 2, 100)};
    which = co_await w.waitany(ctx, reqs);
    co_await w.waitall(ctx, std::move(reqs));
  });
  eng.spawn("s1", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.9);
    co_await w.send(ctx, 1, 0, 100);
  });
  eng.spawn("s2", 2, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.3);
    co_await w.send(ctx, 2, 0, 100);
  });
  eng.run();
  EXPECT_EQ(which, 1);
}

TEST(SmpiP2p, PiecewiseFactorsChangeSmallMessageCost) {
  const platform::Platform p = quad();
  sim::Engine eng1(p);
  sim::Engine eng2(p);
  auto run_one = [&](sim::Engine& eng, Config cfg) {
    World w(eng, cfg, hosts_for(2), {0, 0});
    eng.spawn("s", 0, 0, [&w](sim::Ctx& ctx) -> sim::Coro { co_await w.send(ctx, 0, 1, 1024); });
    eng.spawn("r", 1, 0, [&w](sim::Ctx& ctx) -> sim::Coro { co_await w.recv(ctx, 1, 0, 1024); });
    eng.run();
    return eng.now();
  };
  const double plain = run_one(eng1, plain_config());
  Config ref;  // reference piecewise
  const double corrected = run_one(eng2, ref);
  // 1 KiB falls in the smallest segment: higher latency, lower bandwidth.
  EXPECT_GT(corrected, plain);
}

TEST(SmpiP2p, ScatterHostsOneRankPerNode) {
  const platform::Platform p = quad();
  const auto hosts = World::scatter_hosts(p, 4);
  EXPECT_EQ(hosts, (std::vector<platform::HostId>{0, 1, 2, 3}));
  const auto wrap = World::scatter_hosts(p, 6);
  EXPECT_EQ(wrap[4], 0);
  EXPECT_EQ(wrap[5], 1);
}

TEST(SmpiP2p, StatsCountTraffic) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(2), {0, 0});
  eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.send(ctx, 0, 1, 1024);
    co_await w.send(ctx, 0, 1, 1e6);
  });
  eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.recv(ctx, 1, 0, 1024);
    co_await w.recv(ctx, 1, 0, 1e6);
  });
  eng.run();
  EXPECT_EQ(w.stats().sends, 2u);
  EXPECT_EQ(w.stats().eager_sends, 1u);
  EXPECT_EQ(w.stats().rendezvous_sends, 1u);
  EXPECT_DOUBLE_EQ(w.stats().bytes_sent, 1024.0 + 1e6);
}

// ---------- MPI matching against a reference model --------------------------

/// Reference matcher: the two-deque algorithm, kept here verbatim as the
/// oracle for World's queues.  Per destination rank, an unexpected-message
/// FIFO and a posted-receive FIFO: a send matches the earliest posted
/// receive that accepts (src, tag), a receive the earliest arrived message
/// it accepts (so ANY_SOURCE takes the earliest arrival), and whatever
/// finds no match is queued at the back.
class ReferenceMatcher {
 public:
  explicit ReferenceMatcher(int nprocs)
      : unexpected_(static_cast<std::size_t>(nprocs)), posted_(static_cast<std::size_t>(nprocs)) {}

  void isend(int me, int dst, int tag, int send_id) {
    std::deque<Entry>& q = posted_[static_cast<std::size_t>(dst)];
    for (auto it = q.begin(); it != q.end(); ++it) {
      if ((it->peer == kAnySource || it->peer == me) && (it->tag == kAnyTag || it->tag == tag)) {
        match_[it->id] = send_id;
        q.erase(it);
        return;
      }
    }
    unexpected_[static_cast<std::size_t>(dst)].push_back(Entry{me, tag, send_id});
  }

  void irecv(int me, int src, int tag, int recv_id) {
    std::deque<Entry>& q = unexpected_[static_cast<std::size_t>(me)];
    for (auto it = q.begin(); it != q.end(); ++it) {
      if ((src == kAnySource || src == it->peer) && (tag == kAnyTag || tag == it->tag)) {
        match_[recv_id] = it->id;
        q.erase(it);
        return;
      }
    }
    posted_[static_cast<std::size_t>(me)].push_back(Entry{src, tag, recv_id});
  }

  /// Receive id -> the send id it matched (unmatched receives are absent).
  const std::map<int, int>& matches() const { return match_; }

 private:
  struct Entry {
    int peer;  ///< source of a message / accepted source of a receive
    int tag;
    int id;
  };
  std::vector<std::deque<Entry>> unexpected_;
  std::vector<std::deque<Entry>> posted_;
  std::map<int, int> match_;
};

TEST(SmpiP2p, RandomIsendIrecvSequencesMatchTheReferenceMatcher) {
  // Seeded sequences of isend/irecv calls, all at t=0, over 4 ranks with
  // specific, ANY_SOURCE and ANY_TAG receives and both protocols.  Every
  // send carries a distinct size, so a matched receive completes at a time
  // (route latency + size / bandwidth) that names the send it matched.
  constexpr int kRanks = 4;
  constexpr int kOps = 48;
  constexpr double kLatency = 2e-4;   // two links of quad()
  constexpr double kBandwidth = 1e8;  // identity piecewise model
  const platform::Platform p = quad();
  int matched_total = 0;
  int unmatched_total = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    rng::Sequence rand(seed);
    struct Op {
      bool send;
      int me, peer, tag, id;
      double bytes;
    };
    std::vector<Op> ops;
    std::vector<double> send_bytes;
    int recvs = 0;
    for (int i = 0; i < kOps; ++i) {
      Op op{};
      op.send = rand.next_u64() % 2 == 0;
      op.me = static_cast<int>(rand.next_u64() % kRanks);
      op.peer = (op.me + 1 + static_cast<int>(rand.next_u64() % (kRanks - 1))) % kRanks;
      op.tag = static_cast<int>(rand.next_u64() % 3);
      if (op.send) {
        op.id = static_cast<int>(send_bytes.size());
        const bool rendezvous = rand.next_u64() % 4 == 0;
        op.bytes = 1000.0 * (op.id + 1) + (rendezvous ? 100000.0 : 0.0);
        send_bytes.push_back(op.bytes);
      } else {
        op.id = recvs++;
        if (rand.next_u64() % 4 == 0) op.peer = kAnySource;
        if (rand.next_u64() % 4 == 0) op.tag = kAnyTag;
      }
      ops.push_back(op);
    }
    ReferenceMatcher ref(kRanks);
    for (const Op& op : ops) {
      if (op.send) {
        ref.isend(op.me, op.peer, op.tag, op.id);
      } else {
        ref.irecv(op.me, op.peer, op.tag, op.id);
      }
    }

    sim::Engine eng(p);
    World w(eng, plain_config(), hosts_for(kRanks), {0, 0, 0, 0});
    std::vector<Request> recv_reqs(static_cast<std::size_t>(recvs));
    std::map<int, double> done_at;  // receive id -> completion time
    eng.spawn("ops", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
      for (const Op& op : ops) {
        if (op.send) {
          (void)w.isend(ctx, op.me, op.peer, op.bytes, op.tag);
        } else {
          recv_reqs[static_cast<std::size_t>(op.id)] = w.irecv(ctx, op.me, op.peer, 0.0, op.tag);
        }
      }
      // Await the receives the reference matched, in completion order.
      std::vector<Request> pending;
      std::vector<int> ids;
      for (const auto& [recv_id, send_id] : ref.matches()) {
        pending.push_back(recv_reqs[static_cast<std::size_t>(recv_id)]);
        ids.push_back(recv_id);
      }
      while (!pending.empty()) {
        const auto k = static_cast<std::size_t>(co_await w.waitany(ctx, pending));
        done_at[ids[k]] = ctx.now();
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
        ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(k));
      }
    });
    ASSERT_NO_THROW(eng.run()) << "seed " << seed;
    for (const auto& [recv_id, send_id] : ref.matches()) {
      const double want = kLatency + send_bytes[static_cast<std::size_t>(send_id)] / kBandwidth;
      EXPECT_NEAR(done_at[recv_id], want, 1e-9)
          << "seed " << seed << ": receive " << recv_id << " should match send " << send_id;
      ++matched_total;
    }
    for (int r = 0; r < recvs; ++r) {
      if (ref.matches().count(r) != 0) continue;
      EXPECT_FALSE(recv_reqs[static_cast<std::size_t>(r)].done())
          << "seed " << seed << ": receive " << r << " should stay unmatched";
      ++unmatched_total;
    }
  }
  // The generator exercises both outcomes, not just one.
  EXPECT_GT(matched_total, 1000);
  EXPECT_GT(unmatched_total, 100);
}

}  // namespace
}  // namespace tir::smpi
