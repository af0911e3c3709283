// The old replay engine: the paper's first prototype, reproduced as the
// experimental baseline.  Its three known sins (paper §2.4, §3.3):
//
//   1. `send` of a sub-64 KiB message maps to a fire-and-forget isend into
//      mailbox "<src>_<dst>", but MSG semantics start the transfer only
//      when the receiver matches - so the receiver pays full latency +
//      transfer time on its own critical path for every small message,
//      which real eager mode overlaps.  The per-message inaccuracy
//      accumulates linearly with the number of messages, hence with the
//      process count (Figure 3's linear error growth).
//   2. No piecewise-linear protocol corrections: raw link parameters.
//   3. Collectives are monolithic analytic delays (synchronize, then sleep
//      a closed-form estimate) instead of point-to-point algorithms.
#include <cmath>
#include <deque>
#include <memory>

#include "core/session.hpp"
#include "msg/msg.hpp"
#include "obs/replay_events.hpp"

namespace tir::core {

namespace {

/// 64 KiB, as hard-coded in the paper's old action_send.
constexpr double kSmallMessage = 65536.0;

/// Closed-form collective estimates of the old back-end: log2(n) stages of
/// (latency + volume/bandwidth) for tree-shaped operations, (n-1) stages
/// for all-to-all style ones.
struct MonolithicModel {
  double latency = 0.0;    ///< end-to-end latency between two hosts
  double bandwidth = 0.0;  ///< bottleneck bandwidth of one path

  double stage(double bytes) const { return latency + bytes / bandwidth; }
  double tree(int n, double bytes) const {
    return std::ceil(std::log2(std::max(n, 2))) * stage(bytes);
  }
};

struct OldReplayShared {
  msg::Mailboxes mailboxes;
  std::vector<std::unique_ptr<msg::Rendezvous>> sync;  // one slot per collective site
  MonolithicModel model;
  int nprocs;

  OldReplayShared(sim::Engine& engine, int n) : mailboxes(engine), nprocs(n) {}

  /// All collectives reuse one global rendezvous (ranks hit collectives in
  /// the same order, as MPI requires).
  msg::Rendezvous& rendezvous(sim::Engine& engine) {
    if (sync.empty()) sync.push_back(std::make_unique<msg::Rendezvous>(engine, nprocs));
    return *sync.front();
  }
};

std::string box_name(int src, int dst) {
  return std::to_string(src) + "_" + std::to_string(dst);
}

/// Synchronize everyone, then charge the analytic collective delay.
sim::Coro monolithic(sim::Ctx& ctx, OldReplayShared& shared, double delay) {
  co_await shared.rendezvous(ctx.engine()).arrive_and_wait(ctx);
  if (delay > 0.0) co_await ctx.sleep(delay);
}

/// Per-rank state behind the engine's deadlock/watchdog diagnosis (same
/// shape as the new back-end's; see replay_smpi.cpp).  Plain data only: the
/// hot loop records what the rank blocks on, and describe_rank() formats the
/// text on the rare path that needs it (deadlock/watchdog reports).
struct RankDiag {
  enum class Wait : std::uint8_t { None, Mailbox, OldestRequest, AllRequests, Collective };

  tit::Action last{};
  std::uint64_t completed = 0;
  Wait wait = Wait::None;
  tit::Action wait_action{};     ///< the blocking action (Mailbox/Collective)
  int box_src = 0;               ///< mailbox "<src>_<dst>" (Wait::Mailbox)
  int box_dst = 0;
  std::uint64_t wait_count = 0;  ///< outstanding requests (AllRequests)
};

std::string describe_rank(const RankDiag& diag) {
  std::string s;
  switch (diag.wait) {
    case RankDiag::Wait::None:
      s = "blocked";
      break;
    case RankDiag::Wait::Mailbox:
      s = "blocked on mailbox " + box_name(diag.box_src, diag.box_dst) + ": " +
          tit::to_line(diag.wait_action);
      break;
    case RankDiag::Wait::OldestRequest:
      s = "blocked on wait (oldest outstanding request)";
      break;
    case RankDiag::Wait::AllRequests:
      s = "blocked on waitall (" + std::to_string(diag.wait_count) + " outstanding request(s))";
      break;
    case RankDiag::Wait::Collective:
      s = "blocked on collective rendezvous: " + tit::to_line(diag.wait_action);
      break;
  }
  if (diag.completed > 0) {
    s += "; last completed: " + tit::to_line(diag.last) + " (action #" +
         std::to_string(diag.completed - 1) + ")";
  } else {
    s += "; no action completed yet";
  }
  return s;
}

void check_p2p_partner(int me, int nprocs, const tit::Action& a) {
  if (a.partner < 0 || a.partner >= nprocs) {
    throw MalformedTraceError("p" + std::to_string(me) +
                              ": partner out of range: " + tit::to_line(a));
  }
  if (a.partner == me) {
    throw MalformedTraceError("p" + std::to_string(me) + ": self-message: " + tit::to_line(a));
  }
}

sim::Coro replay_rank_msg(sim::Ctx& ctx, int me, titio::ActionSource& source,
                          OldReplayShared& shared, const ReplayConfig& config,
                          std::uint64_t& actions) {
  const double rate = config.rate_for(me);
  const int n = shared.nprocs;
  std::deque<msg::Request> outstanding;
  RankDiag diag;
  ctx.set_diagnoser([&diag] { return describe_rank(diag); });
  // Mailbox handles resolved once per peer: the hot loop then never builds
  // a "<src>_<dst>" name or hashes it.
  std::vector<msg::BoxId> to_peer(static_cast<std::size_t>(n), -1);
  std::vector<msg::BoxId> from_peer(static_cast<std::size_t>(n), -1);
  const auto out_box = [&](int dst) {
    msg::BoxId& id = to_peer[static_cast<std::size_t>(dst)];
    if (id < 0) id = shared.mailboxes.box(box_name(me, dst));
    return id;
  };
  const auto in_box = [&](int src) {
    msg::BoxId& id = from_peer[static_cast<std::size_t>(src)];
    if (id < 0) id = shared.mailboxes.box(box_name(src, me));
    return id;
  };
  obs::Sink* const sink = config.sink;  // hoisted: one load, no per-action deref
  std::int64_t collective_site = 0;     // same numbering as the static validator
  if (config.resume != nullptr) {
    // Checkpoint restore: adopt the prefix's collective-site numbering and
    // hold this rank at its boundary time before the first suffix action.
    collective_site =
        static_cast<std::int64_t>(config.resume->collective_sites[static_cast<std::size_t>(me)]);
    const double t = config.resume->times[static_cast<std::size_t>(me)];
    if (t > 0.0) co_await ctx.sleep(t);
  }
  tit::Action a;
  while (source.next(me, a)) {
    ++actions;
    if (sink != nullptr) {
      sink->on_phase_begin(obs::phase_event(me, a, collective_site), ctx.now());
      if (obs::is_collective(a.type)) ++collective_site;
      if (a.type == tit::ActionType::Send || a.type == tit::ActionType::Isend) {
        // The MSG layer has no protocol split; classify by the old
        // back-end's own 64 KiB async/blocking threshold.
        sink->on_message(me, a.partner, a.volume, a.volume < kSmallMessage, false);
      }
    }
    switch (a.type) {
      case tit::ActionType::Init:
      case tit::ActionType::Finalize:
        break;
      case tit::ActionType::Compute:
        co_await ctx.execute_at(a.volume, rate);
        break;
      case tit::ActionType::Send:
        check_p2p_partner(me, n, a);
        // The paper's old action_send: async below 64 KiB, blocking above.
        if (a.volume < kSmallMessage) {
          shared.mailboxes.send_async(ctx, out_box(a.partner), a.volume);
        } else {
          diag.wait = RankDiag::Wait::Mailbox;
          diag.wait_action = a;
          diag.box_src = me;
          diag.box_dst = a.partner;
          // Flattened send(): isend + wait without the nested coroutine frame.
          co_await ctx.wait(shared.mailboxes.isend(ctx, out_box(a.partner), a.volume));
        }
        break;
      case tit::ActionType::Isend:
        check_p2p_partner(me, n, a);
        outstanding.push_back(shared.mailboxes.isend(ctx, out_box(a.partner), a.volume));
        break;
      case tit::ActionType::Recv:
      case tit::ActionType::Irecv: {
        check_p2p_partner(me, n, a);
        // The old framework had no true nonblocking receive; irecv degraded
        // to a blocking mailbox read (one of its crude simplifications).
        diag.wait = RankDiag::Wait::Mailbox;
        diag.wait_action = a;
        diag.box_src = a.partner;
        diag.box_dst = me;
        // Flattened recv(): this loop runs once per received message, so the
        // nested coroutine frame recv() allocates is pure overhead here.  The
        // slot lives in this frame, which outlives the match (we await it).
        msg::RecvSlot slot;
        msg::Request r = shared.mailboxes.match_or_post(ctx, in_box(a.partner), slot);
        if (r == nullptr) {
          co_await ctx.wait(slot.matched);
          r = slot.comm;
        }
        co_await ctx.wait(r);
        break;
      }
      case tit::ActionType::Wait:
        if (!outstanding.empty()) {
          diag.wait = RankDiag::Wait::OldestRequest;
          const msg::Request r = outstanding.front();
          outstanding.pop_front();
          co_await ctx.wait(r);
        }
        break;
      case tit::ActionType::WaitAll:
        diag.wait = RankDiag::Wait::AllRequests;
        diag.wait_count = outstanding.size();
        while (!outstanding.empty()) {
          const msg::Request r = outstanding.front();
          outstanding.pop_front();
          co_await ctx.wait(r);
        }
        break;
      case tit::ActionType::Barrier:
        diag.wait = RankDiag::Wait::Collective;
        diag.wait_action = a;
        co_await monolithic(ctx, shared, shared.model.stage(1.0));
        break;
      case tit::ActionType::Bcast:
        diag.wait = RankDiag::Wait::Collective;
        diag.wait_action = a;
        co_await monolithic(ctx, shared, shared.model.tree(n, a.volume));
        break;
      case tit::ActionType::Reduce:
        diag.wait = RankDiag::Wait::Collective;
        diag.wait_action = a;
        co_await monolithic(ctx, shared, shared.model.tree(n, a.volume));
        co_await ctx.execute_at(std::max(a.volume2, 1.0), rate);
        break;
      case tit::ActionType::AllReduce:
        diag.wait = RankDiag::Wait::Collective;
        diag.wait_action = a;
        co_await monolithic(ctx, shared, 2.0 * shared.model.tree(n, a.volume));
        co_await ctx.execute_at(std::max(a.volume2, 1.0), rate);
        break;
      case tit::ActionType::AllToAll:
        diag.wait = RankDiag::Wait::Collective;
        diag.wait_action = a;
        co_await monolithic(ctx, shared, (n - 1) * shared.model.stage(a.volume));
        break;
      case tit::ActionType::AllGather:
        diag.wait = RankDiag::Wait::Collective;
        diag.wait_action = a;
        co_await monolithic(ctx, shared, (n - 1) * shared.model.stage(a.volume));
        break;
      case tit::ActionType::Gather:
      case tit::ActionType::Scatter:
        diag.wait = RankDiag::Wait::Collective;
        diag.wait_action = a;
        co_await monolithic(ctx, shared, shared.model.tree(n, a.volume));
        break;
    }
    if (sink != nullptr) sink->on_phase_end(me, ctx.now());
    diag.last = a;
    ++diag.completed;
    diag.wait = RankDiag::Wait::None;
  }
}

}  // namespace

ReplayResult replay_msg(titio::ActionSource& source, const platform::Platform& platform,
                        const ReplayConfig& config) {
  ReplaySession session(source, platform, config);
  OldReplayShared shared(session.engine(), session.nprocs());

  // Analytic model parameters from a representative host pair.
  if (platform.host_count() >= 2) {
    const platform::Route r = platform.route(0, 1);
    shared.model.latency = r.latency;
    double bw = 1e300;
    for (const platform::LinkId l : r.links) bw = std::min(bw, platform.link(l).bandwidth);
    shared.model.bandwidth = bw;
  } else {
    shared.model.latency = platform.loopback_latency();
    shared.model.bandwidth = platform.loopback_bandwidth();
  }

  for (int r = 0; r < session.nprocs(); ++r) {
    const platform::HostId host =
        static_cast<platform::HostId>(r % static_cast<int>(platform.host_count()));
    session.engine().spawn("rank" + std::to_string(r), host, 0,
                           [&session, &source, &shared, &config, r](sim::Ctx& ctx) -> sim::Coro {
                             return replay_rank_msg(ctx, r, source, shared, config,
                                                    session.actions_replayed());
                           });
  }
  return session.finish();
}

ReplayResult replay_msg(const tit::Trace& trace, const platform::Platform& platform,
                        const ReplayConfig& config) {
  titio::MemorySource source(trace);
  return replay_msg(source, platform, config);
}

}  // namespace tir::core
