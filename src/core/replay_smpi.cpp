// The new replay engine: drive the SMPI runtime from a Time-Independent
// Trace.  This mirrors the paper's reimplementation where an action like
// `p0 send p1 1240` becomes a plain smpi_mpi_send() and every protocol
// subtlety lives in the runtime, not in the replay code.
#include <deque>

#include "core/session.hpp"
#include "obs/replay_events.hpp"
#include "smpi/world.hpp"

namespace tir::core {

namespace {

/// Per-rank state behind the engine's deadlock/watchdog diagnosis: what the
/// rank is blocked on and the last action it completed.  Lives in the
/// coroutine frame; the engine only reads it (through the diagnoser
/// callback) while the actor is suspended, so the frame is alive.
///
/// Kept as plain data on purpose: formatting the diagnosis text per action
/// would dominate the replay hot loop, so the loop only records *what* the
/// rank blocks on and describe_rank() renders the string on the rare path
/// that actually needs it (deadlock/watchdog reports).
struct RankDiag {
  enum class Wait : std::uint8_t { None, Action, OldestRequest, AllRequests, Collective };

  tit::Action last{};
  std::uint64_t completed = 0;
  std::uint64_t collective_site = 0;  ///< matches the static validator's numbering
  Wait wait = Wait::None;
  tit::Action wait_action{};     ///< the blocking action (Wait::Action/Collective)
  std::uint64_t wait_count = 0;  ///< outstanding requests (OldestRequest/AllRequests)
  std::uint64_t wait_site = 0;   ///< collective site at block time
};

std::string describe_rank(const RankDiag& diag) {
  std::string s;
  switch (diag.wait) {
    case RankDiag::Wait::None:
      s = "blocked";
      break;
    case RankDiag::Wait::Action:
      s = "blocked on " + tit::to_line(diag.wait_action);
      break;
    case RankDiag::Wait::OldestRequest:
      s = "blocked on wait (oldest of " + std::to_string(diag.wait_count) +
          " outstanding request(s))";
      break;
    case RankDiag::Wait::AllRequests:
      s = "blocked on waitall (" + std::to_string(diag.wait_count) + " outstanding request(s))";
      break;
    case RankDiag::Wait::Collective:
      s = "blocked on collective site " + std::to_string(diag.wait_site) + ": " +
          tit::to_line(diag.wait_action);
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

/// Spot checks on streamed actions that static validation cannot cover
/// (a streaming source is never materialized, so replay is the first place
/// the whole action is visible).
void check_p2p_partner(int me, int nprocs, const tit::Action& a) {
  if (a.partner < 0 || a.partner >= nprocs) {
    throw MalformedTraceError("p" + std::to_string(me) +
                              ": partner out of range: " + tit::to_line(a));
  }
  if (a.partner == me) {
    throw MalformedTraceError("p" + std::to_string(me) + ": self-message: " + tit::to_line(a));
  }
}

sim::Coro replay_rank_smpi(sim::Ctx& ctx, int me, titio::ActionSource& source,
                           smpi::World& world, const ReplayConfig& config,
                           std::uint64_t& actions) {
  const double rate = config.rate_for(me);
  std::deque<smpi::Request> outstanding;  // nonblocking ops in issue order
  RankDiag diag;
  ctx.set_diagnoser([&diag] { return describe_rank(diag); });
  obs::Sink* const sink = config.sink;  // hoisted: one load, no per-action deref
  // With no modelled copy cost (the default), a blocking eager send is
  // complete the moment isend returns and a blocking recv is exactly a wait
  // on its request — both run without entering a World coroutine.
  const smpi::Config& wcfg = world.config();
  const bool zero_copy_cost =
      wcfg.per_message_cpu_seconds == 0.0 && !wcfg.model_copy_time;
  if (config.resume != nullptr) {
    // Checkpoint restore: the prefix already ran.  Adopt its collective-site
    // numbering and hold this rank at its boundary time before pulling the
    // first suffix action (timer 0 + t is exact, so every resumed phase
    // begins at a bitwise-identical simulated time).
    diag.collective_site = config.resume->collective_sites[static_cast<std::size_t>(me)];
    const double t = config.resume->times[static_cast<std::size_t>(me)];
    if (t > 0.0) co_await ctx.sleep(t);
  }
  tit::Action a;
  while (source.next(me, a)) {
    ++actions;
    if (sink != nullptr) {
      sink->on_phase_begin(
          obs::phase_event(me, a, static_cast<std::int64_t>(diag.collective_site)), ctx.now());
    }
    switch (a.type) {
      case tit::ActionType::Init:
      case tit::ActionType::Finalize:
        break;
      case tit::ActionType::Compute:
        co_await ctx.execute_at(a.volume, rate);
        break;
      case tit::ActionType::Send:
        check_p2p_partner(me, world.size(), a);
        diag.wait = RankDiag::Wait::Action;
        diag.wait_action = a;
        if (zero_copy_cost && a.volume < wcfg.eager_threshold) {
          (void)world.isend(ctx, me, a.partner, a.volume);
        } else {
          co_await world.send(ctx, me, a.partner, a.volume);
        }
        break;
      case tit::ActionType::Isend:
        check_p2p_partner(me, world.size(), a);
        outstanding.push_back(world.isend(ctx, me, a.partner, a.volume));
        break;
      case tit::ActionType::Recv:
        check_p2p_partner(me, world.size(), a);
        diag.wait = RankDiag::Wait::Action;
        diag.wait_action = a;
        if (zero_copy_cost) {
          co_await ctx.wait(world.irecv(ctx, me, a.partner, a.volume));
        } else {
          co_await world.recv(ctx, me, a.partner, a.volume);
        }
        break;
      case tit::ActionType::Irecv:
        check_p2p_partner(me, world.size(), a);
        outstanding.push_back(world.irecv(ctx, me, a.partner, a.volume));
        break;
      case tit::ActionType::Wait: {
        if (outstanding.empty()) {
          throw MalformedTraceError("p" + std::to_string(me) +
                                    ": wait with no outstanding request");
        }
        diag.wait = RankDiag::Wait::OldestRequest;
        diag.wait_count = outstanding.size();
        const smpi::Request r = outstanding.front();
        outstanding.pop_front();
        co_await ctx.wait(r);
        break;
      }
      case tit::ActionType::WaitAll: {
        diag.wait = RankDiag::Wait::AllRequests;
        diag.wait_count = outstanding.size();
        // Sequential awaits complete at the max of the completion times,
        // which is MPI_Waitall semantics (waiting consumes no resources).
        while (!outstanding.empty()) {
          const smpi::Request r = outstanding.front();
          outstanding.pop_front();
          co_await ctx.wait(r);
        }
        break;
      }
      case tit::ActionType::Barrier:
      case tit::ActionType::Bcast:
      case tit::ActionType::Reduce:
      case tit::ActionType::AllReduce:
      case tit::ActionType::AllToAll:
      case tit::ActionType::AllGather:
      case tit::ActionType::Gather:
      case tit::ActionType::Scatter: {
        diag.wait = RankDiag::Wait::Collective;
        diag.wait_action = a;
        diag.wait_site = diag.collective_site;
        ++diag.collective_site;
        const int root = a.partner >= 0 ? a.partner : 0;
        switch (a.type) {
          case tit::ActionType::Barrier:
            co_await world.barrier(ctx, me);
            break;
          case tit::ActionType::Bcast:
            co_await world.bcast(ctx, me, a.volume, root);
            break;
          case tit::ActionType::Reduce:
            co_await world.reduce(ctx, me, a.volume, a.volume2, root);
            break;
          case tit::ActionType::AllReduce:
            co_await world.allreduce(ctx, me, a.volume, a.volume2);
            break;
          case tit::ActionType::AllToAll:
            co_await world.alltoall(ctx, me, a.volume);
            break;
          case tit::ActionType::AllGather:
            co_await world.allgather(ctx, me, a.volume);
            break;
          case tit::ActionType::Gather:
            co_await world.gather(ctx, me, a.volume, root);
            break;
          default:
            co_await world.scatter(ctx, me, a.volume, root);
            break;
        }
        break;
      }
    }
    if (sink != nullptr) sink->on_phase_end(me, ctx.now());
    diag.last = a;
    ++diag.completed;
    diag.wait = RankDiag::Wait::None;
  }
}

}  // namespace

ReplayResult replay_smpi(titio::ActionSource& source, const platform::Platform& platform,
                         const ReplayConfig& config) {
  ReplaySession session(source, platform, config);
  smpi::World world(session.engine(), config.mpi,
                    smpi::World::scatter_hosts(platform, session.nprocs()),
                    std::vector<int>(static_cast<std::size_t>(session.nprocs()), 0));
  world.spawn_ranks([&](sim::Ctx& ctx, int me) -> sim::Coro {
    return replay_rank_smpi(ctx, me, source, world, config, session.actions_replayed());
  });
  return session.finish();
}

ReplayResult replay_smpi(const tit::Trace& trace, const platform::Platform& platform,
                         const ReplayConfig& config) {
  titio::MemorySource source(trace);
  return replay_smpi(source, platform, config);
}

}  // namespace tir::core
