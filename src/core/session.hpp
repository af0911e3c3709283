// ReplaySession: the shared prologue/epilogue of both replay back-ends.
//
// Before this class existed, replay_msg and replay_smpi each duplicated the
// whole session plumbing: config cross-check, source freshness (rewind or
// fail), watchdog arming, engine construction, run, and ReplayResult
// assembly including degraded-source accounting.  A session factors all of
// that out so a back-end is reduced to its protocol-specific part — build
// the protocol state, spawn one actor per rank — between a constructor call
// and finish().
//
//   ReplaySession session(source, platform, config);   // prologue
//   <build protocol state over session.engine(), spawn ranks>
//   return session.finish();                           // run + epilogue
//
// Reentrancy contract (the basis of core::Sweep): a session owns its
// sim::Engine and touches no global mutable state, so any number of
// sessions may run concurrently on distinct threads as long as each has its
// own ActionSource (titio::SharedTrace::cursor()), its own obs::Sink (or
// none), and a const-shared platform::Platform.  One session is itself
// strictly single-threaded, which is what keeps every scenario's result
// bit-identical regardless of how many sessions run beside it.
#pragma once

#include <chrono>
#include <memory>
#include <span>

#include "core/replay.hpp"

namespace tir::core {

class ReplaySession {
 public:
  /// Prologue: validates the config against the source (ReplayConfig::check,
  /// including the extra-rates warning), rewinds an already-consumed
  /// rewindable source (or throws ConfigError for single-pass ones), and
  /// constructs the engine with the watchdog armed and the sink attached.
  /// The source, platform and config must outlive the session.
  ReplaySession(titio::ActionSource& source, const platform::Platform& platform,
                const ReplayConfig& config);

  ReplaySession(const ReplaySession&) = delete;
  ReplaySession& operator=(const ReplaySession&) = delete;

  sim::Engine& engine() { return *engine_; }
  titio::ActionSource& source() { return source_; }
  const ReplayConfig& config() const { return config_; }
  int nprocs() const { return nprocs_; }

  /// Counter the per-rank actor bodies bump once per replayed action;
  /// finish() folds it into ReplayResult::actions_replayed.
  std::uint64_t& actions_replayed() { return actions_; }

  /// Epilogue: run the engine to quiescence and assemble the ReplayResult
  /// (prediction, step/action counts, degraded-source accounting, host
  /// wall-clock since the prologue).  Call exactly once.
  ReplayResult finish();

 private:
  titio::ActionSource& source_;
  const ReplayConfig& config_;
  std::chrono::steady_clock::time_point t0_;
  int nprocs_;
  std::uint64_t actions_ = 0;
  std::unique_ptr<sim::Engine> engine_;
};

/// Prefetch the action a few places past `at` in a rank's batch.  An
/// in-memory source serves each rank its whole vector, and the replay walks
/// one such stream per rank, interleaved per simulated event: too many
/// streams for the hardware prefetcher, so without this every other action
/// read misses the cache.  Each rank's next action is only read after every
/// other rank has had its turn, which leaves the prefetch ample time.
inline void prefetch_ahead(std::span<const tit::Action> batch, std::size_t at) {
  constexpr std::size_t kAhead = 4;  // two cache lines of 32-byte actions
  if (at + kAhead < batch.size()) __builtin_prefetch(&batch[at + kAhead]);
}

/// Throws check_partner's MalformedTraceError: "p<me>: <what>: <action>".
[[noreturn]] void bad_partner(int me, const tit::Action& a, const char* what);

/// Spot check of a replayed action's partner, shared by both back-ends.  A
/// streaming source is never materialized, so static validation never sees
/// it and the replay loop is the first place the whole action is visible.
/// A point-to-point peer must be another rank in range; a rooted
/// collective's root must be in range (a negative partner stands for the
/// default root 0); other actions carry no partner.  Throws
/// MalformedTraceError.
inline void check_partner(int me, int nprocs, const tit::Action& a) {
  switch (a.type) {
    case tit::ActionType::Send:
    case tit::ActionType::Isend:
    case tit::ActionType::Recv:
    case tit::ActionType::Irecv:
      if (a.partner < 0 || a.partner >= nprocs) bad_partner(me, a, "partner out of range");
      if (a.partner == me) bad_partner(me, a, "self-message");
      break;
    case tit::ActionType::Bcast:
    case tit::ActionType::Reduce:
    case tit::ActionType::Gather:
    case tit::ActionType::Scatter:
      if (a.partner >= nprocs) bad_partner(me, a, "root out of range");
      break;
    default:
      break;
  }
}

}  // namespace tir::core
