// Checkpointing of Time-Independent Trace replays (docs/architecture.md).
//
// Coroutine frames cannot be serialized, so a checkpoint is not a dump of
// engine state: it is a **consistent cut** — a per-rank position in the
// action stream at which nothing is in flight between ranks, captured
// together with each rank's boundary time.  Restoring is then re-creating
// the world from scratch and having every rank (a) skip its completed
// prefix via titio::ActionSource::seek and (b) sleep to its boundary time
// before pulling the first suffix action.  Because replayed phases are
// contiguous per rank (each action begins exactly when its predecessor
// ends) and the cut guarantees no cross-rank message or collective
// straddles it, the suffix re-executes at bitwise-identical simulated
// times (the differential suite in tests/ckpt enforces exactly that).
//
// A cut is valid iff, over *completed* actions:
//   * every (src, dst) pair has sent == received (no p2p in flight);
//   * no rank has an outstanding nonblocking request (mirror of the
//     engines' own request queues);
//   * every rank has passed the same number of collective sites (a rank
//     completes a collective only after receiving everything it needed,
//     so equality means no collective-internal traffic is in flight).
//
// The cut-finder streams: counters update at each phase completion in
// O(1), and once at least `action_interval` actions completed since the
// last checkpoint, the first balanced completion takes a snapshot.
//
// Seekability gate (check_seekable): restore is only exact when the
// prefix cannot interfere with the suffix through shared resources —
// sim::Sharing::Uncontended (a prefix transfer overlapping a suffix
// transfer would change max-min rates) and nprocs <= host_count (ranks
// sharing a core would time-share across the cut).
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/replay.hpp"
#include "obs/sink.hpp"
#include "titio/ckpt_records.hpp"
#include "titio/source.hpp"

namespace tir::ckpt {

using titio::CkptRankState;
using titio::TraceCheckpoint;

/// The checkpoints of one (trace, scenario) pair, ascending by time.
struct CheckpointSet {
  std::uint64_t fingerprint = 0;  ///< scenario_fingerprint of the recording
  int nprocs = 0;
  std::vector<TraceCheckpoint> checkpoints;

  /// Latest checkpoint with time <= t, or null when none qualifies (cold
  /// replay from action 0 is then the only way to reach t).
  const TraceCheckpoint* nearest_before(double t) const;

  /// Convert to the TITB v2 on-disk record (titio::append_checkpoints).
  titio::CheckpointBlock to_block() const;
  static CheckpointSet from_block(const titio::CheckpointBlock& block);
};

/// Identity of everything that shapes simulated times: backend, sharing
/// mode, calibrated rates, the SMPI protocol/network model, and the
/// platform (hosts, links, loopback).  Deliberately EXCLUDES knobs that
/// cannot change the prediction (resolve strategy — bit-identical by
/// contract, watchdog, sink, resume/stop).  Checkpoints recorded under one
/// fingerprint are only ever restored under the same one.
std::uint64_t scenario_fingerprint(core::Backend backend, const platform::Platform& platform,
                                   const core::ReplayConfig& config);

/// Running fold of one rank's replayed action prefix; used to validate
/// that a checkpoint still matches a (possibly tail-appended) trace.
std::uint64_t fold_action_hash(std::uint64_t h, const tit::Action& a);
/// Seed of the per-rank prefix fold (domain-tagged).
std::uint64_t prefix_hash_seed();

/// Throws ConfigError unless restore-from-cut is exact for this scenario:
/// requires sim::Sharing::Uncontended and nprocs <= platform.host_count().
void check_seekable(int nprocs, const platform::Platform& platform,
                    const core::ReplayConfig& config);

struct RecordOptions {
  /// Minimum completed actions between checkpoints; the first balanced
  /// completion past the target takes the snapshot.
  std::uint64_t action_interval = 4096;
};

/// The streaming cut-finder: an ActionSource decorator (to see which
/// action each rank is executing) that is also a Sink decorator (phase
/// completions are where counters advance).  Pass it to a replay as BOTH
/// the source and the sink; the inner sink (may be null) still receives
/// every event unchanged.  Single-session, single-threaded, cold (from
/// action 0) recordings only.
class CheckpointRecorder final : public titio::ActionSource, public obs::Sink {
 public:
  CheckpointRecorder(titio::ActionSource& inner, obs::Sink* inner_sink, core::Backend backend,
                     RecordOptions options);

  // --- ActionSource ---------------------------------------------------------
  int nprocs() const override { return inner_.nprocs(); }
  bool next(int rank, tit::Action& out) override;
  /// One action per pull, served from the rank's `pending` record: the
  /// recorder must know which action each rank is replaying.
  std::span<const tit::Action> next_batch(int rank) override;
  std::uint64_t skipped_actions() const override { return inner_.skipped_actions(); }
  void rewind() override;

  // --- Sink (completion observation; everything forwards) ------------------
  void on_actor_spawn(int actor, std::string_view name, platform::HostId host) override;
  void on_actor_done(int actor, double now) override;
  void on_activity_start(obs::ActivityKind kind, std::uint64_t seq, double now) override;
  void on_activity_finish(obs::ActivityKind kind, std::uint64_t seq, double now) override;
  void on_time_advance(double now, double dt) override;
  void on_comm_progress(std::span<const platform::LinkId> links, double rate,
                        double dt) override;
  void on_sim_end(double now) override;
  void on_message(int src, int dst, double bytes, bool eager, bool collective) override;
  void on_mailbox_match(std::string_view mailbox, double bytes) override;
  void on_phase_begin(const obs::PhaseEvent& e, double now) override;
  void on_phase_end(int rank, double now) override;
  void on_warning(std::string_view text) override;
  void on_diagnosis(int actor, std::string_view name, std::string_view text,
                    double now) override;

  /// The checkpoints found so far (fingerprint left 0; the caller stamps it).
  const std::vector<TraceCheckpoint>& checkpoints() const { return checkpoints_; }
  std::vector<TraceCheckpoint> take_checkpoints() { return std::move(checkpoints_); }

 private:
  struct Outstanding {
    tit::ActionType type;
    std::int32_t partner;
  };
  struct RankTrack {
    tit::Action pending{};               ///< delivered, not yet completed
    std::uint64_t completed = 0;         ///< k_r
    double time = 0.0;                   ///< t_r: time of last completion
    std::uint64_t collective_sites = 0;  ///< coll_r
    std::uint64_t prefix_hash = 0;
    std::deque<Outstanding> outstanding; ///< mirror of the engine's queue
  };

  void bump_pair(std::int32_t src, std::int32_t dst, std::int64_t delta);
  void complete(int rank, double now);
  bool balanced() const;
  void take_cut();
  void reset();

  titio::ActionSource& inner_;
  obs::Sink* inner_sink_;
  core::Backend backend_;
  RecordOptions options_;

  std::vector<RankTrack> ranks_;
  std::unordered_map<std::uint64_t, std::int64_t> pair_diff_;  ///< sent - recvd
  std::size_t nonzero_pairs_ = 0;
  std::uint64_t coll_max_ = 0;   ///< max coll_r over ranks
  std::size_t at_coll_max_ = 0;  ///< ranks with coll_r == coll_max
  std::size_t ranks_with_outstanding_ = 0;
  std::uint64_t total_completed_ = 0;
  std::uint64_t next_target_ = 0;
  std::vector<TraceCheckpoint> checkpoints_;
};

/// One cold replay that records checkpoints on the way: validates
/// seekability, wires a CheckpointRecorder around `source` and
/// `config.sink`, replays, and returns both the ordinary result and the
/// recorded set (fingerprint stamped).  `source` must be fresh or rewound.
struct RecordOutcome {
  core::ReplayResult result;
  CheckpointSet set;
};
RecordOutcome record_replay(titio::ActionSource& source, const platform::Platform& platform,
                            const core::ReplayConfig& config, core::Backend backend,
                            const RecordOptions& options = {});

}  // namespace tir::ckpt
