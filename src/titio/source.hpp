// ActionSource: the pull interface both replay engines consume.
//
// A replay is per-rank sequential: each simulated rank walks its own action
// stream front to back, never looking ahead and never revisiting.  That
// access pattern is exactly what lets a reader stay bounded-memory, so the
// interface is one per-rank cursor: `next(rank, out)`.  The engines no
// longer care whether the actions live in RAM (MemorySource over the
// classic tit::Trace) or stream off disk a frame at a time (titio::Reader).
//
// The replay loops pull with next_batch(rank) instead: one virtual call per
// run of actions, served as a span straight out of the source's own storage
// (a MemorySource hands out the rest of the rank's vector, a Reader its
// decoded batch), so the hot path neither dispatches nor copies per action.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "base/error.hpp"
#include "tit/trace.hpp"

namespace tir::titio {

class ActionSource {
 public:
  virtual ~ActionSource() = default;

  virtual int nprocs() const = 0;

  /// Pull `rank`'s next action into `out`; false once that rank's stream is
  /// exhausted. Ranks have independent cursors and may be pulled in any
  /// interleaving (the engines interleave them per simulated event).
  virtual bool next(int rank, tit::Action& out) = 0;

  /// Pull `rank`'s next run of actions; empty once that rank's stream is
  /// exhausted.  The span stays valid until the next pull (next, next_batch),
  /// rewind or seek of the same rank; pulls of other ranks never disturb it.
  /// The two pulls share one cursor and may be mixed: concatenated spans
  /// equal the next() sequence, and an error surfaces at the same action
  /// index (the pull that would have delivered the failing action throws).
  virtual std::span<const tit::Action> next_batch(int rank) = 0;

  /// Actions known to exist but not delivered because the source dropped
  /// damaged data (corrupt-frame recovery). Replay surfaces this as
  /// ReplayResult::degraded so callers can distinguish a clean replay from
  /// a best-effort one. Sources without a recovery mode report 0.
  virtual std::uint64_t skipped_actions() const { return 0; }

  /// Reset every rank cursor to the start of the stream so the same source
  /// object can feed another replay.  Single-pass sources (the streaming
  /// titio::Reader) cannot restart and keep the default, which throws
  /// ConfigError.
  virtual void rewind() {
    throw ConfigError(
        "this ActionSource was already consumed by a previous replay and "
        "cannot be rewound; open a fresh source (or use a rewindable one: "
        "MemorySource, SharedTrace cursors)");
  }

  /// Called by the replay session when it starts consuming this source.
  /// The first session streams from wherever the cursors stand; any later
  /// session rewinds first, so reusing an exhausted source either works
  /// (rewindable sources) or fails with ConfigError — never silently
  /// replays zero actions into a bogus 0-second prediction.
  void begin_session() {
    if (session_started_) rewind();
    session_started_ = true;
  }

  /// Position every rank cursor at `positions[rank]` actions from the start
  /// (checkpoint restore; src/ckpt).  The next session then streams the
  /// suffix instead of rewinding — seek() arms exactly one such session.
  /// Sources that cannot reposition keep the default do_seek, which throws
  /// ConfigError.
  void seek(const std::vector<std::uint64_t>& positions) {
    do_seek(positions);
    session_started_ = false;
  }

 protected:
  virtual void do_seek(const std::vector<std::uint64_t>& /*positions*/) {
    throw ConfigError(
        "this ActionSource cannot seek; checkpoint restore needs a "
        "repositionable source (MemorySource, SharedTrace cursors)");
  }

  /// Shared bounds check for repositionable sources.
  static void check_seek(const std::vector<std::uint64_t>& positions, int nprocs,
                         const std::vector<std::size_t>& limits) {
    if (positions.size() != static_cast<std::size_t>(nprocs)) {
      throw ConfigError("seek positions cover " + std::to_string(positions.size()) +
                        " ranks, trace has " + std::to_string(nprocs));
    }
    for (std::size_t r = 0; r < positions.size(); ++r) {
      if (positions[r] > limits[r]) {
        throw ConfigError("seek position " + std::to_string(positions[r]) + " past rank p" +
                          std::to_string(r) + "'s " + std::to_string(limits[r]) + " actions");
      }
    }
  }

 private:
  bool session_started_ = false;
};

/// Adapter over a fully materialized Trace: the existing in-memory API,
/// unchanged semantics, zero copies.
class MemorySource final : public ActionSource {
 public:
  explicit MemorySource(const tit::Trace& trace)
      : trace_(trace), pos_(static_cast<std::size_t>(trace.nprocs()), 0) {
    // Per-rank sequences resolved once: the trace is fully materialized
    // (and must not be mutated while this source reads it), so a per-pull
    // lookup would be pure overhead.
    seqs_.reserve(pos_.size());
    for (int r = 0; r < trace.nprocs(); ++r) seqs_.push_back(&trace.actions(r));
  }

  int nprocs() const override { return trace_.nprocs(); }

  bool next(int rank, tit::Action& out) override {
    const std::vector<tit::Action>& seq = *seqs_[static_cast<std::size_t>(rank)];
    std::size_t& i = pos_[static_cast<std::size_t>(rank)];
    if (i >= seq.size()) return false;
    out = seq[i++];
    return true;
  }

  std::span<const tit::Action> next_batch(int rank) override {
    const std::vector<tit::Action>& seq = *seqs_[static_cast<std::size_t>(rank)];
    std::size_t& i = pos_[static_cast<std::size_t>(rank)];
    const std::span<const tit::Action> rest(seq.data() + i, seq.size() - i);
    i = seq.size();
    return rest;
  }

  void rewind() override { pos_.assign(pos_.size(), 0); }

 protected:
  void do_seek(const std::vector<std::uint64_t>& positions) override {
    std::vector<std::size_t> limits(pos_.size());
    for (std::size_t r = 0; r < limits.size(); ++r) {
      limits[r] = trace_.actions(static_cast<int>(r)).size();
    }
    check_seek(positions, nprocs(), limits);
    for (std::size_t r = 0; r < pos_.size(); ++r) {
      pos_[r] = static_cast<std::size_t>(positions[r]);
    }
  }

 private:
  const tit::Trace& trace_;
  std::vector<const std::vector<tit::Action>*> seqs_;  // per-rank sequences
  std::vector<std::size_t> pos_;
};

}  // namespace tir::titio
