#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <bit>

#include "base/binio.hpp"
#include "base/error.hpp"

namespace tir::ckpt {

namespace {

std::uint64_t pair_key(std::int32_t src, std::int32_t dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

bool is_collective(tit::ActionType t) {
  switch (t) {
    case tit::ActionType::Barrier:
    case tit::ActionType::Bcast:
    case tit::ActionType::Reduce:
    case tit::ActionType::AllReduce:
    case tit::ActionType::AllToAll:
    case tit::ActionType::AllGather:
    case tit::ActionType::Gather:
    case tit::ActionType::Scatter:
      return true;
    default:
      return false;
  }
}

}  // namespace

const TraceCheckpoint* CheckpointSet::nearest_before(double t) const {
  const TraceCheckpoint* best = nullptr;
  for (const TraceCheckpoint& c : checkpoints) {
    if (c.time <= t) best = &c;  // ascending by time: last match wins
  }
  return best;
}

titio::CheckpointBlock CheckpointSet::to_block() const {
  titio::CheckpointBlock block;
  block.fingerprint = fingerprint;
  block.nprocs = nprocs;
  block.checkpoints = checkpoints;
  return block;
}

CheckpointSet CheckpointSet::from_block(const titio::CheckpointBlock& block) {
  CheckpointSet set;
  set.fingerprint = block.fingerprint;
  set.nprocs = block.nprocs;
  set.checkpoints = block.checkpoints;
  return set;
}

std::uint64_t scenario_fingerprint(core::Backend backend, const platform::Platform& platform,
                                   const core::ReplayConfig& config) {
  using binio::mix64;
  // Domain tag 'F' keeps scenario fingerprints disjoint from trace hashes.
  std::uint64_t h = mix64(binio::kHashSeed, 'F');
  h = mix64(h, static_cast<std::uint64_t>(backend));
  h = mix64(h, static_cast<std::uint64_t>(config.sharing));
  h = mix64(h, config.rates.size());
  for (const double r : config.rates) h = mix64(h, std::bit_cast<std::uint64_t>(r));

  const smpi::Config& mpi = config.mpi;
  h = mix64(h, static_cast<std::uint64_t>(mpi.collectives.bcast));
  h = mix64(h, static_cast<std::uint64_t>(mpi.collectives.allreduce));
  h = mix64(h, std::bit_cast<std::uint64_t>(mpi.eager_threshold));
  h = mix64(h, mpi.model_copy_time ? 1u : 0u);
  h = mix64(h, std::bit_cast<std::uint64_t>(mpi.copy_rate));
  h = mix64(h, std::bit_cast<std::uint64_t>(mpi.per_message_cpu_seconds));
  h = mix64(h, mpi.piecewise.segments().size());
  for (const smpi::PiecewiseSegment& s : mpi.piecewise.segments()) {
    h = mix64(h, std::bit_cast<std::uint64_t>(s.max_size));
    h = mix64(h, std::bit_cast<std::uint64_t>(s.lat_factor));
    h = mix64(h, std::bit_cast<std::uint64_t>(s.bw_factor));
  }

  h = mix64(h, static_cast<std::uint64_t>(platform.host_count()));
  for (const platform::Host& host : platform.hosts()) {
    h = mix64(h, static_cast<std::uint64_t>(host.cores));
    h = mix64(h, std::bit_cast<std::uint64_t>(host.speed));
    h = mix64(h, std::bit_cast<std::uint64_t>(host.l2_bytes));
  }
  h = mix64(h, platform.links().size());
  for (const platform::Link& link : platform.links()) {
    h = mix64(h, std::bit_cast<std::uint64_t>(link.bandwidth));
    h = mix64(h, std::bit_cast<std::uint64_t>(link.latency));
  }
  h = mix64(h, std::bit_cast<std::uint64_t>(platform.loopback_bandwidth()));
  h = mix64(h, std::bit_cast<std::uint64_t>(platform.loopback_latency()));
  return h;
}

std::uint64_t prefix_hash_seed() { return binio::mix64(binio::kHashSeed, 'P'); }

std::uint64_t fold_action_hash(std::uint64_t h, const tit::Action& a) {
  using binio::mix64;
  h = mix64(h, static_cast<std::uint64_t>(a.type));
  h = mix64(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.partner)));
  h = mix64(h, std::bit_cast<std::uint64_t>(a.volume));
  h = mix64(h, std::bit_cast<std::uint64_t>(a.volume2));
  return h;
}

void check_seekable(int nprocs, const platform::Platform& platform,
                    const core::ReplayConfig& config) {
  if (config.sharing != sim::Sharing::Uncontended) {
    throw ConfigError(
        "checkpointed replay requires Sharing::Uncontended: under contention "
        "a prefix transfer overlapping the cut would change the max-min "
        "rates of suffix transfers, so a restored replay would diverge");
  }
  if (nprocs < 0 || static_cast<std::size_t>(nprocs) > platform.host_count()) {
    throw ConfigError("checkpointed replay requires nprocs <= host count (" +
                      std::to_string(nprocs) + " ranks on " +
                      std::to_string(platform.host_count()) +
                      " hosts): ranks sharing a core time-share across the cut");
  }
}

CheckpointRecorder::CheckpointRecorder(titio::ActionSource& inner, obs::Sink* inner_sink,
                                       core::Backend backend, RecordOptions options)
    : inner_(inner), inner_sink_(inner_sink), backend_(backend), options_(options) {
  if (options_.action_interval == 0) options_.action_interval = 1;
  reset();
}

void CheckpointRecorder::reset() {
  ranks_.assign(static_cast<std::size_t>(inner_.nprocs()), RankTrack{});
  for (RankTrack& r : ranks_) r.prefix_hash = prefix_hash_seed();
  pair_diff_.clear();
  nonzero_pairs_ = 0;
  coll_max_ = 0;
  at_coll_max_ = ranks_.size();
  ranks_with_outstanding_ = 0;
  total_completed_ = 0;
  next_target_ = options_.action_interval;
  checkpoints_.clear();
}

bool CheckpointRecorder::next(int rank, tit::Action& out) {
  if (!inner_.next(rank, out)) return false;
  ranks_[static_cast<std::size_t>(rank)].pending = out;
  return true;
}

std::span<const tit::Action> CheckpointRecorder::next_batch(int rank) {
  tit::Action a;
  if (!inner_.next(rank, a)) return {};
  tit::Action& pending = ranks_[static_cast<std::size_t>(rank)].pending;
  pending = a;
  return {&pending, 1};
}

void CheckpointRecorder::rewind() {
  inner_.rewind();
  reset();
}

void CheckpointRecorder::bump_pair(std::int32_t src, std::int32_t dst, std::int64_t delta) {
  std::int64_t& v = pair_diff_[pair_key(src, dst)];
  const bool was = v != 0;
  v += delta;
  const bool is = v != 0;
  if (was != is) nonzero_pairs_ += is ? 1 : std::size_t(-1);
}

bool CheckpointRecorder::balanced() const {
  return nonzero_pairs_ == 0 && ranks_with_outstanding_ == 0 && at_coll_max_ == ranks_.size();
}

void CheckpointRecorder::complete(int rank, double now) {
  RankTrack& r = ranks_[static_cast<std::size_t>(rank)];
  const tit::Action& a = r.pending;
  const bool had_outstanding = !r.outstanding.empty();

  switch (a.type) {
    case tit::ActionType::Send:
      bump_pair(rank, a.partner, +1);
      break;
    case tit::ActionType::Isend:
      bump_pair(rank, a.partner, +1);
      r.outstanding.push_back(Outstanding{a.type, a.partner});
      break;
    case tit::ActionType::Recv:
      bump_pair(a.partner, rank, -1);
      break;
    case tit::ActionType::Irecv:
      if (backend_ == core::Backend::Msg) {
        // The old back-end services irecv as a blocking mailbox receive:
        // the message has arrived when the action completes.
        bump_pair(a.partner, rank, -1);
      } else {
        // SMPI posts the receive; the data lands at the matching wait.
        r.outstanding.push_back(Outstanding{a.type, a.partner});
      }
      break;
    case tit::ActionType::Wait:
      if (!r.outstanding.empty()) {
        const Outstanding done = r.outstanding.front();
        r.outstanding.pop_front();
        if (done.type == tit::ActionType::Irecv) bump_pair(done.partner, rank, -1);
      }
      break;
    case tit::ActionType::WaitAll:
      for (const Outstanding& done : r.outstanding) {
        if (done.type == tit::ActionType::Irecv) bump_pair(done.partner, rank, -1);
      }
      r.outstanding.clear();
      break;
    default:
      if (is_collective(a.type)) {
        ++r.collective_sites;
        if (r.collective_sites - 1 == coll_max_) {
          // This rank moves past the frontier.
          coll_max_ = r.collective_sites;
          at_coll_max_ = 1;
        } else if (r.collective_sites == coll_max_) {
          ++at_coll_max_;
        }
      }
      break;
  }

  const bool has_outstanding = !r.outstanding.empty();
  if (had_outstanding != has_outstanding) {
    ranks_with_outstanding_ += has_outstanding ? 1 : std::size_t(-1);
  }

  ++r.completed;
  r.time = now;
  r.prefix_hash = fold_action_hash(r.prefix_hash, a);
  ++total_completed_;
  if (total_completed_ >= next_target_ && balanced()) take_cut();
}

void CheckpointRecorder::take_cut() {
  TraceCheckpoint c;
  c.ranks.reserve(ranks_.size());
  for (const RankTrack& r : ranks_) {
    c.time = std::max(c.time, r.time);
    c.ranks.push_back(CkptRankState{r.completed, r.time, r.collective_sites, r.prefix_hash});
  }
  // A cut at the same instant as the previous one adds nothing (and would
  // break the ascending-time invariant consumers rely on).
  if (!checkpoints_.empty() && c.time <= checkpoints_.back().time) return;
  checkpoints_.push_back(std::move(c));
  next_target_ = total_completed_ + options_.action_interval;
}

// --- Sink forwarding ---------------------------------------------------------

void CheckpointRecorder::on_actor_spawn(int actor, std::string_view name,
                                        platform::HostId host) {
  if (inner_sink_ != nullptr) inner_sink_->on_actor_spawn(actor, name, host);
}
void CheckpointRecorder::on_actor_done(int actor, double now) {
  if (inner_sink_ != nullptr) inner_sink_->on_actor_done(actor, now);
}
void CheckpointRecorder::on_activity_start(obs::ActivityKind kind, std::uint64_t seq,
                                           double now) {
  if (inner_sink_ != nullptr) inner_sink_->on_activity_start(kind, seq, now);
}
void CheckpointRecorder::on_activity_finish(obs::ActivityKind kind, std::uint64_t seq,
                                            double now) {
  if (inner_sink_ != nullptr) inner_sink_->on_activity_finish(kind, seq, now);
}
void CheckpointRecorder::on_time_advance(double now, double dt) {
  if (inner_sink_ != nullptr) inner_sink_->on_time_advance(now, dt);
}
void CheckpointRecorder::on_comm_progress(std::span<const platform::LinkId> links, double rate,
                                          double dt) {
  if (inner_sink_ != nullptr) inner_sink_->on_comm_progress(links, rate, dt);
}
void CheckpointRecorder::on_sim_end(double now) {
  if (inner_sink_ != nullptr) inner_sink_->on_sim_end(now);
}
void CheckpointRecorder::on_message(int src, int dst, double bytes, bool eager,
                                    bool collective) {
  if (inner_sink_ != nullptr) inner_sink_->on_message(src, dst, bytes, eager, collective);
}
void CheckpointRecorder::on_mailbox_match(std::string_view mailbox, double bytes) {
  if (inner_sink_ != nullptr) inner_sink_->on_mailbox_match(mailbox, bytes);
}
void CheckpointRecorder::on_phase_begin(const obs::PhaseEvent& e, double now) {
  if (inner_sink_ != nullptr) inner_sink_->on_phase_begin(e, now);
}
void CheckpointRecorder::on_phase_end(int rank, double now) {
  complete(rank, now);
  if (inner_sink_ != nullptr) inner_sink_->on_phase_end(rank, now);
}
void CheckpointRecorder::on_warning(std::string_view text) {
  if (inner_sink_ != nullptr) inner_sink_->on_warning(text);
}
void CheckpointRecorder::on_diagnosis(int actor, std::string_view name, std::string_view text,
                                      double now) {
  if (inner_sink_ != nullptr) inner_sink_->on_diagnosis(actor, name, text, now);
}

RecordOutcome record_replay(titio::ActionSource& source, const platform::Platform& platform,
                            const core::ReplayConfig& config, core::Backend backend,
                            const RecordOptions& options) {
  check_seekable(source.nprocs(), platform, config);
  if (config.resume != nullptr) {
    throw ConfigError("checkpoint recording must replay from action 0 (config.resume is set)");
  }
  CheckpointRecorder recorder(source, config.sink, backend, options);
  core::ReplayConfig recording = config;
  recording.sink = &recorder;
  RecordOutcome outcome;
  outcome.result = core::replay(backend, recorder, platform, recording);
  outcome.set.fingerprint = scenario_fingerprint(backend, platform, config);
  outcome.set.nprocs = source.nprocs();
  outcome.set.checkpoints = recorder.take_checkpoints();
  return outcome;
}

}  // namespace tir::ckpt
