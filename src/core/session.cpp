#include "core/session.hpp"

#include "base/log.hpp"

namespace tir::core {

void ReplayConfig::check(int nprocs) const {
  if (rates.empty()) throw ConfigError("replay rate vector is empty");
  if (rates.size() > 1 && rates.size() < static_cast<std::size_t>(nprocs)) {
    throw ConfigError("replay has " + std::to_string(nprocs) + " ranks but only " +
                      std::to_string(rates.size()) +
                      " calibrated rates (need 1 or >= nprocs)");
  }
  for (std::size_t r = 0; r < rates.size(); ++r) {
    if (!(rates[r] > 0.0)) {
      throw ConfigError("calibrated rate for rank p" + std::to_string(r) +
                        " is not positive: " + std::to_string(rates[r]));
    }
  }
  if (nprocs > 0 && rates.size() > 1 && rates.size() > static_cast<std::size_t>(nprocs)) {
    const std::string text =
        "replay has " + std::to_string(rates.size()) + " calibrated rates for only " +
        std::to_string(nprocs) + " ranks; the extra " +
        std::to_string(rates.size() - static_cast<std::size_t>(nprocs)) +
        " entrie(s) are unreachable (miswired heterogeneous calibration?)";
    if (warning_dedupe == nullptr || warning_dedupe->first(text)) {
      TIR_LOG(Warn, text);
      if (sink != nullptr) sink->on_warning(text);
    }
  }
}

ReplaySession::ReplaySession(titio::ActionSource& source, const platform::Platform& platform,
                             const ReplayConfig& config)
    : source_(source),
      config_(config),
      t0_(std::chrono::steady_clock::now()),
      nprocs_(source.nprocs()) {
  config_.check(nprocs_);
  if (config_.resume != nullptr) {
    const ResumeState& r = *config_.resume;
    if (r.positions.size() != static_cast<std::size_t>(nprocs_) ||
        r.times.size() != r.positions.size() ||
        r.collective_sites.size() != r.positions.size()) {
      throw ConfigError("resume state covers " + std::to_string(r.positions.size()) +
                        " ranks, trace has " + std::to_string(nprocs_));
    }
    // seek() also arms the source so begin_session() below does not rewind
    // the cursors back to 0.
    source_.seek(r.positions);
  }
  source_.begin_session();
  engine_ = std::make_unique<sim::Engine>(
      platform,
      sim::EngineConfig{config_.sharing, config_.watchdog_seconds, config_.sink,
                        config_.resolve});
}

ReplayResult ReplaySession::finish() {
  ReplayResult result;
  result.reached_end = engine_->run_until(config_.stop_time);
  result.simulated_time = engine_->now();
  result.actions_replayed = actions_;
  result.engine_steps = engine_->steps();
  result.activities_created = engine_->activities_created();
  result.skipped_actions = source_.skipped_actions();
  result.degraded = result.skipped_actions > 0;
  result.wall_clock_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  return result;
}

ReplayResult replay(Backend backend, titio::ActionSource& source,
                    const platform::Platform& platform, const ReplayConfig& config) {
  return backend == Backend::Msg ? replay_msg(source, platform, config)
                                 : replay_smpi(source, platform, config);
}

ReplayResult replay(Backend backend, const tit::Trace& trace,
                    const platform::Platform& platform, const ReplayConfig& config) {
  titio::MemorySource source(trace);
  return replay(backend, source, platform, config);
}

void bad_partner(int me, const tit::Action& a, const char* what) {
  throw MalformedTraceError("p" + std::to_string(me) + ": " + what + ": " + tit::to_line(a));
}

}  // namespace tir::core
