// tirbench: the repository benchmark (see README.md in this directory).
//
//   tirbench --workload NAME --seed N --seconds S --trace 0|1 --work DIR
//
// Workloads:
//   lu-b64-titb-smpi  trace file -> prediction, improved pipeline: stream
//                     TITB through titio::Reader into SMPI.
//   tird-closed-mix   tird job -> done: one closed-loop client, one daemon
//                     worker, a seeded mix over a trace pool larger than the
//                     daemon's trace cache.
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every call into a layer, writes them to DIR/../tirbench-spans-*.jsonl and
// prints the per-layer metrics, a self-time table and the tracing overhead.
// The last line of stdout is always one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The process exits non-zero when any operation or output check failed.
//
// Two internal modes re-execute this binary so that memory is measured in a
// fresh process (peak RSS from its own VmHWM):
//   tirbench --serve ENDPOINT CACHE_BYTES            one-worker tird
//   tirbench --predict-once FILE RATE                one lu-b64 prediction
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/run.hpp"
#include "base/log.hpp"
#include "core/calibration.hpp"
#include "core/mc_sweep.hpp"
#include "core/predictor.hpp"
#include "platform/clusters.hpp"
#include "platform/model.hpp"
#include "platform/parse.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "titio/reader.hpp"
#include "titio/shared.hpp"
#include "titio/writer.hpp"

namespace {

using namespace tir;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_t0 = Clock::now();
double now_s() { return std::chrono::duration<double>(Clock::now() - g_t0).count(); }

// --- statistics ---------------------------------------------------------------

/// Type-7 quantile (linear interpolation), the convention of numpy and of
/// Python's statistics.quantiles(method="inclusive").
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

/// Diagnostic line: sample count, quartiles, extremes, and the samples in
/// run order when there are few.
void print_distribution(const char* what, const std::vector<double>& v) {
  std::printf("# %s: n=%zu min=%.6g q1=%.6g median=%.6g q3=%.6g max=%.6g", what, v.size(),
              quantile(v, 0), quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75),
              quantile(v, 1));
  if (v.size() <= 60) {
    std::printf(" [");
    for (const double x : v) std::printf(" %.4g", x);
    std::printf(" ]");
  }
  std::printf("\n");
}

/// Host reference loop: a fixed xorshift spin, in million steps per second.
/// Printed beside every run's metrics so a slow-host spell can be told apart
/// from a slow program; it is not a metric.
double host_ref_msteps() {
  constexpr std::uint64_t kSteps = 20'000'000;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const double t = now_s();
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double dt = now_s() - t;
  volatile std::uint64_t sink = x;
  (void)sink;
  return static_cast<double>(kSteps) / dt / 1e6;
}

// --- tracing ------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0, end = 0;
  int parent = -1;
  long op = -1;  ///< repetition or job id; set-up i is -1 - i
};

/// Spans from the benchmark's own code, kept in memory until the run ends.
/// Disabled (the --trace 0 runs and the untraced half of a traced run), a
/// span is just the call.
class Tracer {
 public:
  bool on = false;
  std::vector<Span> spans;

  template <class F>
  auto span(const std::string& name, long op, F&& fn) {
    if (!on) return fn();
    const int id = open(name, op, now_s());
    struct Closer {
      Tracer* t;
      int id;
      ~Closer() { t->close(id, now_s()); }
    } closer{this, id};
    return fn();
  }
  /// A span whose bounds are already known (read from the daemon's lines).
  void record(const std::string& name, long op, double start, double end, int parent) {
    if (on) spans.push_back({name, start, end, parent, op});
  }
  int open(const std::string& name, long op, double start) {
    spans.push_back({name, start, start, stack_.empty() ? -1 : stack_.back(), op});
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
  }
  void close(int id, double end) {
    spans[static_cast<std::size_t>(id)].end = end;
    stack_.pop_back();
  }

  /// Median over operations of the summed durations of this span name.
  double median_per_op(const std::string& name) const {
    std::map<long, double> sums;
    for (const Span& s : spans) {
      if (s.name == name) sums[s.op] += s.end - s.start;
    }
    std::vector<double> v;
    for (const auto& [op, sum] : sums) v.push_back(sum);
    return median(v);
  }

 private:
  std::vector<int> stack_;
};

/// Self time per span name: duration minus the part its children cover.
std::map<std::string, std::pair<double, long>> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
  }
  std::map<std::string, std::pair<double, long>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0, reach = spans[i].start;
    for (const auto& [a, b] : k) {
      const double from = std::max(a, reach), to = std::min(b, spans[i].end);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    auto& [self, count] = out[spans[i].name];
    self += (spans[i].end - spans[i].start) - covered;
    ++count;
  }
  return out;
}

void write_spans(const std::vector<Span>& spans, const fs::path& path) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,"
                  "\"op\":%ld}\n",
                  i, s.name.c_str(), s.start, s.end, s.parent, s.op);
    out << line;
  }
}

/// Write the span file beside the work directory and print the self-time
/// table.
void finish_trace(const Tracer& tr, const fs::path& work, const std::string& workload,
                  std::uint64_t seed) {
  const fs::path span_file =
      work.parent_path() / ("tirbench-spans-" + workload + "-" + std::to_string(seed) + ".jsonl");
  write_spans(tr.spans, span_file);
  std::printf("# spans: %zu written to %s\n", tr.spans.size(), span_file.string().c_str());
  std::printf("# %-28s %8s %12s\n", "span", "count", "self_s");
  for (const auto& [name, v] : self_times(tr.spans)) {
    std::printf("# %-28s %8ld %12.6f\n", name.c_str(), v.second, v.first);
  }
}

// --- results and checks -------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

struct Outcome {
  long attempted = 0;
  long failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  /// A check on one operation: a failure marks that operation failed.
  bool op_check(bool ok, const std::string& what) {
    if (!ok) std::fprintf(stderr, "tirbench: CHECK FAILED: %s\n", what.c_str());
    return ok;
  }
  /// A check on the run as a whole (set-up determinism, cache accounting).
  void run_check(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "tirbench: CHECK FAILED: %s\n", what.c_str());
    correct = false;
  }
};

bool same_result(const core::ReplayResult& a, const core::ReplayResult& b) {
  return a.simulated_time == b.simulated_time && a.engine_steps == b.engine_steps &&
         a.actions_replayed == b.actions_replayed;
}

std::string fmt(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

std::uintmax_t tree_bytes(const fs::path& dir, const std::string& prefix) {
  std::uintmax_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().filename().string().rfind(prefix, 0) == 0) {
      total += e.file_size();
    }
  }
  return total;
}

/// Lower bound any correct prediction must meet: the busiest rank's compute
/// volume at the calibrated rate (communication only adds time).
double compute_bound(const tit::Trace& trace, double rate) {
  double bound = 0;
  for (int r = 0; r < trace.nprocs(); ++r) {
    double sum = 0;
    for (const tit::Action& a : trace.actions(r)) {
      if (a.type == tit::ActionType::Compute) sum += a.volume;
    }
    bound = std::max(bound, sum / rate);
  }
  return bound;
}

// --- child processes ------------------------------------------------------------

std::string self_exe() { return fs::read_symlink("/proc/self/exe").string(); }

/// fork + exec this binary with `args`; stdout of the child goes to `out_fd`
/// when >= 0.  The child dies with the parent.
pid_t spawn_self(const std::vector<std::string>& args, int out_fd) {
  const std::string exe = self_exe();
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) throw Error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    if (out_fd >= 0) dup2(out_fd, STDOUT_FILENO);
    execv(exe.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

/// Wait for a child; true when it exited with status 0.
bool reap(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Peak RSS in MiB of a process's current address space: VmHWM from
/// /proc/PID/status (-1 if unreadable).  wait4's ru_maxrss is no use for a
/// fork + exec child: it keeps the high-water mark of the copy of the
/// parent it was between fork and exec.
double peak_rss_mib(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return -1;
}

// --- layer split (traced runs) ------------------------------------------------

/// One trace in both encodings plus the replay settings of its workload
/// (SMPI, Uncontended, in both workloads).
struct SplitInput {
  fs::path titb, manifest;
  const titio::SharedTrace* shared;
  const platform::Platform* platform;
  core::ReplayConfig config;
};

/// The extra calls a traced repetition makes so each layer is timed on its
/// own: a decode-only drain of the TITB file, a parse-only load of the text
/// manifest, in-memory replays (no decode) on both back-ends, and one more
/// in-memory SMPI replay under MaxMin sharing, whose difference from the
/// Uncontended one estimates what the MaxMin solver would add.
void layer_split(Tracer& tr, long op, const SplitInput& in) {
  tr.span("titio.decode", op, [&] {
    titio::Reader reader(in.titb.string());
    tit::Action a;
    for (int rank = 0; rank < reader.nprocs(); ++rank) {
      while (reader.next(rank, a)) {
      }
    }
    return 0;
  });
  tr.span("tit.parse", op, [&] { return tit::load_trace(in.manifest).total_actions(); });
  for (const core::Backend b : {core::Backend::Smpi, core::Backend::Msg}) {
    titio::SharedTrace::Cursor cursor = in.shared->cursor();
    tr.span(std::string(core::backend_name(b)) + ".replay", op,
            [&] { return core::replay(b, cursor, *in.platform, in.config); });
  }
  core::ReplayConfig maxmin = in.config;
  maxmin.sharing = sim::Sharing::MaxMin;
  titio::SharedTrace::Cursor cursor = in.shared->cursor();
  tr.span("smpi.maxmin_replay", op,
          [&] { return core::replay(core::Backend::Smpi, cursor, *in.platform, maxmin); });
}

/// Per-layer metrics of the set-up and layer-split spans: medians over
/// set-ups or repetitions of the per-operation sums.
void add_layer_metrics(Outcome& out, const Tracer& tr, double actions, double engine_steps,
                       double titb_bytes, double text_bytes) {
  const auto med = [&](const char* name) { return tr.median_per_op(name); };
  const double mactions = actions / 1e6;
  out.add("apps.acquire_s", "s", med("apps.acquire"));
  out.add("core.calibrate_s", "s", med("core.calibrate"));
  out.add("titio.encode_s", "s", med("titio.encode"));
  out.add("tit.write_s", "s", med("tit.write"));
  out.add("titio.decode_s", "s", med("titio.decode"));
  out.add("titio.decode_mactions_per_s", "Mactions/s", mactions / med("titio.decode"));
  out.add("titio.file_mib", "MiB", titb_bytes / (1 << 20));
  out.add("tit.parse_s", "s", med("tit.parse"));
  out.add("tit.parse_mactions_per_s", "Mactions/s", mactions / med("tit.parse"));
  out.add("tit.text_mib", "MiB", text_bytes / (1 << 20));
  out.add("smpi.replay_s", "s", med("smpi.replay"));
  out.add("msg.replay_s", "s", med("msg.replay"));
  out.add("core.actions", "count", actions);
  out.add("sim.engine_steps", "count", engine_steps);
  out.add("sim.steps_per_action", "steps/action", engine_steps / actions);
  out.add("sim.solver_est_s", "s", med("smpi.maxmin_replay") - med("smpi.replay"));
}

// --- lu-b64-titb-smpi ----------------------------------------------------------------

/// LU B-64 on bordereau, acquired with the improved pipeline (minimal
/// instrumentation, -O3, cache-aware calibration); a prediction streams the
/// TITB file through titio::Reader into SMPI with Uncontended sharing.
constexpr const char* kLuWorkload = "lu-b64-titb-smpi";
constexpr char kLuClass = 'B';
constexpr int kLuProcs = 64;
constexpr int kLuIterations = 20;
/// Fig. 6/7: the improved pipeline's prediction error stays within about
/// +-11%.
constexpr double kLuErrBandPct = 11.0;
/// Set-ups per run (see TimedSection); one takes about 3 s.
constexpr int kLuSetups = 5;

struct LuContext {
  platform::Platform platform = platform::bordereau();
  platform::ClusterCalibrationTruth truth = platform::bordereau_truth();
  core::ReplayConfig config;  ///< the prediction's replay settings
  fs::path titb, manifest;
};

LuContext lu_context(const fs::path& dir) {
  LuContext c;
  // As core::predict_lu configures SMPI.
  c.config.mpi.piecewise = smpi::reference_piecewise();
  c.config.mpi.copy_rate = c.truth.copy_rate;
  c.titb = dir / "lu.titb";
  c.manifest = dir / "lu.manifest";
  return c;
}

/// One trace file -> prediction: the operation lu-b64-titb-smpi times.
core::ReplayResult lu_predict(const LuContext& c, Tracer& tr, long op) {
  titio::Reader reader(c.titb.string());
  return tr.span("predict.stream_replay", op,
                 [&] { return core::replay(core::Backend::Smpi, reader, c.platform, c.config); });
}

struct LuSetup {
  double seconds = 0;
  double real_seconds = 0;
  double rate = 0;
  tit::Trace trace;
};

/// Acquisition (ground-truth and instrumented runs), calibration and both
/// encodings, in core::predict_lu's order so the machine model's noise
/// stream matches it.
LuSetup lu_setup(const LuContext& c, std::uint64_t seed, long op, Tracer& tr) {
  const double t = now_s();
  core::PipelineSettings settings;
  settings.iterations = kLuIterations;
  settings.seed = seed;
  apps::LuConfig lu;
  lu.cls = apps::nas_class(kLuClass);
  lu.nprocs = kLuProcs;
  lu.iterations_override = kLuIterations;
  const apps::MachineModel machine(c.truth, settings.noise, settings.seed);

  LuSetup s;
  apps::RunResult traced = tr.span("apps.acquire", op, [&] {
    apps::AcquisitionConfig orig = core::acquisition_for(settings);
    orig.granularity = hwc::Granularity::None;
    s.real_seconds = apps::run_lu(lu, c.platform, machine, orig).wall_time;
    apps::AcquisitionConfig acq = core::acquisition_for(settings);
    acq.emit_trace = true;
    return apps::run_lu(lu, c.platform, machine, acq);
  });
  s.rate = tr.span("core.calibrate", op, [&] {
    core::CalibrationSettings cal;
    cal.acquisition = core::acquisition_for(settings);
    cal.iterations = settings.calibration_iterations;
    return core::calibrate_cache_aware(c.platform, machine, cal, std::string(1, kLuClass))
        .rate_for(lu);
  });
  tr.span("titio.encode", op, [&] {
    titio::write_binary_trace(traced.trace, c.titb.string());
    return 0;
  });
  tr.span("tit.write", op, [&] {
    tit::write_trace(traced.trace, c.manifest.parent_path().string(), "lu");
    return 0;
  });
  s.trace = std::move(traced.trace);
  s.seconds = now_s() - t;
  return s;
}

// --- the prediction service ---------------------------------------------------------

struct Daemon {
  pid_t pid = -1;
  std::string endpoint;
};

Daemon start_daemon(const fs::path& socket, std::uint64_t cache_bytes) {
  Daemon d;
  d.endpoint = "unix:" + socket.string();
  d.pid = spawn_self({"--serve", d.endpoint, std::to_string(cache_bytes)}, -1);
  for (int i = 0; i < 2000; ++i) {  // up to 10 s
    int status = 0;
    if (waitpid(d.pid, &status, WNOHANG) == d.pid) throw Error("tird exited during start-up");
    try {
      svc::Client probe(d.endpoint);
      if (probe.ping()) return d;
    } catch (const Error&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill(d.pid, SIGKILL);
  reap(d.pid);
  throw Error("tird did not come up on " + d.endpoint);
}

/// Drain and stop the daemon; true when it exited cleanly.
bool stop_daemon(Daemon& d) {
  try {
    svc::Client(d.endpoint).shutdown_server();
  } catch (const Error&) {
    kill(d.pid, SIGKILL);
  }
  const bool ok = reap(d.pid);
  d.pid = -1;
  return ok;
}

/// What the benchmark needs to replay one scenario in-process.
struct ScenarioRef {
  const titio::SharedTrace* trace = nullptr;
  core::Backend backend = core::Backend::Smpi;
  std::shared_ptr<const platform::Platform> platform;
  core::ReplayConfig config;
};

/// One finished job as the client saw it, kept for the checks that run
/// after the timed section.
struct JobRecord {
  double latency_s = 0;
  svc::JobResult result;
  std::vector<ScenarioRef> expected;  ///< in scenario index order
  double expected_rate = 0;           ///< the calibration the job should get
};

/// Submit one job and time it as the client sees it.  A traced job also
/// gets child spans for the daemon's phases, read from its done line and
/// laid end to end from the submit; the job's self time is then the wire.
JobRecord submit_job(svc::Client& client, const svc::JobRequest& request, Tracer& tr, long op) {
  JobRecord rec;
  const double start = now_s();
  rec.result = client.submit(request);
  const double end = now_s();
  rec.latency_s = end - start;
  if (tr.on) {
    const int parent = tr.open("job", op, start);
    tr.close(parent, end);
    double at = start;
    for (const std::string phase : {"queue_wait", "decode", "calibrate", "replay"}) {
      const double d = rec.result.epilogue.num_or(phase + "_seconds", 0);
      tr.record("svc." + phase, op, at, at + d, parent);
      at += d;
    }
  }
  return rec;
}

/// The svc layer split of a set of jobs: mean ms per job, since a phase
/// such as decode is near zero on cache hits and a median would only say
/// which side of the hit share it fell on.
void add_svc_metrics(Outcome& out, const std::vector<JobRecord>& jobs, const svc::Json& before,
                     const svc::Json& after) {
  std::vector<double> queue, decode, calibrate, replay, wire;
  double scenarios = 0;
  for (const JobRecord& j : jobs) {
    const svc::Json& d = j.result.epilogue;
    const double q = d.num_or("queue_wait_seconds", 0), de = d.num_or("decode_seconds", 0),
                 ca = d.num_or("calibrate_seconds", 0), re = d.num_or("replay_seconds", 0);
    queue.push_back(1e3 * q);
    decode.push_back(1e3 * de);
    calibrate.push_back(1e3 * ca);
    replay.push_back(1e3 * re);
    wire.push_back(1e3 * (j.latency_s - q - de - ca - re));
    scenarios += d.num_or("scenarios", 0);
  }
  const auto delta = [&](const char* cache, const char* field) {
    return after.get(cache).num_or(field, 0) - before.get(cache).num_or(field, 0);
  };
  out.add("svc.queue_wait_ms", "ms", mean(queue));
  out.add("svc.decode_ms", "ms", mean(decode));
  out.add("svc.calibrate_ms", "ms", mean(calibrate));
  out.add("svc.replay_ms", "ms", mean(replay));
  out.add("svc.wire_ms", "ms", mean(wire));
  out.add("svc.trace_cache_hits", "count", delta("traces", "hits"));
  out.add("svc.trace_cache_misses", "count", delta("traces", "misses"));
  out.add("svc.calibration_cache_hits", "count", delta("calibrations", "hits"));
  out.add("svc.calibration_cache_misses", "count", delta("calibrations", "misses"));
  out.add("svc.scenarios", "count", scenarios);
  out.add("svc.trace_cache_peak_mib", "MiB",
          after.get("traces").num_or("peak_bytes", 0) / double(1 << 20));
}

/// Output checks of one job: done, every scenario ok, the calibration the
/// benchmark computed itself, and each scenario bit-identical to a direct
/// in-process replay.  `memo` caches direct replays across jobs.
bool check_job(Outcome& out, const JobRecord& j,
               std::map<std::string, core::ReplayResult>& memo) {
  const svc::JobResult& r = j.result;
  const std::string id = "job " + std::to_string(r.id);
  bool ok = out.op_check(r.done && !r.failed && !r.rejected,
                         id + " did not reach done: " + r.error);
  ok = ok && out.op_check(r.scenarios.size() == j.expected.size() &&
                              r.epilogue.num_or("scenarios_ok", -1) ==
                                  static_cast<double>(j.expected.size()),
                          id + ": scenario count or scenarios_ok mismatch");
  ok = ok && out.op_check(r.started.num_or("calibrated_rate", -1) == j.expected_rate,
                          id + ": calibrated rate differs from in-process calibrate_rate");
  if (!ok) return false;
  for (const svc::Json& line : r.scenarios) {
    const core::ScenarioOutcome got = svc::parse_scenario(line);
    const auto index = static_cast<std::size_t>(line.num_or("index", -1));
    if (!out.op_check(got.ok && index < j.expected.size(), id + ": scenario failed: " + got.error)) {
      return false;
    }
    const ScenarioRef& e = j.expected[index];
    std::string key = fmt(reinterpret_cast<std::uintptr_t>(e.trace)) + "|" +
                      core::backend_name(e.backend) + "|" +
                      fmt(reinterpret_cast<std::uintptr_t>(e.platform.get())) + "|" +
                      fmt(static_cast<double>(e.config.sharing));
    for (const double rate : e.config.rates) key += "|" + fmt(rate);
    auto it = memo.find(key);
    if (it == memo.end()) {
      titio::SharedTrace::Cursor cursor = e.trace->cursor();
      it = memo.emplace(key, core::replay(e.backend, cursor, *e.platform, e.config))
               .first;
    }
    if (!out.op_check(same_result(got.result, it->second),
                      id + " scenario " + std::to_string(index) +
                          ": wire result differs from direct replay (" +
                          fmt(got.result.simulated_time) + " vs " +
                          fmt(it->second.simulated_time) + ")")) {
      return false;
    }
  }
  return true;
}

/// Daemon side of the service path: one worker, a small admission queue.
int serve(const std::string& endpoint, std::uint64_t cache_bytes) {
  std::signal(SIGPIPE, SIG_IGN);
  svc::ServerOptions options;
  options.endpoint = endpoint;
  options.workers = 1;
  options.queue_capacity = 4;
  options.cache_bytes = cache_bytes;
  svc::Server server(options);
  server.start();
  server.wait();
  return 0;
}

// --- set-ups and the timed section ---------------------------------------------------

/// A run repeats its set-up several times; setup_s is the median, and equal
/// outputs are a determinism check on acquisition, calibration and encoding.
/// The host's speed for memory-bound code drifts over tens of seconds, so
/// the set-ups are spread over the run and sample the same spells as the
/// timed operations: set-up 0 runs before the timed section, the others at
/// even steps inside it, between two operations.  The section is extended
/// by the time they take, so the operations still get `seconds` of it.
class TimedSection {
 public:
  TimedSection(double seconds, int setups)
      : setups_(setups), step_(seconds / setups), end_(now_s() + seconds), next_(now_s() + step_) {}

  /// True while operations go on; at least three run.
  bool running(long op) const { return now_s() < end_ || op < 3; }
  /// Run the next set-up, setup(i), when it is due.
  template <class F>
  void interleave(F&& setup) {
    if (done_ < setups_ && now_s() >= next_) run(setup);
  }
  /// Run the set-ups that did not fall due inside the section.
  template <class F>
  void finish(F&& setup) {
    while (done_ < setups_) run(setup);
  }

 private:
  template <class F>
  void run(F& setup) {
    const double t = now_s();
    setup(done_++);
    const double took = now_s() - t;
    end_ += took;
    next_ += step_ + took;
  }

  int setups_;
  double step_, end_, next_;
  int done_ = 1;  ///< set-up 0 runs before the section
};

// --- lu-b64-titb-smpi run -------------------------------------------------------------

int run_lu(std::uint64_t seed, double seconds, bool traced, const fs::path& work, Outcome& out) {
  LuContext c = lu_context(work);
  Tracer tr;
  tr.on = traced;

  LuSetup s = lu_setup(c, seed, -1, tr);
  tr.on = false;
  std::vector<double> setup_seconds = {s.seconds};
  const std::uint64_t hash = titio::hash_actions(s.trace);
  const auto extra_setup = [&](int i) {
    const fs::path dir = work / ("setup" + std::to_string(i));
    fs::create_directories(dir);
    tr.on = traced;
    const LuSetup next = lu_setup(lu_context(dir), seed, -1 - i, tr);
    tr.on = false;
    setup_seconds.push_back(next.seconds);
    out.run_check(next.real_seconds == s.real_seconds && next.rate == s.rate &&
                      titio::hash_actions(next.trace) == hash,
                  "set-up is not deterministic");
    fs::remove_all(dir);
  };
  c.config.rates = {s.rate};
  const double bound = compute_bound(s.trace, s.rate);
  const std::uint64_t actions = static_cast<std::uint64_t>(s.trace.total_actions());
  const titio::SharedTrace shared(std::move(s.trace));
  titio::SharedTrace::Cursor cursor = shared.cursor();
  const core::ReplayResult reference = core::replay(core::Backend::Smpi, cursor, c.platform, c.config);

  // Timed section.  A traced run alternates untraced and traced
  // repetitions; the ratio of their medians is the tracing overhead, and
  // each traced repetition adds the calls that split the layers.
  std::vector<double> times, untraced_times;
  core::ReplayResult first{};
  TimedSection section(seconds, kLuSetups);
  for (long op = 0; section.running(op); ++op) {
    section.interleave(extra_setup);
    const bool record = traced && op % 2 == 1;
    tr.on = record;
    const double t = now_s();
    const core::ReplayResult r = tr.span("predict", op, [&] { return lu_predict(c, tr, op); });
    const double dt = now_s() - t;
    tr.on = false;
    ++out.attempted;
    if (op == 0) first = r;
    const std::string id = "prediction " + std::to_string(op);
    const bool ok =
        out.op_check(r.actions_replayed == actions, id + ": actions_replayed != trace actions") &&
        out.op_check(r.skipped_actions == 0 && !r.degraded && r.reached_end,
                     id + ": skipped, degraded or stopped early") &&
        out.op_check(r.simulated_time >= bound, id + ": prediction below compute bound") &&
        out.op_check(same_result(r, first), id + ": not bit-identical to repetition 0") &&
        out.op_check(same_result(r, reference), id + ": TITB stream differs from in-memory replay");
    if (!ok) ++out.failed;
    (record ? times : untraced_times).push_back(dt);
    if (!record) continue;
    tr.on = true;
    layer_split(tr, op, {c.titb, c.manifest, &shared, &c.platform, c.config});
    tr.on = false;
  }
  section.finish(extra_setup);
  if (!traced) times = untraced_times;

  // Peak RSS of one prediction in a fresh process; its answer must match.
  double rss = -1;
  {
    int fds[2];
    if (pipe(fds) != 0) throw Error("pipe failed");
    const pid_t pid = spawn_self({"--predict-once", c.titb.string(), fmt(s.rate)}, fds[1]);
    close(fds[1]);
    std::string text;
    char buf[256];
    for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) text.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    out.run_check(reap(pid), "prediction child failed");
    const std::string want =
        fmt(first.simulated_time) + " " + std::to_string(first.engine_steps) + "\n";
    const std::size_t eol = text.find('\n');
    out.run_check(eol != std::string::npos && text.substr(0, eol + 1) == want,
                  "prediction child disagrees: " + text);
    if (eol != std::string::npos) rss = std::atof(text.c_str() + eol + 1);
    out.run_check(rss > 0, "prediction child reported no peak RSS");
  }

  const double signed_err = (first.simulated_time - s.real_seconds) / s.real_seconds * 100.0;
  out.run_check(std::fabs(signed_err) <= kLuErrBandPct,
                "prediction error " + fmt(signed_err) + "% outside the paper band");
  std::printf("# %s: %zu predictions, actions=%llu, predicted=%.6g s, real=%.6g s, "
              "error=%+.2f%%, prediction/compute-bound=%.3f\n",
              kLuWorkload, times.size() + (traced ? untraced_times.size() : 0),
              static_cast<unsigned long long>(actions), first.simulated_time, s.real_seconds,
              signed_err, first.simulated_time / bound);

  print_distribution("prediction s", times);
  print_distribution("setup s", setup_seconds);
  if (!traced) {
    out.add("setup_s", "s", median(setup_seconds));
    out.add("predict_s", "s", median(times));
    out.add("prediction_err_pct", "%", std::fabs(signed_err));
    out.add("job_p50_ms", "ms", 1e3 * median(times));
    out.add("job_p95_ms", "ms", 1e3 * quantile(times, 0.95));
    out.add("peak_rss_mib", "MiB", rss);
    return 0;
  }

  add_layer_metrics(out, tr, static_cast<double>(actions),
                    static_cast<double>(reference.engine_steps),
                    static_cast<double>(fs::file_size(c.titb)),
                    static_cast<double>(tree_bytes(work, "lu_") + fs::file_size(c.manifest)));

  // Service leg: the same trace as three tird jobs (one decode, two cache
  // hits), so the svc split is measured on this workload's trace too.
  tr.on = true;
  const fs::path plat_file = work / "platform.txt";
  {
    std::ofstream(plat_file) << platform::write_platform_string(c.platform);
  }
  const auto plat = std::make_shared<const platform::Platform>(
      platform::load_platform(plat_file.string()));
  svc::JobRequest job;
  job.op = "predict";
  job.trace = c.titb.string();
  job.platform = plat_file.string();
  job.calibrate = true;
  job.calibration.procedure = "cache-aware";
  job.calibration.classes = std::string(1, kLuClass);
  job.calibration.truth = c.truth;
  job.calibration.seed = seed;
  job.calibration.instance_class = kLuClass;
  job.calibration.instance_nprocs = kLuProcs;
  svc::ScenarioSpec sc;
  sc.label = "calibrated";
  sc.backend = core::Backend::Smpi;
  job.scenarios.push_back(sc);
  const double rate = core::calibrate_rate(*plat, job.calibration);
  // The daemon decodes the file itself and replays with default SMPI
  // settings: the reference is a direct replay of the same file with those.
  const titio::SharedTrace loaded = titio::SharedTrace::load(job.trace);
  ScenarioRef ref{&loaded, core::Backend::Smpi, plat, {}};
  ref.config.rates = {rate};
  Daemon d = start_daemon(work / "tird.sock", 1ull << 30);
  svc::Client client(d.endpoint);
  const svc::Json before = client.stats();
  std::vector<JobRecord> jobs;
  for (long i = 0; i < 3; ++i) {
    JobRecord rec = submit_job(client, job, tr, i);
    rec.expected = {ref};
    rec.expected_rate = rate;
    jobs.push_back(std::move(rec));
  }
  const svc::Json after = client.stats();
  stop_daemon(d);
  std::map<std::string, core::ReplayResult> memo;
  for (const JobRecord& j : jobs) {
    out.run_check(check_job(out, j, memo), "service leg job failed its checks");
  }
  add_svc_metrics(out, jobs, before, after);
  out.add("bench.trace_overhead_pct", "%",
          100.0 * (median(times) / median(untraced_times) - 1.0));

  finish_trace(tr, work, kLuWorkload, seed);
  std::printf("# tracing overhead: traced predict median %.6f s vs untraced %.6f s\n",
              median(times), median(untraced_times));
  return 0;
}

// --- tird-closed-mix ------------------------------------------------------------------

/// The trace pool: small LU instances on bordereau, acquired with the
/// improved pipeline.  Their decoded size is larger than the daemon's trace
/// cache (kCacheShare of it), so a seeded share of jobs decodes.
struct PoolSpec {
  char cls;
  int nprocs;
  int iterations;
};
const PoolSpec kPool[] = {{'A', 8, 10}, {'A', 8, 20}, {'A', 16, 5},
                          {'A', 16, 10}, {'W', 16, 10}, {'B', 8, 4}};
constexpr double kCacheShare = 0.6;
/// A minority of jobs carries one of these perturbation specs with
/// kReplicates Monte Carlo replicates.
const char* const kPerturbSpecs[] = {"seed=7;link.bw=uniform:0.2",
                                     "seed=9;host.speed=lognormal:0.1"};
constexpr int kSpecs = 2;
constexpr int kReplicates = 2;
constexpr int kPerturbOneIn = 10;
/// Set-ups per run (see TimedSection); one takes about 1.3 s, so more of
/// them than on lu-b64 for a median as steady.
constexpr int kTirdSetups = 9;
/// Rate factors of the explicit-rate scenarios (the calibrated one is 1).
const double kRateLadder[] = {0.5, 0.7, 0.8, 0.9, 1.1, 1.25, 1.5, 2.0};

struct PoolTrace {
  fs::path titb, manifest;
  double real_seconds = 0;
  std::uint64_t hash = 0;
  std::uint64_t actions = 0;
  core::CalibrationRequest calibration;
  double rates[1 + kSpecs] = {};  ///< calibrated rate: unperturbed, then per spec
};

struct TirdSetup {
  double seconds = 0;
  std::vector<PoolTrace> pool;
  /// Platform instances per spec and replicate, as the daemon samples them.
  std::vector<std::vector<std::shared_ptr<const platform::Platform>>> instances;
  std::uint64_t cache_bytes = 0;
  Daemon daemon;
};

svc::JobRequest base_job(const PoolTrace& t, const fs::path& plat_file) {
  svc::JobRequest job;
  job.op = "predict";
  job.trace = t.titb.string();
  job.platform = plat_file.string();
  job.calibrate = true;
  job.calibration = t.calibration;
  return job;
}

/// Acquire and encode the pool, calibrate it in-process (the expected
/// rates), start the daemon and warm it: one job per trace and
/// perturbation spec, so every calibration the mix needs is cached.
TirdSetup tird_setup(std::uint64_t seed, long op, const fs::path& work,
                     const std::shared_ptr<const platform::Platform>& plat,
                     const fs::path& plat_file, Tracer& tr, Outcome& out) {
  TirdSetup s;
  const double t0 = now_s();
  const platform::ClusterCalibrationTruth truth = platform::bordereau_truth();
  core::PipelineSettings settings;
  settings.seed = seed;
  const apps::MachineModel machine(truth, settings.noise, settings.seed);
  std::uint64_t decoded_bytes = 0;
  for (std::size_t k = 0; k < std::size(kPool); ++k) {
    const PoolSpec& p = kPool[k];
    apps::LuConfig lu;
    lu.cls = apps::nas_class(p.cls);
    lu.nprocs = p.nprocs;
    lu.iterations_override = p.iterations;
    PoolTrace t;
    const apps::RunResult traced = tr.span("apps.acquire", op, [&] {
      apps::AcquisitionConfig orig = core::acquisition_for(settings);
      orig.granularity = hwc::Granularity::None;
      t.real_seconds = apps::run_lu(lu, *plat, machine, orig).wall_time;
      apps::AcquisitionConfig acq = core::acquisition_for(settings);
      acq.emit_trace = true;
      return apps::run_lu(lu, *plat, machine, acq);
    });
    const std::string base = "p" + std::to_string(k);
    t.titb = work / (base + ".titb");
    tr.span("titio.encode", op, [&] {
      titio::write_binary_trace(traced.trace, t.titb.string());
      return 0;
    });
    t.manifest = tr.span("tit.write", op, [&] {
      return fs::path(tit::write_trace(traced.trace, work.string(), base));
    });
    t.hash = titio::hash_actions(traced.trace);
    t.actions = static_cast<std::uint64_t>(traced.trace.total_actions());
    decoded_bytes += t.actions * sizeof(tit::Action) + 4096;  // the daemon's cache cost
    t.calibration.procedure = "cache-aware";
    t.calibration.classes = std::string(1, p.cls);
    t.calibration.truth = truth;
    t.calibration.seed = seed;
    t.calibration.instance_class = p.cls;
    t.calibration.instance_nprocs = p.nprocs;
    s.pool.push_back(std::move(t));
  }
  s.instances.resize(kSpecs);
  for (int p = 0; p < kSpecs; ++p) {
    const platform::PerturbationSpec spec = platform::PerturbationSpec::parse(kPerturbSpecs[p]);
    const platform::PlatformModel model(plat, spec);
    for (int r = 0; r < kReplicates; ++r) {
      s.instances[p].push_back(model.instantiate(spec.replicate_seed(static_cast<std::uint64_t>(r))));
    }
  }
  tr.span("core.calibrate", op, [&] {
    for (PoolTrace& t : s.pool) {
      t.rates[0] = core::calibrate_rate(*plat, t.calibration);
      for (int p = 0; p < kSpecs; ++p) {
        t.rates[1 + p] = core::calibrate_rate(*s.instances[p][0], t.calibration);
      }
    }
    return 0;
  });
  s.cache_bytes = static_cast<std::uint64_t>(kCacheShare * static_cast<double>(decoded_bytes));
  tr.span("svc.start", op, [&] {
    s.daemon = start_daemon(work / ("tird" + std::to_string(-op) + ".sock"), s.cache_bytes);
    return 0;
  });
  tr.span("svc.warmup", op, [&] {
    svc::Client client(s.daemon.endpoint);
    for (const PoolTrace& t : s.pool) {
      for (int p = -1; p < kSpecs; ++p) {
        svc::JobRequest job = base_job(t, plat_file);
        if (p >= 0) {
          job.perturb = kPerturbSpecs[p];
          job.mc_replicates = kReplicates;
        }
        svc::ScenarioSpec sc;
        sc.label = "warmup";
        job.scenarios.push_back(sc);
        const svc::JobResult r = client.submit(job);
        out.run_check(r.done && r.epilogue.num_or("scenarios_ok", 0) >= 1,
                      "warm-up job failed: " + r.error);
      }
    }
    return 0;
  });
  s.seconds = now_s() - t0;
  return s;
}

int run_tird(std::uint64_t seed, double seconds, bool traced, const fs::path& work,
             Outcome& out) {
  Tracer tr;
  tr.on = traced;
  const fs::path plat_file = work / "platform.txt";
  {
    std::ofstream(plat_file) << platform::write_platform_string(platform::bordereau());
  }
  const auto plat = std::make_shared<const platform::Platform>(
      platform::load_platform(plat_file.string()));

  // Set-up 0's daemon serves the timed jobs; the other set-ups (see
  // TimedSection) build their own pool and daemon, and stop it.
  TirdSetup s = tird_setup(seed, -1, work, plat, plat_file, tr, out);
  tr.on = false;
  std::vector<double> setup_seconds = {s.seconds};
  const auto extra_setup = [&](int i) {
    const fs::path dir = work / ("setup" + std::to_string(i));
    fs::create_directories(dir);
    tr.on = traced;
    TirdSetup next = tird_setup(seed, -1 - i, dir, plat, plat_file, tr, out);
    tr.on = false;
    setup_seconds.push_back(next.seconds);
    out.run_check(stop_daemon(next.daemon), "set-up daemon did not exit cleanly");
    for (std::size_t k = 0; k < next.pool.size(); ++k) {
      const PoolTrace &a = s.pool[k], &b = next.pool[k];
      out.run_check(a.hash == b.hash && a.real_seconds == b.real_seconds &&
                        std::equal(std::begin(a.rates), std::end(a.rates), b.rates),
                    "set-up is not deterministic");
    }
    fs::remove_all(dir);
  };
  std::vector<std::unique_ptr<titio::SharedTrace>> shared;
  for (const PoolTrace& t : s.pool) {
    shared.push_back(std::make_unique<titio::SharedTrace>(titio::SharedTrace::load(t.titb.string())));
  }

  // Timed section: one client, closed loop, a seeded stream of distinct jobs.
  std::mt19937_64 rng(seed);
  std::vector<JobRecord> jobs;
  std::vector<double> traced_latency, untraced_latency;
  svc::Client client(s.daemon.endpoint);
  const svc::Json before = client.stats();
  TimedSection section(seconds, kTirdSetups);
  for (long op = 0; section.running(op); ++op) {
    section.interleave(extra_setup);
    const std::size_t k = rng() % std::size(kPool);
    const int p = rng() % kPerturbOneIn == 0 ? static_cast<int>(rng() % kSpecs) : -1;
    const std::size_t n = p >= 0 ? 1 + rng() % 2 : 1 + rng() % 4;
    std::vector<double> ladder(std::begin(kRateLadder), std::end(kRateLadder));
    std::vector<double> factors = {1.0};
    while (factors.size() < n) {
      const std::size_t j = rng() % ladder.size();
      factors.push_back(ladder[j]);
      ladder.erase(ladder.begin() + static_cast<std::ptrdiff_t>(j));
    }
    const PoolTrace& t = s.pool[k];
    const double rate = t.rates[1 + p];
    svc::JobRequest job = base_job(t, plat_file);
    if (p >= 0) {
      job.perturb = kPerturbSpecs[p];
      job.mc_replicates = kReplicates;
    }
    for (std::size_t i = 0; i < factors.size(); ++i) {
      svc::ScenarioSpec sc;
      // The job number in the label makes every request distinct; the
      // daemon does the full work for each (plain submit, no idempotency key).
      sc.label = "j" + std::to_string(op) + ".s" + std::to_string(i);
      if (i > 0) sc.rates = {rate * factors[i]};  // scenario 0 takes the calibration
      job.scenarios.push_back(sc);
    }
    tr.on = traced && op % 2 == 1;
    JobRecord rec = submit_job(client, job, tr, op);
    (tr.on ? traced_latency : untraced_latency).push_back(rec.latency_s);
    tr.on = false;
    rec.expected_rate = rate;
    for (std::size_t i = 0; i < factors.size(); ++i) {
      for (int r = 0; r < (p >= 0 ? kReplicates : 1); ++r) {
        ScenarioRef e{shared[k].get(), core::Backend::Smpi, plat, {}};
        e.config.rates = {rate * factors[i]};
        if (p >= 0) {
          e.platform = s.instances[p][r];
          e.config = core::scale_rates_for_instance(e.config, shared[k]->nprocs(), *plat,
                                                    *e.platform);
        }
        rec.expected.push_back(std::move(e));
      }
    }
    jobs.push_back(std::move(rec));
  }
  section.finish(extra_setup);
  const svc::Json after = client.stats();
  const double rss = peak_rss_mib(std::to_string(s.daemon.pid));  // all jobs are done
  out.run_check(rss > 0, "no peak RSS for the daemon");
  out.run_check(stop_daemon(s.daemon), "daemon did not exit cleanly");

  // Output checks, outside the timed section.
  std::map<std::string, core::ReplayResult> memo;
  std::vector<double> latency, predict, tail_misses;
  for (const JobRecord& j : jobs) {
    ++out.attempted;
    if (!check_job(out, j, memo)) ++out.failed;
    latency.push_back(j.latency_s);
    const svc::Json& d = j.result.epilogue;
    predict.push_back(d.num_or("decode_seconds", 0) + d.num_or("calibrate_seconds", 0) +
                      d.num_or("replay_seconds", 0));
  }
  const auto delta = [&](const char* cache) {
    const auto sum = [&](const svc::Json& st) {
      return st.get(cache).num_or("hits", 0) + st.get(cache).num_or("misses", 0);
    };
    return sum(after) - sum(before);
  };
  const double n_jobs = static_cast<double>(jobs.size());
  out.run_check(delta("traces") == n_jobs, "trace cache hits + misses != jobs");
  out.run_check(delta("calibrations") == n_jobs, "calibration cache hits + misses != jobs");

  // Accuracy: each pool trace's calibrated prediction (bit-identical to the
  // wire, checked above) against its ground-truth run.
  double err_sum = 0;
  std::uint64_t actions = 0;
  double steps = 0, titb_bytes = 0, text_bytes = 0;
  for (std::size_t k = 0; k < s.pool.size(); ++k) {
    const PoolTrace& t = s.pool[k];
    core::ReplayConfig cfg;
    cfg.rates = {t.rates[0]};
    titio::SharedTrace::Cursor cursor = shared[k]->cursor();
    const core::ReplayResult r = core::replay(core::Backend::Smpi, cursor, *plat, cfg);
    err_sum += std::fabs(r.simulated_time - t.real_seconds) / t.real_seconds * 100.0;
    actions += t.actions;
    steps += static_cast<double>(r.engine_steps);
    titb_bytes += static_cast<double>(fs::file_size(t.titb));
    text_bytes += static_cast<double>(tree_bytes(work, "p" + std::to_string(k) + "_") +
                                      fs::file_size(t.manifest));
  }

  // Where the tail falls: jobs by replays per job, all of them against
  // those at or beyond p95, and the trace-cache misses among the latter.
  const double p95 = quantile(latency, 0.95);
  std::map<std::size_t, std::array<int, 3>> by_replays;  // jobs, tail jobs, tail misses
  for (const JobRecord& j : jobs) {
    std::array<int, 3>& c = by_replays[j.expected.size()];
    ++c[0];
    if (j.latency_s >= p95) {
      ++c[1];
      c[2] += j.result.trace_cache_hit() ? 0 : 1;
    }
  }
  std::printf("# pool:");
  for (std::size_t k = 0; k < s.pool.size(); ++k) {
    std::printf(" %c-%d/%dit=%llu", kPool[k].cls, kPool[k].nprocs, kPool[k].iterations,
                static_cast<unsigned long long>(s.pool[k].actions));
  }
  std::printf(" actions; trace cache %.2f MiB for %.2f MiB decoded; hit share %.3f\n",
              static_cast<double>(s.cache_bytes) / (1 << 20),
              static_cast<double>(s.cache_bytes) / kCacheShare / (1 << 20),
              (after.get("traces").num_or("hits", 0) - before.get("traces").num_or("hits", 0)) /
                  n_jobs);
  for (const auto& [replays, c] : by_replays) {
    std::printf("# %zu replays/job: %d jobs, %d at or beyond p95, %d of those cache misses\n",
                replays, c[0], c[1], c[2]);
  }
  print_distribution("job latency s", latency);
  print_distribution("setup s", setup_seconds);
  if (!traced) {
    out.add("setup_s", "s", median(setup_seconds));
    out.add("predict_s", "s", median(predict));
    out.add("prediction_err_pct", "%", err_sum / static_cast<double>(s.pool.size()));
    out.add("job_p50_ms", "ms", 1e3 * median(latency));
    out.add("job_p95_ms", "ms", 1e3 * p95);
    out.add("peak_rss_mib", "MiB", rss);
    return 0;
  }

  // Per-layer: the layer split over the whole pool, three passes.
  tr.on = true;
  for (long pass = 0; pass < 3; ++pass) {
    for (std::size_t k = 0; k < s.pool.size(); ++k) {
      core::ReplayConfig cfg;
      cfg.rates = {s.pool[k].rates[0]};
      layer_split(tr, pass, {s.pool[k].titb, s.pool[k].manifest, shared[k].get(), plat.get(), cfg});
    }
  }
  add_layer_metrics(out, tr, static_cast<double>(actions), steps, titb_bytes, text_bytes);
  add_svc_metrics(out, jobs, before, after);
  out.add("bench.trace_overhead_pct", "%",
          100.0 * (median(traced_latency) / median(untraced_latency) - 1.0));
  finish_trace(tr, work, "tird-closed-mix", seed);
  std::printf("# tracing overhead: traced job median %.6f s vs untraced %.6f s\n",
              median(traced_latency), median(untraced_latency));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  log::set_level(log::Level::Warn);
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 3 && args[0] == "--serve") {
      return serve(args[1], std::stoull(args[2]));
    }
    if (args.size() == 3 && args[0] == "--predict-once") {
      LuContext c = lu_context(fs::path(args[1]).parent_path());
      c.config.rates = {std::stod(args[2])};
      Tracer off;
      const core::ReplayResult r = lu_predict(c, off, 0);
      std::printf("%s %llu\n%.6f\n", fmt(r.simulated_time).c_str(),
                  static_cast<unsigned long long>(r.engine_steps), peak_rss_mib("self"));
      return 0;
    }
    std::string workload, work;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
      if (args[i] == "--workload") workload = args[i + 1];
      else if (args[i] == "--seed") seed = std::stoull(args[i + 1]);
      else if (args[i] == "--seconds") seconds = std::stod(args[i + 1]);
      else if (args[i] == "--trace") trace = std::stoi(args[i + 1]);
      else if (args[i] == "--work") work = args[i + 1];
      else throw ConfigError("unknown argument " + args[i]);
    }
    if (work.empty() || args.size() % 2 != 0) {
      throw ConfigError("usage: tirbench --workload W --seed N --seconds S --trace 0|1 --work DIR");
    }
    fs::remove_all(work);
    fs::create_directories(work);
    Outcome out;
    const double host_before = host_ref_msteps();
    if (workload == kLuWorkload) {
      run_lu(seed, seconds, trace != 0, work, out);
    } else if (workload == "tird-closed-mix") {
      run_tird(seed, seconds, trace != 0, work, out);
    } else {
      throw ConfigError("unknown workload '" + workload + "'");
    }
    const double host_after = host_ref_msteps();
    fs::remove_all(work);
    std::printf("# host reference loop: %.1f Msteps/s before, %.1f after (diagnostic)\n",
                host_before, host_after);
    std::string json = "{\"correct\": " + std::string(out.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(out.attempted) +
                       ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
      const Metric& m = out.metrics[i];
      json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + fmt(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return out.correct && out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tirbench: %s\n", e.what());
    return 1;
  }
}
