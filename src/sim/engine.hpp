// The discrete-event simulation engine.
//
// One Engine simulates one platform.  Simulated processes (actors) are
// coroutines spawned with spawn(); they interact with simulated time through
// their Ctx: co_await ctx.execute(instructions), ctx.sleep(t), or waits on
// activities created by higher layers (msg, smpi).
//
// The event loop alternates two phases until quiescence:
//   1. resume every ready actor until all are blocked on activities;
//   2. refresh the rates invalidated since the last step (core time-sharing
//      for execs, uncontended-min or max-min fair sharing for comms), jump
//      simulated time to the earliest projected completion in the time heap,
//      and complete everything due, which makes waiters ready again.
//
// The kernel is incremental (see docs/simulation_kernel.md): activity
// progress is projected lazily (Activity::anchor/heap_key), the next event
// comes from an indexed min-heap instead of a linear scan — message phases
// of equal duration share one heap slot through a FIFO lane — rate refreshes
// touch only dirtied cores and — under Resolve::Incremental — only the
// dirtied components of the max-min sharing graph, and activities live in a
// slab of reused slots (activity.hpp).  Per-event cost is
// O(changed · log n), not O(running flows).
//
// The engine is single-threaded and deterministic: identical inputs produce
// bit-identical simulated schedules, in either Resolve mode.
//
// Thread safety (docs/architecture.md): an Engine and everything it owns —
// actors, activity slots, the time heap, the max-min solver — is strictly
// confined to the thread that constructed it; no engine state is global or
// shared between instances.  Concurrent *engines* are therefore safe and
// the unit of parallelism in core::Sweep: one engine per session per
// thread, all reading one const platform::Platform.  Never share an Engine,
// a Ctx, or an obs::Sink between threads.
#pragma once

#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/sink.hpp"
#include "platform/platform.hpp"
#include "sim/activity.hpp"
#include "sim/coro.hpp"
#include "sim/maxmin.hpp"
#include "sim/timeheap.hpp"

namespace tir::sim {

class Ctx;
using ActorFn = std::function<Coro(Ctx&)>;

/// How concurrent flows share the network.
enum class Sharing {
  Uncontended,  ///< each flow gets min link capacity along its route (fast)
  MaxMin,       ///< max-min fair sharing across links (SimGrid-style fluid)
};

/// How the engine keeps max-min rates fresh between events.
enum class Resolve {
  Full,         ///< reference path: re-solve every flow at every step
  Incremental,  ///< re-solve only sharing-graph components dirtied since the
                ///< last step (bit-identical to Full; differential-tested)
};

struct EngineConfig {
  Sharing sharing = Sharing::Uncontended;
  /// Wall-clock (host time) budget for run(); 0 disables the watchdog.
  /// When exceeded, run() stops at the next event-loop iteration and throws
  /// WatchdogError with a progress snapshot — the graceful-cancellation path
  /// for replays of traces that stall without ever deadlocking.
  double wall_clock_limit = 0.0;
  /// Observability event sink; not owned, must outlive the engine.  Null
  /// (the default) disables every hook at the cost of one predictable
  /// branch per hook point — no virtual dispatch on the hot path.
  obs::Sink* sink = nullptr;
  /// Solver strategy; Full exists as the reference for differential tests
  /// and for measuring the incremental path's speedup.
  Resolve resolve = Resolve::Incremental;
};

class Engine;

/// Awaitable for a single activity.
struct ActivityAwaiter {
  Engine* engine;
  ActivityHandle act;
  bool await_ready() const noexcept { return act.done(); }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}
};

/// Engine-side state of a wait-any group: the first completed member wins.
/// Held by every member still pending and by the awaiter until it resumed.
struct WaitAnyState {
  std::coroutine_handle<> waiter;
  int completed_index = -1;  ///< index within the wait set, -1 while pending
  int holders = 0;
};

/// Awaitable for a set of activities; resumes on the first completion and
/// yields its index within the set.
class WaitAnyAwaiter {
 public:
  WaitAnyAwaiter(Engine& engine, std::vector<ActivityHandle> acts)
      : engine_(engine), acts_(std::move(acts)) {}
  bool await_ready() noexcept {
    for (std::size_t i = 0; i < acts_.size(); ++i) {
      if (acts_[i].done()) {
        ready_index_ = static_cast<int>(i);
        return true;
      }
    }
    return false;
  }
  void await_suspend(std::coroutine_handle<> h);
  int await_resume() noexcept;

 private:
  Engine& engine_;
  std::vector<ActivityHandle> acts_;
  WaitAnyState* state_ = nullptr;
  int ready_index_ = -1;
};

/// FIFO of resumable coroutines.  The drain loop empties the queue on every
/// engine step, so a flat vector with a consume index suffices — the storage
/// snaps back to the front once drained, avoiding std::deque's block-map
/// arithmetic on the per-wake hot path.
class ReadyQueue {
 public:
  bool empty() const { return head_ == items_.size(); }

  void push_back(std::coroutine_handle<> h) { items_.push_back(h); }

  std::coroutine_handle<> pop_front() {
    const std::coroutine_handle<> h = items_[head_++];
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
    return h;
  }

 private:
  std::vector<std::coroutine_handle<>> items_;
  std::size_t head_ = 0;
};

class Engine {
 public:
  /// The platform must outlive the engine.
  Engine(const platform::Platform& platform, EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const platform::Platform& platform() const { return platform_; }
  /// The attached observability sink (null when none): higher layers guard
  /// their own event emission with `if (auto* s = engine.sink()) ...`.
  obs::Sink* sink() const { return config_.sink; }
  SimTime now() const { return now_; }
  std::uint64_t steps() const { return steps_; }            ///< time advances
  std::uint64_t activities_created() const { return seq_; } ///< total activities
  /// Slab slots ever carved; plateaus once the live working set is warm.
  std::size_t activity_slots() const { return slab_.size() * kSlabChunk - slab_left_; }
  /// Event-queue work (sim/timeheap.hpp): entries pushed onto the time heap,
  /// and comm phases queued behind a constant-delay lane's tail instead.
  std::uint64_t heap_inserts() const { return heap_.heap_inserts(); }
  std::uint64_t lane_appends() const { return heap_.lane_appends(); }
  /// Solver instrumentation (partial/full solve counts, flows visited).
  const MaxMinSolver::Counters& solver_counters() const { return solver_.counters(); }

  /// Create an actor pinned to (host, core). Returns its index.
  int spawn(std::string name, platform::HostId host, int core, ActorFn fn);

  /// Run until every actor finished. Throws SimError on deadlock and
  /// rethrows the first actor exception.
  void run();

  /// Run until every actor finished OR the next event would fire past
  /// `stop_time` (events exactly at stop_time still fire).  Returns true
  /// when the simulation is quiescent (everything finished), false when it
  /// stopped on the time bound — in which case now() is advanced to
  /// stop_time so the sink's on_sim_end closes open phases at the bound.
  /// Windowed replay (ckpt::ReplayCursor) runs each engine at most once,
  /// so the now() bump never skews a later resume.
  bool run_until(double stop_time);

  // --- activity construction (used by Ctx and the msg/smpi layers) --------
  /// Asynchronous execution of `instructions` at `rate` instr/s on a core.
  ActivityHandle start_exec(platform::HostId host, int core, double instructions, double rate);

  /// Communication of `bytes` from src to dst.  Latency and bandwidth are
  /// scaled by the given factors (the piecewise-linear model hooks in here).
  /// If start_now is false the comm is created Pending; call start_activity()
  /// when the protocol says the transfer begins (e.g. rendezvous match).
  ActivityHandle make_comm(platform::HostId src, platform::HostId dst, double bytes,
                           double lat_factor = 1.0, double bw_factor = 1.0,
                           bool start_now = true);

  /// Timer that fires at now() + duration.
  ActivityHandle start_timer(double duration);

  /// Pure synchronization token (not time-consuming); complete it manually.
  ActivityHandle make_gate();

  /// Move a Pending activity into the running set.
  void start_activity(ActivityHandle act);

  /// Complete a Gate (or any activity) immediately, waking its waiters.
  void complete_now(ActivityHandle act);

  /// Complete `gate` when `source` completes (now, if it already has).
  /// Used by request objects to track the communication they stand for.
  void chain(ActivityHandle source, ActivityHandle gate);

  // --- internal (used by coroutine plumbing) ------------------------------
  void on_actor_done(int actor_index, std::exception_ptr exception);
  void make_ready(std::coroutine_handle<> h) { ready_.push_back(h); }
  /// Register `w` on a live activity; woken in registration order.
  void add_waiter(Activity* a, Waiter w);
  /// Wait-any bookkeeping behind WaitAnyAwaiter.
  WaitAnyState* begin_wait_any(const std::vector<ActivityHandle>& acts,
                               std::coroutine_handle<> h);
  int end_wait_any(WaitAnyState* state);

  /// Ctx of a spawned actor (stable address).
  Ctx& ctx(int actor_index);

 private:
  struct ActorRec;

  void drain_ready();
  void check_watchdog(const std::chrono::steady_clock::time_point& start) const;
  Activity* make_activity();
  /// Return a completed activity's slot to the free list (new generation).
  void free_slot(Activity* a);
  void wake(const Waiter& w);
  void drop_wait_any_hold(WaitAnyState* state);
  /// Assign a rate and cache its due tolerance (advance_to).
  static void set_rate(Activity* a, double rate);
  void enroll_exec(Activity* a);
  void start_comm(Activity* a);
  void begin_transfer(Activity* a);
  void mark_core_dirty(std::int32_t core);
  /// Re-solve whatever was invalidated since the last step and re-key the
  /// affected activities in the time heap.
  void refresh_rates();
  /// Materialize progress under the old rate, switch to `new_rate`, re-key.
  void retime(Activity* a, double new_rate);
  /// Jump simulated time to `t` (the heap minimum) and complete/transition
  /// everything due at it.
  void advance_to(double t);
  /// Drop an activity's hold on cores / flows / the heap.
  void release_resources(Activity& act);
  /// Mark done, wake the waiters, free the slot.
  void complete(Activity& act);
  void add_running(Activity& act);
  /// Route plus its precomputed bottleneck bandwidth (min over links).
  struct CachedRoute {
    const platform::Route* route = nullptr;
    double min_bw = 0.0;
  };
  CachedRoute cached_route(platform::HostId src, platform::HostId dst);
  void emit_diagnoses() const;
  [[noreturn]] void report_deadlock() const;

  static constexpr std::size_t kSlabChunk = 256;

  const platform::Platform& platform_;
  EngineConfig config_;
  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t steps_ = 0;

  std::vector<std::unique_ptr<ActorRec>> actors_;
  int alive_actors_ = 0;
  std::exception_ptr first_error_;

  ReadyQueue ready_;
  std::size_t running_ = 0;  // activities started and not yet done
  TimeHeap heap_;

  // Activity slots: fixed-size chunks (stable addresses) plus a LIFO free
  // list, so the hottest slots are the ones reused.
  std::vector<std::unique_ptr<Activity[]>> slab_;
  std::size_t slab_left_ = 0;  // unused slots at the end of the last chunk
  std::vector<Activity*> free_;
  // Waiters past each activity's inline one, and the wait-any groups.
  std::vector<std::vector<Waiter>> spill_;
  std::vector<std::uint32_t> spill_free_;
  std::deque<WaitAnyState> wait_any_;  // deque: stable addresses
  std::vector<WaitAnyState*> wait_any_free_;

  std::vector<int> core_load_;         // active execs per flattened core
  std::vector<int> host_core_offset_;  // host id -> first core slot
  std::vector<std::vector<Activity*>> core_execs_;  // active execs by core
  std::vector<char> core_dirty_;       // load changed since last refresh
  std::vector<std::int32_t> dirty_cores_;

  // Route cache: flat (src * host_count + dst)-indexed on platforms small
  // enough for the table (the common case — one lookup is an array load, no
  // hashing on the make_comm path); hash-keyed fallback above the threshold.
  std::vector<CachedRoute> route_flat_;
  std::unordered_map<std::uint64_t, CachedRoute> route_cache_;
  std::vector<std::unique_ptr<platform::Route>> route_storage_;
  MaxMinSolver solver_;
  std::vector<Activity*> flow_acts_;   // solver flow id -> activity
  std::vector<Activity*> transfers_;   // with a sink only: comms past their
                                       // latency phase, for its comm-progress
                                       // walk (slot order is a pure function
                                       // of the event sequence, identical
                                       // across Resolve modes)
  std::vector<Activity*> finished_;    // scratch: completions of one step

  bool running_loop_ = false;
};

/// Actor-facing API; one per actor, stable address for the actor's lifetime.
class Ctx {
 public:
  Ctx(Engine& engine, int index, std::string name, platform::HostId host, int core)
      : engine_(engine), index_(index), name_(std::move(name)), host_(host), core_(core) {}

  Engine& engine() { return engine_; }
  SimTime now() const { return engine_.now(); }
  int index() const { return index_; }
  const std::string& name() const { return name_; }
  platform::HostId host() const { return host_; }
  int core() const { return core_; }

  /// Speed (instr/s) of this actor's host, per the replay calibration.
  double host_speed() const { return engine_.platform().host(host_).speed; }

  /// Run `instructions` at the host's calibrated speed.
  ActivityAwaiter execute(double instructions) {
    return wait(engine_.start_exec(host_, core_, instructions, host_speed()));
  }

  /// Run `instructions` at an explicit rate (machine-model override).
  ActivityAwaiter execute_at(double instructions, double rate) {
    return wait(engine_.start_exec(host_, core_, instructions, rate));
  }

  /// Suspend for a fixed simulated duration.
  ActivityAwaiter sleep(double duration) { return wait(engine_.start_timer(duration)); }

  /// Wait for one activity.
  ActivityAwaiter wait(ActivityHandle act) { return ActivityAwaiter{&engine_, act}; }

  /// Wait for the first of several activities; yields the completed index.
  WaitAnyAwaiter wait_any(std::vector<ActivityHandle> acts) {
    return WaitAnyAwaiter(engine_, std::move(acts));
  }

  /// Install a diagnosis callback, called only when the engine must explain
  /// why this actor is blocked (deadlock/watchdog reports).  Higher layers
  /// (the replay engines) register one per rank that formats the rank's
  /// current wait and last completed action; it costs nothing until a
  /// failure actually needs diagnosing.  The callback may capture locals of
  /// the actor's coroutine frame: it is only invoked while the actor is
  /// suspended and not done, when that frame is alive.
  void set_diagnoser(std::function<std::string()> fn) { diagnoser_ = std::move(fn); }
  /// Diagnosis line for failure reports; empty if no diagnoser installed.
  std::string diagnose() const { return diagnoser_ ? diagnoser_() : std::string(); }

 private:
  Engine& engine_;
  int index_;
  std::string name_;
  platform::HostId host_;
  int core_;
  std::function<std::string()> diagnoser_;
};

inline void ActivityAwaiter::await_suspend(std::coroutine_handle<> h) {
  engine->add_waiter(act.get(), Waiter{Waiter::Kind::Resume, 0, h.address()});
}

inline void WaitAnyAwaiter::await_suspend(std::coroutine_handle<> h) {
  state_ = engine_.begin_wait_any(acts_, h);
}

inline int WaitAnyAwaiter::await_resume() noexcept {
  return state_ != nullptr ? engine_.end_wait_any(state_) : ready_index_;
}

}  // namespace tir::sim
