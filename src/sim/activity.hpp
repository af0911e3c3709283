// Activities: the units of simulated work.
//
// An Activity is something that consumes simulated time: an execution (a
// number of instructions on a core), a communication (latency followed by a
// byte transfer across a route), a timer, or a gate (a pure synchronization
// token completed explicitly, used for e.g. mailbox matching).
//
// Ownership.  The engine owns every Activity, in a slab of stable slots
// (engine.hpp).  Everyone else — senders, receivers, request queues,
// awaiting coroutines — holds an ActivityHandle: a trivially copyable
// {slot, generation} pair that copies and drops without touching any count.
// The engine frees a slot right after the activity completed and woke its
// waiters, bumping the slot's generation, so a handle reads done() once the
// generation moved on or the state is Done, whoever occupies the slot now.
// Activities that never start (an unmatched gate or rendezvous comm at a
// deadlock) are freed with the engine.  A handle must not outlive its
// engine, and like everything the engine hands out it is confined to the
// engine's thread.  Generations are 32-bit: a handle kept while its slot is
// reused 2^32 times would alias the slot's occupant.
//
// Waiters are resumed in registration order when an activity completes.
// The first waiter sits inline; later ones spill to an engine-side table.
//
// Progress is tracked lazily: `remaining` is exact only as of `anchor` (the
// simulated time it was last materialized), and the engine's time heap keys
// on `heap_key`, the projected completion time anchor + remaining / rate.
// Between rate changes nothing is touched — an activity whose rate never
// changes costs at most O(log n) over its whole lifetime, not O(steps), and
// nothing beyond a FIFO append when it rides a constant-delay lane
// (timeheap.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "platform/platform.hpp"

namespace tir::sim {

using SimTime = double;

struct WaitAnyState;

/// A registered waiter: a coroutine to resume, a gate to complete in turn
/// (request objects chain onto the comm they track), or a wait-any member.
/// `ptr` is null for an empty slot.
struct Waiter {
  enum class Kind : std::uint8_t { Resume, Chain, Any };
  Kind kind = Kind::Resume;
  std::uint32_t aux = 0;  ///< Chain: the gate's generation; Any: member index
  void* ptr = nullptr;    ///< coroutine address | gate Activity* | WaitAnyState*
};
static_assert(std::is_trivially_copyable_v<Waiter> && sizeof(Waiter) == 16);

struct Activity {
  enum class Kind : std::uint8_t { Exec, Comm, Timer, Gate };
  enum class State : std::uint8_t { Pending, Running, Done };
  static constexpr std::uint32_t kNoSpill = ~std::uint32_t{0};

  // Shared progress state (lazy; see the header comment).
  SimTime heap_key = 0.0;  ///< projected completion time (heap ordering key)
  double remaining = 0.0;  ///< instructions or bytes left as of `anchor`
  double rate = 0.0;       ///< currently assigned rate
  SimTime anchor = 0.0;    ///< time `remaining` was last materialized
  std::uint64_t seq = 0;   ///< creation sequence (the heap's tiebreak)
  std::int32_t heap_slot = -1;  ///< index in the engine's time heap, -1 if absent
  std::uint32_t gen = 0;        ///< slot generation, bumped when the slot is freed

  // Exec fields.
  double nominal_rate = 0.0;      ///< instructions/s when alone on the core
  std::int32_t core_index = -1;   ///< flattened (host, core) slot
  std::int32_t core_slot = -1;    ///< index in the core's exec list, -1 if absent

  // Comm fields.
  const platform::Route* route = nullptr;  ///< nullptr for loopback
  double latency_left = 0.0;               ///< seconds of latency still to pay
  double bw_bound = 0.0;                   ///< per-flow rate cap (bytes/s)
  std::int32_t flow_id = -1;               ///< max-min solver flow id, -1 if none
  std::int32_t xfer_slot = -1;             ///< index in the engine's transfer list
                                           ///< (kept only with a sink), -1 if absent

  Waiter waiter;                    ///< first registered waiter, inline
  std::uint32_t spill = kNoSpill;   ///< engine-side list of later waiters
  Kind kind = Kind::Gate;
  State state = State::Pending;
  std::int8_t lane = -1;  ///< constant-delay lane in the time heap, -1 if none

  bool done() const { return state == State::Done; }
  bool in_latency_phase() const { return kind == Kind::Comm && latency_left > 0.0; }
};
static_assert(std::is_trivially_destructible_v<Activity>);
static_assert(sizeof(Activity) <= 128);

/// Non-owning handle to an engine-owned Activity (see the header comment).
class ActivityHandle {
 public:
  ActivityHandle() = default;
  ActivityHandle(std::nullptr_t) {}  // NOLINT
  explicit ActivityHandle(Activity* a) : act_(a), gen_(a->gen) {}

  /// True once the activity completed, whether or not its slot was reused.
  bool done() const { return act_->gen != gen_ || act_->state == Activity::State::Done; }
  /// The slot; it belongs to another activity once done() reads true.
  Activity* get() const { return act_; }
  friend bool operator==(const ActivityHandle& h, std::nullptr_t) { return h.act_ == nullptr; }

 private:
  Activity* act_ = nullptr;
  std::uint32_t gen_ = 0;
};
static_assert(std::is_trivially_copyable_v<ActivityHandle>);

}  // namespace tir::sim
