// The engine's event queue: an indexed binary min-heap over running
// activities, ordered by projected completion time, plus constant-delay
// lanes that keep most communication events off the heap.
//
// Heap.  Finding the next event is O(1), and — the part a plain priority
// queue cannot do — a rate change re-keys just the affected activity in
// O(log n), because every heap-resident activity stores its own heap
// position (Activity::heap_slot).  The ordering fields are copied INTO the
// heap array (struct of key/seq/activity entries) instead of being read
// through the Activity pointers: a sift touches a contiguous run of 24-byte
// entries where the pointer-chasing layout paid a random pool-memory access
// per comparison.  The activity's own heap_key stays authoritative; update()
// re-copies it after a re-key.
//
// Lanes.  Most events of a trace replay are the latency and transfer
// phases of messages, keyed now + d for a duration d drawn from a handful of
// values (one per message size and route class on a uniform network).  Keys
// that share a duration arrive in time order, so a FIFO per duration is
// already sorted.  insert_lane() appends an activity to the lane of its
// duration's exact bits when it orders after the lane's tail; only each
// lane's head holds a heap slot.  Popping or removing a head hands its slot
// to the next member, whose key is not smaller, so a sift-down restores the
// heap.  A newcomer that would not order after the tail, and any activity
// once the lane cap is reached, goes to the heap instead.
//
// Ordering is (heap_key, seq) on both paths: each lane is sorted in that
// order and its head competes in the heap, so the pop sequence is the same
// total order a heap-only queue produces, whatever the insertion/update
// sequence or lane assignment — identical simulations pop identically.
//
// Comparison.  Keys are simulated times: non-negative, never NaN, +inf for
// a parked flow.  On such doubles the IEEE-754 bit pattern read as an
// unsigned integer is monotonic in the value, so (key, seq) compares as the
// single 128-bit integer (bits(key) << 64) | seq — one flag-setting
// subtract instead of two data-dependent branches.  insert(), insert_lane()
// and update() assert the precondition (a negative zero or a NaN would
// break it).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "base/error.hpp"
#include "sim/activity.hpp"

namespace tir::sim {

class TimeHeap {
 public:
  /// Distinct durations that get a lane; later ones fall back to the heap.
  static constexpr int kMaxLanes = 64;

  bool empty() const { return heap_.empty(); }
  /// Heap slots in use (heap-resident activities plus one per busy lane).
  std::size_t size() const { return heap_.size(); }
  Activity* top() const { return heap_.front().act; }
  double top_key() const { return heap_.front().key; }

  /// Entries pushed onto the heap array (each pays a sift-up).
  std::uint64_t heap_inserts() const { return heap_inserts_; }
  /// Activities queued behind a lane's tail instead (no heap work).
  std::uint64_t lane_appends() const { return lane_appends_; }

  bool contains(const Activity* a) const { return a->heap_slot >= 0 || a->lane >= 0; }

  /// Insert an activity not currently queued onto the heap.
  void insert(Activity* a) {
    TIR_ASSERT(!contains(a) && valid_key(a->heap_key));
    push_heap(Entry{a->heap_key, a->seq, a});
  }

  /// Insert an activity not currently queued whose heap_key is now +
  /// `duration`, in the lane of that exact duration when it can keep the
  /// lane sorted, on the heap otherwise.
  void insert_lane(Activity* a, double duration) {
    TIR_ASSERT(!contains(a) && valid_key(a->heap_key));
    const Entry e{a->heap_key, a->seq, a};
    const int l = find_lane(std::bit_cast<std::uint64_t>(duration));
    if (l < 0) {
      push_heap(e);
      return;
    }
    Lane& lane = lanes_[static_cast<std::size_t>(l)];
    if (lane.count == 0) {
      lane.push_back(e);
      a->lane = static_cast<std::int8_t>(l);
      push_heap(e);
    } else if (less(lane.back(), e)) {
      lane.push_back(e);
      a->lane = static_cast<std::int8_t>(l);
      ++lane_appends_;
    } else {
      push_heap(e);
    }
  }

  /// Restore the order after `a`'s heap_key changed.  A lane member leaves
  /// its lane (its key no longer follows from the lane's duration).
  void update(Activity* a) {
    if (a->lane >= 0) {
      remove(a);
      insert(a);
      return;
    }
    TIR_ASSERT(a->heap_slot >= 0 && valid_key(a->heap_key));
    const auto i = static_cast<std::size_t>(a->heap_slot);
    TIR_ASSERT(i < heap_.size() && heap_[i].act == a);
    heap_[i].key = a->heap_key;
    if (!sift_up(i)) sift_down(i);
  }

  /// Remove an arbitrary queued activity (e.g. completed externally).
  void remove(Activity* a) {
    if (a->lane >= 0) {
      Lane& lane = lanes_[static_cast<std::size_t>(a->lane)];
      a->lane = -1;
      if (a->heap_slot < 0) {
        lane.erase(a);
        return;
      }
      lane.pop_front();
      if (lane.count > 0) {
        // Hand the head's slot to the next member: its key is not smaller,
        // so it can only move down.
        const auto i = static_cast<std::size_t>(a->heap_slot);
        a->heap_slot = -1;
        heap_[i] = lane.front();
        heap_[i].act->heap_slot = static_cast<std::int32_t>(i);
        sift_down(i);
        return;
      }
    }
    TIR_ASSERT(a->heap_slot >= 0);
    const auto i = static_cast<std::size_t>(a->heap_slot);
    TIR_ASSERT(i < heap_.size() && heap_[i].act == a);
    a->heap_slot = -1;
    if (i == heap_.size() - 1) {
      heap_.pop_back();
      return;
    }
    heap_[i] = heap_.back();
    heap_[i].act->heap_slot = static_cast<std::int32_t>(i);
    heap_.pop_back();
    if (!sift_up(i)) sift_down(i);
  }

  /// Remove the minimum-key activity: its lane successor (whose key is not
  /// smaller) or else the last entry takes the root and sifts down — the
  /// same heap state remove(top) leaves, without its lookups.
  void pop() {
    Activity* const a = heap_.front().act;
    a->heap_slot = -1;
    if (a->lane >= 0) {
      Lane& lane = lanes_[static_cast<std::size_t>(a->lane)];
      a->lane = -1;
      lane.pop_front();
      if (lane.count > 0) {
        heap_.front() = lane.front();
        heap_.front().act->heap_slot = 0;
        sift_down(0);
        return;
      }
    }
    if (heap_.size() == 1) {
      heap_.pop_back();
      return;
    }
    heap_.front() = heap_.back();
    heap_.front().act->heap_slot = 0;
    heap_.pop_back();
    sift_down(0);
  }

 private:
  struct Entry {
    double key;         ///< copy of act->heap_key as of the last insert/update
    std::uint64_t seq;  ///< copy of act->seq (tiebreak)
    Activity* act;
  };

  /// FIFO of entries sharing one duration, sorted by (key, seq); a ring
  /// buffer whose power-of-two capacity grows only with the live count.
  struct Lane {
    std::vector<Entry> ring;
    std::uint32_t head = 0;
    std::uint32_t count = 0;
    std::uint32_t mask = 0;  ///< ring.size() - 1 once allocated

    Entry& at(std::uint32_t k) { return ring[(head + k) & mask]; }
    Entry& front() { return ring[head]; }
    Entry& back() { return at(count - 1); }

    void push_back(const Entry& e) {
      if (count == ring.size()) {
        std::vector<Entry> grown(ring.empty() ? 8 : 2 * ring.size());
        for (std::uint32_t k = 0; k < count; ++k) grown[k] = at(k);
        ring.swap(grown);
        head = 0;
        mask = static_cast<std::uint32_t>(ring.size()) - 1;
      }
      ++count;
      back() = e;
    }

    void pop_front() {
      head = (head + 1) & mask;
      --count;
    }

    /// Remove a non-head member, closing the gap.
    void erase(const Activity* a) {
      std::uint32_t k = 1;
      while (k < count && at(k).act != a) ++k;
      TIR_ASSERT(k < count);
      for (; k + 1 < count; ++k) at(k) = at(k + 1);
      --count;
    }
  };

  /// Non-negative and not NaN (+inf included): the keys rank() orders.
  static bool valid_key(double key) {
    return std::bit_cast<std::uint64_t>(key) <= std::bit_cast<std::uint64_t>(kInfKey);
  }

  static unsigned __int128 rank(const Entry& e) {
    return (static_cast<unsigned __int128>(std::bit_cast<std::uint64_t>(e.key)) << 64) | e.seq;
  }

  static bool less(const Entry& x, const Entry& y) { return rank(x) < rank(y); }

  /// Lane of a duration's bit pattern, created on first use; -1 once the
  /// cap is reached and the duration has none.  Open addressing over twice
  /// the cap keeps probes short; lanes live as long as the queue.
  int find_lane(std::uint64_t bits) {
    std::size_t s = static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits));
    while (true) {
      const std::int8_t l = lane_table_[s];
      if (l < 0) break;
      if (lane_bits_[static_cast<std::size_t>(l)] == bits) return l;
      s = (s + 1) & (kSlots - 1);
    }
    if (lanes_.size() == kMaxLanes) return -1;
    const auto l = static_cast<std::int8_t>(lanes_.size());
    lanes_.emplace_back();
    lane_bits_[static_cast<std::size_t>(l)] = bits;
    lane_table_[s] = l;
    return l;
  }

  void push_heap(const Entry& e) {
    ++heap_inserts_;
    const std::size_t i = heap_.size();
    e.act->heap_slot = static_cast<std::int32_t>(i);
    heap_.push_back(e);
    sift_up(i);
  }

  /// Returns true if the element moved.
  bool sift_up(std::size_t i) {
    const Entry e = heap_[i];
    bool moved = false;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      heap_[i].act->heap_slot = static_cast<std::int32_t>(i);
      i = parent;
      moved = true;
    }
    if (moved) {
      heap_[i] = e;
      e.act->heap_slot = static_cast<std::int32_t>(i);
    }
    return moved;
  }

  void sift_down(std::size_t i) {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    bool moved = false;
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      // The smaller child, chosen without a branch; a missing right child
      // compares against the left one itself and loses.
      const std::size_t right = child + 1 < n ? child + 1 : child;
      child += static_cast<std::size_t>(less(heap_[right], heap_[child]));
      if (!less(heap_[child], e)) break;
      heap_[i] = heap_[child];
      heap_[i].act->heap_slot = static_cast<std::int32_t>(i);
      i = child;
      moved = true;
    }
    if (moved) {
      heap_[i] = e;
      e.act->heap_slot = static_cast<std::int32_t>(i);
    }
  }

  static constexpr double kInfKey = std::numeric_limits<double>::infinity();
  static constexpr int kSlotBits = 7;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static_assert(kSlots == 2 * kMaxLanes && kMaxLanes <= 127);

  static constexpr std::array<std::int8_t, kSlots> make_empty_table() {
    std::array<std::int8_t, kSlots> t{};
    t.fill(-1);
    return t;
  }

  std::vector<Entry> heap_;
  std::vector<Lane> lanes_;
  std::array<std::uint64_t, kMaxLanes> lane_bits_{};  ///< duration bits per lane
  std::array<std::int8_t, kSlots> lane_table_ = make_empty_table();  ///< slot -> lane
  std::uint64_t heap_inserts_ = 0;
  std::uint64_t lane_appends_ = 0;
};

}  // namespace tir::sim
