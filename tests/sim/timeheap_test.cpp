// The engine's event queue (sim/timeheap.hpp): a seeded property test of
// random insert (lane and plain), update, remove and pop sequences against a
// std::set<(key, seq)> reference, plus targeted cases for the lane paths —
// equal keys, out-of-order appends, removal of non-head lane members,
// overflow past the lane cap and ring-buffer wrap-around — and for the
// 128-bit comparison: edge keys order by value, others are refused.
#include "sim/timeheap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "base/rng.hpp"

namespace tir::sim {
namespace {

/// A TimeHeap checked against the (key, seq) total order after every call.
class CheckedHeap {
 public:
  Activity* make(std::uint64_t seq) {
    acts_.push_back(std::make_unique<Activity>());
    acts_.back()->seq = seq;
    return acts_.back().get();
  }

  void insert(Activity* a, double key) {
    a->heap_key = key;
    heap_.insert(a);
    add(a);
  }

  void insert_lane(Activity* a, double now, double duration) {
    a->heap_key = now + duration;
    heap_.insert_lane(a, duration);
    add(a);
  }

  void update(Activity* a, double key) {
    if (a->lane >= 0) ++inserts_;  // a lane member leaves for the heap
    ref_.erase({a->heap_key, a->seq});
    a->heap_key = key;
    heap_.update(a);
    ref_.insert({a->heap_key, a->seq});
    check();
  }

  void remove(Activity* a) {
    heap_.remove(a);
    EXPECT_FALSE(heap_.contains(a));
    drop(a);
  }

  /// Pop the minimum; returns it.
  Activity* pop() {
    Activity* const a = heap_.top();
    heap_.pop();
    EXPECT_FALSE(heap_.contains(a));
    drop(a);
    return a;
  }

  bool empty() const { return ref_.empty(); }
  const TimeHeap& heap() const { return heap_; }
  const std::vector<Activity*>& queued() const { return queued_; }

 private:
  void add(Activity* a) {
    ++inserts_;
    ASSERT_TRUE(heap_.contains(a));
    ASSERT_TRUE(ref_.insert({a->heap_key, a->seq}).second);
    queued_.push_back(a);
    check();
  }

  void drop(Activity* a) {
    ASSERT_EQ(ref_.erase({a->heap_key, a->seq}), 1u);
    for (std::size_t i = 0; i < queued_.size(); ++i) {
      if (queued_[i] == a) {
        queued_[i] = queued_.back();
        queued_.pop_back();
        break;
      }
    }
    check();
  }

  void check() const {
    ASSERT_EQ(heap_.empty(), ref_.empty());
    ASSERT_LE(heap_.size(), ref_.size());
    // Every insertion either took a heap slot or queued behind a lane tail.
    ASSERT_EQ(heap_.heap_inserts() + heap_.lane_appends(), inserts_);
    if (ref_.empty()) return;
    ASSERT_EQ(heap_.top_key(), ref_.begin()->first);
    ASSERT_EQ(heap_.top()->seq, ref_.begin()->second);
    ASSERT_EQ(heap_.top()->heap_key, ref_.begin()->first);
  }

  TimeHeap heap_;
  std::set<std::pair<double, std::uint64_t>> ref_;
  std::vector<std::unique_ptr<Activity>> acts_;
  std::vector<Activity*> queued_;
  std::uint64_t inserts_ = 0;
};

/// Random operation mix.  `durations` distinct lane durations are drawn
/// from (more than the cap exercises the heap fallback); "now" creeps up
/// but sometimes steps back, so appends also arrive out of order, and
/// pending activities keep old seqs so equal keys break ties both ways.
void run_random(std::uint64_t seed, int durations, int ops) {
  rng::Sequence rand(seed);
  CheckedHeap q;
  std::vector<double> lane_durations;
  for (int d = 0; d < durations; ++d) {
    // Quantized, so equal keys (now + d) happen often.
    lane_durations.push_back(0.25 * static_cast<double>(1 + rand.next_u64() % 64));
  }
  std::uint64_t next_seq = 0;
  std::vector<Activity*> pending;  // created (seq taken), not yet queued
  double now = 0.0;
  for (int op = 0; op < ops; ++op) {
    const auto r = rand.next_u64() % 100;
    if (r < 10 || pending.empty()) {
      pending.push_back(q.make(next_seq++));
      continue;
    }
    const std::size_t pick = rand.next_u64() % pending.size();
    if (r < 55) {
      Activity* const a = pending[pick];
      pending[pick] = pending.back();
      pending.pop_back();
      const double at = rand.next_u64() % 8 == 0 ? now - 0.25 : now;
      q.insert_lane(a, at, lane_durations[rand.next_u64() % lane_durations.size()]);
    } else if (r < 65) {
      Activity* const a = pending[pick];
      pending[pick] = pending.back();
      pending.pop_back();
      q.insert(a, now + 0.25 * static_cast<double>(rand.next_u64() % 64));
    } else if (q.queued().empty()) {
      continue;
    } else if (r < 70) {
      Activity* const a = q.queued()[rand.next_u64() % q.queued().size()];
      q.update(a, now + 0.25 * static_cast<double>(rand.next_u64() % 64));
    } else if (r < 78) {
      q.remove(q.queued()[rand.next_u64() % q.queued().size()]);
    } else {
      now = std::max(now, q.pop()->heap_key);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  while (!q.empty() && !::testing::Test::HasFatalFailure()) q.pop();
  EXPECT_GT(q.heap().lane_appends(), 0u);
}

TEST(TimeHeapProperty, RandomOpsMatchReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    run_random(seed, 6, 4000);
    if (HasFatalFailure()) return;
  }
}

TEST(TimeHeapProperty, RandomOpsPastTheLaneCap) {
  for (std::uint64_t seed = 100; seed <= 105; ++seed) {
    SCOPED_TRACE(seed);
    run_random(seed, 3 * TimeHeap::kMaxLanes, 6000);
    if (HasFatalFailure()) return;
  }
}

TEST(TimeHeapLanes, EqualDurationsShareOneHeapSlot) {
  CheckedHeap q;
  std::vector<Activity*> acts;
  for (std::uint64_t s = 0; s < 5; ++s) acts.push_back(q.make(s));
  for (int i = 0; i < 5; ++i) q.insert_lane(acts[static_cast<std::size_t>(i)], 1.0 * i, 2.0);
  EXPECT_EQ(q.heap().size(), 1u);
  EXPECT_EQ(q.heap().heap_inserts(), 1u);
  EXPECT_EQ(q.heap().lane_appends(), 4u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop(), acts[static_cast<std::size_t>(i)]);
}

TEST(TimeHeapLanes, EqualKeysOrderBySeq) {
  CheckedHeap q;
  Activity* const late = q.make(7);
  Activity* const early = q.make(3);
  Activity* const later = q.make(9);
  q.insert_lane(late, 0.0, 1.0);
  q.insert_lane(early, 0.0, 1.0);  // same key, smaller seq: not after the tail
  q.insert_lane(later, 0.0, 1.0);  // same key, larger seq: appended
  EXPECT_LT(early->lane, 0);
  EXPECT_GE(later->lane, 0);
  EXPECT_EQ(q.pop(), early);
  EXPECT_EQ(q.pop(), late);
  EXPECT_EQ(q.pop(), later);
}

TEST(TimeHeapLanes, OutOfOrderAppendGoesToTheHeap) {
  CheckedHeap q;
  Activity* const a = q.make(0);
  Activity* const b = q.make(1);
  q.insert_lane(a, 5.0, 1.0);
  q.insert_lane(b, 4.0, 1.0);  // key 5 < tail key 6
  EXPECT_GE(a->lane, 0);
  EXPECT_LT(b->lane, 0);
  EXPECT_EQ(q.pop(), b);
  EXPECT_EQ(q.pop(), a);
}

TEST(TimeHeapLanes, RemovingHeadAndMiddleMembersKeepsOrder) {
  CheckedHeap q;
  std::vector<Activity*> acts;
  for (std::uint64_t s = 0; s < 6; ++s) {
    acts.push_back(q.make(s));
    q.insert_lane(acts.back(), static_cast<double>(s), 3.0);
  }
  Activity* const other = q.make(100);
  q.insert(other, 4.5);
  q.remove(acts[2]);  // middle member
  q.remove(acts[5]);  // tail member
  q.remove(acts[0]);  // head: its slot passes to acts[1]
  q.update(acts[3], 100.0);  // a member re-keyed leaves its lane
  EXPECT_LT(acts[3]->lane, 0);
  EXPECT_EQ(q.pop(), acts[1]);  // key 4
  EXPECT_EQ(q.pop(), other);    // key 4.5
  EXPECT_EQ(q.pop(), acts[4]);  // key 7
  EXPECT_EQ(q.pop(), acts[3]);  // key 100
  EXPECT_TRUE(q.empty());
}

TEST(TimeHeapLanes, RingWrapsAndGrowsInOrder) {
  CheckedHeap q;
  std::uint64_t seq = 0;
  double now = 0.0;
  std::vector<Activity*> fifo;  // expected pop order
  const auto append = [&](int n) {
    for (int i = 0; i < n; ++i) {
      fifo.push_back(q.make(seq++));
      q.insert_lane(fifo.back(), now, 1.0);
      now += 0.5;
    }
  };
  const auto drain = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(q.pop(), fifo.front());
      fifo.erase(fifo.begin());
    }
  };
  // Steady state laps the initial 8-entry ring several times, ending
  // wrapped (head at slot 6)...
  append(6);
  for (int lap = 0; lap < 10; ++lap) {
    drain(3);
    append(3);
  }
  // ...then it grows while wrapped, wraps again in the 16-entry ring, and a
  // middle removal shifts members across the wrap point.
  append(9);
  drain(10);
  append(8);
  q.remove(fifo[3]);
  fifo.erase(fifo.begin() + 3);
  drain(static_cast<int>(fifo.size()));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.heap().heap_inserts(), 1u);  // the lane never emptied
}

TEST(TimeHeapLanes, DurationsPastTheCapFallBackToTheHeap) {
  CheckedHeap q;
  std::vector<Activity*> acts;
  for (int d = 0; d < TimeHeap::kMaxLanes + 8; ++d) {
    acts.push_back(q.make(static_cast<std::uint64_t>(d)));
    q.insert_lane(acts.back(), 0.0, 1.0 + d);
  }
  for (int d = 0; d < TimeHeap::kMaxLanes + 8; ++d) {
    EXPECT_EQ(acts[static_cast<std::size_t>(d)]->lane >= 0, d < TimeHeap::kMaxLanes) << d;
  }
  // Known durations still find their lanes.
  Activity* const again = q.make(1000);
  q.insert_lane(again, 100.0, 1.0);
  EXPECT_EQ(again->lane, acts[0]->lane);
  for (Activity* const a : acts) EXPECT_EQ(q.pop(), a);
  EXPECT_EQ(q.pop(), again);
}

TEST(TimeHeap, EdgeKeysOrderByValueThenSeq) {
  CheckedHeap q;
  const double keys[] = {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::max(),
                         1.0,
                         std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::denorm_min(),
                         0.0};
  std::vector<Activity*> order;  // expected pop order
  std::uint64_t seq = 100;
  for (const double key : keys) {
    // Two seqs per key, the larger inserted first.
    Activity* const hi = q.make(seq--);
    Activity* const lo = q.make(seq--);
    q.insert(hi, key);
    q.insert(lo, key);
    order.insert(order.begin(), {lo, hi});
  }
  for (Activity* const a : order) EXPECT_EQ(q.pop(), a);
}

TEST(TimeHeap, RefusesKeysOutsideTheBitOrder) {
  for (const double key : {-0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    TimeHeap heap;
    Activity a;
    a.heap_key = key;
    EXPECT_THROW(heap.insert(&a), InternalError) << key;
    EXPECT_THROW(heap.insert_lane(&a, key), InternalError) << key;
    Activity b;
    heap.insert(&b);
    b.heap_key = key;
    EXPECT_THROW(heap.update(&b), InternalError) << key;
  }
}

}  // namespace
}  // namespace tir::sim
