// Randomized lockstep fuzz of the calendar-queue Simulator against a
// reference oracle: a plain binary heap over sim/event_key.h's (time,
// priority, seq) order, defined below and used nowhere else. Both execute
// the *same* stream of schedule/cancel/reschedule operations (identical
// per-rig Rng seeds), and the test asserts they fire the same callbacks at
// the same times in the same order. The op stream is generated from inside
// the simulation, so any ordering divergence immediately desynchronizes the
// two op streams and amplifies into a log mismatch — there is no way for a
// calendar bug in EventKey ordering, generation liveness, or bucket-cursor
// handling to stay hidden behind a coarse summary statistic.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/event_key.h"
#include "sim/simulator.h"

namespace crn::sim {
namespace {

constexpr int kTimers = 64;
constexpr int kTicks = 1000;
constexpr int kOpsPerTick = 100;  // 100,000 ops per rig per seed
constexpr TimeNs kTickPeriod = kMillisecond;
constexpr TimeNs kMaxDelay = 8 * kMillisecond;

using FireLog = std::vector<std::pair<int, TimeNs>>;

EventPriority PriorityFor(int index) {
  switch (index % 3) {
    case 0:
      return EventPriority::kSlotBoundary;
    case 1:
      return EventPriority::kDefault;
    default:
      return EventPriority::kTimerExpiry;
  }
}

// One driver tick's ops, drawn from `rng`. Both rigs consume the identical
// sequence; `rig` applies each op to its own queue.
template <typename Rig>
void ApplyTickOps(Rng& rng, Rig& rig) {
  for (int k = 0; k < kOpsPerTick; ++k) {
    const int i = static_cast<int>(rng.UniformInt(kTimers));
    const TimeNs delay = static_cast<TimeNs>(rng.UniformInt(kMaxDelay + 1));
    switch (rng.UniformInt(8)) {
      case 0:
      case 1:
      case 2:  // arm (or O(1) reschedule if already pending)
        rig.Arm(i, delay);
        break;
      case 3:  // rescheduling twice in one op stresses generation bumps
        rig.Arm(i, delay);
        rig.Arm(i, delay / 2);
        break;
      case 4:
        rig.Disarm(i);
        break;
      case 5:  // release + rebind recycles the arena slot mid-run
        rig.Rebind(i);
        break;
      default:  // fire-and-forget one-shot, logged with a distinct tag
        rig.Once(i, delay);
        break;
    }
  }
}

// The reference order: every pending arm is one heap entry. Re-arm, disarm
// and fire bump the handle's generation, so superseded entries are skipped
// on pop; SchedStats count at the same points the Simulator counts them.
class ReferenceQueue {
 public:
  int Bind(EventPriority priority, std::function<void()> fn) {
    handles_.push_back(Handle{std::move(fn), priority});
    return static_cast<int>(handles_.size()) - 1;
  }

  void ArmAt(int h, TimeNs when) {
    Handle& handle = handles_[static_cast<std::size_t>(h)];
    if (handle.armed) Cancel(handle);
    handle.armed = true;
    heap_.push(Entry{EventKey{when, static_cast<std::int32_t>(handle.priority),
                              next_seq_++},
                     h, handle.generation});
    ++stats_.pushes;
    ++pending_;
  }

  void Disarm(int h) {
    Handle& handle = handles_[static_cast<std::size_t>(h)];
    if (handle.armed) Cancel(handle);
  }

  void ScheduleOnce(TimeNs when, EventPriority priority,
                    std::function<void()> fn) {
    ArmAt(Bind(priority, std::move(fn)), when);
  }

  void RunUntil(TimeNs deadline) {
    while (DropStaleTop() && heap_.top().key.time <= deadline) {
      const Entry entry = heap_.top();
      heap_.pop();
      ++stats_.pops;
      --pending_;
      Handle& handle = handles_[static_cast<std::size_t>(entry.handle)];
      handle.armed = false;
      ++handle.generation;
      now_ = entry.key.time;
      ++events_executed_;
      handle.fn();
    }
  }

  [[nodiscard]] TimeNs now() const { return now_; }
  [[nodiscard]] std::size_t pending_count() const { return pending_; }
  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }
  [[nodiscard]] const SchedStats& sched_stats() const { return stats_; }

 private:
  struct Handle {
    std::function<void()> fn;
    EventPriority priority;
    std::uint32_t generation = 0;
    bool armed = false;
  };
  struct Entry {
    EventKey key;
    int handle;
    std::uint32_t generation;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.key > b.key;
    }
  };

  void Cancel(Handle& handle) {
    handle.armed = false;
    ++handle.generation;
    --pending_;
    ++stats_.cancels;
  }

  // Pops dead entries off the top; returns whether a live one remains.
  bool DropStaleTop() {
    while (!heap_.empty() &&
           heap_.top().generation !=
               handles_[static_cast<std::size_t>(heap_.top().handle)]
                   .generation) {
      heap_.pop();
      ++stats_.stale_skips;
    }
    return !heap_.empty();
  }

  // A deque so a callback that binds new handles (one-shots, rebinds)
  // never relocates the handle whose callback is running.
  std::deque<Handle> handles_;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 1;
  TimeNs now_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t events_executed_ = 0;
  SchedStats stats_;
};

// The calendar Simulator driven through its public Timer API.
class CalendarRig {
 public:
  explicit CalendarRig(std::uint64_t seed) : rng_(seed) {
    timers_.resize(kTimers);
    for (int i = 0; i < kTimers; ++i) BindTimer(i);
    driver_.Bind(sim_, EventPriority::kDefault, EventFn([this] { Tick(); }));
    driver_.Start(0, kTickPeriod);
  }

  void Run() { sim_.RunUntil((kTicks + 16) * kTickPeriod); }

  void Arm(int i, TimeNs delay) { timers_[i].ArmAfter(delay); }
  void Disarm(int i) { timers_[i].Disarm(); }
  void Rebind(int i) {
    timers_[i].Release();
    BindTimer(i);
  }
  void Once(int i, TimeNs delay) {
    sim_.ScheduleOnceAfter(
        delay, PriorityFor(i),
        EventFn([this, i] { log_.emplace_back(kTimers + i, sim_.now()); }));
  }

  [[nodiscard]] const FireLog& log() const { return log_; }
  [[nodiscard]] const Simulator& sim() const { return sim_; }

 private:
  void BindTimer(int i) {
    timers_[i].Bind(sim_, PriorityFor(i),
                    EventFn([this, i] { log_.emplace_back(i, sim_.now()); }));
  }

  void Tick() {
    if (++ticks_ > kTicks) {
      driver_.Stop();
      return;
    }
    ApplyTickOps(rng_, *this);
  }

  Simulator sim_;
  Rng rng_;
  std::vector<Timer> timers_;
  PeriodicTimer driver_;
  FireLog log_;
  int ticks_ = 0;
};

// The same rig over the reference heap. The driver re-arms after its tick
// body returns, as PeriodicTimer does, so its arm takes the next sequence
// number after every op the tick issued.
class ReferenceRig {
 public:
  explicit ReferenceRig(std::uint64_t seed) : rng_(seed) {
    timers_.resize(kTimers);
    for (int i = 0; i < kTimers; ++i) BindTimer(i);
    driver_ = queue_.Bind(EventPriority::kDefault, [this] {
      Tick();
      if (driver_running_) queue_.ArmAt(driver_, queue_.now() + kTickPeriod);
    });
    queue_.ArmAt(driver_, 0);
  }

  void Run() { queue_.RunUntil((kTicks + 16) * kTickPeriod); }

  void Arm(int i, TimeNs delay) { queue_.ArmAt(timers_[i], queue_.now() + delay); }
  void Disarm(int i) { queue_.Disarm(timers_[i]); }
  void Rebind(int i) {
    queue_.Disarm(timers_[i]);
    BindTimer(i);
  }
  void Once(int i, TimeNs delay) {
    queue_.ScheduleOnce(queue_.now() + delay, PriorityFor(i), [this, i] {
      log_.emplace_back(kTimers + i, queue_.now());
    });
  }

  [[nodiscard]] const FireLog& log() const { return log_; }
  [[nodiscard]] const ReferenceQueue& queue() const { return queue_; }

 private:
  void BindTimer(int i) {
    timers_[i] = queue_.Bind(PriorityFor(i), [this, i] {
      log_.emplace_back(i, queue_.now());
    });
  }

  void Tick() {
    if (++ticks_ > kTicks) {
      driver_running_ = false;
      return;
    }
    ApplyTickOps(rng_, *this);
  }

  ReferenceQueue queue_;
  Rng rng_;
  std::vector<int> timers_;
  int driver_ = 0;
  bool driver_running_ = true;
  FireLog log_;
  int ticks_ = 0;
};

TEST(SchedulerFuzzTest, CalendarMatchesReferencePopOrder) {
  for (const std::uint64_t seed : {0x5EEDADDCULL, 7ULL, 20260808ULL}) {
    CalendarRig calendar(seed);
    ReferenceRig reference(seed);
    calendar.Run();
    reference.Run();

    ASSERT_GT(calendar.log().size(), 10'000U) << "seed " << seed;
    ASSERT_EQ(calendar.log().size(), reference.log().size()) << "seed " << seed;
    for (std::size_t e = 0; e < calendar.log().size(); ++e) {
      ASSERT_EQ(calendar.log()[e], reference.log()[e])
          << "seed " << seed << ": divergence at fired event " << e << " of "
          << calendar.log().size();
    }

    // The two must agree on every externally visible queue statistic;
    // only bucket_resizes is calendar-internal.
    EXPECT_EQ(calendar.sim().pending_count(), reference.queue().pending_count())
        << "seed " << seed;
    EXPECT_EQ(calendar.sim().events_executed(),
              reference.queue().events_executed())
        << "seed " << seed;
    const SchedStats& cal = calendar.sim().sched_stats();
    const SchedStats& ref = reference.queue().sched_stats();
    EXPECT_EQ(cal.pushes, ref.pushes) << "seed " << seed;
    EXPECT_EQ(cal.pops, ref.pops) << "seed " << seed;
    EXPECT_EQ(cal.cancels, ref.cancels) << "seed " << seed;
    EXPECT_EQ(cal.stale_skips, ref.stale_skips) << "seed " << seed;
  }
}

}  // namespace
}  // namespace crn::sim
