#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "sim/checkpoint.h"
#include "sim/flight_recorder.h"

namespace crn::sim {

Simulator::Simulator() {
  cal_buckets_.resize(kMinCalendarBuckets);
  cal_mask_ = kMinCalendarBuckets - 1;
}

std::uint32_t Simulator::AllocSlot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    Slot& s = slots_[slot];
    free_head_ = s.next_free;
    s.next_free = kNoSlot;
    s.flags = kInUse;
    return slot;
  }
  slots_.emplace_back();
  const auto slot = static_cast<std::uint32_t>(slots_.size() - 1);
  slots_[slot].flags = kInUse;
  return slot;
}

void Simulator::FreeSlotNow(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.Reset();
  ++s.generation;  // any entry still in a queue is now stale
  s.flags = 0;
  s.next_free = free_head_;
  free_head_ = slot;
}

std::uint32_t Simulator::BindSlot(EventPriority priority, EventFn fn,
                                  std::uint16_t kind, std::int32_t owner) {
  CRN_CHECK(static_cast<bool>(fn));
  const std::uint32_t slot = AllocSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.priority = priority;
  s.kind = kind;
  s.owner = owner;
  return slot;
}

void Simulator::ArmSlot(std::uint32_t slot, TimeNs when) {
  CRN_CHECK(!in_observer_) << "event observers must not schedule or cancel";
  CRN_CHECK(!restoring_) << "ArmAt during restore — use RestoreArm";
  CRN_CHECK(when >= now_) << "cannot schedule in the past: when=" << when
                          << " now=" << now_;
  Slot& s = slots_[slot];
  const bool rearmed = (s.flags & kArmed) != 0;
  if (rearmed) {
    // Implicit reschedule: the old entry dies by generation bump.
    ++s.generation;
    --pending_;
    ++stats_.cancels;
  }
  s.flags |= kArmed;
  const EventId seq = next_seq_++;
  // Causal bookkeeping is unconditional (two stores); only the ring write
  // is gated, so a recorder attached mid-run still sees correct parents.
  s.pending_seq = seq;
  s.armed_parent = current_fire_seq_;
  Push(QEntry{when, seq, slot, s.generation, s.priority});
  ++pending_;
  if (recorder_ != nullptr) {
    recorder_->Record(rearmed ? SchedAction::kReschedule : SchedAction::kArm,
                      seq, now_, s.kind, s.owner, current_fire_seq_);
  }
}

bool Simulator::DisarmSlot(std::uint32_t slot) {
  CRN_CHECK(!in_observer_) << "event observers must not schedule or cancel";
  Slot& s = slots_[slot];
  if ((s.flags & kArmed) == 0) return false;
  s.flags &= static_cast<std::uint8_t>(~kArmed);
  ++s.generation;
  --pending_;
  ++stats_.cancels;
  if (recorder_ != nullptr) {
    recorder_->Record(SchedAction::kDisarm, s.pending_seq, now_, s.kind,
                      s.owner, current_fire_seq_);
  }
  return true;
}

void Simulator::ReleaseSlot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if ((s.flags & kArmed) != 0) {
    s.flags &= static_cast<std::uint8_t>(~kArmed);
    ++s.generation;
    --pending_;
    ++stats_.cancels;
    if (recorder_ != nullptr) {
      recorder_->Record(SchedAction::kDisarm, s.pending_seq, now_, s.kind,
                        s.owner, current_fire_seq_);
    }
  }
  if ((s.flags & kExecuting) != 0) {
    // Timer destroyed from inside its own callback (e.g. a transmission
    // torn down by its own end event): free after the callback returns.
    s.flags |= kReleaseDeferred;
    return;
  }
  FreeSlotNow(slot);
}

EventId Simulator::ScheduleOnce(TimeNs when, EventPriority priority,
                                EventFn fn) {
  return ScheduleOnce(when, priority, "unnamed", -1, std::move(fn));
}

EventId Simulator::ScheduleOnce(TimeNs when, EventPriority priority,
                                std::string_view kind, std::int32_t owner,
                                EventFn fn) {
  CRN_CHECK(!in_observer_) << "event observers must not schedule or cancel";
  CRN_CHECK(!restoring_) << "ScheduleOnce during restore — use RestoreOnce";
  CRN_CHECK(when >= now_) << "cannot schedule in the past: when=" << when
                          << " now=" << now_;
  const std::uint32_t slot =
      BindSlot(priority, std::move(fn), RegisterEventKind(kind), owner);
  Slot& s = slots_[slot];
  s.flags |= static_cast<std::uint8_t>(kArmed | kOneShot);
  const EventId seq = next_seq_++;
  s.pending_seq = seq;
  s.armed_parent = current_fire_seq_;
  Push(QEntry{when, seq, slot, s.generation, priority});
  ++pending_;
  if (recorder_ != nullptr) {
    recorder_->Record(SchedAction::kArm, seq, now_, s.kind, s.owner,
                      current_fire_seq_);
  }
  return seq;
}

std::uint16_t Simulator::RegisterEventKind(std::string_view name) {
  CRN_CHECK(!name.empty()) << "event kind name must be non-empty";
  const auto it = kind_ids_.find(name);
  if (it != kind_ids_.end()) return it->second;
  CRN_CHECK(kind_names_.size() < 0xFFFFU) << "event-kind registry full";
  const auto id = static_cast<std::uint16_t>(kind_names_.size());
  kind_names_.emplace_back(name);
  kind_ids_.emplace(kind_names_.back(), id);
  if (recorder_ != nullptr) recorder_->OnKindRegistered(id, name);
  return id;
}

void Simulator::AttachFlightRecorder(FlightRecorder* recorder) {
  recorder_ = recorder;
  if (recorder_ != nullptr) recorder_->SetKindNames(kind_names_);
}

void Simulator::Push(const QEntry& entry) {
  ++stats_.pushes;
  CalPush(entry);
}

bool Simulator::PopLive(QEntry* out) {
  while (cal_size_ > 0) {
    std::vector<QEntry>* bucket = CalMinBucket();
    const QEntry entry = bucket->back();
    bucket->pop_back();
    --cal_size_;
    CalMaybeShrink();
    if (!EntryLive(entry)) {
      ++stats_.stale_skips;
      continue;
    }
    ++stats_.pops;
    *out = entry;
    return true;
  }
  return false;
}

bool Simulator::PeekLive(QEntry* out) {
  while (cal_size_ > 0) {
    std::vector<QEntry>* bucket = CalMinBucket();
    const QEntry entry = bucket->back();
    if (!EntryLive(entry)) {
      bucket->pop_back();
      --cal_size_;
      ++stats_.stale_skips;
      continue;
    }
    *out = entry;
    return true;
  }
  return false;
}

void Simulator::RunObservers() {
  in_observer_ = true;
  for (const auto& observer : event_observers_) observer(now_);
  in_observer_ = false;
}

void Simulator::Fire(const QEntry& entry) {
  Slot& s = slots_[entry.slot];
  now_ = entry.time;
  --pending_;
  // Capture recorder fields before the one-shot branch frees the slot.
  const std::uint16_t fired_kind = s.kind;
  double fire_wall_begin = 0.0;
  if (recorder_ != nullptr) {
    recorder_->Record(SchedAction::kFire, entry.seq, entry.time, fired_kind,
                      s.owner, s.armed_parent);
    fire_wall_begin = recorder_->WallNow();
  }
  current_fire_seq_ = entry.seq;
  if ((s.flags & kOneShot) != 0) {
    // Move the callback out and free the slot first so the callback may
    // freely schedule (and even land in this same slot) without aliasing.
    EventFn fn = std::move(s.fn);
    FreeSlotNow(entry.slot);
    RunObservers();
    fn();
  } else {
    // Mark unarmed and bump the generation *before* invoking so the
    // callback can re-arm its own timer.
    s.flags &= static_cast<std::uint8_t>(~kArmed);
    ++s.generation;
    s.flags |= kExecuting;
    RunObservers();
    s.fn();
    // The arena is a deque, so `s` is still valid; the callback may have
    // requested this slot's release (Timer destroyed from inside).
    s.flags &= static_cast<std::uint8_t>(~kExecuting);
    if ((s.flags & kReleaseDeferred) != 0) FreeSlotNow(entry.slot);
  }
  current_fire_seq_ = 0;
  if (recorder_ != nullptr && recorder_->has_wall_probe()) {
    recorder_->AddFireWall(fired_kind, recorder_->WallNow() - fire_wall_begin);
  }
  ++events_executed_;
  if (event_limit_ != 0 && events_executed_ > event_limit_) {
    // Thrown from the event *loop*, after the callback returned — never
    // from inside a callback, so no MAC state is left half-applied.
    throw ContractViolation(  // crn-lint-ok: loop guard, not callback code
        "simulator event limit exceeded — runaway event loop?");
  }
}

bool Simulator::ExecuteNext() {
  QEntry entry;
  if (!PopLive(&entry)) return false;
  Fire(entry);
  return true;
}

TimeNs Simulator::Run() {
  stopped_ = false;
  while (!stopped_ && ExecuteNext()) {
  }
  return now_;
}

TimeNs Simulator::RunUntil(TimeNs deadline) {
  stopped_ = false;
  QEntry entry;
  while (!stopped_ && PeekLive(&entry)) {
    if (entry.time > deadline) break;
    ExecuteNext();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

RunStatus Simulator::RunUntilEvents(std::uint64_t event_target) {
  stopped_ = false;
  while (!stopped_) {
    if (events_executed_ >= event_target) {
      // Decide paused-vs-drained from the live count, never by peeking:
      // PeekLive discards stale entries without the shrink check, which
      // would fork the calendar resize schedule (and sched_stats) from the
      // uninterrupted run's.
      return pending_ > 0 ? RunStatus::kPaused : RunStatus::kDrained;
    }
    if (!ExecuteNext()) return RunStatus::kDrained;
  }
  return RunStatus::kStopped;
}

void Simulator::SaveState(StateWriter& writer) const {
  CRN_CHECK(current_fire_seq_ == 0)
      << "SaveState from inside an event callback";

  writer.BeginSection("sim.registry");
  writer.WriteU32(static_cast<std::uint32_t>(kind_names_.size()));
  for (const std::string& name : kind_names_) writer.WriteString(name);
  writer.EndSection();

  // Collect every queue entry — live and stale — in seq order (the save-side
  // mirror of FinishRestore). Stale entries ride along so the resumed run's
  // stale-skip count and calendar occupancy match the uninterrupted run.
  std::vector<QEntry> entries;
  entries.reserve(cal_size_);
  for (const std::vector<QEntry>& bucket : cal_buckets_) {
    entries.insert(entries.end(), bucket.begin(), bucket.end());
  }
  std::sort(entries.begin(), entries.end(),
            [](const QEntry& a, const QEntry& b) { return a.seq < b.seq; });

  std::size_t live = 0;
  for (const QEntry& entry : entries) {
    if (EntryLive(entry)) ++live;
  }
  CRN_CHECK(live == pending_)
      << "live queue entries (" << live << ") disagree with pending ("
      << pending_ << ") at checkpoint";

  writer.BeginSection("sim.core");
  writer.WriteI64(now_);
  writer.WriteU64(next_seq_);
  writer.WriteU64(events_executed_);
  writer.WriteI64(stats_.pushes);
  writer.WriteI64(stats_.pops);
  writer.WriteI64(stats_.cancels);
  writer.WriteI64(stats_.stale_skips);
  writer.WriteI64(stats_.bucket_resizes);
  writer.WriteI32(cal_shift_);
  writer.WriteU64(cal_tick_);
  writer.WriteU64(static_cast<std::uint64_t>(cal_buckets_.size()));
  writer.WriteU64(static_cast<std::uint64_t>(entries.size()));
  for (const QEntry& entry : entries) {
    const bool is_live = EntryLive(entry);
    writer.WriteI64(entry.time);
    writer.WriteU64(entry.seq);
    writer.WriteU64(is_live ? slots_[entry.slot].armed_parent : 0);
    writer.WriteU8(static_cast<std::uint8_t>(entry.priority));
    writer.WriteBool(is_live);
  }
  writer.EndSection();
}

void Simulator::LoadRegistry(StateReader& reader) {
  CRN_CHECK(kind_names_.size() == 1 && next_seq_ == 1)
      << "LoadRegistry requires a fresh simulator";
  if (!reader.OpenSection("sim.registry")) return;
  const std::uint32_t count = reader.ReadU32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = reader.ReadString();
    if (!reader.ok()) break;
    if (i == 0) {
      CRN_CHECK(name == "unnamed") << "corrupt kind registry";
      continue;
    }
    // Pre-populating in saved order means components re-binding in the
    // original construction order get their original kind ids back.
    const std::uint16_t id = RegisterEventKind(name);
    CRN_CHECK(id == i) << "kind registry restore produced id " << id
                       << " for '" << name << "' (expected " << i << ")";
  }
  reader.EndSection();
}

void Simulator::BeginRestore(StateReader& reader) {
  CRN_CHECK(!restoring_) << "BeginRestore called twice";
  CRN_CHECK(events_executed_ == 0 && pending_ == 0 && next_seq_ == 1)
      << "BeginRestore requires a fresh simulator";
  if (!reader.OpenSection("sim.core")) return;

  const TimeNs saved_now = reader.ReadI64();
  const EventId saved_next_seq = reader.ReadU64();
  const std::uint64_t saved_events = reader.ReadU64();
  SchedStats saved_stats;
  saved_stats.pushes = reader.ReadI64();
  saved_stats.pops = reader.ReadI64();
  saved_stats.cancels = reader.ReadI64();
  saved_stats.stale_skips = reader.ReadI64();
  saved_stats.bucket_resizes = reader.ReadI64();
  const std::int32_t saved_shift = reader.ReadI32();
  const std::uint64_t saved_tick = reader.ReadU64();
  const std::uint64_t bucket_count = reader.ReadU64();
  const std::uint64_t entry_count = reader.ReadU64();
  staged_entries_.clear();
  for (std::uint64_t i = 0; i < entry_count && reader.ok(); ++i) {
    SavedEntry entry;
    entry.time = reader.ReadI64();
    entry.seq = reader.ReadU64();
    entry.armed_parent = reader.ReadU64();
    entry.priority = static_cast<EventPriority>(reader.ReadU8());
    entry.live = reader.ReadBool();
    staged_entries_.push_back(entry);
  }
  reader.EndSection();
  if (!reader.ok()) return;  // caller surfaces reader.error()

  CRN_CHECK(bucket_count >= kMinCalendarBuckets &&
            (bucket_count & (bucket_count - 1)) == 0)
      << "checkpoint calendar geometry is invalid (" << bucket_count
      << " buckets)";
  // Geometry must be restored exactly: the resize schedule (a CI-gated
  // work counter) depends on the (size, bucket-count) trajectory.
  cal_buckets_.assign(static_cast<std::size_t>(bucket_count), {});
  cal_mask_ = bucket_count - 1;
  cal_shift_ = saved_shift;
  cal_size_ = 0;
  now_ = saved_now;
  next_seq_ = saved_next_seq;
  events_executed_ = saved_events;
  saved_stats_ = saved_stats;
  saved_cal_tick_ = saved_tick;
  saved_cal_size_ = staged_entries_.size();

  // The sentinel slot stale entries are re-pushed against: bound (kind 0,
  // never armed, never fired) so its generation stays fixed and any entry
  // carrying generation+1 is permanently stale.
  sentinel_slot_ = BindSlot(EventPriority::kDefault, EventFn([] {}));
  restoring_ = true;
}

void Simulator::RestoreArmSlot(std::uint32_t slot, EventId seq) {
  CRN_CHECK(restoring_)
      << "RestoreArm outside BeginRestore..FinishRestore";
  CRN_CHECK(seq != 0 && seq < next_seq_)
      << "RestoreArm seq " << seq << " out of checkpoint range";
  Slot& s = slots_[slot];
  CRN_CHECK((s.flags & kArmed) == 0) << "RestoreArm on an armed timer";
  s.flags |= kArmed;
  s.pending_seq = seq;
  const bool inserted = restore_claims_.emplace(seq, slot).second;
  CRN_CHECK(inserted) << "two timers claimed checkpoint seq " << seq;
}

void Simulator::RestoreOnce(EventId seq, EventPriority priority,
                            std::string_view kind, std::int32_t owner,
                            EventFn fn) {
  CRN_CHECK(restoring_)
      << "RestoreOnce outside BeginRestore..FinishRestore";
  const std::uint32_t slot =
      BindSlot(priority, std::move(fn), RegisterEventKind(kind), owner);
  slots_[slot].flags |= kOneShot;
  RestoreArmSlot(slot, seq);
}

void Simulator::FinishRestore() {
  CRN_CHECK(restoring_) << "FinishRestore without BeginRestore";
  const std::uint32_t stale_gen = slots_[sentinel_slot_].generation + 1;
  std::size_t live_count = 0;
  for (const SavedEntry& saved : staged_entries_) {
    QEntry entry{saved.time, saved.seq, sentinel_slot_, stale_gen,
                 saved.priority};
    if (saved.live) {
      const auto it = restore_claims_.find(saved.seq);
      CRN_CHECK(it != restore_claims_.end())
          << "checkpoint queue entry seq " << saved.seq
          << " was never re-claimed — a component failed to restore its "
             "pending timer";
      Slot& s = slots_[it->second];
      CRN_CHECK(s.priority == saved.priority)
          << "timer claiming seq " << saved.seq
          << " re-bound with a different priority than the checkpoint";
      s.armed_parent = saved.armed_parent;
      entry.slot = it->second;
      entry.gen = s.generation;
      restore_claims_.erase(it);
      ++live_count;
    }
    // Bypass Push(): these re-pushes already happened in the original run
    // (the saved work counters cover them), and the calendar geometry is
    // already exact so no resize may trigger.
    CalInsert(entry);
  }
  CRN_CHECK(restore_claims_.empty())
      << restore_claims_.size()
      << " RestoreArm claims matched no checkpoint queue entry";
  CRN_CHECK(cal_size_ == saved_cal_size_);
  cal_tick_ = saved_cal_tick_;
  pending_ = live_count;
  stats_ = saved_stats_;
  staged_entries_.clear();
  restoring_ = false;
}

void Simulator::CalPush(const QEntry& entry) {
  if (cal_size_ + 1 > 2 * cal_buckets_.size()) CalResize(cal_size_ + 1);
  CalInsert(entry);
}

void Simulator::CalInsert(const QEntry& entry) {
  const auto tick = static_cast<std::uint64_t>(entry.time) >> cal_shift_;
  // An insert at or behind the cursor (possible after RunUntil advanced the
  // clock through an idle stretch) clamps the cursor back so the entry can
  // never be stranded behind it.
  if (cal_size_ == 0 || tick < cal_tick_) cal_tick_ = tick;
  std::vector<QEntry>& bucket = cal_buckets_[tick & cal_mask_];
  // Keep the bucket sorted descending by key: back() is the bucket minimum.
  const auto pos = std::upper_bound(
      bucket.begin(), bucket.end(), entry,
      [](const QEntry& a, const QEntry& b) { return b.key() < a.key(); });
  bucket.insert(pos, entry);
  ++cal_size_;
}

auto Simulator::CalMinBucket() -> std::vector<QEntry>* {
  // Dense path: walk the bucket ring one tick at a time. Each tick maps to
  // exactly one bucket, and a bucket's back() is its minimum, so the first
  // back() matching the cursor tick is the global minimum.
  for (std::size_t i = 0; i < cal_buckets_.size(); ++i) {
    std::vector<QEntry>& bucket = cal_buckets_[cal_tick_ & cal_mask_];
    if (!bucket.empty() &&
        (static_cast<std::uint64_t>(bucket.back().time) >> cal_shift_) ==
            cal_tick_) {
      return &bucket;
    }
    ++cal_tick_;
  }
  // Sparse horizon: no event within one full ring rotation of the cursor.
  // Jump the cursor straight to the global minimum (this direct scan is the
  // engine's sparse-queue fallback — O(buckets), amortized by the jump).
  std::vector<QEntry>* best = nullptr;
  for (std::vector<QEntry>& bucket : cal_buckets_) {
    if (bucket.empty()) continue;
    if (best == nullptr || bucket.back().key() < best->back().key()) {
      best = &bucket;
    }
  }
  CRN_CHECK(best != nullptr) << "CalMinBucket on an empty calendar";
  cal_tick_ = static_cast<std::uint64_t>(best->back().time) >> cal_shift_;
  return best;
}

void Simulator::CalMaybeShrink() {
  if (cal_buckets_.size() > kMinCalendarBuckets &&
      cal_size_ < cal_buckets_.size() / 8) {
    CalResize(std::max(kMinCalendarBuckets, 2 * cal_size_));
  }
}

void Simulator::CalResize(std::size_t min_buckets) {
  ++stats_.bucket_resizes;
  std::vector<QEntry> all;
  all.reserve(cal_size_);
  for (std::vector<QEntry>& bucket : cal_buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  std::size_t nbuckets = kMinCalendarBuckets;
  while (nbuckets < min_buckets) nbuckets <<= 1U;
  if (nbuckets != cal_buckets_.size()) {
    cal_buckets_.assign(nbuckets, {});
    cal_mask_ = nbuckets - 1;
  }
  if (all.size() >= 2) {
    TimeNs min_time = all.front().time;
    TimeNs max_time = all.front().time;
    for (const QEntry& entry : all) {
      min_time = std::min(min_time, entry.time);
      max_time = std::max(max_time, entry.time);
    }
    // Bucket width ≈ the mean inter-event gap (rounded up to a power of
    // two), so the dense-path cursor sees about one event per tick. All
    // inputs are deterministic, so the resize schedule is too.
    const std::uint64_t gap =
        static_cast<std::uint64_t>(max_time - min_time) / (all.size() - 1);
    int shift = 0;
    while (shift < kMaxCalendarShift && (1ULL << shift) < gap) ++shift;
    cal_shift_ = shift;
    cal_tick_ = static_cast<std::uint64_t>(min_time) >> cal_shift_;
  } else if (!all.empty()) {
    cal_tick_ = static_cast<std::uint64_t>(all.front().time) >> cal_shift_;
  }
  cal_size_ = 0;
  for (const QEntry& entry : all) CalInsert(entry);
}

}  // namespace crn::sim
