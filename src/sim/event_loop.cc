#include "src/sim/event_loop.h"

#include <algorithm>
#include <bit>

#include "src/common/check.h"

namespace ctsim {

uint32_t EventLoop::AllocSlot() {
  if (free_head_ == kNil) {
    chunks_.push_back(std::make_unique<EventNode[]>(kChunkNodes));
    const uint32_t base = slot_capacity_;
    slot_capacity_ += kChunkNodes;
    EventNode* chunk = chunks_.back().get();
    for (uint32_t i = kChunkNodes; i-- > 0;) {
      chunk[i].next = free_head_;
      free_head_ = base + i;
    }
  }
  const uint32_t slot = free_head_;
  free_head_ = NodeAt(slot).next;
  return slot;
}

void EventLoop::FreeSlot(uint32_t slot) {
  EventNode& node = NodeAt(slot);
  node.fn = nullptr;
  node.target = nullptr;
  node.owner = NodeId();
  node.cancelled = false;
  ++node.gen;  // invalidates every id handed out for this slot so far
  node.next = free_head_;
  free_head_ = slot;
}

void EventLoop::PushBucket(uint32_t bucket, uint32_t slot) {
  NodeAt(slot).next = kNil;
  Bucket& b = wheel_[bucket];
  if (b.head == kNil) {
    b.head = b.tail = slot;
    occupied_[bucket >> 6] |= uint64_t{1} << (bucket & 63);
    scan_word_hint_ = std::min(scan_word_hint_, bucket >> 6);
  } else {
    NodeAt(b.tail).next = slot;
    b.tail = slot;
  }
  ++wheel_count_;
}

uint32_t EventLoop::PopBucketHead(uint32_t bucket) {
  Bucket& b = wheel_[bucket];
  const uint32_t slot = b.head;
  b.head = NodeAt(slot).next;
  if (b.head == kNil) {
    b.tail = kNil;
    occupied_[bucket >> 6] &= ~(uint64_t{1} << (bucket & 63));
  }
  --wheel_count_;
  return slot;
}

// Wheel must be empty. Repoints the horizon at `new_base` and pulls every far
// event inside it into the buckets. Heap pops come out in (when, seq) order,
// so per-bucket FIFO order is seq order — the same order inserts produce.
void EventLoop::RebaseAndDrain(Time new_base) {
  wheel_base_ = new_base;
  scan_word_hint_ = 0;
  while (!far_.empty() && far_.top().when - new_base < kWheelSize) {
    const FarEntry entry = far_.top();
    far_.pop();
    if (NodeAt(entry.slot).cancelled) {
      FreeSlot(entry.slot);
      continue;
    }
    PushBucket(static_cast<uint32_t>(entry.when - new_base), entry.slot);
  }
}

void EventLoop::InsertNode(uint32_t slot, uint64_t seq) {
  const Time when = NodeAt(slot).when;
  if (wheel_count_ == 0 && far_.empty()) {
    // Queue fully empty: park the wheel at the clock for locality.
    wheel_base_ = now_;
    scan_word_hint_ = 0;
  } else if (now_ >= wheel_base_ + kWheelSize) {
    // The whole wheel is in the past, hence provably empty; slide it to now
    // and bring near-future far events along.
    RebaseAndDrain(now_);
  }
  if (when - wheel_base_ < kWheelSize) {
    PushBucket(static_cast<uint32_t>(when - wheel_base_), slot);
  } else {
    far_.push(FarEntry{when, seq, slot});
  }
}

// Inline: an out-of-line call here cost the loop about 2.5 ns per event.
inline uint32_t EventLoop::Enqueue(Time when) {
  CT_CHECK(when >= now_);
  const uint32_t slot = AllocSlot();
  EventNode& node = NodeAt(slot);
  node.when = when;
  node.cancelled = false;
  ++scheduled_events_;
  ++live_events_;
  peak_pending_ = std::max(peak_pending_, live_events_);
  InsertNode(slot, next_seq_++);
  return slot;
}

EventId EventLoop::Schedule(Time delay, std::function<void()> fn, NodeId owner) {
  return ScheduleAt(now_ + delay, std::move(fn), owner);
}

EventId EventLoop::ScheduleAt(Time when, std::function<void()> fn, NodeId owner) {
  const uint32_t slot = Enqueue(when);
  EventNode& node = NodeAt(slot);
  node.owner = owner;
  node.fn = std::move(fn);
  return IdOf(slot);
}

EventId EventLoop::ScheduleCall(Time delay, CallTarget* target, uint32_t data) {
  const uint32_t slot = Enqueue(now_ + delay);
  EventNode& node = NodeAt(slot);
  node.target = target;
  node.data = data;
  return IdOf(slot);
}

void EventLoop::Cancel(EventId id) {
  if (id == 0) {
    return;
  }
  const uint32_t slot = static_cast<uint32_t>(id & 0xffffffffu) - 1;
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (slot >= slot_capacity_) {
    return;
  }
  EventNode& node = NodeAt(slot);
  if (node.gen != gen || node.cancelled) {
    return;  // already executed, recycled, or cancelled
  }
  node.cancelled = true;
  node.fn = nullptr;  // release captured state eagerly
  node.owner = NodeId();
  ++cancelled_events_;
  --live_events_;
  if (live_events_ == 0) {
    // Nothing left that will ever run; reclaim tombstones the scan would
    // otherwise only reach when the clock catches up to them.
    PurgeDeadStorage();
  }
}

void EventLoop::PurgeDeadStorage() {
  for (uint32_t word = 0; word < kWheelWords; ++word) {
    while (occupied_[word] != 0) {
      const uint32_t bucket =
          word * 64 + static_cast<uint32_t>(std::countr_zero(occupied_[word]));
      while (wheel_[bucket].head != kNil) {
        FreeSlot(PopBucketHead(bucket));
      }
    }
  }
  while (!far_.empty()) {
    FreeSlot(far_.top().slot);
    far_.pop();
  }
}

bool EventLoop::PopAndRun(Time limit, bool has_limit) {
  for (;;) {
    // Earliest candidate: first live head in the first occupied bucket,
    // freeing cancelled tombstones as the scan passes them.
    uint32_t slot = kNil;
    uint32_t bucket = 0;
    uint32_t word = scan_word_hint_;
    while (word < kWheelWords) {
      const uint64_t bits = occupied_[word];
      if (bits == 0) {
        scan_word_hint_ = ++word;
        continue;
      }
      const uint32_t b = word * 64 + static_cast<uint32_t>(std::countr_zero(bits));
      if (NodeAt(wheel_[b].head).cancelled) {
        FreeSlot(PopBucketHead(b));
        continue;  // re-read the word; the bucket may just have emptied
      }
      slot = wheel_[b].head;
      bucket = b;
      break;
    }

    if (slot == kNil) {
      // Wheel exhausted; the next event (if any) lives in the far heap.
      while (!far_.empty() && NodeAt(far_.top().slot).cancelled) {
        FreeSlot(far_.top().slot);
        far_.pop();
      }
      if (far_.empty()) {
        return false;
      }
      if (has_limit && far_.top().when > limit) {
        return false;  // leave the horizon alone; rebase when we get there
      }
      RebaseAndDrain(far_.top().when);
      continue;
    }

    EventNode& node = NodeAt(slot);
    if (has_limit && node.when > limit) {
      return false;
    }
    PopBucketHead(bucket);
    now_ = std::max(now_, node.when);
    --live_events_;
    // Take what runs and recycle the slot *before* running it: the callback
    // may schedule, cancel, or re-enter RunUntil, and none of that may touch
    // the executing node. Nothing is copied on either path.
    if (node.target != nullptr) {
      CallTarget* const target = node.target;
      const uint32_t data = node.data;
      FreeSlot(slot);
      ++executed_events_;
      target->OnCall(data);
      return true;
    }
    const NodeId owner = node.owner;
    std::function<void()> fn = std::move(node.fn);
    FreeSlot(slot);
    if (!owner.empty() && alive_check_ && !alive_check_(owner)) {
      ++skipped_dead_owner_events_;
      continue;
    }
    if (!owner.empty() && trace_hook_) {
      trace_hook_(now_, owner);
    }
    ++executed_events_;
    fn();
    return true;
  }
}

bool EventLoop::RunOne() { return PopAndRun(0, /*has_limit=*/false); }

void EventLoop::RunToCompletion() {
  while (PopAndRun(0, /*has_limit=*/false)) {
  }
}

void EventLoop::RunUntil(Time when) {
  while (PopAndRun(when, /*has_limit=*/true)) {
  }
  now_ = std::max(now_, when);
}

}  // namespace ctsim
