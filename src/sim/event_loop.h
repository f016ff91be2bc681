// Deterministic discrete-event loop driving all cluster activity.
//
// Everything that happens "concurrently" in the systems under test —
// heartbeats, RPC deliveries, monitor ticks, workload steps — is an event in
// one totally ordered queue keyed by (virtual time, sequence number). Virtual
// time makes each interleaving reproducible, which is what lets a reported
// bug be re-executed from its crash point alone.
//
// The loop supports bounded *nested* draining: the pre-read trigger (§3.2.2)
// issues a shutdown RPC and then waits a timeout window so the recovery
// machinery runs before the instrumented read proceeds. In a real deployment
// other threads run during that wait; here the hook re-enters the loop for
// the window's worth of events and then returns to the interrupted handler.
// Each message delivery is its own event, so a handler that re-enters the
// loop meets the rest of a same-tick burst straight from the queue: those
// deliveries were scheduled seq-adjacent and are next in (when, seq) order.
//
// Storage and ordering are built for scaled campaigns (10⁶+ pending events):
//
//  - An event is a std::function closure, or a plain call on a CallTarget
//    with one argument word, which message deliveries use, so the delivery
//    path builds no closure.
//  - Events live in a slab of fixed-size chunks; nodes never move, slots are
//    recycled through a free list, and an EventId encodes (generation, slot)
//    so Cancel is an O(1) tag set — stale ids (already executed or already
//    cancelled) are no-ops, exactly like the old tombstone list, minus its
//    linear scan on every pop.
//  - Ready ordering is a ladder queue: a wheel of kWheelSize one-millisecond
//    buckets starting at wheel_base_, each an intrusive FIFO (append keeps
//    seq order, and a bucket is a single timestamp, so FIFO *is* (when, seq)
//    order), plus an overflow min-heap for events beyond the wheel horizon.
//    Inserts and pops are O(1) in the common case; the heap is touched only
//    when an event is far in the future and once more when the wheel drains
//    down to it and rebases.
//  - The (when, seq) total order and the reentrancy contract (RunUntil from
//    inside a callback) are bit-for-bit those of the original
//    std::priority_queue loop; goldens and trace hashes do not move.
#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "src/sim/symbol.h"

namespace ctsim {

using Time = uint64_t;  // virtual milliseconds
using EventId = uint64_t;

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Time Now() const { return now_; }

  // Schedules `fn` to run `delay` ms from now. If `owner` is non-empty the
  // event is skipped when the owner is no longer alive at fire time (a dead
  // node's timers and in-flight work die with it).
  EventId Schedule(Time delay, std::function<void()> fn, NodeId owner = NodeId());
  EventId ScheduleAt(Time when, std::function<void()> fn, NodeId owner = NodeId());

  // The receiver of plain calls (ScheduleCall).
  class CallTarget {
   public:
    virtual void OnCall(uint32_t data) = 0;

   protected:
    ~CallTarget() = default;
  };

  // Schedules the plain call `target->OnCall(data)` `delay` ms from now: no
  // closure is built, moved or destroyed. Such an event is ownerless, so the
  // target decides what a dead node means (the cluster's message deliveries,
  // which check their node at delivery time).
  EventId ScheduleCall(Time delay, CallTarget* target, uint32_t data);

  // O(1). Ids of events that already ran (or were already cancelled) are
  // no-ops: the slot's generation was bumped when it was recycled.
  void Cancel(EventId id);

  // Installed by the cluster; decides whether `owner` is still alive.
  void SetOwnerAliveCheck(std::function<bool(NodeId)> check) {
    alive_check_ = std::move(check);
  }

  // Installed by the cluster; called just before an *owned* event fires
  // (node timers — deliveries are ownerless and traced by the cluster with
  // richer detail). Used for trace hashing.
  void SetTraceHook(std::function<void(Time, NodeId)> hook) {
    trace_hook_ = std::move(hook);
  }

  // Runs a single event if one is pending; advances the clock to it.
  bool RunOne();

  // Runs until the queue empties.
  void RunToCompletion();

  // Runs every event with fire time <= `when`, then advances the clock to
  // `when`. Reentrant: may be called from inside an event callback (this is
  // how the pre-read trigger's wait is realized).
  void RunUntil(Time when);
  void RunFor(Time duration) { RunUntil(Now() + duration); }

  // Diagnostics / scheduler counters.
  uint64_t executed_events() const { return executed_events_; }
  uint64_t skipped_dead_owner_events() const { return skipped_dead_owner_events_; }
  // Live (scheduled, not yet executed, not cancelled) events only.
  size_t pending_events() const { return live_events_; }
  uint64_t scheduled_events() const { return scheduled_events_; }
  uint64_t cancelled_events() const { return cancelled_events_; }
  size_t peak_pending_events() const { return peak_pending_; }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;
  static constexpr uint32_t kWheelSize = 4096;  // 1ms buckets => ~4s horizon
  static constexpr uint32_t kWheelWords = kWheelSize / 64;
  static constexpr uint32_t kChunkShift = 8;
  static constexpr uint32_t kChunkNodes = 1u << kChunkShift;
  static constexpr uint32_t kChunkMask = kChunkNodes - 1;

  // No larger than before plain calls were added (80 bytes with libstdc++):
  // a larger node slowed the loop. So an event's seq is not kept here; only
  // the far heap needs it after the insert.
  struct EventNode {
    Time when = 0;
    uint32_t gen = 0;    // bumped when the slot is recycled; validates ids
    uint32_t next = kNil;  // bucket chain when queued, free list when free
    bool cancelled = false;
    uint32_t data = 0;  // a plain call's argument
    CallTarget* target = nullptr;  // set for a plain call, which leaves fn empty
    NodeId owner;
    std::function<void()> fn;
  };
  struct Bucket {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };
  struct FarEntry {
    Time when = 0;
    uint64_t seq = 0;
    uint32_t slot = kNil;
  };
  struct FarLater {
    bool operator()(const FarEntry& a, const FarEntry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  EventNode& NodeAt(uint32_t slot) { return chunks_[slot >> kChunkShift][slot & kChunkMask]; }
  uint32_t AllocSlot();
  // Takes a slot for an event at `when` and queues it under the next seq;
  // the caller fills in what runs.
  uint32_t Enqueue(Time when);
  EventId IdOf(uint32_t slot) { return (uint64_t{NodeAt(slot).gen} << 32) | (slot + 1); }
  void FreeSlot(uint32_t slot);
  void PushBucket(uint32_t bucket, uint32_t slot);
  uint32_t PopBucketHead(uint32_t bucket);
  void InsertNode(uint32_t slot, uint64_t seq);
  void RebaseAndDrain(Time new_base);
  void PurgeDeadStorage();
  bool PopAndRun(Time limit, bool has_limit);

  // Slab.
  std::vector<std::unique_ptr<EventNode[]>> chunks_;
  uint32_t free_head_ = kNil;
  uint32_t slot_capacity_ = 0;

  // Ladder: wheel over [wheel_base_, wheel_base_ + kWheelSize) plus the far
  // heap for everything at or beyond the horizon. Invariants: buckets before
  // now_ are empty whenever user code runs, and every far entry satisfies
  // when >= wheel_base_ + kWheelSize, so a wheel candidate always precedes
  // every far event.
  std::array<Bucket, kWheelSize> wheel_{};
  std::array<uint64_t, kWheelWords> occupied_{};
  Time wheel_base_ = 0;
  uint32_t wheel_count_ = 0;  // nodes linked into buckets (incl. cancelled)
  uint32_t scan_word_hint_ = 0;  // no occupied bucket in words before this
  std::priority_queue<FarEntry, std::vector<FarEntry>, FarLater> far_;

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  size_t live_events_ = 0;
  size_t peak_pending_ = 0;
  uint64_t scheduled_events_ = 0;
  uint64_t cancelled_events_ = 0;
  uint64_t executed_events_ = 0;
  uint64_t skipped_dead_owner_events_ = 0;
  std::function<bool(NodeId)> alive_check_;
  std::function<void(Time, NodeId)> trace_hook_;
};

}  // namespace ctsim

#endif  // SRC_SIM_EVENT_LOOP_H_
