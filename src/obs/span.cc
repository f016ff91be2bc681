#include "src/obs/span.h"

#include <chrono>

#include "src/obs/observer.h"
#include "src/sim/event_loop.h"

namespace ctobs {

namespace {

uint64_t WallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ScopedSpan::ScopedSpan(RunObserver* observer, const ctsim::EventLoop* loop, std::string_view name,
                       std::string_view category) {
  if (observer == nullptr || !observer->enabled()) {
    return;
  }
  observer_ = observer;
  loop_ = loop;
  event_.name = name;
  event_.category = category;
  event_.sim_begin_ms = loop_ != nullptr ? loop_->Now() : 0;
  event_.wall_begin_ns = WallNowNs();
  observer_->BeginSpan(&event_);
}

ScopedSpan::~ScopedSpan() {
  if (observer_ == nullptr) {
    return;
  }
  event_.sim_end_ms = loop_ != nullptr ? loop_->Now() : event_.sim_begin_ms;
  event_.wall_end_ns = WallNowNs();
  observer_->EndSpan(std::move(event_));
}

void ScopedSpan::AddArg(std::string key, std::string value) {
  if (observer_ == nullptr) {
    return;
  }
  event_.args.emplace_back(std::move(key), std::move(value));
}

}  // namespace ctobs
