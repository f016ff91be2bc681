#include "src/runtime/tracer.h"

#include <atomic>
#include <utility>

#include "src/common/check.h"
#include "src/runtime/run_context.h"

namespace ctrt {

namespace {

std::atomic<int> g_default_stack_depth{AccessTracer::kMaxDepth};

// The value an IO hook hands a trigger callback.
const std::string kNoValue;

}  // namespace

AccessTracer::AccessTracer() : stack_depth_(DefaultStackDepth()) {}

AccessTracer& AccessTracer::Instance() { return RunContext::Current().tracer(); }

void AccessTracer::SetDefaultStackDepth(int depth) {
  g_default_stack_depth.store(depth, std::memory_order_relaxed);
}

int AccessTracer::DefaultStackDepth() {
  return g_default_stack_depth.load(std::memory_order_relaxed);
}

void AccessTracer::Reset(TraceMode mode) {
  mode_ = mode;
  stack_.clear();
  profiled_access_points_.clear();
  profiled_io_points_.clear();
  dynamic_access_.clear();
  dynamic_io_.clear();
  armed_ = DynamicPoint{};
  trigger_fn_ = nullptr;
  trigger_fired_ = false;
}

void AccessTracer::SetProfiledPoints(std::set<int> access_points, std::set<int> io_points) {
  profiled_access_points_ = std::move(access_points);
  profiled_io_points_ = std::move(io_points);
}

void AccessTracer::Arm(Hook hook, DynamicPoint point, TriggerFn fn) {
  CT_CHECK(mode_ == TraceMode::kTrigger && fn);
  armed_hook_ = hook;
  armed_ = std::move(point);
  trigger_fn_ = std::move(fn);
  trigger_fired_ = false;
}

void AccessTracer::PreRead(int point_id, const std::string& value) {
  OnHook(Hook::kAccess, point_id, value);
}

void AccessTracer::PostWrite(int point_id, const std::string& value) {
  OnHook(Hook::kAccess, point_id, value);
}

void AccessTracer::IoBegin(int point_id) { OnHook(Hook::kIoBegin, point_id, kNoValue); }

void AccessTracer::IoEnd(int point_id) { OnHook(Hook::kIoEnd, point_id, kNoValue); }

void AccessTracer::OnHook(Hook hook, int point_id, const std::string& value) {
  if (mode_ == TraceMode::kProfile) {
    if (hook == Hook::kAccess && profiled_access_points_.count(point_id) > 0) {
      dynamic_access_.insert({point_id, StackKey()});
    } else if (hook == Hook::kIoBegin && profiled_io_points_.count(point_id) > 0) {
      dynamic_io_.insert({point_id, StackKey()});
    }
    return;
  }
  // Trigger mode: fire once at the armed dynamic point. The call-string key
  // is built only at the armed static point.
  if (mode_ != TraceMode::kTrigger || !trigger_fn_ || hook != armed_hook_ ||
      point_id != armed_.point_id || StackKey() != armed_.stack_key) {
    return;
  }
  trigger_fired_ = true;
  // Detach the callback before running it: it may Arm the next point (and
  // install a new callback) from inside, which must not clobber this closure.
  TriggerFn fn = std::exchange(trigger_fn_, nullptr);
  fn(value);
}

void AccessTracer::PushFrame(const char* frame) { stack_.push_back(frame); }

void AccessTracer::PopFrame() {
  CT_CHECK(!stack_.empty());
  stack_.pop_back();
}

std::string AccessTracer::StackKey() const {
  // Innermost first, bounded (paper: "starting from the method of the crash
  // point to its callers", depth 5).
  std::string key;
  int count = 0;
  for (auto it = stack_.rbegin(); it != stack_.rend() && count < stack_depth_; ++it, ++count) {
    if (count > 0) {
      key += '<';
    }
    key += *it;
  }
  return key;
}

}  // namespace ctrt
