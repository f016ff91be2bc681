#include "src/runtime/tracer.h"

#include <atomic>

#include "src/common/check.h"
#include "src/runtime/run_context.h"

namespace ctrt {

namespace {

std::atomic<int> g_default_stack_depth{CallStack::kMaxDepth};

}  // namespace

std::string CallStack::Key() const {
  std::string key;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (i > 0) {
      key += "<";
    }
    key += frames[i];
  }
  return key;
}

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
  armed_access_.reset();
  armed_io_.reset();
  armed_io_before_ = true;
  trigger_fn_ = nullptr;
  trigger_fired_ = false;
  fired_event_.reset();
  hook_firings_ = 0;
}

void AccessTracer::SetProfiledPoints(std::set<int> access_points, std::set<int> io_points) {
  profiled_access_points_ = std::move(access_points);
  profiled_io_points_ = std::move(io_points);
}

void AccessTracer::ArmAccessTrigger(DynamicPoint point, TriggerFn fn) {
  CT_CHECK(mode_ == TraceMode::kTrigger);
  armed_access_ = std::move(point);
  trigger_fn_ = std::move(fn);
}

void AccessTracer::RearmAccessTrigger(DynamicPoint point, TriggerFn fn) {
  CT_CHECK(mode_ == TraceMode::kTrigger);
  armed_access_ = std::move(point);
  trigger_fn_ = std::move(fn);
  trigger_fired_ = false;
}

void AccessTracer::ArmIoTrigger(DynamicPoint point, bool before, TriggerFn fn) {
  CT_CHECK(mode_ == TraceMode::kTrigger);
  armed_io_ = std::move(point);
  armed_io_before_ = before;
  trigger_fn_ = std::move(fn);
}

void AccessTracer::PreRead(int point_id, const std::string& value) {
  OnAccess(point_id, ctmodel::AccessKind::kRead, value);
}

void AccessTracer::PostWrite(int point_id, const std::string& value) {
  OnAccess(point_id, ctmodel::AccessKind::kWrite, value);
}

void AccessTracer::OnAccess(int point_id, ctmodel::AccessKind kind, const std::string& value) {
  if (mode_ == TraceMode::kOff) {
    return;
  }
  ++hook_firings_;
  if (mode_ == TraceMode::kProfile) {
    if (profiled_access_points_.count(point_id) > 0) {
      ++dynamic_access_[DynamicPoint{point_id, CaptureStack().Key()}];
    }
    return;
  }
  // Trigger mode: fire once at the armed dynamic point. The call-string key
  // is built only at the armed static point.
  if (trigger_fired_ || !armed_access_.has_value() || armed_access_->point_id != point_id) {
    return;
  }
  std::string stack_key = CaptureStack().Key();
  if (armed_access_->stack_key != stack_key) {
    return;
  }
  trigger_fired_ = true;
  AccessEvent event;
  event.point_id = point_id;
  event.kind = kind;
  event.value = value;
  event.stack_key = stack_key;
  fired_event_ = event;
  // Detach the callback before running it: it may Rearm (installing a new
  // callback) from inside, which must not clobber the executing closure.
  TriggerFn fn = std::move(trigger_fn_);
  trigger_fn_ = nullptr;
  if (fn) {
    fn(event);
  }
}

void AccessTracer::IoBegin(int point_id) { OnIo(point_id, /*before=*/true); }

void AccessTracer::IoEnd(int point_id) { OnIo(point_id, /*before=*/false); }

void AccessTracer::OnIo(int point_id, bool before) {
  if (mode_ == TraceMode::kOff) {
    return;
  }
  ++hook_firings_;
  if (mode_ == TraceMode::kProfile) {
    if (before && profiled_io_points_.count(point_id) > 0) {
      ++dynamic_io_[DynamicPoint{point_id, CaptureStack().Key()}];
    }
    return;
  }
  if (trigger_fired_ || !armed_io_.has_value() || armed_io_before_ != before ||
      armed_io_->point_id != point_id) {
    return;
  }
  std::string stack_key = CaptureStack().Key();
  if (armed_io_->stack_key != stack_key) {
    return;
  }
  trigger_fired_ = true;
  AccessEvent event;
  event.point_id = point_id;
  event.kind = before ? ctmodel::AccessKind::kRead : ctmodel::AccessKind::kWrite;
  event.stack_key = stack_key;
  fired_event_ = event;
  TriggerFn fn = std::move(trigger_fn_);
  trigger_fn_ = nullptr;
  if (fn) {
    fn(event);
  }
}

void AccessTracer::PushFrame(const char* frame) { stack_.push_back(frame); }

void AccessTracer::PopFrame() {
  CT_CHECK(!stack_.empty());
  stack_.pop_back();
}

CallStack AccessTracer::CaptureStack() const {
  CallStack stack;
  // Innermost first, bounded (paper: "starting from the method of the crash
  // point to its callers", depth 5).
  int count = 0;
  for (auto it = stack_.rbegin(); it != stack_.rend() && count < stack_depth_; ++it, ++count) {
    stack.frames.push_back(*it);
  }
  return stack;
}

}  // namespace ctrt
