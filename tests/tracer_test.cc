// Tests for the runtime tracer: call-string keys, profile recording,
// trigger-once semantics, chained arming, and the IO hooks.
#include "src/runtime/tracer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ctrt {
namespace {

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override { AccessTracer::Instance().Reset(TraceMode::kOff); }
  void TearDown() override { AccessTracer::Instance().Reset(TraceMode::kOff); }
};

TEST_F(TracerTest, OffModeIgnoresHooks) {
  auto& tracer = AccessTracer::Instance();
  tracer.PreRead(1, "v");
  tracer.PostWrite(2, "w");
  EXPECT_TRUE(tracer.dynamic_access_points().empty());
}

TEST_F(TracerTest, StackCaptureIsBounded) {
  auto& tracer = AccessTracer::Instance();
  ScopedFrame f1("m1");
  ScopedFrame f2("m2");
  ScopedFrame f3("m3");
  ScopedFrame f4("m4");
  ScopedFrame f5("m5");
  ScopedFrame f6("m6");
  ScopedFrame f7("m7");
  // kMaxDepth frames, innermost first, then callers.
  ASSERT_EQ(AccessTracer::kMaxDepth, 5);
  EXPECT_EQ(tracer.StackKey(), "m7<m6<m5<m4<m3");
}

TEST_F(TracerTest, NewTracerTakesTheDefaultStackDepth) {
  AccessTracer::SetDefaultStackDepth(2);
  AccessTracer tracer;
  AccessTracer::SetDefaultStackDepth(AccessTracer::kMaxDepth);  // the tracer keeps 2
  tracer.PushFrame("outer");
  tracer.PushFrame("middle");
  tracer.PushFrame("inner");
  EXPECT_EQ(tracer.StackKey(), "inner<middle");
}

TEST_F(TracerTest, ScopedFramePopsOnScopeExit) {
  auto& tracer = AccessTracer::Instance();
  {
    ScopedFrame f("outer");
    {
      ScopedFrame g("inner");
      EXPECT_EQ(tracer.StackKey(), "inner<outer");
    }
    EXPECT_EQ(tracer.StackKey(), "outer");
  }
  EXPECT_EQ(tracer.StackKey(), "");
}

TEST_F(TracerTest, ProfileRecordsOnlyArmedPoints) {
  auto& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kProfile);
  tracer.SetProfiledPoints({7}, {});
  ScopedFrame f("method");
  tracer.PreRead(7, "a");
  tracer.PreRead(7, "b");  // same dynamic point, recorded once
  tracer.PreRead(8, "c");  // not armed
  ASSERT_EQ(tracer.dynamic_access_points().size(), 1u);
  const DynamicPoint& point = *tracer.dynamic_access_points().begin();
  EXPECT_EQ(point.point_id, 7);
  EXPECT_EQ(point.stack_key, "method");
}

TEST_F(TracerTest, DistinctStacksYieldDistinctDynamicPoints) {
  auto& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kProfile);
  tracer.SetProfiledPoints({7}, {});
  {
    ScopedFrame f("caller_a");
    tracer.PreRead(7, "v");
  }
  {
    ScopedFrame f("caller_b");
    tracer.PreRead(7, "v");
  }
  EXPECT_EQ(tracer.dynamic_access_points().size(), 2u);
}

TEST_F(TracerTest, TriggerFiresOnceAtMatchingPointAndStack) {
  auto& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kTrigger);
  int fired = 0;
  std::string value;
  tracer.Arm(Hook::kAccess, {7, "target"}, [&](const std::string& accessed) {
    ++fired;
    value = accessed;
  });
  {
    ScopedFrame f("other");
    tracer.PreRead(7, "wrong-stack");
  }
  EXPECT_EQ(fired, 0);
  {
    ScopedFrame f("target");
    tracer.PreRead(7, "v1");
    tracer.PreRead(7, "v2");  // second hit ignored: one injection per run
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(value, "v1");
  EXPECT_TRUE(tracer.trigger_fired());
}

TEST_F(TracerTest, ArmingInsideAFiringCallbackChainsTheNextPoint) {
  // The multi-crash pair's chaining: the first callback arms the second
  // point, which disarms the first.
  auto& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kTrigger);
  std::vector<std::string> fired;
  tracer.Arm(Hook::kAccess, {1, "site"}, [&](const std::string& value) {
    fired.push_back("first:" + value);
    tracer.Arm(Hook::kAccess, {2, "site"},
               [&](const std::string& second) { fired.push_back("second:" + second); });
  });
  ScopedFrame f("site");
  tracer.PreRead(1, "a");
  EXPECT_EQ(fired, (std::vector<std::string>{"first:a"}));
  EXPECT_FALSE(tracer.trigger_fired());  // the second point is armed, not yet hit
  tracer.PreRead(1, "b");                // the first point is disarmed
  EXPECT_FALSE(tracer.trigger_fired());
  tracer.PostWrite(2, "c");
  tracer.PostWrite(2, "d");  // second hit ignored
  EXPECT_EQ(fired, (std::vector<std::string>{"first:a", "second:c"}));
  EXPECT_TRUE(tracer.trigger_fired());
}

TEST_F(TracerTest, IoProfileRecordsBeginSideOnly) {
  auto& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kProfile);
  tracer.SetProfiledPoints({}, {3});
  {
    ScopedFrame f("io_site");
    tracer.IoBegin(3);
  }
  {
    ScopedFrame f("end_site");
    tracer.IoEnd(3);  // the end side records nothing
  }
  ASSERT_EQ(tracer.dynamic_io_points().size(), 1u);
  EXPECT_EQ(tracer.dynamic_io_points().begin()->stack_key, "io_site");
}

TEST_F(TracerTest, IoTriggerSelectsBeforeOrAfterSide) {
  auto& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kTrigger);
  int fired_before = 0;
  tracer.Arm(Hook::kIoBegin, {3, "io_site"}, [&](const std::string&) { ++fired_before; });
  {
    ScopedFrame f("io_site");
    tracer.IoEnd(3);  // wrong side
    EXPECT_EQ(fired_before, 0);
    tracer.IoBegin(3);
    EXPECT_EQ(fired_before, 1);
  }

  tracer.Reset(TraceMode::kTrigger);
  int fired_after = 0;
  tracer.Arm(Hook::kIoEnd, {3, "io_site"}, [&](const std::string&) { ++fired_after; });
  {
    ScopedFrame f("io_site");
    tracer.IoBegin(3);
    EXPECT_EQ(fired_after, 0);
    tracer.IoEnd(3);
    EXPECT_EQ(fired_after, 1);
  }
}

TEST_F(TracerTest, ResetClearsEverything) {
  auto& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kProfile);
  tracer.SetProfiledPoints({1}, {});
  tracer.PreRead(1, "v");
  EXPECT_FALSE(tracer.dynamic_access_points().empty());
  tracer.Reset(TraceMode::kOff);
  EXPECT_TRUE(tracer.dynamic_access_points().empty());
  EXPECT_FALSE(tracer.trigger_fired());
}

}  // namespace
}  // namespace ctrt
