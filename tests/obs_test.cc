// Unit tests for the observability subsystem (src/obs/): histogram bucket
// edges and merge algebra, shard/registry aggregation order, span recording
// against a real event loop, snapshot serialization (wall segregation), the
// Chrome-trace writer, and the JSON reader that closes the loop.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/chrome_trace.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/observer.h"
#include "src/obs/snapshot.h"
#include "src/obs/span.h"
#include "src/sim/event_loop.h"

namespace {

using ctobs::Histogram;
using ctobs::MetricsShard;

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  Histogram histogram({10, 20, 50});
  histogram.Observe(0);    // below the first bound -> bucket 0
  histogram.Observe(10);   // exactly on a bound lands in that bound's bucket
  histogram.Observe(11);   // just past it -> next bucket
  histogram.Observe(20);   // bucket 1
  histogram.Observe(50);   // bucket 2
  histogram.Observe(51);   // past the last bound -> overflow bucket
  ASSERT_EQ(histogram.bucket_counts().size(), 4u);
  EXPECT_EQ(histogram.bucket_counts()[0], 2u);  // 0, 10
  EXPECT_EQ(histogram.bucket_counts()[1], 2u);  // 11, 20
  EXPECT_EQ(histogram.bucket_counts()[2], 1u);  // 50
  EXPECT_EQ(histogram.bucket_counts()[3], 1u);  // 51
  EXPECT_EQ(histogram.count(), 6u);
  EXPECT_EQ(histogram.sum(), 0u + 10 + 11 + 20 + 50 + 51);
  EXPECT_EQ(histogram.max(), 51u);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  Histogram histogram({100});
  for (int i = 0; i < 100; ++i) {
    histogram.Observe(50);
  }
  // All mass in bucket [0,100]: p50 interpolates half-way up the bucket.
  EXPECT_DOUBLE_EQ(histogram.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(Histogram({100}).Percentile(50), 0.0);  // empty -> 0
}

TEST(HistogramTest, OverflowBucketUpperEdgeIsObservedMax) {
  Histogram histogram({10});
  histogram.Observe(1000);
  // The single sample sits in the overflow bucket whose upper edge is the
  // observed max, so every percentile interpolates toward 1000, not infinity.
  EXPECT_LE(histogram.Percentile(99), 1000.0);
  EXPECT_GT(histogram.Percentile(99), 10.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(100), 1000.0);
}

Histogram MakeHistogram(std::initializer_list<uint64_t> samples) {
  Histogram histogram({5, 10, 100});
  for (uint64_t sample : samples) {
    histogram.Observe(sample);
  }
  return histogram;
}

void ExpectSame(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.bucket_counts(), b.bucket_counts());
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.max(), b.max());
}

TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  const Histogram a = MakeHistogram({1, 7, 300});
  const Histogram b = MakeHistogram({5, 5, 11});
  const Histogram c = MakeHistogram({99});

  Histogram ab = a;
  ab.Merge(b);
  Histogram ab_c = ab;
  ab_c.Merge(c);

  Histogram bc = b;
  bc.Merge(c);
  Histogram a_bc = a;
  a_bc.Merge(bc);

  Histogram ba = b;
  ba.Merge(a);

  ExpectSame(ab_c, a_bc);  // associative
  ExpectSame(ab, ba);      // commutative
}

TEST(HistogramTest, FromPartsRoundTripsSerializedState) {
  const Histogram original = MakeHistogram({2, 9, 10, 5000});
  const Histogram rebuilt = Histogram::FromParts(original.bounds(), original.bucket_counts(),
                                                 original.sum(), original.max());
  ExpectSame(original, rebuilt);
  EXPECT_DOUBLE_EQ(original.Percentile(95), rebuilt.Percentile(95));
}

// ---------------------------------------------------------------------------
// Shards and the registry

TEST(MetricsShardTest, MergeAddsCountersAndKeepsGaugeMaxima) {
  MetricsShard a;
  a.Add("runs");
  a.Add("runs");
  a.SetGauge("nodes", 4);
  a.Observe("latency", 7);

  MetricsShard b;
  b.Add("runs", 3);
  b.SetGauge("nodes", 3);
  b.Observe("latency", 12);

  a.Merge(b);
  EXPECT_EQ(a.counter("runs"), 5u);
  EXPECT_EQ(a.gauges().at("nodes"), 4);  // max, not last-writer
  EXPECT_EQ(a.histograms().at("latency").count(), 2u);
  EXPECT_EQ(a.histograms().at("latency").sum(), 19u);
}

TEST(MetricsRegistryTest, AggregateIsIndependentOfInsertionOrder) {
  // Slots filled out of order (as a jobs=N pool would) must aggregate to the
  // same shard as in-order filling — the registry walks slots ascending.
  ctobs::MetricsRegistry scrambled;
  ctobs::MetricsRegistry ordered;
  for (int slot : {3, 0, 2, 1}) {
    scrambled.shard(slot).Add("slot.hits", static_cast<uint64_t>(slot + 1));
    scrambled.shard(slot).Observe("virtual_ms", static_cast<uint64_t>(100 * slot));
  }
  for (int slot : {0, 1, 2, 3}) {
    ordered.shard(slot).Add("slot.hits", static_cast<uint64_t>(slot + 1));
    ordered.shard(slot).Observe("virtual_ms", static_cast<uint64_t>(100 * slot));
  }
  const MetricsShard a = scrambled.Aggregate();
  const MetricsShard b = ordered.Aggregate();
  EXPECT_EQ(a.counter("slot.hits"), 10u);
  EXPECT_EQ(a.counters(), b.counters());
  ExpectSame(a.histograms().at("virtual_ms"), b.histograms().at("virtual_ms"));
}

// ---------------------------------------------------------------------------
// Spans

TEST(SpanTest, ScopedSpanRecordsBothClocksFromTheEventLoop) {
  ctsim::EventLoop loop;
  loop.Schedule(250, [] {});
  ctobs::RunObserver observer;
  observer.Enable();
  {
    ctobs::ScopedSpan span(&observer, &loop, "workload", "phase");
    span.AddArg("point", "p1");
    loop.RunToCompletion();  // advances virtual time to 250
  }
  ASSERT_EQ(observer.spans().events().size(), 1u);
  const ctobs::SpanEvent& event = observer.spans().events()[0];
  EXPECT_EQ(event.name, "workload");
  EXPECT_EQ(event.category, "phase");
  EXPECT_EQ(event.sim_begin_ms, 0u);
  EXPECT_EQ(event.sim_end_ms, 250u);
  EXPECT_EQ(event.sim_duration_ms(), 250u);
  EXPECT_GE(event.wall_end_ns, event.wall_begin_ns);
  ASSERT_EQ(event.args.size(), 1u);
  EXPECT_EQ(event.args[0].first, "point");
}

TEST(SpanTest, DisabledOrNullObserverRecordsNothing) {
  ctsim::EventLoop loop;
  ctobs::RunObserver disabled;
  {
    ctobs::ScopedSpan span(&disabled, &loop, "boot", "phase");
    ctobs::ScopedSpan null_span(nullptr, &loop, "boot", "phase");
    null_span.AddArg("k", "v");  // must be a safe no-op
  }
  EXPECT_TRUE(disabled.spans().empty());
  EXPECT_TRUE(disabled.metrics().empty());
}

TEST(SpanTest, NestedSpansGetSequentialIdsAndParents) {
  ctsim::EventLoop loop;
  ctobs::RunObserver observer;
  observer.Enable();
  {
    ctobs::ScopedSpan outer(&observer, &loop, "workload", "phase");
    EXPECT_EQ(outer.id(), 1u);
    EXPECT_EQ(observer.current_span_id(), 1u);
    {
      ctobs::ScopedSpan inner(&observer, &loop, "quorum-broadcast", "component",
                              "QuorumPeer");
      EXPECT_EQ(inner.id(), 2u);
      EXPECT_EQ(observer.current_span_id(), 2u);
    }
    EXPECT_EQ(observer.current_span_id(), 1u);
  }
  EXPECT_EQ(observer.current_span_id(), 0u);
  // Inner closes first, so it is recorded first.
  ASSERT_EQ(observer.spans().events().size(), 2u);
  const ctobs::SpanEvent& inner = observer.spans().events()[0];
  const ctobs::SpanEvent& outer = observer.spans().events()[1];
  EXPECT_EQ(inner.name, "quorum-broadcast");
  EXPECT_EQ(inner.parent_id, outer.id);
  EXPECT_EQ(inner.component, "QuorumPeer");
  EXPECT_EQ(outer.parent_id, 0u);
  // The path-keyed aggregate tree carries the hierarchy exactly, with the
  // parent path lexicographically before the child's.
  ASSERT_EQ(observer.span_tree().size(), 2u);
  EXPECT_EQ(observer.span_tree().count("workload"), 1u);
  EXPECT_EQ(observer.span_tree().count("workload/quorum-broadcast"), 1u);
  EXPECT_EQ(observer.span_tree().at("workload/quorum-broadcast").component, "QuorumPeer");
}

TEST(SpanTest, ComponentSpansPartitionVirtualTimeIntoDwell) {
  ctsim::EventLoop loop;
  ctobs::RunObserver observer;
  observer.Enable();
  loop.Schedule(100, [] {});
  loop.RunToCompletion();  // now = 100
  {
    // Opening a component span charges the time since the last mark (run
    // start) to this sweep: 100 ms.
    ctobs::ScopedSpan sweep(&observer, &loop, "gossip-round", "component", "Gossiper");
  }
  loop.Schedule(150, [] {});
  loop.RunToCompletion();  // now = 250
  {
    ctobs::ScopedSpan sweep(&observer, &loop, "gossip-round", "component", "Gossiper");
  }
  EXPECT_EQ(observer.metrics().counter("component.gossip-round.dwell_ms"), 250u);
  EXPECT_EQ(observer.metrics().counter("component.gossip-round.events"), 2u);
}

TEST(SpanTest, RawEventCapDropsButAggregatesStayExact) {
  ctsim::EventLoop loop;
  ctobs::RunObserver observer;
  observer.Enable();
  const size_t total = ctobs::SpanRecorder::kMaxEvents + 10;
  {
    // The phase span closes after its component children, past the cap;
    // the cap applies to component spans only, so the phase is kept.
    ctobs::ScopedSpan workload(&observer, &loop, "workload", "phase");
    for (size_t i = 0; i < total; ++i) {
      ctobs::ScopedSpan span(&observer, &loop, "tick", "component", "Ticker");
    }
  }
  EXPECT_EQ(observer.spans().events().size(), ctobs::SpanRecorder::kMaxEvents + 1);
  EXPECT_EQ(observer.spans().dropped(), 10u);
  EXPECT_EQ(observer.span_tree().at("workload/tick").count, total);
  EXPECT_EQ(observer.metrics().counter("component.tick.events"), total);

  ctobs::CampaignObserver campaign;
  campaign.AbsorbRun(0, observer);
  const ctobs::SystemMetrics metrics = campaign.Finalize();
  EXPECT_EQ(metrics.metrics.histograms().at("phase.workload").count(), 1u);
  EXPECT_EQ(metrics.metrics.counters().at("spans.dropped"), 10u);
}

// ---------------------------------------------------------------------------
// Flow recorder

ctobs::FlowRecord MakeFlow(uint64_t id, uint64_t parent, uint64_t origin_span,
                           const std::string& method) {
  ctobs::FlowRecord record;
  record.id = id;
  record.parent = parent;
  record.origin_span = origin_span;
  record.method = method;
  record.from = "a";
  record.to = "b";
  return record;
}

TEST(FlowRecorderTest, TracksDepthRootsAndSpanResolution) {
  ctobs::FlowRecorder flows;
  flows.Record(MakeFlow(1, 0, 5, "gossip"));    // root, from span 5
  flows.Record(MakeFlow(2, 1, 5, "writeRow"));  // caused by delivery 1
  flows.Record(MakeFlow(3, 2, 0, "rowAck"));    // caused by delivery 2, no span
  flows.Record(MakeFlow(4, 0, 0, "gossip"));    // independent root
  EXPECT_EQ(flows.messages(), 4u);
  EXPECT_EQ(flows.roots(), 2u);
  EXPECT_EQ(flows.span_resolved(), 2u);
  EXPECT_EQ(flows.max_depth(), 3u);
  EXPECT_EQ(flows.DepthOf(1), 1u);
  EXPECT_EQ(flows.DepthOf(3), 3u);
  EXPECT_EQ(flows.DepthOf(99), 0u);
  EXPECT_EQ(flows.per_method().at("gossip"), 2u);
  EXPECT_EQ(flows.records().size(), 4u);
  EXPECT_TRUE(flows.records()[0].is_root());
  EXPECT_FALSE(flows.records()[1].is_root());
}

TEST(FlowRecorderTest, RecordCapDropsRawRecordsButCountsExactly) {
  ctobs::FlowRecorder flows;
  const uint64_t total = ctobs::FlowRecorder::kMaxRecords + 7;
  for (uint64_t i = 1; i <= total; ++i) {
    flows.Record(MakeFlow(i, i - 1, 0, "tick"));  // one long causal chain
  }
  EXPECT_EQ(flows.records().size(), ctobs::FlowRecorder::kMaxRecords);
  EXPECT_EQ(flows.dropped(), 7u);
  EXPECT_EQ(flows.messages(), total);
  EXPECT_EQ(flows.max_depth(), total);  // depth tracking continues past the cap
  EXPECT_EQ(flows.per_method().at("tick"), total);
}

// ---------------------------------------------------------------------------
// Dossiers

ctobs::Dossier MakeDossier() {
  ctobs::Dossier dossier;
  dossier.system = "ZooKeeper";
  dossier.slot = 12;
  dossier.seed = 0xdeadbeefcafef00dull;
  dossier.failed_invariant = "cluster down";
  ctobs::DossierPoint point;
  point.point_id = 7;
  point.call_string = "QuorumPeer.lead/Leader.waitForEpochAck";
  point.target_node = "zk2";
  point.mode = "crash";
  dossier.injected_points.push_back(point);
  dossier.recovery_phase_span = "leader-election";
  dossier.trace_hash_prefix = "8f00ba42";
  dossier.fault_plan = "partition-epochs=2";
  dossier.workload = "create/get znodes x12";
  return dossier;
}

TEST(DossierTest, RoundTripsThroughJsonReader) {
  const ctobs::Dossier original = MakeDossier();
  const std::string json = original.ToJson();
  EXPECT_NE(json.find(ctobs::kDossierSchema), std::string::npos);
  const ctobs::Dossier parsed = ctobs::Dossier::FromJsonText(json);
  EXPECT_EQ(parsed.system, original.system);
  EXPECT_EQ(parsed.slot, original.slot);
  EXPECT_EQ(parsed.seed, original.seed);  // full uint64, via the string field
  EXPECT_EQ(parsed.failed_invariant, original.failed_invariant);
  ASSERT_EQ(parsed.injected_points.size(), 1u);
  EXPECT_EQ(parsed.injected_points[0].point_id, 7);
  EXPECT_EQ(parsed.injected_points[0].call_string, original.injected_points[0].call_string);
  EXPECT_EQ(parsed.injected_points[0].mode, "crash");
  EXPECT_EQ(parsed.recovery_phase_span, original.recovery_phase_span);
  EXPECT_EQ(parsed.trace_hash_prefix, original.trace_hash_prefix);
  EXPECT_EQ(parsed.ToJson(), json);  // byte-stable round trip
}

TEST(DossierTest, RejectsWrongSchemaAndMissingFields) {
  std::string json = MakeDossier().ToJson();
  const std::string mangled = [&] {
    std::string copy = json;
    const size_t at = copy.find(ctobs::kDossierSchema);
    copy.replace(at, std::string(ctobs::kDossierSchema).size(), "crashtuner-dossier-v0");
    return copy;
  }();
  EXPECT_THROW(ctobs::Dossier::FromJsonText(mangled), std::runtime_error);
  EXPECT_THROW(ctobs::Dossier::FromJsonText("{\"schema\":\"crashtuner-dossier-v1\"}"),
               std::runtime_error);
  EXPECT_THROW(ctobs::Dossier::FromJsonText("not json"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Campaign observer + snapshot + trace

TEST(CampaignObserverTest, FinalizeFoldsSpansIntoPhaseHistograms) {
  ctsim::EventLoop loop;
  loop.Schedule(40, [] {});
  ctobs::CampaignObserver campaign;
  campaign.set_system("TestSys");

  ctobs::RunObserver run;
  run.Enable();
  {
    ctobs::ScopedSpan span(&run, &loop, "boot", "phase");
    loop.RunToCompletion();
  }
  {
    ctobs::ScopedSpan span(&run, &loop, "inject:rm.register-node", "injection");
  }
  run.metrics().Add("run.count");
  campaign.AbsorbRun(0, run);

  const ctobs::SystemMetrics metrics = campaign.Finalize();
  EXPECT_EQ(metrics.system, "TestSys");
  EXPECT_EQ(metrics.runs, 1);
  EXPECT_EQ(metrics.metrics.histograms().at("phase.boot").count(), 1u);
  EXPECT_EQ(metrics.metrics.histograms().at("phase.boot").sum(), 40u);
  // Injection spans fold into the shared injection phase histogram plus a
  // per-span counter carrying the model's span name.
  EXPECT_EQ(metrics.metrics.histograms().at("phase.injection").count(), 1u);
  EXPECT_EQ(metrics.metrics.counters().at("span.inject:rm.register-node"), 1u);
}

TEST(SnapshotTest, WallSectionIsSegregatedFromDeterministicFields) {
  ctobs::CampaignObserver campaign;
  campaign.set_system("TestSys");
  campaign.set_jobs(4);
  campaign.set_campaign_wall_seconds(1.5);
  ctobs::RunObserver run;
  run.Enable();
  run.metrics().Add("run.count");
  campaign.AbsorbRun(0, run);

  ctobs::MetricsSnapshot snapshot;
  snapshot.systems.push_back(campaign.Finalize());

  const std::string with_wall = snapshot.ToJson(/*include_wall=*/true);
  const std::string without_wall = snapshot.ToJson(/*include_wall=*/false);
  EXPECT_NE(with_wall.find("\"wall\""), std::string::npos);
  EXPECT_NE(with_wall.find("\"jobs\":4"), std::string::npos);
  EXPECT_EQ(without_wall.find("\"wall\""), std::string::npos);
  EXPECT_EQ(without_wall.find("jobs"), std::string::npos);

  // Both serializations parse, and the deterministic fields agree.
  const ctobs::JsonValue parsed = ctobs::ParseJson(with_wall);
  ASSERT_TRUE(parsed.is_object());
  EXPECT_EQ(parsed.Find("schema")->string_value, ctobs::kSnapshotSchema);
  const ctobs::JsonValue& system = parsed.Find("systems")->array_items.at(0);
  EXPECT_EQ(system.Find("system")->string_value, "TestSys");
  EXPECT_EQ(system.Find("runs")->number_value, 1.0);
  EXPECT_EQ(ctobs::ParseJson(without_wall).Find("systems")->array_items.size(), 1u);
}

TEST(ChromeTraceTest, TraceJsonParsesAndCarriesSpans) {
  ctsim::EventLoop loop;
  loop.Schedule(10, [] {});
  ctobs::CampaignObserver campaign;
  ctobs::RunObserver run;
  run.Enable();
  {
    ctobs::ScopedSpan span(&run, &loop, "workload", "phase");
    loop.RunToCompletion();
  }
  campaign.AbsorbRun(0, run);

  ctobs::ChromeTraceWriter writer;
  campaign.AppendChromeTrace(&writer, /*pid=*/1, "TestSys");
  const ctobs::JsonValue trace = ctobs::ParseJson(writer.ToJson());
  ASSERT_TRUE(trace.is_object());
  const ctobs::JsonValue* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  bool found_span = false;
  for (const ctobs::JsonValue& event : events->array_items) {
    const ctobs::JsonValue* ph = event.Find("ph");
    if (ph != nullptr && ph->string_value == "X" &&
        event.Find("name")->string_value == "workload") {
      found_span = true;
      EXPECT_EQ(event.Find("dur")->number_value, 10000.0);  // 10 ms in µs
    }
  }
  EXPECT_TRUE(found_span);
}

TEST(SnapshotTest, V2CarriesSpanTreeAndFlowsInDeterministicSection) {
  ctsim::EventLoop loop;
  loop.Schedule(30, [] {});
  ctobs::CampaignObserver campaign;
  campaign.set_system("TestSys");
  ctobs::RunObserver run;
  run.Enable();
  {
    ctobs::ScopedSpan outer(&run, &loop, "workload", "phase");
    ctobs::ScopedSpan inner(&run, &loop, "gossip-round", "component", "Gossiper");
    loop.RunToCompletion();
  }
  run.flows().Record(MakeFlow(1, 0, 1, "gossip"));
  run.flows().Record(MakeFlow(2, 1, 2, "gossip"));
  campaign.AbsorbRun(0, run);

  const ctobs::SystemMetrics metrics = campaign.Finalize();
  ASSERT_EQ(metrics.span_tree.size(), 2u);
  EXPECT_EQ(metrics.span_tree[0].path, "workload");
  EXPECT_EQ(metrics.span_tree[0].parent, -1);
  EXPECT_EQ(metrics.span_tree[1].path, "workload/gossip-round");
  EXPECT_EQ(metrics.span_tree[1].parent, 0);  // index of "workload"
  EXPECT_EQ(metrics.span_tree[1].component, "Gossiper");
  EXPECT_EQ(metrics.flows.messages, 2u);
  EXPECT_EQ(metrics.flows.roots, 1u);
  EXPECT_EQ(metrics.flows.max_depth, 2u);

  ctobs::MetricsSnapshot snapshot;
  snapshot.systems.push_back(metrics);
  // Both sections live in the deterministic half: present without wall.
  const std::string without_wall = snapshot.ToJson(/*include_wall=*/false);
  const ctobs::JsonValue parsed = ctobs::ParseJson(without_wall);
  EXPECT_EQ(parsed.Find("schema")->string_value, ctobs::kSnapshotSchema);
  const ctobs::JsonValue& system = parsed.Find("systems")->array_items.at(0);
  const ctobs::JsonValue* span_tree = system.Find("span_tree");
  ASSERT_NE(span_tree, nullptr);
  ASSERT_EQ(span_tree->array_items.size(), 2u);
  EXPECT_EQ(span_tree->array_items[1].Find("parent")->number_value, 0.0);
  const ctobs::JsonValue* flows = system.Find("flows");
  ASSERT_NE(flows, nullptr);
  EXPECT_EQ(flows->Find("messages")->number_value, 2.0);
  EXPECT_EQ(flows->Find("per_method")->Find("gossip")->number_value, 2.0);
}

TEST(ChromeTraceTest, FlowArrowsLinkParentAndChildDeliveries) {
  ctobs::CampaignObserver campaign;
  ctobs::RunObserver run;
  run.Enable();
  ctobs::FlowRecord parent = MakeFlow(1, 0, 0, "gossip");
  parent.sim_ms = 10;
  ctobs::FlowRecord child = MakeFlow(2, 1, 0, "writeRow");
  child.sim_ms = 25;
  run.flows().Record(parent);
  run.flows().Record(child);
  campaign.AbsorbRun(3, run);

  ctobs::ChromeTraceWriter writer;
  campaign.AppendChromeTrace(&writer, /*pid=*/1, "TestSys");
  const ctobs::JsonValue trace = ctobs::ParseJson(writer.ToJson());
  double start_id = -1;
  double finish_id = -2;
  for (const ctobs::JsonValue& event : trace.Find("traceEvents")->array_items) {
    const ctobs::JsonValue* ph = event.Find("ph");
    if (ph == nullptr) {
      continue;
    }
    if (ph->string_value == "s") {
      start_id = event.Find("id")->number_value;
      EXPECT_EQ(event.Find("ts")->number_value, 10000.0);  // parent delivery
    } else if (ph->string_value == "f") {
      finish_id = event.Find("id")->number_value;
      EXPECT_EQ(event.Find("ts")->number_value, 25000.0);  // child delivery
      EXPECT_EQ(event.Find("bp")->string_value, "e");
    }
  }
  // Exactly one arrow, its two halves sharing one flow id.
  EXPECT_GE(start_id, 0.0);
  EXPECT_EQ(start_id, finish_id);
}

// ---------------------------------------------------------------------------
// JSON reader

TEST(JsonTest, ParsesScalarsContainersAndEscapes) {
  const ctobs::JsonValue value =
      ctobs::ParseJson("{\"a\":[1,2.5,-3],\"b\":\"x\\ny\",\"c\":true,\"d\":null}");
  ASSERT_TRUE(value.is_object());
  const ctobs::JsonValue* a = value.Find("a");
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->array_items[1].number_value, 2.5);
  EXPECT_EQ(a->array_items[2].number_value, -3.0);
  EXPECT_EQ(value.Find("b")->string_value, "x\ny");
  EXPECT_TRUE(value.Find("c")->bool_value);
  EXPECT_EQ(value.Find("d")->kind, ctobs::JsonValue::Kind::kNull);
  EXPECT_EQ(value.Find("missing"), nullptr);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(ctobs::ParseJson("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(ctobs::ParseJson("[1,2"), std::runtime_error);
  EXPECT_THROW(ctobs::ParseJson("{} trailing"), std::runtime_error);
  EXPECT_THROW(ctobs::ParseJson(""), std::runtime_error);
}

}  // namespace
