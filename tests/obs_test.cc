// Unit tests for the observability subsystem (src/obs/): histogram bucket
// edges and merge algebra, shard merges and campaign absorb order, phase
// stamps against a real event loop, the causal-flow recorder the cluster
// feeds (src/sim/flow.h), snapshot serialization
// (wall segregation), the Chrome-trace writer, dossiers, and the JSON reader
// (checked integer fields included) that closes the loop.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "src/obs/chrome_trace.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/observer.h"
#include "src/obs/snapshot.h"
#include "src/sim/event_loop.h"
#include "src/sim/exception.h"
#include "src/sim/flow.h"
#include "src/sim/symbol.h"

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
// Shards

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

// ---------------------------------------------------------------------------
// Run observer: phase table

TEST(RunObserverTest, ScopedPhaseRecordsBothClocksFromTheEventLoop) {
  ctsim::EventLoop loop;
  loop.Schedule(250, [] {});
  ctobs::RunObserver observer;
  {
    ctobs::ScopedPhase phase(&observer, loop, ctobs::Phase::kWorkload);
    loop.RunToCompletion();  // advances virtual time to 250
  }
  const ctobs::PhaseStamp& stamp = observer.phases()[ctobs::Phase::kWorkload];
  EXPECT_TRUE(stamp.recorded);
  EXPECT_EQ(stamp.sim_begin_ms, 0u);
  EXPECT_EQ(stamp.sim_end_ms, 250u);
  EXPECT_EQ(stamp.sim_ms(), 250u);
  EXPECT_GE(stamp.wall_end_ns, stamp.wall_begin_ns);
  // Only the stamped phase is recorded.
  for (ctobs::Phase other : {ctobs::Phase::kInjection, ctobs::Phase::kRecoveryCheck}) {
    EXPECT_FALSE(observer.phases()[other].recorded) << ctobs::PhaseName(other);
  }
}

TEST(RunObserverTest, NullObserverRecordsNothing) {
  ctsim::EventLoop loop;
  { ctobs::ScopedPhase null_phase(nullptr, loop, ctobs::Phase::kWorkload); }  // a safe no-op
}

TEST(RunObserverTest, ScopedPhaseEndsWhenItsBodyThrowsNodeCrashedSignal) {
  // A post-write strike on the node running the handler unwinds the
  // injection phase with NodeCrashedSignal; the phase must still end.
  ctsim::EventLoop loop;
  ctobs::RunObserver observer;
  loop.Schedule(40, [&] {
    ctobs::ScopedPhase phase(&observer, loop, ctobs::Phase::kInjection);
    loop.Schedule(15, [] {});
    loop.RunOne();  // the strike's recovery advances virtual time to 55
    throw ctsim::NodeCrashedSignal{};
  });
  EXPECT_THROW(loop.RunOne(), ctsim::NodeCrashedSignal);
  const ctobs::PhaseStamp& stamp = observer.phases()[ctobs::Phase::kInjection];
  EXPECT_TRUE(stamp.recorded);
  EXPECT_EQ(stamp.sim_begin_ms, 40u);
  EXPECT_EQ(stamp.sim_end_ms, 55u);
  EXPECT_NE(stamp.wall_end_ns, 0u);
  EXPECT_GE(stamp.wall_end_ns, stamp.wall_begin_ns);
}

// ---------------------------------------------------------------------------
// Flow recorder

TEST(FlowRecorderTest, TracksDepthAndRoots) {
  ctsim::InternTable symbols;
  const ctsim::Symbol gossip = symbols.Intern("gossip");
  ctsim::FlowRecorder flows;
  EXPECT_EQ(flows.Record(0, gossip, 0), 1u);  // root
  EXPECT_EQ(flows.max_depth(), 1u);
  EXPECT_EQ(flows.Record(1, symbols.Intern("writeRow"), 0), 2u);  // caused by delivery 1
  EXPECT_EQ(flows.Record(2, symbols.Intern("rowAck"), 0), 3u);    // caused by delivery 2
  EXPECT_EQ(flows.max_depth(), 3u);
  EXPECT_EQ(flows.Record(0, gossip, 0), 4u);  // independent root
  EXPECT_EQ(flows.messages(), 4u);
  EXPECT_EQ(flows.roots(), 2u);
  EXPECT_EQ(flows.max_depth(), 3u);
  EXPECT_EQ(flows.per_method().at("gossip"), 2u);
  EXPECT_EQ(flows.per_method().at("rowAck"), 1u);
  ASSERT_EQ(flows.records().size(), 4u);
  EXPECT_EQ(flows.records()[0].parent, 0u);
  EXPECT_EQ(flows.records()[1].parent, 1u);
  EXPECT_EQ(flows.method_name(flows.records()[1].method), "writeRow");
  EXPECT_EQ(flows.records()[3].method, flows.records()[0].method);  // one name per method
}

TEST(FlowRecorderTest, RecordCapDropsRawRecordsButCountsExactly) {
  ctsim::InternTable symbols;
  const ctsim::Symbol tick = symbols.Intern("tick");
  ctsim::FlowRecorder flows;
  const uint64_t total = ctsim::FlowRecorder::kMaxRecords + 7;
  for (uint64_t i = 1; i <= total; ++i) {
    ASSERT_EQ(flows.Record(i - 1, tick, i), i);  // one long causal chain
  }
  EXPECT_EQ(flows.records().size(), ctsim::FlowRecorder::kMaxRecords);
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

TEST(DossierTest, RejectsMalformedIntegers) {
  const std::string json = MakeDossier().ToJson();
  auto with = [&](const std::string& from, const std::string& to) {
    std::string copy = json;
    const size_t at = copy.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return copy.replace(at, from.size(), to);
  };
  // A negative slot, a fractional point id, a slot past 2^53 (which a JSON
  // number cannot hold exactly) and a negative seed string all throw instead
  // of being cast or wrapped.
  for (const std::string& bad :
       {with("\"slot\":12", "\"slot\":-3"), with("\"point_id\":7", "\"point_id\":2.5"),
        with("\"slot\":12", "\"slot\":9007199254740993"),
        with("\"seed\":\"" + std::to_string(MakeDossier().seed) + "\"", "\"seed\":\"-3\"")}) {
    EXPECT_THROW(ctobs::Dossier::FromJsonText(bad), std::runtime_error) << bad;
  }
  try {
    ctobs::Dossier::FromJsonText(with("\"slot\":12", "\"slot\":-3"));
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("'slot'"), std::string::npos) << error.what();
  }
}

// ---------------------------------------------------------------------------
// Campaign observer + snapshot + trace

TEST(CampaignObserverTest, FinalizeFoldsPhasesIntoPhaseHistograms) {
  ctsim::EventLoop loop;
  loop.Schedule(40, [] {});
  ctobs::CampaignObserver campaign;
  campaign.set_system("TestSys");

  ctobs::RunObserver run;
  {
    ctobs::ScopedPhase phase(&run, loop, ctobs::Phase::kWorkload);
    loop.RunToCompletion();
  }
  run.phases().injection_name = "inject:rm.register-node";
  { ctobs::ScopedPhase phase(&run, loop, ctobs::Phase::kInjection); }
  campaign.AbsorbRun(0, run);

  const ctobs::SystemMetrics metrics = campaign.Finalize();
  EXPECT_EQ(metrics.system, "TestSys");
  EXPECT_EQ(metrics.runs, 1);
  EXPECT_EQ(metrics.metrics.histograms().at("phase.workload").count(), 1u);
  EXPECT_EQ(metrics.metrics.histograms().at("phase.workload").sum(), 40u);
  // Unstamped phases fold into no histogram.
  EXPECT_EQ(metrics.metrics.histograms().count("phase.recovery-check"), 0u);
  // Injections fold into the shared injection phase histogram plus a
  // per-injection counter carrying the anchor frame.
  EXPECT_EQ(metrics.metrics.histograms().at("phase.injection").count(), 1u);
  EXPECT_EQ(metrics.metrics.counters().at("span.inject:rm.register-node"), 1u);
}

TEST(CampaignObserverTest, AbsorbOrderDoesNotChangeTheSnapshot) {
  // Slots absorbed out of order (as a jobs=N pool would) must give the same
  // deterministic snapshot as in-order absorption: every shard fold commutes.
  auto absorb = [](std::initializer_list<int> slots) {
    ctsim::InternTable symbols;
    ctobs::CampaignObserver campaign;
    campaign.set_system("TestSys");
    for (int slot : slots) {
      ctsim::EventLoop loop;
      loop.Schedule(static_cast<ctsim::Time>(10 * (slot + 1)), [] {});
      ctobs::RunObserver run;
      {
        ctobs::ScopedPhase phase(&run, loop, ctobs::Phase::kWorkload);
        loop.RunToCompletion();
      }
      run.metrics().Add("slot.hits", static_cast<uint64_t>(slot + 1));
      run.metrics().SetGauge("slot.max", slot);
      run.metrics().Observe("run.virtual_ms", loop.Now());
      run.flows().Record(0, symbols.Intern(slot % 2 == 0 ? "gossip" : "tick"), 0);
      campaign.AbsorbRun(slot, std::move(run));
    }
    ctobs::MetricsSnapshot snapshot;
    snapshot.systems.push_back(campaign.Finalize());
    return snapshot.ToJson(/*include_wall=*/false);
  };
  const std::string ordered = absorb({0, 1, 2, 3});
  EXPECT_EQ(absorb({3, 0, 2, 1}), ordered);
  const ctobs::JsonValue system = ctobs::ParseJson(ordered).Find("systems")->array_items.at(0);
  EXPECT_EQ(system.Find("runs")->number_value, 4.0);
  EXPECT_EQ(system.Find("counters")->Find("slot.hits")->number_value, 10.0);
  EXPECT_EQ(system.Find("gauges")->Find("slot.max")->number_value, 3.0);
  EXPECT_EQ(system.Find("histograms")->Find("phase.workload")->Find("count")->number_value,
            4.0);
  EXPECT_EQ(system.Find("histograms")->Find("phase.workload")->Find("sum")->number_value,
            10.0 + 20.0 + 30.0 + 40.0);
  EXPECT_EQ(system.Find("flows")->Find("per_method")->Find("tick")->number_value, 2.0);
}

TEST(SnapshotTest, WallSectionIsSegregatedFromDeterministicFields) {
  ctobs::CampaignObserver campaign;
  campaign.set_system("TestSys");
  campaign.set_jobs(4);
  // The campaign's wall time is the length of its "campaign" driver phase.
  const ctobs::CampaignObserver::Clock::time_point start = ctobs::CampaignObserver::Clock::now();
  campaign.AddDriverPhase("campaign", start, start + std::chrono::milliseconds(1500));
  ctobs::RunObserver run;
  campaign.AbsorbRun(0, run);

  ctobs::MetricsSnapshot snapshot;
  snapshot.systems.push_back(campaign.Finalize());

  const std::string with_wall = snapshot.ToJson(/*include_wall=*/true);
  const std::string without_wall = snapshot.ToJson(/*include_wall=*/false);
  EXPECT_NE(with_wall.find("\"wall\""), std::string::npos);
  EXPECT_NE(with_wall.find("\"jobs\":4"), std::string::npos);
  EXPECT_NE(with_wall.find("\"campaign_seconds\":1.500000"), std::string::npos);
  EXPECT_NE(with_wall.find("\"driver\":{\"campaign\":1.500000}"), std::string::npos);
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

TEST(ChromeTraceTest, TraceJsonParsesAndCarriesPhases) {
  ctsim::EventLoop loop;
  loop.Schedule(10, [] {});
  ctobs::CampaignObserver campaign;
  ctobs::RunObserver run;
  {
    ctobs::ScopedPhase phase(&run, loop, ctobs::Phase::kWorkload);
    loop.RunToCompletion();
  }
  run.phases().injection_name = "inject:rm.register-node";
  run.phases().injection_point = 7;
  run.phases().injection_target = "nm1";
  { ctobs::ScopedPhase phase(&run, loop, ctobs::Phase::kInjection); }
  campaign.AbsorbRun(0, run);

  ctobs::ChromeTraceWriter writer;
  campaign.AppendChromeTrace(&writer, /*pid=*/1, "TestSys");
  const ctobs::JsonValue trace = ctobs::ParseJson(writer.ToJson());
  ASSERT_TRUE(trace.is_object());
  const ctobs::JsonValue* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  bool found_phase = false;
  bool found_injection = false;
  for (const ctobs::JsonValue& event : events->array_items) {
    const ctobs::JsonValue* ph = event.Find("ph");
    if (ph == nullptr || ph->string_value != "X") {
      continue;
    }
    const ctobs::JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_NE(args->Find("wall_ms"), nullptr);
    if (event.Find("name")->string_value == "workload") {
      found_phase = true;
      EXPECT_EQ(event.Find("cat")->string_value, "phase");
      EXPECT_EQ(event.Find("dur")->number_value, 10000.0);  // 10 ms in µs
    } else if (event.Find("name")->string_value == "inject:rm.register-node") {
      found_injection = true;
      EXPECT_EQ(event.Find("cat")->string_value, "injection");
      EXPECT_EQ(event.Find("ts")->number_value, 10000.0);
      EXPECT_EQ(args->Find("point")->string_value, "7");
      EXPECT_EQ(args->Find("target")->string_value, "nm1");
    }
  }
  EXPECT_TRUE(found_phase);
  EXPECT_TRUE(found_injection);
}

TEST(SnapshotTest, V4CarriesFlowsInDeterministicSection) {
  ctsim::EventLoop loop;
  loop.Schedule(30, [] {});
  ctobs::CampaignObserver campaign;
  campaign.set_system("TestSys");
  ctobs::RunObserver run;
  {
    ctobs::ScopedPhase phase(&run, loop, ctobs::Phase::kWorkload);
    loop.RunToCompletion();
  }
  ctsim::InternTable symbols;
  run.flows().Record(0, symbols.Intern("gossip"), 0);
  run.flows().Record(1, symbols.Intern("gossip"), 0);
  campaign.AbsorbRun(0, run);

  const ctobs::SystemMetrics metrics = campaign.Finalize();
  EXPECT_EQ(metrics.flows.messages, 2u);
  EXPECT_EQ(metrics.flows.roots, 1u);
  EXPECT_EQ(metrics.flows.max_depth, 2u);

  ctobs::MetricsSnapshot snapshot;
  snapshot.systems.push_back(metrics);
  // Flows live in the deterministic half: present without wall. v4 dropped
  // v3's component dwell table.
  const std::string without_wall = snapshot.ToJson(/*include_wall=*/false);
  const ctobs::JsonValue parsed = ctobs::ParseJson(without_wall);
  EXPECT_EQ(parsed.Find("schema")->string_value, "crashtuner-metrics-v4");
  const ctobs::JsonValue& system = parsed.Find("systems")->array_items.at(0);
  EXPECT_EQ(system.Find("components"), nullptr);
  const ctobs::JsonValue* flows = system.Find("flows");
  ASSERT_NE(flows, nullptr);
  EXPECT_EQ(flows->Find("messages")->number_value, 2.0);
  EXPECT_EQ(flows->Find("per_method")->Find("gossip")->number_value, 2.0);
}

TEST(ChromeTraceTest, FlowArrowsLinkParentAndChildDeliveries) {
  ctobs::CampaignObserver campaign;
  ctobs::RunObserver run;
  ctsim::InternTable symbols;
  run.flows().Record(0, symbols.Intern("gossip"), /*sim_ms=*/10);
  run.flows().Record(1, symbols.Intern("writeRow"), /*sim_ms=*/25);
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
      EXPECT_EQ(event.Find("name")->string_value, "writeRow");  // the child's method
    } else if (ph->string_value == "f") {
      finish_id = event.Find("id")->number_value;
      EXPECT_EQ(event.Find("name")->string_value, "writeRow");
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

TEST(JsonTest, IntegerFieldsAreCheckedNotCast) {
  const ctobs::JsonValue value = ctobs::ParseJson(
      "[42,-3,2.5,9007199254740991,9007199254740993,\"7\",-7]");
  const std::vector<ctobs::JsonValue>& items = value.array_items;
  EXPECT_EQ(ctobs::JsonInteger(items[0], "count"), 42);
  EXPECT_EQ(ctobs::JsonInteger(items[3], "count"), ctobs::kJsonMaxInteger);
  EXPECT_EQ(ctobs::JsonInteger(items[6], "gauge", -10, 10), -7);
  // Negative, fractional, past 2^53, and not a number at all.
  for (size_t bad : {1u, 2u, 4u, 5u}) {
    EXPECT_THROW(ctobs::JsonInteger(items[bad], "count"), std::runtime_error) << bad;
  }
  EXPECT_THROW(ctobs::JsonInteger(items[0], "jobs", 1, 8), std::runtime_error);
  try {
    ctobs::JsonInteger(items[1], "counter \"run.count\"");
    ADD_FAILURE() << "-3 read as a count";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()),
              "counter \"run.count\" is -3, not an integer in [0, 9007199254740991]");
  }
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(ctobs::ParseJson("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(ctobs::ParseJson("[1,2"), std::runtime_error);
  EXPECT_THROW(ctobs::ParseJson("{} trailing"), std::runtime_error);
  EXPECT_THROW(ctobs::ParseJson(""), std::runtime_error);
}

}  // namespace
