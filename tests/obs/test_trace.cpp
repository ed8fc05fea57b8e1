// §15 tracing: FlightRecorder ring semantics, the Tracer's load-adaptive
// sampling controller and incident dumps, and the flight-dump JSON writer.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"

namespace lvrm::obs {
namespace {

TraceRecord rec(std::uint64_t frame, Nanos t, TraceHop hop) {
  TraceRecord r;
  r.frame_id = frame;
  r.t = t;
  r.hop = static_cast<std::uint8_t>(hop);
  return r;
}

// Balanced-JSON scanner shared with test_export.cpp's idiom.
void expect_balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(text.find(",]"), std::string::npos);
  EXPECT_EQ(text.find(",\n]"), std::string::npos);
}

TEST(FlightRecorder, RoundsCapacityToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(0).capacity(), 1u);
  EXPECT_EQ(FlightRecorder(1).capacity(), 1u);
  EXPECT_EQ(FlightRecorder(5).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(4096).capacity(), 4096u);
}

TEST(FlightRecorder, SnapshotBelowCapacityKeepsInsertionOrder) {
  FlightRecorder fr(8);
  for (std::uint64_t i = 0; i < 5; ++i)
    fr.record(rec(i, static_cast<Nanos>(i), TraceHop::kRxIngress));
  EXPECT_EQ(fr.total(), 5u);
  EXPECT_EQ(fr.size(), 5u);
  EXPECT_EQ(fr.overwritten(), 0u);
  const auto snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(snap[i].frame_id, i);
}

TEST(FlightRecorder, OverwritesOldestAndSnapshotsOldestToNewest) {
  FlightRecorder fr(4);
  for (std::uint64_t i = 0; i < 11; ++i)
    fr.record(rec(i, static_cast<Nanos>(i), TraceHop::kDispatch));
  EXPECT_EQ(fr.total(), 11u);
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.overwritten(), 7u);
  const auto snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // The 4 newest, oldest first, even mid-wrap (head not at a boundary).
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(snap[i].frame_id, 7u + i);
}

TEST(TraceHopNames, AreStableStrings) {
  EXPECT_STREQ(to_string(TraceHop::kRxIngress), "rx_ingress");
  EXPECT_STREQ(to_string(TraceHop::kDispatch), "dispatch");
  EXPECT_STREQ(to_string(TraceHop::kVriStart), "vri_start");
  EXPECT_STREQ(to_string(TraceHop::kVriEnd), "vri_end");
  EXPECT_STREQ(to_string(TraceHop::kTxDrain), "tx_drain");
  EXPECT_STREQ(to_string(TraceHop::kDrop), "drop");
}

TEST(FlightDumpCauseNames, AreStableStrings) {
  EXPECT_STREQ(to_string(FlightDumpCause::kVriCrash), "vri_crash");
  EXPECT_STREQ(to_string(FlightDumpCause::kQuarantine), "quarantine");
  EXPECT_STREQ(to_string(FlightDumpCause::kAdmission), "admission");
  EXPECT_STREQ(to_string(FlightDumpCause::kManual), "manual");
}

TracingConfig small_cfg() {
  TracingConfig cfg;
  cfg.enabled = true;
  cfg.initial_sample_every = 64;
  cfg.min_sample_every = 4;
  cfg.adapt_period = usec(100);
  cfg.recorder_capacity = 16;
  return cfg;
}

TEST(Tracer, IdlePressureRaisesResolutionToTheFloor) {
  Tracer tr(small_cfg(), 1);
  EXPECT_EQ(tr.sample_every(), 64u);
  Nanos now = 0;
  // Zero-pressure windows: 64 -> 32 -> 16 -> 8 -> 4 and stop at the floor.
  for (int w = 0; w < 8; ++w) {
    for (int i = 0; i < 10; ++i) tr.observe_pressure(false, now);
    now += usec(101);
    tr.observe_pressure(false, now);
  }
  EXPECT_EQ(tr.sample_every(), 4u);
  EXPECT_EQ(tr.adaptations(), 4u);
}

TEST(Tracer, OverloadPressureBacksOffToTheCeiling) {
  Tracer tr(small_cfg(), 1);
  Nanos now = 0;
  for (int w = 0; w < 8; ++w) {
    for (int i = 0; i < 10; ++i) tr.observe_pressure(true, now);
    now += usec(101);
    tr.observe_pressure(true, now);
  }
  EXPECT_EQ(tr.sample_every(), 1024u);  // 64 -> 128 -> ... -> 1024, clamped
  EXPECT_EQ(tr.adaptations(), 4u);
}

TEST(Tracer, MidPressureHoldsThePeriod) {
  Tracer tr(small_cfg(), 1);
  Nanos now = 0;
  for (int w = 0; w < 4; ++w) {
    // 30% pressured: between relax (10%) and escalate (50%) — no change.
    for (int i = 0; i < 7; ++i) tr.observe_pressure(false, now);
    for (int i = 0; i < 3; ++i) tr.observe_pressure(true, now);
    now += usec(101);
    tr.observe_pressure(false, now);
  }
  EXPECT_EQ(tr.sample_every(), 64u);
  EXPECT_EQ(tr.adaptations(), 0u);
}

TEST(Tracer, ShouldSampleFollowsTheAdaptedPeriod) {
  TracingConfig cfg = small_cfg();
  cfg.initial_sample_every = 8;
  Tracer tr(cfg, 1);
  int hits = 0;
  for (int i = 0; i < 64; ++i)
    if (tr.should_sample()) ++hits;
  EXPECT_EQ(hits, 8);  // 1-in-8
}

TEST(Tracer, RecordClampsOutOfRangeShardsIntoRingZero) {
  Tracer tr(small_cfg(), 2);
  tr.record(-1, TraceHop::kRxIngress, 1, 0, -1, 10);
  tr.record(7, TraceHop::kRxIngress, 2, 0, -1, 20);
  tr.record(1, TraceHop::kRxIngress, 3, 0, -1, 30);
  EXPECT_EQ(tr.recorder(0).total(), 2u);
  EXPECT_EQ(tr.recorder(1).total(), 1u);
  EXPECT_EQ(tr.records_total(), 3u);
}

TEST(Tracer, DumpMergesShardRingsTimeOrdered) {
  TracingConfig cfg = small_cfg();
  cfg.max_dumps = 2;
  Tracer tr(cfg, 2);
  tr.record(0, TraceHop::kRxIngress, 1, 0, -1, 10);
  tr.record(1, TraceHop::kRxIngress, 2, 0, -1, 5);
  tr.record(0, TraceHop::kDispatch, 1, 0, 0, 20);
  const std::uint64_t seq = tr.dump(usec(1), FlightDumpCause::kManual, 0, 0, 0);
  EXPECT_EQ(seq, 0u);
  EXPECT_EQ(tr.dumps_taken(), 1u);
  EXPECT_EQ(tr.last_dump_records(), 3u);
  ASSERT_EQ(tr.dumps().size(), 1u);
  const FlightDump& d = tr.dumps().front();
  EXPECT_EQ(d.reason, "manual");
  EXPECT_EQ(d.records_total, 3u);
  ASSERT_EQ(d.records.size(), 3u);
  for (std::size_t i = 1; i < d.records.size(); ++i)
    EXPECT_LE(d.records[i - 1].t, d.records[i].t);
  EXPECT_EQ(d.records.front().frame_id, 2u);  // t=5 from shard 1 sorts first
}

TEST(Tracer, DumpRetentionIsBoundedButCountingContinues) {
  TracingConfig cfg = small_cfg();
  cfg.max_dumps = 1;
  Tracer tr(cfg, 1);
  tr.record(0, TraceHop::kRxIngress, 1, 0, -1, 1);
  tr.dump(usec(1), FlightDumpCause::kManual, -1, -1, -1);
  tr.record(0, TraceHop::kDispatch, 1, 0, 0, 2);
  const std::uint64_t seq =
      tr.dump(usec(2), FlightDumpCause::kAdmission, -1, 0, -1);
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(tr.dumps_taken(), 2u);
  EXPECT_EQ(tr.dumps().size(), 1u);             // only the first retained
  EXPECT_EQ(tr.last_dump_records(), 2u);        // but its stats survive
}

TEST(Tracer, SpanRetentionIsBoundedWithLossAccounting) {
  TracingConfig cfg = small_cfg();
  cfg.max_spans = 2;
  Tracer tr(cfg, 1);
  PathSpan s;
  for (std::uint64_t i = 0; i < 5; ++i) {
    s.frame_id = i;
    tr.add_span(s);
  }
  EXPECT_EQ(tr.spans().size(), 2u);
  EXPECT_EQ(tr.spans_dropped(), 3u);
  EXPECT_EQ(tr.spans()[0].frame_id, 0u);  // oldest kept
}

TEST(FlightDumpJson, IsBalancedAndCarriesTheRecords) {
  Tracer tr(small_cfg(), 1);
  tr.record(0, TraceHop::kRxIngress, 42, 1, -1, usec(3), 84);
  tr.record(0, TraceHop::kDrop, 42, 1, 0, usec(5), 6, true);
  tr.dump(usec(6), FlightDumpCause::kQuarantine, 0, 1, 0);
  std::ostringstream os;
  write_flight_dump(tr.dumps().front(), os);
  const std::string text = os.str();
  expect_balanced_json(text);
  EXPECT_NE(text.find("\"reason\":\"quarantine\""), std::string::npos);
  EXPECT_NE(text.find("\"hop\":\"rx_ingress\""), std::string::npos);
  EXPECT_NE(text.find("\"hop\":\"drop\""), std::string::npos);
  EXPECT_NE(text.find("\"frame\":42"), std::string::npos);
  EXPECT_NE(text.find("\"sampled\":1"), std::string::npos);
}

TEST(FlightDumpJson, EscapesAHostileReasonString) {
  // FlightDump::reason is a std::string a tool could set arbitrarily; a
  // quote/newline in it must not break the document (satellite regression).
  FlightDump d;
  d.reason = "qu\"ote\nnewline\\slash";
  std::ostringstream os;
  write_flight_dump(d, os);
  const std::string text = os.str();
  expect_balanced_json(text);
  EXPECT_NE(text.find("qu\\\"ote\\nnewline\\\\slash"), std::string::npos);
}

}  // namespace
}  // namespace lvrm::obs
