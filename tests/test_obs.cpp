// Observability subsystem: JSON value/parser, metrics registry, trace
// sinks/spans, and the canonical RunReport — including the acceptance
// contracts: reports round-trip through JSON with totals matching the
// AtpgResult they summarize, StopReason attribution is exact under
// budgets, and serial vs parallel reports agree on every completed fault.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/tegus.hpp"
#include "gen/structured.hpp"
#include "netlist/decompose.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/budget.hpp"

namespace cwatpg {
namespace {

// ---------------------------------------------------------------- Json --

TEST(Json, RoundTripsEveryValueKind) {
  obs::Json j = obs::Json::object();
  j["null"] = nullptr;
  j["truth"] = true;
  j["int"] = std::int64_t{-42};
  j["uint"] = std::uint64_t{18446744073709551615ull};  // 2^64-1: exact
  j["pi"] = 3.25;  // representable exactly in binary
  j["text"] = "quote \" backslash \\ newline \n tab \t unicode \x01";
  obs::Json arr = obs::Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(obs::Json::object());
  j["arr"] = std::move(arr);

  for (int indent : {-1, 2}) {
    const obs::Json back = obs::Json::parse(j.dump(indent));
    EXPECT_EQ(back, j) << "indent=" << indent;
    EXPECT_EQ(back.at("uint").as_u64(), 18446744073709551615ull);
    EXPECT_EQ(back.at("int").as_i64(), -42);
    EXPECT_EQ(back.at("text").as_string(), j.at("text").as_string());
  }
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  obs::Json j = obs::Json::object();
  j["zebra"] = 1;
  j["alpha"] = 2;
  j["mid"] = 3;
  const std::vector<std::string> want = {"zebra", "alpha", "mid"};
  EXPECT_EQ(j.keys(), want);
  EXPECT_EQ(obs::Json::parse(j.dump()).keys(), want);
}

TEST(Json, ParseAcceptsEscapesAndRejectsGarbage) {
  const obs::Json ok = obs::Json::parse(R"({"a":"é\n\"","b":[1,2]})");
  EXPECT_EQ(ok.at("a").as_string(), "\xc3\xa9\n\"");
  EXPECT_EQ(ok.at("b").size(), 2u);

  for (const char* bad : {"{\"a\":}", "[1,2", "\"unterminated", "{} trailing",
                          "nul", "1.2.3", ""}) {
    EXPECT_THROW(obs::Json::parse(bad), std::runtime_error) << bad;
  }
}

TEST(Json, ParseRejectsTrailingGarbageAfterAnyDocumentKind) {
  // One complete document per parse: anything after the top-level value is
  // an error, whatever that value was — a second value, a stray bracket,
  // or a lone identifier.
  for (const char* bad :
       {"{} x", "1 2", "[1]]", "true false", "\"done\"oops", "null,"}) {
    EXPECT_THROW(obs::Json::parse(bad), std::runtime_error) << bad;
  }
  // Trailing whitespace is not garbage.
  EXPECT_NO_THROW(obs::Json::parse("{\"a\":1}  \n\t"));
}

TEST(Json, ParseEnforcesNestingDepthLimit) {
  auto nested_array = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  // Exactly at the cap parses; one level beyond fails fast instead of
  // recursing the parser toward stack exhaustion.
  EXPECT_NO_THROW(
      obs::Json::parse(nested_array(obs::Json::kDefaultMaxDepth)));
  EXPECT_THROW(
      obs::Json::parse(nested_array(obs::Json::kDefaultMaxDepth + 1)),
      std::runtime_error);

  // Callers on a network edge can tighten the cap per call.
  EXPECT_NO_THROW(obs::Json::parse("[[]]", 2));
  EXPECT_THROW(obs::Json::parse("[[[]]]", 2), std::runtime_error);

  // Objects count toward the same limit as arrays, including when mixed.
  EXPECT_NO_THROW(obs::Json::parse(R"({"a":[{"b":[]}]})", 4));
  EXPECT_THROW(obs::Json::parse(R"({"a":[{"b":[]}]})", 3),
               std::runtime_error);

  // Closing a container releases its level: siblings at the same depth do
  // not accumulate, so breadth never triggers the depth cap.
  EXPECT_NO_THROW(obs::Json::parse("[[],[],[],[]]", 2));
}

TEST(Json, NumericAccessorsCheckRange) {
  EXPECT_THROW(obs::Json(std::int64_t{-1}).as_u64(), std::logic_error);
  EXPECT_THROW(obs::Json(1.5).as_u64(), std::logic_error);
  EXPECT_EQ(obs::Json(7.0).as_u64(), 7u);
  EXPECT_EQ(obs::Json(std::uint64_t{7}).as_double(), 7.0);
  EXPECT_THROW(obs::Json("x").as_double(), std::logic_error);
}

// ------------------------------------------------------------- Metrics --

TEST(Metrics, CountersGaugesHistogramsSnapshot) {
  obs::MetricsRegistry reg;
  reg.counter("solves").add(3);
  reg.counter("solves").add(2);
  reg.gauge("depth").set(4.0);
  reg.gauge("depth").max_in(2.0);  // lower: must not overwrite
  obs::Histogram& h = reg.histogram("ms", obs::solve_time_bounds_ms());
  h.observe(0.005);  // bucket 0 (<= 0.01)
  h.observe(5.0);    // bucket 3 (<= 10)
  h.observe(1e9);    // +inf bucket

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("solves"), 5u);
  EXPECT_EQ(snap.gauges.at("depth"), 4.0);
  const obs::HistogramSnapshot& hs = snap.histograms.at("ms");
  ASSERT_EQ(hs.bounds.size(), 6u);
  ASSERT_EQ(hs.counts.size(), 7u);
  EXPECT_EQ(hs.counts[0], 1u);
  EXPECT_EQ(hs.counts[3], 1u);
  EXPECT_EQ(hs.counts[6], 1u);
  EXPECT_EQ(hs.total, 3u);
  EXPECT_DOUBLE_EQ(hs.sum, 0.005 + 5.0 + 1e9);
}

TEST(Metrics, HandlesAreStableAndConcurrencySafe) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("hits");
  obs::Histogram& h = reg.histogram("lat", obs::solve_time_bounds_ms());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(1);
        h.observe(0.5);
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  const obs::HistogramSnapshot hs = reg.snapshot().histograms.at("lat");
  EXPECT_EQ(hs.total, static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Metrics, MergeAddsCountsAndKeepsMaxGauges) {
  obs::MetricsRegistry a, b;
  a.counter("n").add(2);
  b.counter("n").add(3);
  b.counter("only_b").add(1);
  a.gauge("peak").set(5.0);
  b.gauge("peak").set(3.0);
  a.histogram("ms", obs::solve_time_bounds_ms()).observe(0.5);
  b.histogram("ms", obs::solve_time_bounds_ms()).observe(0.5);

  a.merge(b.snapshot());
  const obs::MetricsSnapshot merged = a.snapshot();
  EXPECT_EQ(merged.counters.at("n"), 5u);
  EXPECT_EQ(merged.counters.at("only_b"), 1u);
  EXPECT_EQ(merged.gauges.at("peak"), 5.0);  // max, not last-write
  EXPECT_EQ(merged.histograms.at("ms").total, 2u);

  // Histograms only merge over identical bucket bounds.
  obs::HistogramSnapshot other;
  other.bounds = {1.0, 2.0};
  other.counts = {0, 0, 0};
  obs::MetricsSnapshot bad;
  bad.histograms["ms"] = other;
  obs::MetricsSnapshot base = merged;
  EXPECT_THROW(base += bad, std::logic_error);
}

TEST(Metrics, SnapshotJsonRoundTrip) {
  obs::MetricsRegistry reg;
  reg.counter("a").add(7);
  reg.gauge("g").set(1.5);
  reg.histogram("h", obs::solve_time_bounds_ms()).observe(3.0);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricsSnapshot back = obs::MetricsSnapshot::from_json(
      obs::Json::parse(snap.to_json().dump()));
  EXPECT_EQ(back, snap);
}

// --------------------------------------------------------------- Trace --

TEST(Trace, JsonlSinkWritesParseableStampedLines) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  sink.event("first", {{"u", std::uint64_t{7}},
                       {"i", std::int64_t{-7}},
                       {"f", 0.5},
                       {"b", true},
                       {"s", "text"}});
  sink.event("second", std::initializer_list<obs::Field>{});
  EXPECT_EQ(sink.events_written(), 2u);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<obs::Json> events;
  while (std::getline(lines, line)) events.push_back(obs::Json::parse(line));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("name").as_string(), "first");
  EXPECT_EQ(events[0].at("u").as_u64(), 7u);
  EXPECT_EQ(events[0].at("i").as_i64(), -7);
  EXPECT_EQ(events[0].at("f").as_double(), 0.5);
  EXPECT_EQ(events[0].at("b").as_bool(), true);
  EXPECT_EQ(events[0].at("s").as_string(), "text");
  // Same thread: same dense tid, monotone timestamps.
  EXPECT_EQ(events[0].at("tid").as_u64(), events[1].at("tid").as_u64());
  EXPECT_LE(events[0].at("ts_ns").as_u64(), events[1].at("ts_ns").as_u64());
}

TEST(Trace, JsonlSinkAssignsDenseThreadIds) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  sink.event("main", std::initializer_list<obs::Field>{});
  std::thread other(
      [&sink] { sink.event("other", std::initializer_list<obs::Field>{}); });
  other.join();
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::uint64_t> tids;
  while (std::getline(lines, line))
    tids.push_back(obs::Json::parse(line).at("tid").as_u64());
  ASSERT_EQ(tids.size(), 2u);
  EXPECT_EQ(tids[0], 0u);
  EXPECT_EQ(tids[1], 1u);
}

TEST(Trace, SpanEmitsDurationAndNotes) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  {
    obs::Span span(&sink, "work");
    span.note({"items", std::uint64_t{3}});
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const obs::Json event = obs::Json::parse(out.str());
  EXPECT_EQ(event.at("name").as_string(), "work");
  EXPECT_EQ(event.at("items").as_u64(), 3u);
  EXPECT_GE(event.at("dur_ns").as_u64(), 1000000u);  // slept >= 1 ms
}

TEST(Trace, NullSinkAndNullSpanAreInert) {
  obs::NullSink null_sink;
  const obs::Field ignored_fields[] = {{"k", std::int64_t{1}}};
  null_sink.event("ignored", std::span<const obs::Field>(ignored_fields));
  obs::Span with_null_sink(nullptr, "nothing");
  with_null_sink.note({"k", 1});
  with_null_sink.finish();  // must all be no-ops, not crashes
  obs::Span span(&null_sink, "swallowed");
  span.finish();
  span.finish();  // idempotent
}

// ----------------------------------------------- engine instrumentation --

TEST(EngineObservability, RegistryAndTraceFillWithoutChangingResults) {
  const net::Network n = net::decompose(gen::array_multiplier(4));

  const fault::AtpgResult plain = fault::run_atpg(n, {});

  obs::MetricsRegistry reg;
  std::ostringstream trace_out;
  obs::JsonlSink sink(trace_out);
  fault::AtpgOptions opts;
  opts.metrics = &reg;
  opts.trace = &sink;
  const fault::AtpgResult observed = fault::run_atpg(n, opts);

  // Hooks never influence classification.
  ASSERT_EQ(observed.outcomes.size(), plain.outcomes.size());
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    EXPECT_EQ(observed.outcomes[i].status, plain.outcomes[i].status);
    EXPECT_EQ(observed.outcomes[i].test_index, plain.outcomes[i].test_index);
  }
  EXPECT_EQ(observed.tests, plain.tests);

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("atpg.faults"), observed.outcomes.size());
  EXPECT_GT(snap.counters.at("atpg.sat.solves"), 0u);
  EXPECT_GT(snap.counters.at("fsim.calls"), 0u);
  EXPECT_GT(snap.counters.at("fsim.node_evals"), 0u);
  std::uint64_t conflicts = 0;
  for (const fault::FaultOutcome& o : observed.outcomes)
    conflicts += o.solver_stats.conflicts;
  EXPECT_EQ(snap.counters.at("sat.conflicts"), conflicts);
  // Every committed solve observed into the solve-time histogram.
  std::uint64_t solved = 0;
  for (const fault::FaultOutcome& o : observed.outcomes)
    if (o.engine == fault::SolveEngine::kSat) ++solved;
  EXPECT_EQ(snap.counters.at("atpg.sat.solves"), solved);

  // The trace carries the run and phase spans plus per-solve events.
  EXPECT_GT(sink.events_written(), 0u);
  std::istringstream lines(trace_out.str());
  std::string line;
  bool saw_run = false, saw_solve = false;
  while (std::getline(lines, line)) {
    const obs::Json e = obs::Json::parse(line);  // every line parses
    const std::string& name = e.at("name").as_string();
    if (name == "atpg.run") {
      saw_run = true;
      EXPECT_GT(e.at("dur_ns").as_u64(), 0u);
    }
    if (name == "atpg.solve") saw_solve = true;
  }
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_solve);
}

TEST(EngineObservability, ParallelEngineRecordsSchedulingMetrics) {
  const net::Network n = net::decompose(gen::array_multiplier(4));
  obs::MetricsRegistry reg;
  fault::AtpgOptions opts;
  opts.metrics = &reg;
  opts.random_blocks = 0;
  opts.threads = 2;
  const fault::AtpgResult r = fault::run_atpg(n, opts);
  ASSERT_GT(r.outcomes.size(), 0u);
  const fault::ParallelStats& stats = r.parallel;

  EXPECT_EQ(stats.workers.size(), 2u);
  EXPECT_GE(stats.dispatched, stats.committed);
  EXPECT_GT(stats.max_in_flight, 0u);

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("parallel.dispatched"), stats.dispatched);
  EXPECT_EQ(snap.counters.at("parallel.committed"), stats.committed);
  EXPECT_EQ(snap.counters.at("parallel.wasted"), stats.wasted);
  EXPECT_EQ(snap.gauges.at("parallel.max_in_flight"),
            static_cast<double>(stats.max_in_flight));
  EXPECT_EQ(snap.gauges.at("parallel.workers"), 2.0);
}

// ----------------------------------------------------------- RunReport --

TEST(RunReport, RoundTripsAndTotalsMatchAtpgResult) {
  const net::Network n = net::decompose(gen::array_multiplier(4));
  fault::AtpgOptions opts;
  opts.solver.max_conflicts = 16;  // force some escalation-ladder activity
  const fault::AtpgResult r = fault::run_atpg(n, opts);

  obs::ReportOptions ropts;
  ropts.label = "unit";
  ropts.seed = opts.seed;
  const obs::RunReport report = obs::build_run_report(n, r, ropts);

  // ---- totals match the AtpgResult it summarizes ----
  EXPECT_EQ(report.circuit, n.name());
  EXPECT_EQ(report.faults, r.outcomes.size());
  std::uint64_t status_total = 0;
  for (const auto& [k, v] : report.status_counts) status_total += v;
  EXPECT_EQ(status_total, r.outcomes.size());
  EXPECT_EQ(report.status_counts.at("untestable"), r.num_untestable);
  EXPECT_EQ(report.status_counts.at("aborted"), r.num_aborted);
  EXPECT_EQ(report.status_counts.at("unreachable"), r.num_unreachable);
  EXPECT_EQ(report.status_counts.at("undetermined"), r.num_undetermined);
  EXPECT_EQ(report.status_counts.at("detected") +
                report.status_counts.at("dropped-sim") +
                report.status_counts.at("dropped-random"),
            r.num_detected);
  EXPECT_EQ(report.num_tests, r.tests.size());
  EXPECT_EQ(report.num_escalated, r.num_escalated);
  EXPECT_DOUBLE_EQ(report.fault_coverage, r.fault_coverage());
  EXPECT_DOUBLE_EQ(report.fault_efficiency, r.fault_efficiency());
  EXPECT_GT(report.wall_seconds, 0.0);  // stamped by the pipeline

  std::uint64_t attempts = 0, conflicts = 0;
  std::size_t max_vars = 0;
  for (const fault::FaultOutcome& o : r.outcomes) {
    attempts += o.attempts;
    conflicts += o.solver_stats.conflicts;
    if (o.sat_vars > max_vars) max_vars = o.sat_vars;
  }
  EXPECT_EQ(report.attempts, attempts);
  EXPECT_EQ(report.solver.conflicts, conflicts);
  EXPECT_EQ(report.max_sat_vars, max_vars);

  // ---- schema stability: every enum key present even at zero ----
  for (const char* key : {"detected", "untestable", "dropped-sim",
                          "dropped-random", "aborted", "unreachable",
                          "undetermined"})
    EXPECT_TRUE(report.status_counts.count(key)) << key;
  for (const char* key : {"none", "sat", "sat-retry", "podem"})
    EXPECT_TRUE(report.engine_counts.count(key)) << key;
  for (const char* key : {"none", "conflict-limit", "deadline", "cancelled"})
    EXPECT_TRUE(report.stop_reasons.count(key)) << key;
  EXPECT_EQ(report.stop_reasons.size(), 4u);

  // ---- JSON round trip through text ----
  const obs::Json dumped = obs::Json::parse(report.to_json().dump(2));
  EXPECT_EQ(dumped.at("schema").as_string(), obs::kRunReportSchema);
  const obs::RunReport back = obs::RunReport::from_json(dumped);
  EXPECT_EQ(back, report);

  obs::Json wrong = report.to_json();
  wrong["schema"] = "cwatpg.run_report/999";
  EXPECT_THROW(obs::RunReport::from_json(wrong), std::runtime_error);
  EXPECT_THROW(obs::RunReport::from_json(obs::Json::object()),
               std::runtime_error);
}

TEST(RunReport, MergeRunsAddsCountsAndRecomputesRatios) {
  const net::Network a = net::decompose(gen::array_multiplier(3));
  const net::Network b = net::decompose(gen::array_multiplier(4));
  const fault::AtpgResult ra = fault::run_atpg(a, {});
  const fault::AtpgResult rb = fault::run_atpg(b, {});
  const obs::RunReport reports[] = {
      obs::build_run_report(a, ra),
      obs::build_run_report(b, rb),
  };
  const obs::RunReport merged = obs::merge_runs(reports);
  EXPECT_EQ(merged.faults, ra.outcomes.size() + rb.outcomes.size());
  EXPECT_EQ(merged.num_tests, ra.tests.size() + rb.tests.size());
  EXPECT_EQ(merged.circuit, "<2 circuits>");
  EXPECT_EQ(merged.solver.conflicts,
            reports[0].solver.conflicts + reports[1].solver.conflicts);
  const double cov = static_cast<double>(ra.num_detected + rb.num_detected) /
                     static_cast<double>(merged.faults);
  EXPECT_DOUBLE_EQ(merged.fault_coverage, cov);
  EXPECT_EQ(obs::merge_runs({}).faults, 0u);
}

namespace {

/// A synthetic report with distinct histogram shape per `salt`. All
/// doubles are dyadic (exactly representable sums), so merge order cannot
/// introduce floating-point drift and associativity can be EXPECT_EQ'd.
obs::RunReport synthetic_report(std::uint64_t salt) {
  obs::RunReport r;
  r.label = "shard";
  // One shared name: the "<N circuits>" placeholder a cross-circuit merge
  // writes is a lossy summary and deliberately NOT associative.
  r.circuit = "mix";
  r.gates = 10 * salt;
  r.inputs = salt;
  r.outputs = 1;
  r.threads = salt;
  r.faults = 8 * salt;
  r.status_counts["detected"] = 5 * salt;
  r.status_counts["untestable"] = salt;
  r.status_counts["aborted"] = salt;
  r.status_counts["undetermined"] = salt;
  // The ratio recompute reads these through operator[], materializing
  // zero entries; pre-populate so identity comparisons see equal maps.
  r.status_counts["dropped-sim"] = 0;
  r.status_counts["dropped-random"] = 0;
  r.status_counts["unreachable"] = 0;
  r.engine_counts["sat"] = 6 * salt;
  r.engine_counts["podem"] = salt;
  r.stop_reasons["none"] = 7 * salt;
  r.stop_reasons["conflict-limit"] = salt;
  r.num_tests = 4 * salt;
  r.num_escalated = salt;
  r.interrupted = salt == 2;
  r.solver.conflicts = 100 * salt;
  r.solver.decisions = 200 * salt;
  r.solver.propagations = 300 * salt;
  r.solver.reused_implications = 40 * salt;
  r.attempts = 9 * salt;
  r.sat_instances = 6 * salt;
  r.max_sat_vars = 50 + salt;
  r.max_sat_clauses = 500 + salt;
  r.solve_seconds = 0.25 * static_cast<double>(salt);
  r.wall_seconds = 0.5 * static_cast<double>(salt);
  return r;
}

}  // namespace

TEST(RunReport, MergeRunsEmptyAndSingleIdentities) {
  // Empty input: the default (all-zero) report, nothing invented.
  const obs::RunReport empty = obs::merge_runs({});
  EXPECT_EQ(empty, obs::RunReport{});

  // Single input: every additive field passes through unchanged; the
  // ratios are recomputed from the (unchanged) histograms, so they agree
  // with the input's own.
  obs::RunReport one = synthetic_report(3);
  one.fault_coverage = 5.0 / 8.0;       // 5·salt detected of 8·salt faults
  one.fault_efficiency = 6.0 / 8.0;     // + salt untestable
  const std::vector<obs::RunReport> single = {one};
  const obs::RunReport merged = obs::merge_runs(single);
  EXPECT_EQ(merged.status_counts, one.status_counts);
  EXPECT_EQ(merged.engine_counts, one.engine_counts);
  EXPECT_EQ(merged.stop_reasons, one.stop_reasons);
  EXPECT_EQ(merged.solver.reused_implications,
            one.solver.reused_implications);
  EXPECT_EQ(merged.faults, one.faults);
  EXPECT_EQ(merged.num_tests, one.num_tests);
  EXPECT_DOUBLE_EQ(merged.fault_coverage, one.fault_coverage);
  EXPECT_DOUBLE_EQ(merged.fault_efficiency, one.fault_efficiency);
}

TEST(RunReport, MergeRunsIsAssociative) {
  // Shard-merge order must not matter: ((a·b)·c), (a·(b·c)) and (a·b·c)
  // have to agree on every field — histograms, solver stats (including
  // reused_implications), histogram-derived ratios, interrupted OR,
  // max-reduced fields — or a cluster's merged report would depend on
  // reply arrival order.
  const obs::RunReport a = synthetic_report(1);
  const obs::RunReport b = synthetic_report(2);
  const obs::RunReport c = synthetic_report(3);

  const std::vector<obs::RunReport> ab = {a, b};
  const std::vector<obs::RunReport> bc = {b, c};
  const std::vector<obs::RunReport> left_args = {obs::merge_runs(ab), c};
  const std::vector<obs::RunReport> right_args = {a, obs::merge_runs(bc)};
  const std::vector<obs::RunReport> flat_args = {a, b, c};
  const obs::RunReport left = obs::merge_runs(left_args);
  const obs::RunReport right = obs::merge_runs(right_args);
  const obs::RunReport flat = obs::merge_runs(flat_args);

  EXPECT_EQ(left, right);
  EXPECT_EQ(left, flat);

  // Spot-check the merged content is the three-way sum, not just
  // self-consistent.
  EXPECT_EQ(flat.status_counts.at("detected"), 5u * (1 + 2 + 3));
  EXPECT_EQ(flat.engine_counts.at("podem"), 1u + 2 + 3);
  EXPECT_EQ(flat.stop_reasons.at("conflict-limit"), 1u + 2 + 3);
  EXPECT_EQ(flat.solver.reused_implications, 40u * (1 + 2 + 3));
  EXPECT_TRUE(flat.interrupted);  // b was interrupted: OR carries it
  EXPECT_EQ(flat.threads, 3u);    // max, not sum
  EXPECT_DOUBLE_EQ(flat.fault_coverage,
                   static_cast<double>(5 * 6) / (8 * 6));
}

TEST(RunReport, ConflictCapStopReasonsAttributeExactly) {
  // Deterministic budget scenario: a conflict cap of 1 with the ladder off
  // makes every hard fault abort with kConflictLimit — the report's
  // StopReason histogram must count exactly those outcomes.
  const net::Network n = net::decompose(gen::array_multiplier(5));
  fault::AtpgOptions opts;
  opts.random_blocks = 0;
  opts.solver.max_conflicts = 1;
  opts.escalation_rounds = 0;
  opts.podem_fallback = false;
  const fault::AtpgResult r = fault::run_atpg(n, opts);
  ASSERT_GT(r.num_aborted, 0u);

  const obs::RunReport report = obs::build_run_report(n, r);
  std::uint64_t conflict_limited = 0;
  for (const fault::FaultOutcome& o : r.outcomes)
    if (o.solver_stats.stop_reason == StopReason::kConflictLimit)
      ++conflict_limited;
  EXPECT_EQ(report.stop_reasons.at("conflict-limit"), conflict_limited);
  // With no deadline or cancellation, aborts can only come from the cap.
  EXPECT_EQ(report.stop_reasons.at("conflict-limit"), r.num_aborted);
  EXPECT_EQ(report.stop_reasons.at("deadline"), 0u);
  EXPECT_EQ(report.stop_reasons.at("cancelled"), 0u);
  // Ladder off: exactly one attempt per processed fault.
  EXPECT_EQ(report.engine_counts.at("sat-retry"), 0u);
  EXPECT_EQ(report.engine_counts.at("podem"), 0u);
}

TEST(RunReport, SerialAndParallelAgreeOnEveryCompletedFault) {
  // A mid-run deadline interrupts both engines at (generally) different
  // points. The contract: every fault BOTH runs completed — classified,
  // and not by the asynchronous deadline itself — carries the identical
  // outcome, because both prefixes come from the same deterministic commit
  // sequence. (At most one committed outcome per run can be
  // deadline-aborted: the commit loop stops at the next budget check.)
  const net::Network n = net::decompose(gen::array_multiplier(8));

  fault::AtpgOptions base;
  base.random_blocks = 0;  // all faults through SAT: far past the deadline

  // Sanitizer builds run an order of magnitude slower, so a fixed 50 ms
  // deadline can fire before EITHER engine classifies a single fault,
  // leaving nothing to compare. Grow the deadline until both runs have a
  // non-empty classified prefix; the agreement contract itself is
  // deadline-independent.
  fault::AtpgResult serial, parallel;
  std::size_t compared = 0;
  for (double deadline = 0.05; deadline <= 16.0; deadline *= 4.0) {
    Budget serial_budget;
    serial_budget.set_deadline_after(deadline);
    fault::AtpgOptions sopts = base;
    sopts.budget = &serial_budget;
    serial = fault::run_atpg(n, sopts);

    Budget parallel_budget;
    parallel_budget.set_deadline_after(deadline);
    fault::AtpgOptions popts = base;
    popts.budget = &parallel_budget;
    popts.threads = 4;
    parallel = fault::run_atpg(n, popts);

    ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
    compared = 0;
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
      const fault::FaultOutcome& s = serial.outcomes[i];
      const fault::FaultOutcome& p = parallel.outcomes[i];
      if (s.status == fault::FaultStatus::kUndetermined ||
          p.status == fault::FaultStatus::kUndetermined)
        continue;
      if (s.solver_stats.stop_reason == StopReason::kDeadline ||
          p.solver_stats.stop_reason == StopReason::kDeadline)
        continue;
      ++compared;
      EXPECT_EQ(s.status, p.status) << "fault " << i;
      EXPECT_EQ(s.engine, p.engine) << "fault " << i;
      EXPECT_EQ(s.attempts, p.attempts) << "fault " << i;
      EXPECT_EQ(s.test_index, p.test_index) << "fault " << i;
      EXPECT_EQ(s.sat_vars, p.sat_vars) << "fault " << i;
    }
    if (compared > 0) break;
  }
  EXPECT_GT(compared, 0u);

  // Both reports stay internally consistent even when interrupted, and the
  // parallel one carries its scheduling telemetry.
  obs::ReportOptions propts;
  propts.engine = "parallel";
  propts.threads = 4;
  const obs::RunReport sr = obs::build_run_report(n, serial);
  const obs::RunReport pr = obs::build_run_report(n, parallel, propts);
  for (const obs::RunReport* rep : {&sr, &pr}) {
    std::uint64_t total = 0;
    for (const auto& [k, v] : rep->status_counts) total += v;
    EXPECT_EQ(total, rep->faults);
  }
  EXPECT_EQ(sr.status_counts.at("undetermined"), serial.num_undetermined);
  EXPECT_EQ(pr.status_counts.at("undetermined"), parallel.num_undetermined);
  EXPECT_EQ(pr.dispatched, parallel.parallel.dispatched);
  EXPECT_EQ(pr.committed, parallel.parallel.committed);
  EXPECT_EQ(pr.workers.size(), 4u);
  const obs::RunReport pr_back =
      obs::RunReport::from_json(obs::Json::parse(pr.to_json().dump()));
  EXPECT_EQ(pr_back, pr);
}

TEST(RunReport, FromJsonIgnoresWorkerStealsOfOlderReports) {
  // Reports written while the pool stole work carry a per-worker "steals"
  // count. They must still parse, to the same report without it.
  const net::Network n = net::decompose(gen::array_multiplier(3));
  fault::AtpgOptions opts;
  opts.threads = 2;
  const fault::AtpgResult r = fault::run_atpg(n, opts);
  obs::ReportOptions ropts;
  ropts.engine = "parallel";
  const obs::RunReport report = obs::build_run_report(n, r, ropts);

  obs::Json old = obs::Json::parse(report.to_json().dump());
  obs::Json workers = obs::Json::array();
  for (const obs::Json& w : old.at("parallel").at("workers").items()) {
    obs::Json entry = w;
    entry["steals"] = std::uint64_t{7};
    workers.push_back(std::move(entry));
  }
  ASSERT_EQ(workers.size(), 2u);
  old["parallel"]["workers"] = std::move(workers);
  EXPECT_EQ(obs::RunReport::from_json(old), report);
}

}  // namespace
}  // namespace cwatpg
