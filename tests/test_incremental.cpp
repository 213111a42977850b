// Incremental engine: solver assumptions, the shared select-instrumented
// miter (stems AND branches), and the SolveEngine::kIncremental pipeline
// integration — classification identity against the per-fault engine,
// serial-vs-parallel byte identity at matched stream counts, clause-reuse
// observability, and thread-safety of per-worker miter clones.
#include <gtest/gtest.h>

#include <thread>

#include "fault/incremental.hpp"
#include "fault/tegus.hpp"
#include "gen/hutton.hpp"
#include "gen/structured.hpp"
#include "gen/suites.hpp"
#include "gen/trees.hpp"
#include "netlist/decompose.hpp"
#include "obs/metrics.hpp"
#include "sat/encode.hpp"

namespace cwatpg::fault {
namespace {

// ----------------------------------------------------- solver assumptions

TEST(Assumptions, ForceVariableValues) {
  sat::Cnf f(2);
  f.add_clause({sat::pos(0), sat::pos(1)});
  sat::Solver solver(f);
  const sat::Lit a0[] = {sat::neg(0)};
  ASSERT_EQ(solver.solve(a0), sat::SolveStatus::kSat);
  EXPECT_FALSE(solver.model()[0]);
  EXPECT_TRUE(solver.model()[1]);
  const sat::Lit a1[] = {sat::neg(0), sat::neg(1)};
  EXPECT_EQ(solver.solve(a1), sat::SolveStatus::kUnsat);
  // Not globally UNSAT: a later call without assumptions is SAT.
  EXPECT_EQ(solver.solve(), sat::SolveStatus::kSat);
}

TEST(Assumptions, ConflictingAssumptionsUnsat) {
  sat::Cnf f(1);
  f.add_clause({sat::pos(0), sat::neg(0)});  // tautology dropped; empty cnf
  sat::Solver solver(sat::Cnf(1));
  const sat::Lit a[] = {sat::pos(0), sat::neg(0)};
  EXPECT_EQ(solver.solve(a), sat::SolveStatus::kUnsat);
}

TEST(Assumptions, OutOfRangeThrows) {
  sat::Solver solver(sat::Cnf(1));
  const sat::Lit a[] = {sat::pos(9)};
  EXPECT_THROW(solver.solve(a), std::invalid_argument);
}

TEST(Assumptions, ManySequentialQueriesConsistent) {
  // Same instance queried under every single-literal assumption; results
  // must match fresh solves of the constrained formula.
  const net::Network n = gen::c17();
  const sat::Cnf f = sat::encode_circuit_sat(n);
  sat::Solver incremental(f);
  for (sat::Var v = 0; v < f.num_vars(); ++v) {
    for (const bool value : {false, true}) {
      const sat::Lit a[] = {sat::Lit(v, !value)};
      const auto inc = incremental.solve(a);
      sat::Cnf constrained = f;
      constrained.add_clause({sat::Lit(v, !value)});
      const auto fresh = sat::solve_cnf(constrained);
      ASSERT_EQ(inc, fresh.status) << "var " << v << " value " << value;
    }
  }
}

TEST(Assumptions, QueryStatsAreDeltasAndSumToCumulative) {
  const net::Network n = net::decompose(gen::comparator(4));
  sat::Solver solver(sat::encode_circuit_sat(n));
  sat::SolverStats summed;
  for (sat::Var v = 0; v < 6; ++v) {
    const sat::Lit a[] = {sat::pos(v)};
    solver.solve(a);
    const sat::SolverStats q = solver.query_stats();
    // The delta never exceeds the running total.
    EXPECT_LE(q.conflicts, solver.stats().conflicts);
    EXPECT_LE(q.propagations, solver.stats().propagations);
    summed += q;
  }
  // Per-query deltas partition the cumulative counters exactly.
  EXPECT_EQ(summed.decisions, solver.stats().decisions);
  EXPECT_EQ(summed.propagations, solver.stats().propagations);
  EXPECT_EQ(summed.conflicts, solver.stats().conflicts);
  EXPECT_EQ(summed.learnt_clauses, solver.stats().learnt_clauses);
}

TEST(Assumptions, ConflictCapIsPerCallNotCumulative) {
  // A capped solver must get the FULL cap on every call: with a cumulative
  // reading, the second query would abort instantly once the first spent
  // the budget.
  const net::Network n = net::decompose(gen::array_multiplier(3));
  sat::SolverConfig config;
  config.max_conflicts = 20;
  sat::Solver solver(sat::encode_circuit_sat(n), config);
  const net::NodeId po_src = n.fanins(n.outputs()[0])[0];
  for (int i = 0; i < 3; ++i) {
    const sat::Lit a[] = {sat::pos(static_cast<sat::Var>(po_src))};
    solver.solve(a);
    EXPECT_LE(solver.query_stats().conflicts, 20u) << "call " << i;
  }
}

TEST(Assumptions, EmptyAssumptionsBitIdenticalToOneShot) {
  // solve({}) on a fresh solver must match solve_cnf exactly — the
  // per-query bookkeeping may not perturb the one-shot path.
  const net::Network n = net::decompose(gen::ripple_carry_adder(4));
  const sat::Cnf f = sat::encode_circuit_sat(n);
  sat::Solver fresh(f);
  const auto status = fresh.solve();
  const sat::SolveResult one_shot = sat::solve_cnf(f);
  EXPECT_EQ(status, one_shot.status);
  EXPECT_EQ(fresh.stats(), one_shot.stats);
  EXPECT_EQ(fresh.query_stats(), one_shot.stats);
  EXPECT_EQ(fresh.stats().reused_implications, 0u);
  if (status == sat::SolveStatus::kSat) {
    EXPECT_EQ(fresh.model(), one_shot.model);
  }
}

// --------------------------------------------------------- shared miter

TEST(SharedMiter, CoversEntireCollapsedFaultList) {
  for (const net::Network& n :
       {gen::c17(), net::decompose(gen::simple_alu(2))}) {
    const SharedMiterCnf encoding(n);
    for (const StuckAtFault& f : all_faults(n))
      EXPECT_TRUE(encoding.covers(f)) << n.name() << " " << to_string(n, f);
    for (const StuckAtFault& f : collapsed_fault_list(n))
      EXPECT_TRUE(encoding.covers(f)) << n.name() << " " << to_string(n, f);
  }
}

TEST(SharedMiter, AgreesWithPerFaultEngineOnC17) {
  const net::Network n = gen::c17();
  SharedMiter miter(n);
  for (const StuckAtFault& f : collapsed_fault_list(n)) {
    Pattern inc_test, ref_test;
    const auto inc = miter.solve_fault(f, inc_test);
    const FaultOutcome ref = generate_test(n, f, {}, ref_test);
    if (ref.status == FaultStatus::kDetected) {
      ASSERT_EQ(inc, sat::SolveStatus::kSat) << to_string(n, f);
      EXPECT_TRUE(detects(n, f, inc_test)) << to_string(n, f);
    } else if (ref.status == FaultStatus::kUntestable) {
      ASSERT_EQ(inc, sat::SolveStatus::kUnsat) << to_string(n, f);
    }
  }
}

TEST(SharedMiter, BranchFaultsAgreeOnFanoutHeavyLogic) {
  // c17 plus the decomposed ALU have true fanout stems, so the collapsed
  // list keeps genuine branch faults; every one must classify like the
  // per-fault engine — the encoding serves the whole list, no fallback.
  for (const net::Network& n :
       {gen::c17(), net::decompose(gen::simple_alu(2))}) {
    SharedMiter miter(n);
    std::size_t branches = 0;
    for (const StuckAtFault& f : collapsed_fault_list(n)) {
      if (f.is_stem()) continue;
      ++branches;
      Pattern inc_test, ref_test;
      const auto inc = miter.solve_fault(f, inc_test);
      const FaultOutcome ref = generate_test(n, f, {}, ref_test);
      if (ref.status == FaultStatus::kDetected) {
        ASSERT_EQ(inc, sat::SolveStatus::kSat)
            << n.name() << " " << to_string(n, f);
        EXPECT_TRUE(detects(n, f, inc_test))
            << n.name() << " " << to_string(n, f);
      } else if (ref.status == FaultStatus::kUntestable) {
        ASSERT_EQ(inc, sat::SolveStatus::kUnsat)
            << n.name() << " " << to_string(n, f);
      }
    }
    EXPECT_GT(branches, 0u) << n.name();
  }
}

TEST(SharedMiter, RedundantFaultUnsat) {
  net::Network n;
  const auto a = n.add_input("a");
  const auto na = n.add_gate(net::GateType::kNot, {a});
  const auto g = n.add_gate(net::GateType::kOr, {a, na});
  const auto b = n.add_input("b");
  n.add_output(n.add_gate(net::GateType::kAnd, {g, b}), "o");
  SharedMiter miter(n);
  Pattern test;
  EXPECT_EQ(miter.solve_fault(g, true, test), sat::SolveStatus::kUnsat);
  EXPECT_EQ(miter.solve_fault(g, false, test), sat::SolveStatus::kSat);
}

TEST(SharedMiter, ConeRestrictionPinsOffConeInputs) {
  // Two disjoint output cones: a query rooted in one cone pins the other
  // cone's inputs to 0 (they cannot affect excitation or any output
  // diff), keeping the search cone-local. Answers must be unaffected.
  net::Network n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto g1 = n.add_gate(net::GateType::kAnd, {a, b});
  n.add_output(g1, "o1");
  const auto c = n.add_input("c");
  const auto d = n.add_input("d");
  const auto g2 = n.add_gate(net::GateType::kOr, {c, d});
  n.add_output(g2, "o2");

  const auto encoding = std::make_shared<const SharedMiterCnf>(n);
  // The AND cone's support is {a, b, g1, o1}: inputs c and d get pinned.
  const auto& pinned = encoding->pinned_inputs_of(g1);
  EXPECT_EQ(pinned.size(), 2u);
  EXPECT_NE(std::find(pinned.begin(), pinned.end(),
                      static_cast<sat::Var>(c)),
            pinned.end());
  EXPECT_NE(std::find(pinned.begin(), pinned.end(),
                      static_cast<sat::Var>(d)),
            pinned.end());
  // ... and the pin literals ride along in the assumptions.
  const auto assumptions =
      encoding->assumptions_for(StuckAtFault{g1, StuckAtFault::kStem, false});
  EXPECT_NE(std::find(assumptions.begin(), assumptions.end(),
                      sat::Lit(static_cast<sat::Var>(c), true)),
            assumptions.end());

  // Classification is untouched: every collapsed fault agrees with the
  // per-fault engine despite the restriction.
  SharedMiter miter(encoding);
  Pattern test;
  for (const StuckAtFault& f : collapsed_fault_list(n)) {
    Pattern ref_test;
    const FaultOutcome ref = generate_test(n, f, {}, ref_test);
    const sat::SolveStatus inc = miter.solve_fault(f, test);
    if (ref.status == FaultStatus::kDetected) {
      EXPECT_EQ(inc, sat::SolveStatus::kSat) << to_string(n, f);
      EXPECT_TRUE(detects(n, f, test)) << to_string(n, f);
    } else {
      EXPECT_EQ(inc, sat::SolveStatus::kUnsat) << to_string(n, f);
    }
  }
}

TEST(SharedMiter, InvalidSiteThrows) {
  const net::Network n = gen::c17();
  SharedMiter miter(n);
  Pattern test;
  EXPECT_THROW(miter.solve_fault(999, true, test), std::invalid_argument);
  // kOutput markers have no stem selects.
  EXPECT_THROW(miter.solve_fault(n.outputs()[0], true, test),
               std::invalid_argument);
}

TEST(SharedMiter, StatsAccumulateAcrossQueries) {
  const net::Network n = net::decompose(gen::comparator(3));
  SharedMiter miter(n);
  Pattern test;
  const auto faults = collapsed_fault_list(n);
  std::size_t queries = 0;
  for (const auto& f : faults) {
    miter.solve_fault(f, test);
    if (++queries == 6) break;
  }
  EXPECT_GT(miter.stats().propagations, 0u);
}

TEST(SharedMiter, LearntClausesAreReusedAcrossQueries) {
  // The whole point of the shared miter: implications driven by clauses
  // learnt on earlier faults. Over a full collapsed list on real logic the
  // reuse counter must move.
  const net::Network n = net::decompose(gen::comparator(4));
  SharedMiter miter(n);
  Pattern test;
  for (const StuckAtFault& f : collapsed_fault_list(n))
    miter.solve_fault(f, test);
  EXPECT_GT(miter.stats().reused_implications, 0u);
  EXPECT_GT(miter.stats().learnt_clauses, 0u);
}

TEST(SharedMiter, PrebuiltEncodingSeedsIdenticalSessions) {
  const net::Network n = gen::c17();
  const auto encoding = std::make_shared<const SharedMiterCnf>(n);
  SharedMiter direct(n);
  SharedMiter seeded(encoding);
  EXPECT_EQ(direct.num_vars(), seeded.num_vars());
  for (const StuckAtFault& f : collapsed_fault_list(n)) {
    Pattern td, ts;
    ASSERT_EQ(direct.solve_fault(f, td), seeded.solve_fault(f, ts))
        << to_string(n, f);
    EXPECT_EQ(td, ts) << to_string(n, f);
  }
  EXPECT_EQ(direct.stats(), seeded.stats());
}

TEST(RunIncremental, MatchesPerFaultAcrossFamilies) {
  for (const net::Network& n :
       {net::decompose(gen::ripple_carry_adder(3)),
        net::decompose(gen::simple_alu(2)), gen::fig4a_network()}) {
    const auto faults = collapsed_fault_list(n);
    const auto outcomes = run_atpg_incremental(n, faults);
    ASSERT_EQ(outcomes.size(), faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      Pattern ref_test;
      const FaultOutcome ref = generate_test(n, faults[i], {}, ref_test);
      if (ref.status == FaultStatus::kDetected) {
        ASSERT_EQ(outcomes[i].status, sat::SolveStatus::kSat)
            << n.name() << " " << to_string(n, faults[i]);
        EXPECT_TRUE(detects(n, faults[i], outcomes[i].test));
      } else if (ref.status == FaultStatus::kUntestable) {
        ASSERT_EQ(outcomes[i].status, sat::SolveStatus::kUnsat);
      }
    }
  }
}

class IncrementalRandomSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(IncrementalRandomSweep, AgreesOnRandomLogic) {
  gen::HuttonParams p;
  p.num_gates = 50;
  p.num_inputs = 8;
  p.num_outputs = 4;
  p.seed = GetParam();
  const net::Network n = net::decompose(gen::hutton_random(p));
  const auto faults = collapsed_fault_list(n);
  const auto outcomes = run_atpg_incremental(n, faults);
  for (std::size_t i = 0; i < faults.size(); i += 2) {
    Pattern ref_test;
    const FaultOutcome ref = generate_test(n, faults[i], {}, ref_test);
    const bool ref_testable = ref.status == FaultStatus::kDetected;
    const bool inc_testable =
        outcomes[i].status == sat::SolveStatus::kSat;
    // kUnreachable maps to UNSAT in the low-level shared miter (the
    // pipeline providers mask it before querying).
    if (ref.status == FaultStatus::kUnreachable) {
      EXPECT_EQ(outcomes[i].status, sat::SolveStatus::kUnsat);
    } else {
      EXPECT_EQ(inc_testable, ref_testable)
          << to_string(n, faults[i]) << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalRandomSweep,
                         ::testing::Range<std::uint64_t>(1, 7));

// ------------------------------------------- pipeline engine integration

/// "Was the fault found testable" irrespective of which mechanism found it
/// — detected by SAT, dropped by a simulated test, or dropped in the
/// random phase. Engines may legitimately differ on WHICH mechanism (their
/// test patterns differ, so drop order differs); they must agree on this.
bool is_detected_class(FaultStatus s) {
  return s == FaultStatus::kDetected || s == FaultStatus::kDroppedBySim ||
         s == FaultStatus::kDroppedRandom;
}

void expect_same_classification(const net::Network& n, const AtpgResult& a,
                                const AtpgResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const FaultOutcome& x = a.outcomes[i];
    const FaultOutcome& y = b.outcomes[i];
    ASSERT_EQ(x.fault, y.fault);
    EXPECT_EQ(is_detected_class(x.status), is_detected_class(y.status))
        << n.name() << " " << to_string(n, x.fault);
    EXPECT_EQ(x.status == FaultStatus::kUntestable,
              y.status == FaultStatus::kUntestable)
        << n.name() << " " << to_string(n, x.fault);
    EXPECT_EQ(x.status == FaultStatus::kUnreachable,
              y.status == FaultStatus::kUnreachable)
        << n.name() << " " << to_string(n, x.fault);
  }
  EXPECT_EQ(a.num_detected, b.num_detected);
  EXPECT_EQ(a.num_untestable, b.num_untestable);
  EXPECT_EQ(a.num_unreachable, b.num_unreachable);
}

TEST(IncrementalEngine, ClassifiesLikePerFaultOnSuiteMembers) {
  gen::SuiteOptions suite_opts;
  suite_opts.scale = 0.08;
  std::vector<net::Network> circuits = {gen::c17()};
  const auto iscas = gen::iscas85_like_suite(suite_opts);
  const auto mcnc = gen::mcnc_like_suite(suite_opts);
  circuits.push_back(iscas.front());
  circuits.push_back(mcnc.front());
  for (const net::Network& n : circuits) {
    AtpgOptions per_fault;
    AtpgOptions incremental;
    incremental.engine = AtpgEngine::kIncremental;
    const AtpgResult ref = run_atpg(n, per_fault);
    const AtpgResult inc = run_atpg(n, incremental);
    SCOPED_TRACE(n.name());
    expect_same_classification(n, ref, inc);
    // And at N threads, against the same serial reference.
    AtpgOptions threaded = incremental;
    threaded.threads = 3;
    expect_same_classification(n, ref, run_atpg(n, threaded));
  }
}

TEST(IncrementalEngine, OutcomesCarryIncrementalAttribution) {
  const net::Network n = gen::c17();
  AtpgOptions opts;
  opts.engine = AtpgEngine::kIncremental;
  opts.random_blocks = 0;
  opts.drop_by_simulation = false;
  const AtpgResult r = run_atpg(n, opts);
  for (const FaultOutcome& o : r.outcomes) {
    if (o.status == FaultStatus::kDetected ||
        o.status == FaultStatus::kUntestable) {
      EXPECT_EQ(o.engine, SolveEngine::kIncremental) << to_string(n, o.fault);
      EXPECT_GE(o.attempts, 1u);
    }
    if (o.status == FaultStatus::kUnreachable) {
      EXPECT_EQ(o.engine, SolveEngine::kNone);
      EXPECT_EQ(o.attempts, 0u);
    }
  }
}

TEST(IncrementalEngine, UnreachableFaultsClassifiedWithoutQueries) {
  net::Network n;
  const auto a = n.add_input("a");
  const auto dangle = n.add_gate(net::GateType::kNot, {a});
  n.add_gate(net::GateType::kNot, {dangle});  // consumes, still dangling
  n.add_output(n.add_gate(net::GateType::kBuf, {a}), "o");
  AtpgOptions opts;
  opts.engine = AtpgEngine::kIncremental;
  const AtpgResult inc = run_atpg(n, opts);
  const AtpgResult ref = run_atpg(n);
  expect_same_classification(n, ref, inc);
  EXPECT_GT(inc.num_unreachable, 0u);
}

void expect_byte_identical(const AtpgResult& a, const AtpgResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const FaultOutcome& s = a.outcomes[i];
    const FaultOutcome& p = b.outcomes[i];
    EXPECT_EQ(s.fault, p.fault) << "fault " << i;
    EXPECT_EQ(s.status, p.status) << "fault " << i;
    EXPECT_EQ(s.engine, p.engine) << "fault " << i;
    EXPECT_EQ(s.attempts, p.attempts) << "fault " << i;
    EXPECT_EQ(s.test_index, p.test_index) << "fault " << i;
    EXPECT_EQ(s.sat_vars, p.sat_vars) << "fault " << i;
    EXPECT_EQ(s.sat_clauses, p.sat_clauses) << "fault " << i;
    EXPECT_EQ(s.solver_stats, p.solver_stats) << "fault " << i;
  }
  ASSERT_EQ(a.tests.size(), b.tests.size());
  for (std::size_t t = 0; t < a.tests.size(); ++t)
    EXPECT_EQ(a.tests[t], b.tests[t]) << "test " << t;
  EXPECT_EQ(a.num_detected, b.num_detected);
  EXPECT_EQ(a.num_untestable, b.num_untestable);
  EXPECT_EQ(a.num_aborted, b.num_aborted);
  EXPECT_EQ(a.num_unreachable, b.num_unreachable);
  EXPECT_EQ(a.num_escalated, b.num_escalated);
  EXPECT_EQ(a.interrupted, b.interrupted);
}

TEST(IncrementalEngine, SerialVsParallelByteIdenticalOnC17) {
  // Every incremental query runs in one session on the pipeline thread,
  // so at any thread count the session sees the serial query history and
  // results (stats included) match byte for byte.
  const net::Network n = gen::c17();
  AtpgOptions base;
  base.engine = AtpgEngine::kIncremental;
  const AtpgResult serial = run_atpg(n, base);
  for (std::size_t threads : {1u, 2u, 4u}) {
    AtpgOptions opts = base;
    opts.threads = threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const AtpgResult r = run_atpg(n, opts);
    expect_byte_identical(serial, r);
    // The pool runs none of the session's work: nothing is dispatched.
    EXPECT_EQ(r.parallel.dispatched, 0u);
    EXPECT_EQ(r.parallel.workers.size(), threads > 1 ? threads : 0u);
  }
}

TEST(IncrementalEngine, SerialVsParallelByteIdenticalOnSuiteMember) {
  gen::SuiteOptions suite_opts;
  suite_opts.scale = 0.06;
  const net::Network n = gen::iscas85_like_suite(suite_opts).front();
  AtpgOptions base;
  base.engine = AtpgEngine::kIncremental;
  const AtpgResult serial = run_atpg(n, base);
  for (std::size_t threads : {1u, 2u, 4u}) {
    AtpgOptions opts = base;
    opts.threads = threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_byte_identical(serial, run_atpg(n, opts));
  }
}

TEST(IncrementalEngine, PrebuiltMiterGivesIdenticalRun) {
  // The service path: the registry's shared encoding must change nothing.
  const net::Network n = gen::c17();
  AtpgOptions fresh;
  fresh.engine = AtpgEngine::kIncremental;
  AtpgOptions pinned = fresh;
  pinned.prebuilt_miter = std::make_shared<const SharedMiterCnf>(n);
  expect_byte_identical(run_atpg(n, fresh), run_atpg(n, pinned));
}

TEST(IncrementalEngine, PrebuiltMiterFromWrongNetworkThrows) {
  AtpgOptions opts;
  opts.engine = AtpgEngine::kIncremental;
  opts.prebuilt_miter = std::make_shared<const SharedMiterCnf>(gen::c17());
  const net::Network other = net::decompose(gen::comparator(3));
  EXPECT_THROW(run_atpg(other, opts), std::invalid_argument);
}

TEST(IncrementalEngine, EscalationLadderRecoversCappedAborts) {
  // A tiny conflict cap forces in-miter retries and then the fresh-CNF /
  // PODEM ladder; classification must still match the per-fault engine's.
  const net::Network n = net::decompose(gen::array_multiplier(4));
  AtpgOptions per_fault;
  per_fault.random_blocks = 0;
  per_fault.solver.max_conflicts = 1;
  AtpgOptions incremental = per_fault;
  incremental.engine = AtpgEngine::kIncremental;
  const AtpgResult ref = run_atpg(n, per_fault);
  const AtpgResult inc = run_atpg(n, incremental);
  expect_same_classification(n, ref, inc);
  EXPECT_EQ(inc.num_aborted, 0u);  // the ladder cleaned up
}

TEST(IncrementalEngine, ReuseCountersFlowIntoMetrics) {
  const net::Network n = net::decompose(gen::comparator(4));
  obs::MetricsRegistry metrics;
  AtpgOptions opts;
  opts.engine = AtpgEngine::kIncremental;
  opts.random_blocks = 0;
  opts.drop_by_simulation = false;
  opts.metrics = &metrics;
  run_atpg(n, opts);
  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_GT(snap.counters.at("incremental.queries"), 0u);
  EXPECT_GT(snap.counters.at("incremental.reused_implications"), 0u);
  EXPECT_GT(snap.counters.at("sat.reused_implications"), 0u);
  EXPECT_GT(snap.gauges.at("incremental.miter_vars"), 0.0);
  EXPECT_GT(snap.gauges.at("incremental.miter_clauses"), 0.0);
  EXPECT_EQ(snap.counters.at("incremental.builds"), 1u);
}

// tsan: many threads hammer private sessions cloned from ONE shared
// encoding; any hidden shared mutable state in the encoding or solver
// construction shows up as a race. Results must also agree across clones.
TEST(IncrementalEngine, ConcurrentMiterClonesAgree) {
  const net::Network n = net::decompose(gen::simple_alu(2));
  const auto encoding = std::make_shared<const SharedMiterCnf>(n);
  const auto faults = collapsed_fault_list(n);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<sat::SolveStatus>> status(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SharedMiter miter(encoding);
      Pattern test;
      for (const StuckAtFault& f : faults)
        status[t].push_back(miter.solve_fault(f, test));
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 1; t < kThreads; ++t)
    EXPECT_EQ(status[t], status[0]) << "clone " << t;
}

}  // namespace
}  // namespace cwatpg::fault
