// Budgets, cooperative cancellation and the abort-escalation ladder:
// Budget unit behaviour, Solver stop_reason reporting, and the run-level
// guarantees (partial-but-consistent results under a deadline, ladder
// recovery of aborted faults, agreement at any thread count).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "fault/tegus.hpp"
#include "gen/structured.hpp"
#include "gen/trees.hpp"
#include "netlist/decompose.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "util/budget.hpp"

namespace cwatpg {
namespace {

// ------------------------------------------------------------- Budget --

TEST(Budget, DefaultsAreUnlimited) {
  Budget b;
  EXPECT_FALSE(b.has_deadline());
  EXPECT_FALSE(b.past_deadline());
  EXPECT_FALSE(b.cancelled());
  EXPECT_TRUE(std::isinf(b.remaining_seconds()));
  EXPECT_EQ(b.poll(), StopReason::kNone);
  EXPECT_FALSE(b.exhausted());
}

TEST(Budget, DeadlineArmsFiresAndClears) {
  Budget b;
  b.set_deadline_after(3600.0);
  EXPECT_TRUE(b.has_deadline());
  EXPECT_GT(b.remaining_seconds(), 3000.0);
  EXPECT_EQ(b.poll(), StopReason::kNone);

  b.set_deadline(Budget::Clock::now());  // already due
  EXPECT_TRUE(b.past_deadline());
  EXPECT_LE(b.remaining_seconds(), 0.0);
  EXPECT_EQ(b.poll(), StopReason::kDeadline);
  EXPECT_TRUE(b.exhausted());

  b.clear_deadline();
  EXPECT_FALSE(b.has_deadline());
  EXPECT_EQ(b.poll(), StopReason::kNone);
}

TEST(Budget, CancelIsStickyAndOutranksDeadline) {
  Budget b;
  b.set_deadline(Budget::Clock::now());  // deadline also firing
  b.cancel();
  EXPECT_TRUE(b.cancelled());
  EXPECT_EQ(b.poll(), StopReason::kCancelled);  // cancel reported first
  b.clear_deadline();
  EXPECT_EQ(b.poll(), StopReason::kCancelled);  // sticky
}

TEST(Budget, CancelIsIdempotent) {
  // Cancellation is fired from cancel requests, destructors and watchdog
  // paths alike — a second (or tenth) call must be a harmless no-op, not
  // UB or a state change.
  Budget b;
  b.cancel();
  b.cancel();
  EXPECT_TRUE(b.cancelled());
  EXPECT_EQ(b.poll(), StopReason::kCancelled);
  b.cancel();  // and again after polling
  EXPECT_EQ(b.poll(), StopReason::kCancelled);
}

TEST(Budget, SaturatingMul) {
  EXPECT_EQ(saturating_mul(6, 7), 42u);
  EXPECT_EQ(saturating_mul(0, Budget::kUnlimited), 0u);
  EXPECT_EQ(saturating_mul(Budget::kUnlimited, 0), 0u);
  EXPECT_EQ(saturating_mul(Budget::kUnlimited, 2), Budget::kUnlimited);
  EXPECT_EQ(saturating_mul(std::uint64_t(1) << 40, std::uint64_t(1) << 40),
            Budget::kUnlimited);
  EXPECT_EQ(saturating_mul(Budget::kUnlimited, 1), Budget::kUnlimited);
}

TEST(Budget, StopReasonNames) {
  EXPECT_STREQ(to_string(StopReason::kNone), "none");
  EXPECT_STREQ(to_string(StopReason::kConflictLimit), "conflict-limit");
  EXPECT_STREQ(to_string(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(to_string(StopReason::kCancelled), "cancelled");
}

// ------------------------------------------------------------- Solver --

// Pigeonhole formula PHP(p, h): p pigeons into h holes, UNSAT for p > h.
// Small but resolution-hard — guaranteed to generate conflicts, which is
// what the cap tests need.
sat::Cnf pigeonhole(int pigeons, int holes) {
  sat::Cnf cnf(static_cast<sat::Var>(pigeons * holes));
  auto var = [holes](int p, int h) {
    return static_cast<sat::Var>(p * holes + h);
  };
  for (int p = 0; p < pigeons; ++p) {
    sat::Clause some_hole;
    for (int h = 0; h < holes; ++h) some_hole.push_back(sat::pos(var(p, h)));
    cnf.add_clause(some_hole);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        cnf.add_clause({sat::neg(var(p1, h)), sat::neg(var(p2, h))});
  return cnf;
}

TEST(SolverBudget, ConflictCapReturnsUnknownAndSaysWhy) {
  sat::SolverConfig config;
  config.max_conflicts = 1;
  sat::Solver solver(pigeonhole(5, 4), config);
  EXPECT_EQ(solver.solve(), sat::SolveStatus::kUnknown);
  EXPECT_EQ(solver.stats().stop_reason, StopReason::kConflictLimit);
  EXPECT_GE(solver.stats().conflicts, 1u);
}

TEST(SolverBudget, CancelledBudgetStopsBeforeSearching) {
  Budget budget;
  budget.cancel();
  sat::SolverConfig config;
  config.budget = &budget;
  sat::Solver solver(pigeonhole(5, 4), config);
  EXPECT_EQ(solver.solve(), sat::SolveStatus::kUnknown);
  EXPECT_EQ(solver.stats().stop_reason, StopReason::kCancelled);
  EXPECT_EQ(solver.stats().conflicts, 0u);
}

TEST(SolverBudget, PastDeadlineStopsPromptly) {
  Budget budget;
  budget.set_deadline(Budget::Clock::now());
  sat::SolverConfig config;
  config.budget = &budget;
  config.budget_poll_interval = 1;
  sat::Solver solver(pigeonhole(5, 4), config);
  EXPECT_EQ(solver.solve(), sat::SolveStatus::kUnknown);
  EXPECT_EQ(solver.stats().stop_reason, StopReason::kDeadline);
}

TEST(SolverBudget, GenerousBudgetIsInvisibleToTheSearch) {
  // Polling must not influence the search: a budget that never fires gives
  // bit-identical stats to no budget at all, and stop_reason stays kNone.
  sat::Solver plain(pigeonhole(5, 4));
  EXPECT_EQ(plain.solve(), sat::SolveStatus::kUnsat);
  EXPECT_EQ(plain.stats().stop_reason, StopReason::kNone);

  Budget budget;
  budget.set_deadline_after(3600.0);
  sat::SolverConfig config;
  config.budget = &budget;
  config.budget_poll_interval = 1;  // poll as often as possible
  sat::Solver budgeted(pigeonhole(5, 4), config);
  EXPECT_EQ(budgeted.solve(), sat::SolveStatus::kUnsat);
  EXPECT_EQ(budgeted.stats().stop_reason, StopReason::kNone);
  EXPECT_EQ(budgeted.stats().conflicts, plain.stats().conflicts);
  EXPECT_EQ(budgeted.stats().decisions, plain.stats().decisions);
  EXPECT_EQ(budgeted.stats().propagations, plain.stats().propagations);
}

// ------------------------------------------------- escalation ladder --

// mult4 with the random phase off and a 1-conflict cap aborts over half the
// fault list — the fixture every ladder test reuses.
fault::AtpgOptions tiny_cap_options() {
  fault::AtpgOptions opts;
  opts.random_blocks = 0;
  opts.solver.max_conflicts = 1;
  return opts;
}

void expect_counters_match_outcomes(const fault::AtpgResult& r) {
  std::size_t detected = 0, untestable = 0, aborted = 0, unreachable = 0,
              undetermined = 0;
  for (const fault::FaultOutcome& o : r.outcomes) {
    switch (o.status) {
      case fault::FaultStatus::kDetected:
      case fault::FaultStatus::kDroppedBySim:
      case fault::FaultStatus::kDroppedRandom:
        ++detected;
        break;
      case fault::FaultStatus::kUntestable: ++untestable; break;
      case fault::FaultStatus::kAborted: ++aborted; break;
      case fault::FaultStatus::kUnreachable: ++unreachable; break;
      case fault::FaultStatus::kUndetermined: ++undetermined; break;
    }
    if (o.has_test()) {
      ASSERT_LT(o.test(), r.tests.size());
    }
    if (o.status == fault::FaultStatus::kUndetermined) {
      EXPECT_EQ(o.engine, fault::SolveEngine::kNone);
      EXPECT_EQ(o.attempts, 0u);
    }
  }
  EXPECT_EQ(detected, r.num_detected);
  EXPECT_EQ(untestable, r.num_untestable);
  EXPECT_EQ(aborted, r.num_aborted);
  EXPECT_EQ(unreachable, r.num_unreachable);
  EXPECT_EQ(undetermined, r.num_undetermined);
}

TEST(EscalationLadder, RecoversFaultsTheFirstPassAborted) {
  const net::Network n = net::decompose(gen::array_multiplier(4));

  fault::AtpgOptions no_ladder = tiny_cap_options();
  no_ladder.escalation_rounds = 0;
  no_ladder.podem_fallback = false;
  const fault::AtpgResult before = fault::run_atpg(n, no_ladder);
  ASSERT_GT(before.num_aborted, 0u);  // the cap really bites
  EXPECT_EQ(before.num_escalated, 0u);

  const fault::AtpgResult after = fault::run_atpg(n, tiny_cap_options());
  EXPECT_LT(after.num_aborted, before.num_aborted);
  EXPECT_GE(after.num_escalated, 1u);
  EXPECT_GT(after.fault_coverage(), before.fault_coverage());
  expect_counters_match_outcomes(after);

  // The ladder attributes its work: re-attacked faults carry the engine
  // that finally classified them and an attempt count > 1.
  bool saw_retry = false;
  for (const fault::FaultOutcome& o : after.outcomes) {
    if (o.engine == fault::SolveEngine::kSatRetry ||
        o.engine == fault::SolveEngine::kPodem) {
      saw_retry = true;
      EXPECT_GT(o.attempts, 1u);
    }
  }
  EXPECT_TRUE(saw_retry);
}

TEST(EscalationLadder, SatRoundsAloneConvertAborts) {
  const net::Network n = net::decompose(gen::array_multiplier(4));
  fault::AtpgOptions opts = tiny_cap_options();
  opts.podem_fallback = false;  // ladder = CDCL retries only
  const fault::AtpgResult r = fault::run_atpg(n, opts);
  EXPECT_GE(r.num_escalated, 1u);
  for (const fault::FaultOutcome& o : r.outcomes)
    EXPECT_NE(o.engine, fault::SolveEngine::kPodem);
  expect_counters_match_outcomes(r);
}

TEST(EscalationLadder, PodemFallbackRescuesWhatCdclAbandons) {
  const net::Network n = net::decompose(gen::array_multiplier(4));
  fault::AtpgOptions opts = tiny_cap_options();
  opts.escalation_rounds = 0;  // PODEM is the only rung
  const fault::AtpgResult r = fault::run_atpg(n, opts);
  std::size_t podem_wins = 0;
  for (const fault::FaultOutcome& o : r.outcomes) {
    if (o.engine != fault::SolveEngine::kPodem) continue;
    ++podem_wins;
    if (o.status == fault::FaultStatus::kDetected) {
      ASSERT_TRUE(o.has_test());
      EXPECT_TRUE(detects(n, o.fault, r.tests[o.test()]));
    }
  }
  EXPECT_GE(podem_wins, 1u);
  expect_counters_match_outcomes(r);
}

TEST(EscalationLadder, DeterministicAcrossRuns) {
  const net::Network n = net::decompose(gen::array_multiplier(4));
  const fault::AtpgResult a = fault::run_atpg(n, tiny_cap_options());
  const fault::AtpgResult b = fault::run_atpg(n, tiny_cap_options());
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].status, b.outcomes[i].status) << "fault " << i;
    EXPECT_EQ(a.outcomes[i].engine, b.outcomes[i].engine) << "fault " << i;
    EXPECT_EQ(a.outcomes[i].attempts, b.outcomes[i].attempts) << "fault " << i;
    EXPECT_EQ(a.outcomes[i].test_index, b.outcomes[i].test_index)
        << "fault " << i;
  }
  ASSERT_EQ(a.tests.size(), b.tests.size());
  for (std::size_t t = 0; t < a.tests.size(); ++t)
    EXPECT_EQ(a.tests[t], b.tests[t]) << "test " << t;
  EXPECT_EQ(a.num_escalated, b.num_escalated);
}

// ------------------------------------------------- run-level deadline --

TEST(RunBudget, DeadlineYieldsPartialConsistentResult) {
  // The acceptance scenario: a hard instance set under a 100 ms run
  // deadline must return promptly with interrupted=true — no hang, no
  // throw — and the partial result must still be internally consistent.
  const net::Network n = net::decompose(gen::array_multiplier(8));
  Budget budget;
  budget.set_deadline_after(0.05);
  fault::AtpgOptions opts;
  opts.budget = &budget;
  opts.random_blocks = 0;  // all 1536 faults go through SAT: ~8x the deadline

  const auto t0 = std::chrono::steady_clock::now();
  const fault::AtpgResult r = fault::run_atpg(n, opts);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  EXPECT_TRUE(r.interrupted);
  EXPECT_GT(r.num_undetermined, 0u);
  EXPECT_LT(elapsed, 10.0);  // promptly, not "eventually"
  expect_counters_match_outcomes(r);
}

TEST(RunBudget, AlreadyExpiredDeadlineStopsBeforeTheFirstSolve) {
  // A deadline that has passed before the run starts (the service arms
  // deadlines at admission, so queue wait can consume all of one) must
  // stop the engine at its very first budget poll: zero faults processed,
  // every outcome undetermined, and the stop attributed to the deadline —
  // not to a conflict cap, and not a hang.
  const net::Network n = net::decompose(gen::comparator(4));
  Budget budget;
  budget.set_deadline(Budget::Clock::now());
  ASSERT_TRUE(budget.past_deadline());
  fault::AtpgOptions opts;
  opts.budget = &budget;
  opts.random_blocks = 0;

  const fault::AtpgResult r = fault::run_atpg(n, opts);
  EXPECT_TRUE(r.interrupted);
  EXPECT_EQ(r.num_undetermined, r.outcomes.size());
  EXPECT_EQ(r.num_detected, 0u);
  EXPECT_TRUE(r.tests.empty());
  EXPECT_EQ(budget.poll(), StopReason::kDeadline);
  expect_counters_match_outcomes(r);
}

TEST(RunBudget, CancellationFromAnotherThreadStopsTheRun) {
  const net::Network n = net::decompose(gen::array_multiplier(8));
  Budget budget;  // no deadline: cancellation is the only exit
  fault::AtpgOptions opts;
  opts.budget = &budget;

  std::thread canceller([&budget] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    budget.cancel();
  });
  const auto t0 = std::chrono::steady_clock::now();
  const fault::AtpgResult r = fault::run_atpg(n, opts);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  canceller.join();

  EXPECT_TRUE(r.interrupted);
  EXPECT_LT(elapsed, 10.0);
  expect_counters_match_outcomes(r);
}

TEST(RunBudget, GenerousBudgetLeavesSerialAndParallelIdentical) {
  // A budget that never fires must be invisible: parallel under the budget
  // == serial without one, bit for bit.
  const net::Network n = gen::c17();
  const fault::AtpgResult plain = fault::run_atpg(n);

  Budget budget;
  budget.set_deadline_after(3600.0);
  fault::AtpgOptions opts;
  opts.budget = &budget;
  opts.threads = 2;
  const fault::AtpgResult budgeted = fault::run_atpg(n, opts);

  ASSERT_EQ(plain.outcomes.size(), budgeted.outcomes.size());
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    EXPECT_EQ(plain.outcomes[i].status, budgeted.outcomes[i].status);
    EXPECT_EQ(plain.outcomes[i].test_index, budgeted.outcomes[i].test_index);
    EXPECT_EQ(plain.outcomes[i].engine, budgeted.outcomes[i].engine);
    EXPECT_EQ(plain.outcomes[i].attempts, budgeted.outcomes[i].attempts);
  }
  ASSERT_EQ(plain.tests.size(), budgeted.tests.size());
  for (std::size_t t = 0; t < plain.tests.size(); ++t)
    EXPECT_EQ(plain.tests[t], budgeted.tests[t]);
  EXPECT_FALSE(budgeted.interrupted);
  EXPECT_EQ(budgeted.num_undetermined, 0u);
}

TEST(RunBudget, ParallelTightDeadlineCommitsAConsistentPrefix) {
  const net::Network n = net::decompose(gen::array_multiplier(8));
  Budget budget;
  budget.set_deadline_after(0.03);
  fault::AtpgOptions opts;
  opts.budget = &budget;
  opts.random_blocks = 0;  // all faults through SAT: far past the deadline
  opts.threads = 4;

  const auto t0 = std::chrono::steady_clock::now();
  const fault::AtpgResult r = fault::run_atpg(n, opts);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  EXPECT_TRUE(r.interrupted);
  EXPECT_GT(r.num_undetermined, 0u);
  EXPECT_LT(elapsed, 10.0);
  expect_counters_match_outcomes(r);
  // Spot-check the committed prefix: attributed tests genuinely detect.
  std::size_t checked = 0;
  for (const fault::FaultOutcome& o : r.outcomes) {
    if (o.status != fault::FaultStatus::kDetected || checked >= 25) continue;
    ++checked;
    EXPECT_TRUE(detects(n, o.fault, r.tests[o.test()]));
  }
}

}  // namespace
}  // namespace cwatpg
