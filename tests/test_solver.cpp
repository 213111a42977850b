#include <gtest/gtest.h>

#include "gen/structured.hpp"
#include "gen/trees.hpp"
#include "netlist/decompose.hpp"
#include "sat/encode.hpp"
#include "sat/solver.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace cwatpg::sat {
namespace {

/// Brute-force reference: tries all 2^n assignments (n <= 24).
bool brute_force_sat(const Cnf& f) {
  const Var n = f.num_vars();
  EXPECT_LE(n, 24u);
  std::vector<bool> assignment(n);
  for (std::uint64_t m = 0; m < (1ULL << n); ++m) {
    for (Var v = 0; v < n; ++v) assignment[v] = (m >> v) & 1;
    if (f.eval(assignment)) return true;
  }
  return false;
}

/// Random 3-SAT-ish formula.
Cnf random_cnf(Var vars, std::size_t clauses, std::uint64_t seed) {
  cwatpg::Rng rng(seed);
  Cnf f(vars);
  for (std::size_t c = 0; c < clauses; ++c) {
    Clause cl;
    const auto len = static_cast<std::size_t>(rng.range(1, 3));
    for (std::size_t i = 0; i < len; ++i)
      cl.push_back(Lit(static_cast<Var>(rng.below(vars)), rng.chance(0.5)));
    std::sort(cl.begin(), cl.end());
    cl.erase(std::unique(cl.begin(), cl.end()), cl.end());
    f.add_clause(cl);
  }
  return f;
}

/// PHP(pigeons, holes): unsatisfiable when pigeons > holes, with a search
/// that learns clauses.
Cnf pigeonhole(int pigeons, int holes) {
  Cnf f(static_cast<Var>(pigeons * holes));
  auto var = [&](int p, int h) { return static_cast<Var>(p * holes + h); };
  for (int p = 0; p < pigeons; ++p) {
    Clause c;
    for (int h = 0; h < holes; ++h) c.push_back(pos(var(p, h)));
    f.add_clause(c);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        f.add_clause({neg(var(p1, h)), neg(var(p2, h))});
  return f;
}

TEST(Solver, TrivialSat) {
  Cnf f(1);
  f.add_clause({pos(0)});
  const auto r = solve_cnf(f);
  EXPECT_EQ(r.status, SolveStatus::kSat);
  EXPECT_TRUE(r.model[0]);
}

TEST(Solver, TrivialUnsat) {
  Cnf f(1);
  f.add_clause({pos(0)});
  f.add_clause({neg(0)});
  EXPECT_EQ(solve_cnf(f).status, SolveStatus::kUnsat);
}

TEST(Solver, EmptyFormulaIsSat) {
  Cnf f(3);
  EXPECT_EQ(solve_cnf(f).status, SolveStatus::kSat);
}

TEST(Solver, UnitPropagationChain) {
  // x0 and (~x0|x1)...(~x8|x9) forces all true.
  Cnf f(10);
  f.add_clause({pos(0)});
  for (Var v = 0; v + 1 < 10; ++v) f.add_clause({neg(v), pos(v + 1)});
  const auto r = solve_cnf(f);
  EXPECT_EQ(r.status, SolveStatus::kSat);
  for (Var v = 0; v < 10; ++v) EXPECT_TRUE(r.model[v]);
  EXPECT_EQ(r.stats.decisions, 0u);
}

TEST(Solver, PigeonHole3Into2IsUnsat) {
  EXPECT_EQ(solve_cnf(pigeonhole(3, 2)).status, SolveStatus::kUnsat);
}

TEST(Solver, ModelSatisfiesFormula) {
  const Cnf f = random_cnf(15, 40, 7);
  const auto r = solve_cnf(f);
  if (r.status == SolveStatus::kSat) {
    EXPECT_TRUE(f.eval(r.model));
  }
}

TEST(Solver, ConflictLimitReturnsUnknown) {
  // A hard-ish pigeonhole with an absurdly low conflict budget.
  const Cnf f = pigeonhole(5, 4);
  SolverConfig cfg;
  cfg.max_conflicts = 2;
  EXPECT_EQ(solve_cnf(f, cfg).status, SolveStatus::kUnknown);
  // And with a real budget it is UNSAT.
  EXPECT_EQ(solve_cnf(f).status, SolveStatus::kUnsat);
}

TEST(Solver, LubySequenceIsCorrectAndTotal) {
  // Regression: the original subtractive descent underflowed whenever the
  // index landed on a subsequence boundary (first at i == 3), turning the
  // restart computation into an infinite loop mid-solve. Pin the sequence
  // and, implicitly, termination.
  const std::uint64_t expected[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1,
                                    1, 2, 4, 8, 1, 1, 2, 1, 1, 2, 4,
                                    1, 1, 2, 1, 1, 2, 4, 8, 16};
  for (std::size_t i = 0; i < std::size(expected); ++i)
    EXPECT_EQ(Solver::luby(i), expected[i]) << "at index " << i;
  // Self-similarity: Luby(2^k - 2) == 2^(k-1) (last element of each
  // complete subsequence), Luby(2^k - 1) == 1 (start of the next).
  for (std::uint64_t k = 1; k < 30; ++k) {
    EXPECT_EQ(Solver::luby((1ULL << k) - 2), 1ULL << (k - 1));
    EXPECT_EQ(Solver::luby((1ULL << k) - 1), 1u);
  }
}

TEST(Solver, AgreesWithBruteForceOnRandomFormulas) {
  int sat_count = 0, unsat_count = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    // Vary density so the sweep covers both SAT and UNSAT regions.
    const Cnf f = random_cnf(9, 14 + seed % 14, seed);
    const bool expected = brute_force_sat(f);
    const auto r = solve_cnf(f);
    ASSERT_NE(r.status, SolveStatus::kUnknown);
    EXPECT_EQ(r.status == SolveStatus::kSat, expected) << "seed " << seed;
    if (expected) {
      ++sat_count;
      EXPECT_TRUE(f.eval(r.model));
    } else {
      ++unsat_count;
    }
  }
  // The mix must actually exercise both outcomes.
  EXPECT_GT(sat_count, 5);
  EXPECT_GT(unsat_count, 5);
}

TEST(Solver, CircuitSatOnTautologyCone) {
  // OR(a, ~a) is always 1: CIRCUIT-SAT trivially satisfiable.
  net::Network n;
  const auto a = n.add_input("a");
  const auto na = n.add_gate(net::GateType::kNot, {a});
  n.add_output(n.add_gate(net::GateType::kOr, {a, na}), "o");
  const auto r = solve_cnf(encode_circuit_sat(n));
  EXPECT_EQ(r.status, SolveStatus::kSat);
}

TEST(Solver, CircuitSatOnContradictionCone) {
  // AND(a, ~a) is always 0: CIRCUIT-SAT unsatisfiable.
  net::Network n;
  const auto a = n.add_input("a");
  const auto na = n.add_gate(net::GateType::kNot, {a});
  n.add_output(n.add_gate(net::GateType::kAnd, {a, na}), "o");
  EXPECT_EQ(solve_cnf(encode_circuit_sat(n)).status, SolveStatus::kUnsat);
}

TEST(Solver, ModelDecodesToRealTestVector) {
  // CIRCUIT-SAT model on c17 must actually set an output to 1.
  const net::Network n = gen::c17();
  const auto r = solve_cnf(encode_circuit_sat(n));
  ASSERT_EQ(r.status, SolveStatus::kSat);
  std::vector<bool> pattern;
  for (net::NodeId pi : n.inputs()) pattern.push_back(r.model[pi]);
  const auto values = n.eval(pattern);
  bool any = false;
  for (net::NodeId po : n.outputs()) any = any || values[po];
  EXPECT_TRUE(any);
}

TEST(Solver, LargeCircuitInstanceFast) {
  const net::Network n = net::decompose(gen::simple_alu(16));
  const auto r = solve_cnf(encode_circuit_sat(n));
  EXPECT_EQ(r.status, SolveStatus::kSat);
  EXPECT_LT(r.stats.conflicts, 2000u);
}

TEST(Solver, StatsPopulated) {
  const Cnf f = random_cnf(12, 40, 3);
  Solver s(f);
  s.solve();
  EXPECT_GT(s.stats().propagations, 0u);
}

TEST(Solver, RepeatSolveConsistent) {
  const Cnf f = random_cnf(10, 30, 11);
  Solver s(f);
  const auto first = s.solve();
  const auto second = s.solve();
  EXPECT_EQ(first, second);
}

/// Satisfiable by the all-true assignment alone, forced by units.
Cnf all_true(Var vars) {
  Cnf f(vars);
  for (Var v = 0; v < vars; ++v) f.add_clause({pos(v)});
  return f;
}

/// Loads `f` into `solver` through reset() + add_clause(), solves, and
/// expects exactly what a fresh Solver built from `f` returns.
void expect_reload_matches_fresh(Solver& solver, const Cnf& f,
                                 SolverConfig config = {}) {
  Solver fresh(f, config);
  const SolveStatus expected = fresh.solve();
  solver.reset(f.num_vars(), config);
  for (const Clause& c : f.clauses()) solver.add_clause(c);
  EXPECT_EQ(solver.solve(), expected);
  EXPECT_EQ(solver.model(), fresh.model());
  EXPECT_EQ(solver.stats(), fresh.stats());
}

TEST(Solver, ReloadedSolverMatchesAFreshOneOnEveryInstance) {
  Cnf root_conflict(3);
  root_conflict.add_clause({pos(0), pos(1)});
  root_conflict.add_clause({pos(2)});
  root_conflict.add_clause({neg(2), neg(0)});
  root_conflict.add_clause({neg(1)});
  SolverConfig capped;
  capped.max_conflicts = 3;

  Solver solver;
  // Instances grow and shrink, so the kept watch lists and per-variable
  // arrays are reused both above and below their last size. An all-true
  // model comes before each instance that leaves the model unset.
  for (std::uint64_t seed = 0; seed < 12; ++seed)
    expect_reload_matches_fresh(
        solver, random_cnf(static_cast<Var>(4 + (seed * 7) % 19),
                           static_cast<std::size_t>(20 + seed * 9), seed));
  expect_reload_matches_fresh(solver, all_true(40));
  expect_reload_matches_fresh(solver, pigeonhole(6, 5));
  expect_reload_matches_fresh(solver, all_true(40));
  expect_reload_matches_fresh(solver, root_conflict);
  expect_reload_matches_fresh(solver, random_cnf(16, 60, 101));
  expect_reload_matches_fresh(solver, all_true(40));
  expect_reload_matches_fresh(solver, pigeonhole(6, 5), capped);
  EXPECT_EQ(solver.stats().stop_reason, StopReason::kConflictLimit);
  expect_reload_matches_fresh(solver, random_cnf(9, 30, 102));
  expect_reload_matches_fresh(solver, Cnf(0));
  expect_reload_matches_fresh(solver, pigeonhole(5, 4));
}

TEST(Solver, ReloadAfterAFailedSolveMatchesAFreshOne) {
  if (!fp::kEnabled) GTEST_SKIP() << "built with CWATPG_FAILPOINTS=OFF";
  Solver solver;
  expect_reload_matches_fresh(solver, all_true(20));
  const Cnf php = pigeonhole(5, 4);
  solver.reset(php.num_vars());
  for (const Clause& c : php.clauses()) solver.add_clause(c);
  {
    fp::ScheduleScope fps("sat.solver.alloc=once");
    EXPECT_THROW(solver.solve(), std::bad_alloc);
  }
  expect_reload_matches_fresh(solver, random_cnf(14, 50, 7));
  expect_reload_matches_fresh(solver, pigeonhole(5, 4));
}

TEST(Solver, AddClauseRejectsAnOutOfRangeVariable) {
  Solver solver;
  solver.reset(2);
  EXPECT_THROW(solver.add_clause(std::vector<Lit>{pos(0), neg(2)}),
               std::invalid_argument);
}

class RandomCnfAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCnfAgreement, MatchesBruteForce) {
  // Denser, larger random instances than the bulk test above.
  const Cnf f = random_cnf(12, 50, GetParam() * 977 + 5);
  const auto r = solve_cnf(f);
  ASSERT_NE(r.status, SolveStatus::kUnknown);
  EXPECT_EQ(r.status == SolveStatus::kSat, brute_force_sat(f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnfAgreement,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace cwatpg::sat
