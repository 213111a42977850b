#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>
#include <new>
#include <stdexcept>

#include "util/failpoint.hpp"

namespace cwatpg::sat {

namespace {

/// VSIDS decay applied per conflict.
constexpr double kActivityDecay = 0.95;
/// Conflicts per Luby restart unit.
constexpr std::uint64_t kRestartUnit = 64;

}  // namespace

// ---------------------------------------------------------------------------
// Indexed max-heap over variable activities (decision ordering).

void Solver::heap_swap(std::size_t a, std::size_t b) {
  std::swap(heap_[a], heap_[b]);
  heap_pos_[heap_[a]] = a;
  heap_pos_[heap_[b]] = b;
}

void Solver::heap_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[heap_[i]]) break;
    heap_swap(parent, i);
    i = parent;
  }
}

void Solver::heap_down(std::size_t i) {
  for (;;) {
    const std::size_t l = 2 * i + 1;
    const std::size_t r = 2 * i + 2;
    std::size_t best = i;
    if (l < heap_.size() && activity_[heap_[l]] > activity_[heap_[best]])
      best = l;
    if (r < heap_.size() && activity_[heap_[r]] > activity_[heap_[best]])
      best = r;
    if (best == i) break;
    heap_swap(i, best);
    i = best;
  }
}

void Solver::heap_insert(Var v) {
  if (heap_pos_[v] != kNotInHeap) return;
  heap_pos_[v] = heap_.size();
  heap_.push_back(v);
  heap_up(heap_.size() - 1);
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_swap(0, heap_.size() - 1);
  heap_.pop_back();
  heap_pos_[top] = kNotInHeap;
  if (!heap_.empty()) heap_down(0);
  return top;
}

// ---------------------------------------------------------------------------

Solver::Solver(const Cnf& cnf, SolverConfig config) {
  reset(cnf.num_vars(), config);
  for (const Clause& c : cnf.clauses()) add_clause(c);
}

void Solver::reset(Var num_vars, SolverConfig config) {
  config_ = config;
  const std::size_t n = num_vars;
  // Only the last instance's literals can have watchers.
  const std::size_t used = std::min(watches_.size(), 2 * assign_.size());
  for (std::size_t i = 0; i < used; ++i) watches_[i].clear();
  if (watches_.size() < 2 * n) watches_.resize(2 * n);
  assign_.assign(n, kUndef);
  level_.assign(n, 0);
  reason_.assign(n, kNoReason);
  activity_.assign(n, 0.0);
  polarity_.assign(n, false);
  seen_.assign(n, 0);
  model_.assign(n, false);
  // Every activity is 0, so the identity order is the heap a fresh
  // solver's inserts build.
  heap_.resize(n);
  heap_pos_.resize(n);
  for (Var v = 0; v < num_vars; ++v) {
    heap_[v] = v;
    heap_pos_[v] = v;
  }

  arena_.clear();
  trail_.clear();
  trail_limits_.clear();
  propagate_head_ = 0;
  activity_increment_ = 1.0;
  stats_ = {};
  query_base_ = {};
  problem_end_ = 0;
  query_begin_ = 0;
  root_conflict_ = false;
}

void Solver::add_clause(std::span<const Lit> c) {
  if (root_conflict_) return;
  for (Lit l : c)
    if (l.var() >= assign_.size())
      throw std::invalid_argument("Solver::add_clause: variable out of range");
  // Strip root-falsified literals; drop root-satisfied clauses. (Units
  // may already be on the trail from earlier clauses.) The reduced clause
  // is written straight after a size word at the arena's end.
  const auto ref = static_cast<std::uint32_t>(arena_.size());
  arena_.push_back(Lit());
  for (Lit l : c) {
    const std::uint8_t v = value(l);
    if (v == kTrue) {
      arena_.resize(ref);
      return;
    }
    if (v == kUndef) arena_.push_back(l);
  }
  const std::size_t size = arena_.size() - ref - 1;
  if (size < 2) {
    const Lit unit = arena_.back();
    arena_.resize(ref);
    if (size == 0 || !enqueue(unit, kNoReason) || propagate() != kNoReason)
      root_conflict_ = true;
    return;
  }
  arena_[ref] = Lit::from_code(static_cast<std::uint32_t>(size));
  attach(ref);
  problem_end_ = arena_.size();
}

std::uint32_t Solver::add_internal_clause(std::span<const Lit> c) {
  const auto ref = static_cast<std::uint32_t>(arena_.size());
  arena_.push_back(Lit::from_code(static_cast<std::uint32_t>(c.size())));
  arena_.insert(arena_.end(), c.begin(), c.end());
  attach(ref);
  return ref;
}

void Solver::attach(std::uint32_t ref) {
  const std::span<Lit> c = clause(ref);
  watches_[(~c[0]).code()].push_back({ref, c[1]});
  watches_[(~c[1]).code()].push_back({ref, c[0]});
}

bool Solver::enqueue(Lit l, std::uint32_t reason) {
  const std::uint8_t v = value(l);
  if (v != kUndef) return v == kTrue;
  // An implication driven by a clause learnt on an EARLIER solve() call
  // is reused knowledge — the incremental engine's payoff signal. The
  // range is empty for a one-shot solver, so this never fires there.
  if (reason != kNoReason && reason >= problem_end_ && reason < query_begin_)
    ++stats_.reused_implications;
  assign_[l.var()] = l.negated() ? kFalse : kTrue;
  level_[l.var()] = static_cast<std::uint32_t>(trail_limits_.size());
  reason_[l.var()] = reason;
  trail_.push_back(l);
  return true;
}

std::uint32_t Solver::propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    ++stats_.propagations;
    auto& watch_list = watches_[p.code()];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < watch_list.size(); ++i) {
      const Watcher w = watch_list[i];
      if (value(w.blocker) == kTrue) {
        watch_list[keep++] = w;
        continue;
      }
      const std::span<Lit> c = clause(w.clause);
      const Lit not_p = ~p;
      // Invariant: while a clause is some variable's reason, its implied
      // literal sits in slot 0 and is true, so this swap (which requires
      // c[0] false) never disturbs a locked reason clause.
      if (c[0] == not_p) std::swap(c[0], c[1]);
      if (value(c[0]) == kTrue) {
        watch_list[keep++] = {w.clause, c[0]};
        continue;
      }
      bool moved = false;
      for (std::size_t k = 2; k < c.size(); ++k) {
        if (value(c[k]) != kFalse) {
          std::swap(c[1], c[k]);
          watches_[(~c[1]).code()].push_back({w.clause, c[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      watch_list[keep++] = {w.clause, c[0]};
      if (value(c[0]) == kFalse) {
        for (std::size_t j = i + 1; j < watch_list.size(); ++j)
          watch_list[keep++] = watch_list[j];
        watch_list.resize(keep);
        propagate_head_ = trail_.size();
        return w.clause;
      }
      enqueue(c[0], w.clause);
    }
    watch_list.resize(keep);
  }
  return kNoReason;
}

void Solver::bump(Var v) {
  activity_[v] += activity_increment_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    activity_increment_ *= 1e-100;
    // Rebuild heap order under the rescaled activities (order unchanged by
    // uniform scaling, so positions remain valid).
  }
  if (heap_pos_[v] != kNotInHeap) heap_up(heap_pos_[v]);
}

void Solver::analyze(std::uint32_t conflict, Clause& learnt,
                     std::uint32_t& backtrack_level) {
  learnt.clear();
  learnt.push_back(Lit());  // slot 0 reserved for the asserting literal
  const auto current_level = static_cast<std::uint32_t>(trail_limits_.size());
  std::uint32_t counter = 0;
  std::size_t trail_index = trail_.size();
  Lit p;
  bool have_p = false;
  std::uint32_t clause_index = conflict;

  for (;;) {
    const std::span<const Lit> c = clause(clause_index);
    // For reason clauses the implied literal is c[0] (see propagate);
    // skip it when expanding a reason.
    for (std::size_t k = (have_p ? 1 : 0); k < c.size(); ++k) {
      const Lit q = c[k];
      if (seen_[q.var()] || level(q.var()) == 0) continue;
      seen_[q.var()] = 1;
      bump(q.var());
      if (level(q.var()) >= current_level) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    do {
      --trail_index;
      p = trail_[trail_index];
    } while (!seen_[p.var()]);
    have_p = true;
    seen_[p.var()] = 0;
    --counter;
    if (counter == 0) break;
    clause_index = reason_[p.var()];
  }
  learnt[0] = ~p;

  // Local clause minimization: a non-asserting literal is redundant when
  // every other literal of its reason clause is level-0 or already marked.
  std::vector<Lit> marked(learnt.begin() + 1, learnt.end());
  auto redundant = [&](Lit q) {
    const std::uint32_t r = reason_[q.var()];
    if (r == kNoReason) return false;
    for (Lit x : clause(r)) {
      if (x.var() == q.var()) continue;
      if (level(x.var()) == 0 || seen_[x.var()]) continue;
      return false;
    }
    return true;
  };
  std::size_t keep = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i)
    if (!redundant(learnt[i])) learnt[keep++] = learnt[i];
  learnt.resize(keep);
  for (Lit q : marked) seen_[q.var()] = 0;

  backtrack_level = 0;
  std::size_t max_index = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (level(learnt[i].var()) > backtrack_level) {
      backtrack_level = level(learnt[i].var());
      max_index = i;
    }
  }
  if (learnt.size() > 1) std::swap(learnt[1], learnt[max_index]);
}

void Solver::backtrack_to(std::uint32_t target_level) {
  if (trail_limits_.size() <= target_level) return;
  const std::uint32_t boundary = trail_limits_[target_level];
  for (std::size_t i = trail_.size(); i-- > boundary;) {
    const Var v = trail_[i].var();
    polarity_[v] = assign_[v] == kTrue;
    assign_[v] = kUndef;
    reason_[v] = kNoReason;
    heap_insert(v);
  }
  trail_.resize(boundary);
  trail_limits_.resize(target_level);
  propagate_head_ = trail_.size();
}

std::uint64_t Solver::luby(std::uint64_t i) {
  // Knuth-style descent: find the smallest complete binary subsequence
  // (of length 2^(seq+1) - 1) containing index i, then recurse into the
  // copy i falls in via modulo. The naive subtractive variant underflows
  // whenever i lands exactly on a subsequence boundary during descent
  // (first at i == 3), so the remainder MUST be taken modulo the child
  // size, not by subtraction.
  std::uint64_t size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i %= size;
  }
  return 1ULL << seq;
}

SolveStatus Solver::solve(std::span<const Lit> assumptions) {
  // Failpoint: a solve that cannot allocate its working state. Thrown
  // here, before any search mutates clause or trail state, so the solver
  // object stays reusable and callers see a clean bad_alloc — the engines
  // (and the service's `internal` error path) must absorb it.
  if (CWATPG_FAILPOINT("sat.solver.alloc")) throw std::bad_alloc();
  stats_.stop_reason = StopReason::kNone;
  // Per-call baselines: effort caps and query_stats() measure from here.
  query_base_ = stats_;
  query_begin_ = arena_.size();
  if (root_conflict_) return SolveStatus::kUnsat;
  for (Lit a : assumptions)
    if (a.var() >= assign_.size())
      throw std::invalid_argument("solve: assumption variable out of range");

  // Budget plumbing: deadline/cancellation are polled every
  // budget_poll_interval propagations (an atomic load + one clock read, so
  // the poll is invisible to the search unless it fires).
  const Budget* budget = config_.budget;
  const std::uint64_t conflict_cap = config_.max_conflicts;
  std::uint64_t next_poll = Budget::kUnlimited;
  if (budget != nullptr) {
    const StopReason r = budget->poll();
    if (r != StopReason::kNone) {
      stats_.stop_reason = r;
      return SolveStatus::kUnknown;
    }
    next_poll = stats_.propagations + config_.budget_poll_interval;
  }

  backtrack_to(0);
  if (propagate() != kNoReason) {
    root_conflict_ = true;
    return SolveStatus::kUnsat;
  }

  std::uint64_t conflicts_until_restart =
      kRestartUnit * luby(stats_.restarts);
  Clause learnt;

  // The poll trigger watches loop iterations as well as propagations:
  // propagations can stall (e.g. a long restart phase re-deciding saved
  // phases), and a deadline must still fire while the search treads water.
  std::uint64_t iterations = 0;
  std::uint64_t next_poll_iteration = config_.budget_poll_interval;
  for (;;) {
    ++iterations;
    if (budget != nullptr && (stats_.propagations >= next_poll ||
                              iterations >= next_poll_iteration)) {
      next_poll = stats_.propagations + config_.budget_poll_interval;
      next_poll_iteration = iterations + config_.budget_poll_interval;
      const StopReason r = budget->poll();
      if (r != StopReason::kNone) {
        stats_.stop_reason = r;
        return SolveStatus::kUnknown;
      }
      // Failpoint: spurious budget expiry — the solve gives up as if its
      // deadline passed even though it did not. Exercises every caller's
      // undetermined/escalation handling without waiting on a clock.
      if (CWATPG_FAILPOINT("sat.solver.spurious_budget")) {
        stats_.stop_reason = StopReason::kDeadline;
        return SolveStatus::kUnknown;
      }
    }
    const std::uint32_t conflict = propagate();
    if (conflict != kNoReason) {
      ++stats_.conflicts;
      if (trail_limits_.empty()) {
        root_conflict_ = true;
        return SolveStatus::kUnsat;
      }
      if (stats_.conflicts - query_base_.conflicts >= conflict_cap) {
        stats_.stop_reason = StopReason::kConflictLimit;
        return SolveStatus::kUnknown;
      }

      std::uint32_t backtrack_level = 0;
      analyze(conflict, learnt, backtrack_level);
      backtrack_to(backtrack_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        const std::uint32_t ci = add_internal_clause(learnt);
        ++stats_.learnt_clauses;
        stats_.learnt_literals += learnt.size();
        enqueue(learnt[0], ci);
      }
      activity_increment_ /= kActivityDecay;
      if (conflicts_until_restart > 0) --conflicts_until_restart;
      continue;
    }

    if (conflicts_until_restart == 0 &&
        trail_limits_.size() > assumptions.size()) {
      ++stats_.restarts;
      conflicts_until_restart = kRestartUnit * luby(stats_.restarts);
      // Keep the assumption levels; restart the free search only.
      backtrack_to(static_cast<std::uint32_t>(assumptions.size()));
      continue;
    }

    // Place pending assumptions as decisions.
    if (trail_limits_.size() < assumptions.size()) {
      const Lit a = assumptions[trail_limits_.size()];
      const std::uint8_t v = value(a);
      if (v == kFalse) return SolveStatus::kUnsat;  // under assumptions
      trail_limits_.push_back(static_cast<std::uint32_t>(trail_.size()));
      if (v == kUndef) enqueue(a, kNoReason);
      continue;
    }

    // Pick the unassigned variable of highest activity.
    Var decision_var = kNullVar;
    while (!heap_.empty()) {
      const Var v = heap_pop();
      if (assign_[v] == kUndef) {
        decision_var = v;
        break;
      }
    }
    if (decision_var == kNullVar) {
      for (Var v = 0; v < assign_.size(); ++v)
        model_[v] = assign_[v] == kTrue;
      return SolveStatus::kSat;
    }
    ++stats_.decisions;
    trail_limits_.push_back(static_cast<std::uint32_t>(trail_.size()));
    enqueue(Lit(decision_var, !polarity_[decision_var]), kNoReason);
  }
}

SolveResult solve_cnf(const Cnf& cnf, SolverConfig config) {
  Solver solver(cnf, config);
  SolveResult result;
  result.status = solver.solve();
  result.model = solver.model();
  result.stats = solver.stats();
  return result;
}

}  // namespace cwatpg::sat
