#include "fault/incremental.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "fault/obs_hooks.hpp"
#include "sat/encode.hpp"
#include "util/timer.hpp"

namespace cwatpg::fault {

SharedMiterCnf::SharedMiterCnf(const net::Network& netw) {
  using net::GateType;
  using sat::Lit;
  using sat::Var;

  Timer build_timer;

  // Good copy: variable v == NodeId v (encode_constraints' convention).
  sat::Cnf cnf = sat::encode_constraints(netw);
  const std::size_t n = netw.node_count();
  node_count_ = n;
  input_vars_.reserve(netw.inputs().size());
  for (net::NodeId pi : netw.inputs())
    input_vars_.push_back(static_cast<Var>(pi));

  // Enumerate fault sites and give each (site, value) a binary fault id.
  // Stems: any non-kOutput node with fanout. Branches: any input pin whose
  // driver has fanout > 1 (on a single-fanout net the branch is the stem).
  // The excitation variable of a site is the good-copy variable of the
  // net it sits on — the driver itself for a stem, the pin's driver for a
  // branch.
  stem_code_.assign(n, kNoCode);
  branch_code_.assign(n, {});
  std::uint32_t next_code = 0;
  for (net::NodeId v = 0; v < n; ++v) {
    if (netw.type(v) == GateType::kOutput || netw.fanouts(v).empty())
      continue;
    stem_code_[v] = next_code;
    next_code += 2;
    excite_var_.push_back(static_cast<Var>(v));
  }
  for (net::NodeId v = 0; v < n; ++v) {
    const auto fanins = netw.fanins(v);
    if (fanins.empty()) continue;
    branch_code_[v].assign(fanins.size(), kNoCode);
    for (std::size_t p = 0; p < fanins.size(); ++p) {
      if (netw.fanouts(fanins[p]).size() <= 1) continue;
      branch_code_[v][p] = next_code;
      next_code += 2;
      excite_var_.push_back(static_cast<Var>(fanins[p]));
    }
  }
  num_codes_ = next_code;

  std::uint32_t bits = 1;
  while ((1u << bits) < std::max(next_code, 2u)) ++bits;
  fid_bits_.clear();
  for (std::uint32_t b = 0; b < bits; ++b) fid_bits_.push_back(cnf.new_var());

  // The literal asserting that fid bit b matches bit b of `code`.
  auto bit_lit = [&](std::uint32_t code, std::uint32_t b) {
    return Lit(fid_bits_[b], ((code >> b) & 1) == 0);
  };
  // Defines s ↔ (fid == code): one binary clause per bit plus the back
  // clause. Unit propagation from the assumed fid bits then switches
  // exactly one select on and every other select off.
  auto define_select = [&](Var s, std::uint32_t code) {
    sat::Clause back{sat::pos(s)};
    for (std::uint32_t b = 0; b < bits; ++b) {
      cnf.add_clause({sat::neg(s), bit_lit(code, b)});
      back.push_back(~bit_lit(code, b));
    }
    cnf.add_clause(std::move(back));
  };

  // Faulty copy variables.
  std::vector<Var> faulty(n);
  for (net::NodeId v = 0; v < n; ++v) faulty[v] = cnf.new_var();

  // Stem selects: s forces the faulty node to the stuck value.
  std::vector<Var> select0(n, sat::kNullVar), select1(n, sat::kNullVar);
  for (net::NodeId v = 0; v < n; ++v) {
    if (stem_code_[v] == kNoCode) continue;
    for (int value = 0; value < 2; ++value) {
      const Var s = cnf.new_var();
      (value ? select1[v] : select0[v]) = s;
      define_select(s, stem_code_[v] + static_cast<std::uint32_t>(value));
      cnf.add_clause({sat::neg(s),
                      value ? sat::pos(faulty[v]) : sat::neg(faulty[v])});
    }
  }

  // Branch selects: each coded pin (v, p) gets a private wire variable w
  // the faulty gate reads in place of the fanin; s forces w to the stuck
  // value, and with both selects off w equals the faulty fanin.
  std::vector<std::vector<Var>> pin_wire(n);
  std::vector<std::vector<Var>> pin_selects(n);  // barrier literals per node
  for (net::NodeId v = 0; v < n; ++v) {
    const auto fanins = netw.fanins(v);
    if (fanins.empty()) continue;
    pin_wire[v].assign(fanins.size(), sat::kNullVar);
    for (std::size_t p = 0; p < fanins.size(); ++p) {
      if (branch_code_[v][p] == kNoCode) continue;
      const Var w = cnf.new_var();
      pin_wire[v][p] = w;
      Var sb[2];
      for (int value = 0; value < 2; ++value) {
        sb[value] = cnf.new_var();
        define_select(sb[value],
                      branch_code_[v][p] + static_cast<std::uint32_t>(value));
        cnf.add_clause({sat::neg(sb[value]),
                        value ? sat::pos(w) : sat::neg(w)});
        pin_selects[v].push_back(sb[value]);
      }
      const Var f = faulty[fanins[p]];
      cnf.add_clause(
          {sat::pos(sb[0]), sat::pos(sb[1]), sat::neg(w), sat::pos(f)});
      cnf.add_clause(
          {sat::pos(sb[0]), sat::pos(sb[1]), sat::pos(w), sat::neg(f)});
    }
  }

  // Faulty pin value of (v, p): the wire when the pin has branch selects,
  // the faulty fanin directly otherwise.
  auto pin_var = [&](net::NodeId v, std::size_t p) {
    const Var w = pin_wire[v].empty() ? sat::kNullVar : pin_wire[v][p];
    return w != sat::kNullVar ? w : faulty[netw.fanins(v)[p]];
  };

  // Faulty functional clauses, guarded by (s0 ∨ s1) where stem selects
  // exist (a selected stem overrides the gate function).
  auto add_guarded = [&](net::NodeId v, const sat::Cnf& gate_clauses) {
    for (const sat::Clause& c : gate_clauses.clauses()) {
      sat::Clause guarded = c;
      if (select0[v] != sat::kNullVar) {
        guarded.push_back(sat::pos(select0[v]));
        guarded.push_back(sat::pos(select1[v]));
      }
      cnf.add_clause(std::move(guarded));
    }
  };
  for (net::NodeId v = 0; v < n; ++v) {
    const auto& node = netw.node(v);
    sat::Cnf local(cnf.num_vars());
    switch (node.type) {
      case GateType::kInput:
        sat::add_gate_clauses(local, GateType::kBuf, faulty[v],
                              {{static_cast<Var>(v)}});
        break;
      case GateType::kConst0:
        local.add_clause({sat::neg(faulty[v])});
        break;
      case GateType::kConst1:
        local.add_clause({sat::pos(faulty[v])});
        break;
      case GateType::kOutput:
        sat::add_gate_clauses(local, GateType::kBuf, faulty[v],
                              {{pin_var(v, 0)}});
        break;
      default: {
        std::vector<Var> ins;
        ins.reserve(node.fanins.size());
        for (std::size_t p = 0; p < node.fanins.size(); ++p)
          ins.push_back(pin_var(v, p));
        sat::add_gate_clauses(local, node.type, faulty[v], ins);
        break;
      }
    }
    add_guarded(v, local);
  }

  // D-chain constraints: diff_v ↔ (good_v ⊕ faulty_v), and a difference
  // can only exist where a fault is selected — on the node itself (stem)
  // or on one of its input pins (branch) — or some fanin differs. Without
  // these, UNSAT queries force the solver to re-derive the equivalence of
  // the two copies by case splitting (hopeless on XOR-heavy logic); with
  // them, "all selects off upstream" propagates faulty=good node by node,
  // and learned clauses stay short.
  std::vector<Var> diff(n);
  for (net::NodeId v = 0; v < n; ++v) {
    diff[v] = cnf.new_var();
    const Var ins[] = {static_cast<Var>(v), faulty[v]};
    sat::add_gate_clauses(cnf, GateType::kXor, diff[v], ins);
    sat::Clause barrier{sat::neg(diff[v])};
    if (select0[v] != sat::kNullVar) {
      barrier.push_back(sat::pos(select0[v]));
      barrier.push_back(sat::pos(select1[v]));
    }
    for (Var s : pin_selects[v]) barrier.push_back(sat::pos(s));
    for (net::NodeId fi : netw.fanins(v))
      barrier.push_back(sat::pos(diff[fi]));
    cnf.add_clause(std::move(barrier));
  }

  // Objective: some primary output differs.
  sat::Clause objective;
  for (net::NodeId po : netw.outputs())
    objective.push_back(sat::pos(diff[po]));
  cnf.add_clause(std::move(objective));

  // Cone restriction tables: for every node carrying a select (stem or a
  // branch pin — both root the observable effect at that node), the
  // primary inputs OUTSIDE the fanin cone of its fanout cone. Such inputs
  // cannot influence excitation or any output difference, so a query may
  // pin them to 0 with extra assumptions; any satisfying assignment can be
  // rewritten to have them 0 (off-cone diffs are forced false by the
  // barrier chain regardless), so SAT/UNSAT answers are untouched. The
  // payoff is that search stays cone-local like a per-fault instance —
  // without the pins, every decision drags the whole-circuit miter through
  // propagation and large low-conflict circuits lose to the per-fault flow
  // on propagation volume alone.
  pinned_inputs_.assign(n, {});
  {
    std::vector<std::uint32_t> mark(n, 0);
    std::uint32_t epoch = 0;
    std::vector<net::NodeId> cone;
    for (net::NodeId v = 0; v < n; ++v) {
      const bool coded =
          stem_code_[v] != kNoCode ||
          std::any_of(branch_code_[v].begin(), branch_code_[v].end(),
                      [](std::uint32_t c) { return c != kNoCode; });
      if (!coded) continue;
      ++epoch;
      cone.clear();
      cone.push_back(v);
      mark[v] = epoch;
      // Forward closure over fanouts, then fanin closure of the result:
      // entries appended during the scan are processed too, so `cone`
      // ends as the full support set.
      for (std::size_t i = 0; i < cone.size(); ++i)
        for (net::NodeId fo : netw.fanouts(cone[i]))
          if (mark[fo] != epoch) {
            mark[fo] = epoch;
            cone.push_back(fo);
          }
      for (std::size_t i = 0; i < cone.size(); ++i)
        for (net::NodeId fi : netw.fanins(cone[i]))
          if (mark[fi] != epoch) {
            mark[fi] = epoch;
            cone.push_back(fi);
          }
      for (net::NodeId pi : netw.inputs())
        if (mark[pi] != epoch)
          pinned_inputs_[v].push_back(static_cast<Var>(pi));
    }
  }

  cnf_ = std::move(cnf);
  build_seconds_ = build_timer.seconds();
}

std::uint32_t SharedMiterCnf::code_of(const StuckAtFault& fault) const {
  if (fault.node >= node_count_) return kNoCode;
  if (fault.is_stem()) return stem_code_[fault.node];
  const auto& pins = branch_code_[fault.node];
  const auto p = static_cast<std::size_t>(fault.pin);
  if (fault.pin < 0 || p >= pins.size()) return kNoCode;
  return pins[p];
}

bool SharedMiterCnf::covers(const StuckAtFault& fault) const {
  return code_of(fault) != kNoCode;
}

std::vector<sat::Lit> SharedMiterCnf::assumptions_for(
    const StuckAtFault& fault) const {
  const std::uint32_t base = code_of(fault);
  if (base == kNoCode)
    throw std::invalid_argument(
        "SharedMiterCnf: fault site has no select in the encoding");
  const std::uint32_t code = base + (fault.stuck_value ? 1u : 0u);
  std::vector<sat::Lit> assumptions;
  assumptions.reserve(fid_bits_.size() + 1);
  for (std::uint32_t b = 0; b < fid_bits_.size(); ++b)
    assumptions.push_back(sat::Lit(fid_bits_[b], ((code >> b) & 1) == 0));
  // Excitation: the good value of the faulted net must be ~stuck.
  assumptions.push_back(sat::Lit(excite_var_[code / 2], fault.stuck_value));
  // Cone restriction: pin every primary input outside the fault's support
  // cone to 0 (see the constructor) so the search is cone-local.
  for (sat::Var pi : pinned_inputs_[fault.node])
    assumptions.push_back(sat::Lit(pi, true));
  return assumptions;
}

namespace {

const sat::Cnf& checked_cnf(
    const std::shared_ptr<const SharedMiterCnf>& encoding) {
  if (encoding == nullptr)
    throw std::invalid_argument("SharedMiter: null encoding");
  return encoding->cnf();
}

}  // namespace

SharedMiter::SharedMiter(const net::Network& netw,
                         sat::SolverConfig solver_config)
    : SharedMiter(std::make_shared<const SharedMiterCnf>(netw),
                  solver_config) {}

SharedMiter::SharedMiter(std::shared_ptr<const SharedMiterCnf> encoding,
                         sat::SolverConfig solver_config)
    : encoding_(std::move(encoding)),
      solver_(checked_cnf(encoding_), solver_config) {}

sat::SolveStatus SharedMiter::solve_fault(const StuckAtFault& fault,
                                          Pattern& test_out) {
  const std::vector<sat::Lit> assumptions =
      encoding_->assumptions_for(fault);
  const sat::SolveStatus status = solver_.solve(assumptions);
  if (status == sat::SolveStatus::kSat) {
    const auto& model = solver_.model();
    const auto& pis = encoding_->input_vars();
    test_out.assign(pis.size(), false);
    for (std::size_t i = 0; i < pis.size(); ++i) test_out[i] = model[pis[i]];
  }
  return status;
}

sat::SolveStatus SharedMiter::solve_fault(net::NodeId site, bool stuck_value,
                                          Pattern& test_out) {
  return solve_fault(StuckAtFault{site, StuckAtFault::kStem, stuck_value},
                     test_out);
}

std::vector<IncrementalOutcome> run_atpg_incremental(
    const net::Network& netw, std::span<const StuckAtFault> faults,
    sat::SolverConfig solver_config) {
  SharedMiter miter(netw, solver_config);
  std::vector<IncrementalOutcome> outcomes(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i)
    outcomes[i].status = miter.solve_fault(faults[i], outcomes[i].test);
  return outcomes;
}

namespace detail {
namespace {

/// Nodes whose transitive fanout contains a primary output — reverse BFS
/// from the kOutput markers. A fault whose cone root is outside the mask
/// can never be observed; the provider classifies it kUnreachable without a
/// query, matching generate_test's structural check.
std::vector<bool> reaches_output_mask(const net::Network& netw) {
  std::vector<bool> mask(netw.node_count(), false);
  std::vector<net::NodeId> stack;
  for (net::NodeId po : netw.outputs()) {
    mask[po] = true;
    stack.push_back(po);
  }
  while (!stack.empty()) {
    const net::NodeId v = stack.back();
    stack.pop_back();
    for (net::NodeId fi : netw.fanins(v)) {
      if (mask[fi]) continue;
      mask[fi] = true;
      stack.push_back(fi);
    }
  }
  return mask;
}

}  // namespace

IncrementalProvider::IncrementalProvider(const AtpgOptions& options)
    : options_(options) {}

void IncrementalProvider::begin(const net::Network& netw,
                                std::span<const StuckAtFault> faults,
                                std::span<const std::size_t> work_list,
                                const std::vector<bool>& /*dropped*/) {
  if (options_.prebuilt_miter != nullptr) {
    if (options_.prebuilt_miter->node_count() != netw.node_count())
      throw std::invalid_argument(
          "incremental ATPG: prebuilt miter was built from a different "
          "network");
    encoding_ = options_.prebuilt_miter;
  } else {
    encoding_ = std::make_shared<const SharedMiterCnf>(netw);
  }
  const sat::SolverConfig config = per_fault_solver_config(options_);
  miter_.emplace(encoding_, config);
  base_cap_ = config.max_conflicts;
  retry_cap_ = options_.escalation_rounds > 0 && base_cap_ != Budget::kUnlimited
                   ? saturating_mul(base_cap_, kEscalationGrowth)
                   : base_cap_;
  budget_ = config.budget;
  faults_ = faults;
  work_list_ = work_list;
  next_pos_ = 0;
  reaches_output_ = reaches_output_mask(netw);
}

FaultOutcome IncrementalProvider::solve(std::size_t fault_index,
                                        Pattern& test_out) {
  ++committed_;
  // Catch the session up through the earlier positions, including ones
  // the pipeline dropped and will never ask for (see the class comment).
  while (work_list_[next_pos_] != fault_index) {
    assert(next_pos_ + 1 < work_list_.size() &&
           "pipeline requested a fault outside work-list order");
    Pattern scratch;
    query(work_list_[next_pos_++], scratch);
  }
  ++next_pos_;
  return query(fault_index, test_out);
}

FaultOutcome IncrementalProvider::query(std::size_t fault_index,
                                        Pattern& test_out) {
  SharedMiter& miter = *miter_;
  FaultOutcome outcome;
  outcome.fault = faults_[fault_index];

  if (!reaches_output_[outcome.fault.node]) {
    outcome.status = FaultStatus::kUnreachable;
    return outcome;
  }
  // Fast-fail when the budget already fired, like generate_test.
  if (budget_ != nullptr) {
    const StopReason r = budget_->poll();
    if (r != StopReason::kNone) {
      outcome.status = FaultStatus::kAborted;
      outcome.solver_stats.stop_reason = r;
      return outcome;
    }
  }

  Timer timer;
  sat::SolveStatus status = miter.solve_fault(outcome.fault, test_out);
  sat::SolverStats stats = miter.last_query_stats();
  outcome.attempts = 1;
  if (status == sat::SolveStatus::kUnknown &&
      stats.stop_reason == StopReason::kConflictLimit &&
      retry_cap_ > base_cap_) {
    miter.set_max_conflicts(retry_cap_);
    status = miter.solve_fault(outcome.fault, test_out);
    const sat::SolverStats retry_stats = miter.last_query_stats();
    miter.set_max_conflicts(base_cap_);
    stats += retry_stats;
    // operator+= keeps the stale kConflictLimit when the retry ran to
    // completion; the retry's own reason (kNone on success) is the truth.
    stats.stop_reason = retry_stats.stop_reason;
    outcome.attempts = 2;
    ++retries_;
  }
  queries_ += outcome.attempts;
  reused_ += stats.reused_implications;
  outcome.solve_seconds = timer.seconds();
  outcome.solver_stats = stats;
  outcome.engine = SolveEngine::kIncremental;
  outcome.sat_vars = miter.num_vars();
  outcome.sat_clauses = miter.encoding().num_clauses();
  switch (status) {
    case sat::SolveStatus::kSat:
      outcome.status = FaultStatus::kDetected;
      break;
    case sat::SolveStatus::kUnsat:
      outcome.status = FaultStatus::kUntestable;
      break;
    case sat::SolveStatus::kUnknown:
      outcome.status = FaultStatus::kAborted;
      break;
  }
  return outcome;
}

void IncrementalProvider::end() {
  if (options_.metrics == nullptr) return;
  obs::MetricsRegistry& m = *options_.metrics;
  m.counter(options_.prebuilt_miter != nullptr ? "incremental.prebuilt_hits"
                                               : "incremental.builds")
      .add(1);
  m.gauge("incremental.miter_vars")
      .max_in(static_cast<double>(encoding_->num_vars()));
  m.gauge("incremental.miter_clauses")
      .max_in(static_cast<double>(encoding_->num_clauses()));
  m.gauge("incremental.build_ms").max_in(encoding_->build_seconds() * 1e3);
  m.counter("incremental.queries").add(queries_);
  m.counter("incremental.retries").add(retries_);
  m.counter("incremental.reused_implications").add(reused_);
  m.counter("incremental.committed").add(committed_);
}

}  // namespace detail

}  // namespace cwatpg::fault
