// CNF formula representation (§2 of the paper).
//
// A formula is a set of clauses; a clause a set of literals; a literal a
// variable or its complement. Variables are dense 0-based indices — for
// formulas built by sat::encode_circuit_sat, variable v *is* network NodeId
// v, which is what lets circuit orderings (cut-width orderings, Lemma 4.2
// transfers) be used directly as SAT variable orderings.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace cwatpg::sat {

using Var = std::uint32_t;
inline constexpr Var kNullVar = static_cast<Var>(-1);

/// Literal: variable with sign, encoded as 2*var + (negated ? 1 : 0).
class Lit {
 public:
  constexpr Lit() = default;
  constexpr Lit(Var var, bool negated)
      : code_(var * 2 + (negated ? 1u : 0u)) {}

  constexpr Var var() const { return code_ / 2; }
  constexpr bool negated() const { return (code_ & 1u) != 0; }
  constexpr Lit operator~() const { return from_code(code_ ^ 1u); }
  constexpr std::uint32_t code() const { return code_; }

  friend constexpr bool operator==(Lit a, Lit b) = default;
  friend constexpr auto operator<=>(Lit a, Lit b) = default;

  static constexpr Lit from_code(std::uint32_t code) {
    Lit l;
    l.code_ = code;
    return l;
  }

 private:
  std::uint32_t code_ = 0;
};

/// Positive literal of v.
constexpr Lit pos(Var v) { return Lit(v, false); }
/// Negative literal of v.
constexpr Lit neg(Var v) { return Lit(v, true); }

using Clause = std::vector<Lit>;

/// Cnf::add_clause's normal form, in place: sorts `clause` and removes
/// repeated literals. Returns the length of the result, which is the
/// prefix of `clause` — or 0 when the clause is a tautology (x ∨ ¬x).
std::size_t canonicalize(std::span<Lit> clause);

/// CNF formula. Clauses are stored in insertion order; semantic identity is
/// as a set (the cache-based solver canonicalizes where needed).
class Cnf {
 public:
  Cnf() = default;
  explicit Cnf(Var num_vars) : num_vars_(num_vars) {}

  Var num_vars() const { return num_vars_; }
  std::size_t num_clauses() const { return clauses_.size(); }
  std::span<const Clause> clauses() const { return clauses_; }
  const Clause& clause(std::size_t i) const { return clauses_[i]; }

  /// Ensures variables up to v exist.
  void grow_to(Var v) {
    if (v >= num_vars_) num_vars_ = v + 1;
  }
  /// Allocates and returns a fresh variable.
  Var new_var() { return num_vars_++; }

  /// Adds a clause; deduplicates repeated literals, drops tautologies
  /// (x ∨ ¬x). Returns false if the clause was a tautology (not added).
  /// Throws std::invalid_argument on out-of-range variables or an empty
  /// clause (an empty clause makes the formula trivially UNSAT — callers
  /// encode that state explicitly instead).
  bool add_clause(Clause clause);

  /// Evaluates the formula under a complete assignment.
  bool eval(const std::vector<bool>& assignment) const;

  /// Total literal count across clauses.
  std::size_t num_literals() const;

  /// DIMACS-style rendering for debugging and golden tests.
  std::string to_dimacs() const;

 private:
  Var num_vars_ = 0;
  std::vector<Clause> clauses_;
};

}  // namespace cwatpg::sat
