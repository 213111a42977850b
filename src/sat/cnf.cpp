#include "sat/cnf.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace cwatpg::sat {

std::size_t canonicalize(std::span<Lit> clause) {
  std::sort(clause.begin(), clause.end());
  const auto size = static_cast<std::size_t>(
      std::unique(clause.begin(), clause.end()) - clause.begin());
  for (std::size_t i = 0; i + 1 < size; ++i)
    if (clause[i].var() == clause[i + 1].var()) return 0;  // x ∨ ¬x
  return size;
}

bool Cnf::add_clause(Clause clause) {
  if (clause.empty())
    throw std::invalid_argument("Cnf::add_clause: empty clause");
  const std::size_t size = canonicalize(clause);
  if (size == 0) return false;  // tautology
  clause.resize(size);
  if (clause.back().var() >= num_vars_)
    throw std::invalid_argument("Cnf::add_clause: variable out of range");
  clauses_.push_back(std::move(clause));
  return true;
}

bool Cnf::eval(const std::vector<bool>& assignment) const {
  if (assignment.size() < num_vars_)
    throw std::invalid_argument("Cnf::eval: assignment too short");
  for (const Clause& c : clauses_) {
    bool sat = false;
    for (Lit l : c) {
      if (assignment[l.var()] != l.negated()) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

std::size_t Cnf::num_literals() const {
  std::size_t n = 0;
  for (const Clause& c : clauses_) n += c.size();
  return n;
}

std::string Cnf::to_dimacs() const {
  std::ostringstream os;
  os << "p cnf " << num_vars_ << ' ' << clauses_.size() << '\n';
  for (const Clause& c : clauses_) {
    for (Lit l : c)
      os << (l.negated() ? -static_cast<long>(l.var()) - 1
                         : static_cast<long>(l.var()) + 1)
         << ' ';
    os << "0\n";
  }
  return os.str();
}

}  // namespace cwatpg::sat
