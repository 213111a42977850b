#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "gen/suites.hpp"
#include "netlist/bench_io.hpp"

namespace perfbench {

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

std::string golden_set_name(const std::string& suite, double scale) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s-s%.2f", suite.c_str(), scale);
  return buf;
}

std::vector<Circuit> suite_circuits(const std::string& suite, double scale) {
  gen::SuiteOptions opts;
  opts.scale = scale;
  opts.seed = 99;
  std::vector<net::Network> nets;
  if (suite == "iscas85")
    nets = gen::iscas85_like_suite(opts);
  else if (suite == "mcnc91")
    nets = gen::mcnc_like_suite(opts);
  else
    throw std::invalid_argument("unknown suite " + suite);
  std::vector<Circuit> out;
  out.reserve(nets.size());
  for (const net::Network& n : nets) {
    std::ostringstream text;
    net::write_bench(text, n);
    out.push_back({n.name(), text.str(), golden_set_name(suite, scale)});
  }
  return out;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(v[lo]) || std::isinf(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

namespace {

/// JSON has no infinity; a latency percentile that lands on a failed
/// request (which misses every limit) prints as an absurdly large number.
std::string number(double v) {
  if (std::isnan(v)) return "0";
  if (std::isinf(v)) return v > 0 ? "1e300" : "-1e300";
  std::ostringstream out;
  out << std::setprecision(10) << v;
  return out.str();
}

}  // namespace

std::string Result::json_line() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": {\"value\": " << number(vu.first)
        << ", \"unit\": \"" << vu.second << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string Result::table() const {
  std::ostringstream out;
  for (const auto& [name, vu] : metrics_)
    out << "  " << std::left << std::setw(30) << name << std::right
        << std::setw(16) << number(vu.first) << " " << vu.second << "\n";
  return out.str();
}

void Tracer::add(std::string name, double start, double end,
                 std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), start, std::max(start, end), id, -1});
}

std::map<std::string, double> Tracer::self_times(double slack) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::size_t> order(spans_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    if (spans_[a].start != spans_[b].start)
      return spans_[a].start < spans_[b].start;
    return spans_[a].end > spans_[b].end;  // enclosing span first
  });
  std::vector<double> covered(spans_.size(), 0.0);
  std::vector<std::size_t> stack;
  for (const std::size_t i : order) {
    Span& s = spans_[i];
    while (!stack.empty() && spans_[stack.back()].end + slack < s.end)
      stack.pop_back();
    if (!stack.empty()) {
      const Span& p = spans_[stack.back()];
      s.parent = static_cast<int>(stack.back());
      // Clamp to the parent so edge slack never counts twice.
      const double lo = std::max(s.start, p.start);
      const double hi = std::min(s.end, p.end);
      covered[stack.back()] += std::max(0.0, hi - lo);
    }
    stack.push_back(i);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].name] +=
        std::max(0.0, (spans_[i].end - spans_[i].start) - covered[i]);
  return self;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << std::setprecision(12);
  for (const Span& s : spans_)
    out << "{\"name\":\"" << s.name << "\",\"start\":" << s.start
        << ",\"end\":" << s.end << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << "}\n";
}

}  // namespace perfbench
