#include "util/failpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/rng.hpp"

namespace cwatpg::fp {

namespace {

thread_local std::string t_domain;

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kOff:
      return "off";
    case Mode::kAlways:
      return "always";
    case Mode::kOnce:
      return "once";
    case Mode::kNth:
      return "nth";
    case Mode::kEveryNth:
      return "every";
    case Mode::kProb:
      return "prob";
  }
  return "?";
}

[[noreturn]] void bad_spec(std::string_view text, const char* why) {
  throw std::invalid_argument("failpoint spec \"" + std::string(text) +
                              "\": " + why);
}

}  // namespace

std::string Spec::to_string() const {
  std::string out = mode_name(mode);
  if (mode == Mode::kNth || mode == Mode::kEveryNth) {
    out += ':';
    out += std::to_string(n);
  }
  if (mode == Mode::kProb) {
    char buf[64];
    std::snprintf(buf, sizeof buf, ":%g:%llu", p,
                  static_cast<unsigned long long>(seed));
    out += buf;
  }
  if (arg != 0) {
    out += '@';
    out += std::to_string(arg);
  }
  return out;
}

Spec parse_spec(std::string_view text) {
  Spec spec;
  std::string_view body = text;
  // Optional "@ARG" payload suffix.
  if (const std::size_t at = body.rfind('@'); at != std::string_view::npos) {
    const std::string arg_text(body.substr(at + 1));
    body = body.substr(0, at);
    try {
      std::size_t used = 0;
      spec.arg = std::stoi(arg_text, &used);
      if (used != arg_text.size()) bad_spec(text, "trailing bytes after @arg");
      // evaluate() signals "fired" by returning arg, and the macros test
      // >= 0 — a negative payload would arm a site that never appears to
      // fire, which is exactly the silent no-op a schedule must not be.
      if (spec.arg < 0) bad_spec(text, "@arg must be >= 0");
    } catch (const std::invalid_argument&) {
      bad_spec(text, "@arg must be an integer");
    } catch (const std::out_of_range&) {
      bad_spec(text, "@arg out of int range");
    }
  }
  // MODE[:PARAM[:PARAM]]
  std::vector<std::string> parts;
  while (!body.empty()) {
    const std::size_t colon = body.find(':');
    parts.emplace_back(body.substr(0, colon));
    if (colon == std::string_view::npos) break;
    body = body.substr(colon + 1);
  }
  if (parts.empty()) bad_spec(text, "empty spec");
  const std::string& mode = parts[0];
  auto want_parts = [&](std::size_t lo, std::size_t hi) {
    if (parts.size() < lo || parts.size() > hi)
      bad_spec(text, "wrong number of ':' parameters for this mode");
  };
  auto parse_u64 = [&](const std::string& s) -> std::uint64_t {
    try {
      std::size_t used = 0;
      const unsigned long long v = std::stoull(s, &used);
      if (used != s.size()) bad_spec(text, "malformed integer parameter");
      return v;
    } catch (const std::invalid_argument&) {
      bad_spec(text, "malformed integer parameter");
    } catch (const std::out_of_range&) {
      bad_spec(text, "integer parameter out of range");
    }
  };
  if (mode == "off") {
    want_parts(1, 1);
    spec.mode = Mode::kOff;
  } else if (mode == "always") {
    want_parts(1, 1);
    spec.mode = Mode::kAlways;
  } else if (mode == "once") {
    want_parts(1, 1);
    spec.mode = Mode::kOnce;
  } else if (mode == "nth") {
    want_parts(2, 2);
    spec.mode = Mode::kNth;
    spec.n = parse_u64(parts[1]);
    if (spec.n == 0) bad_spec(text, "nth is 1-based; N must be >= 1");
  } else if (mode == "every") {
    want_parts(2, 2);
    spec.mode = Mode::kEveryNth;
    spec.n = parse_u64(parts[1]);
    if (spec.n == 0) bad_spec(text, "every:N needs N >= 1");
  } else if (mode == "prob") {
    want_parts(2, 3);
    spec.mode = Mode::kProb;
    try {
      std::size_t used = 0;
      spec.p = std::stod(parts[1], &used);
      if (used != parts[1].size()) bad_spec(text, "malformed probability");
    } catch (const std::exception&) {
      bad_spec(text, "malformed probability");
    }
    if (spec.p < 0.0 || spec.p > 1.0)
      bad_spec(text, "probability must be in [0, 1]");
    if (parts.size() == 3) spec.seed = parse_u64(parts[2]);
  } else {
    bad_spec(text, "unknown mode (want off/always/once/nth/every/prob)");
  }
  return spec;
}

Registry::Registry() {
  if (!kEnabled) return;
  if (const char* env = std::getenv("CWATPG_FAILPOINTS");
      env != nullptr && env[0] != '\0') {
    try {
      arm_schedule(env);
    } catch (const std::exception& e) {
      // A typo'd chaos schedule silently running failure-free would defeat
      // the experiment — fail loudly instead.
      std::fprintf(stderr, "CWATPG_FAILPOINTS: %s\n", e.what());
      std::abort();
    }
  }
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::arm(const std::string& name, const Spec& spec) {
  if (name.empty() || name.find('=') != std::string::npos ||
      name.find(';') != std::string::npos ||
      name.find('/') != std::string::npos)
    throw std::invalid_argument("failpoint name \"" + name +
                                "\" is empty or contains '=', ';' or '/'");
  std::lock_guard<std::mutex> lock(mutex_);
  specs_[name] = spec;
  armed_count_.store(static_cast<int>(specs_.size()),
                     std::memory_order_relaxed);
}

void Registry::arm_schedule(std::string_view schedule) {
  std::string_view rest = schedule;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    std::string_view item = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view()
                                          : rest.substr(semi + 1);
    // Tolerate empty items ("a=once;;b=always", trailing ';').
    while (!item.empty() && (item.front() == ' ' || item.front() == '\t'))
      item.remove_prefix(1);
    while (!item.empty() && (item.back() == ' ' || item.back() == '\t'))
      item.remove_suffix(1);
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0)
      throw std::invalid_argument("failpoint schedule item \"" +
                                  std::string(item) +
                                  "\" is not name=spec");
    arm(std::string(item.substr(0, eq)), parse_spec(item.substr(eq + 1)));
  }
}

void Registry::disarm(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  specs_.erase(name);
  armed_count_.store(static_cast<int>(specs_.size()),
                     std::memory_order_relaxed);
}

void Registry::disarm_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  specs_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  specs_.clear();
  states_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

std::vector<std::pair<std::string, Spec>> Registry::armed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, Spec>> out(specs_.begin(), specs_.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

int Registry::evaluate(const char* name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = specs_.find(name);
  if (it == specs_.end()) return -1;
  const Spec& spec = it->second;

  std::string key = t_domain;
  if (!key.empty()) key += '/';
  key += name;
  SiteState& state = states_[key];
  ++state.hits;

  bool fire = false;
  switch (spec.mode) {
    case Mode::kOff:
      break;
    case Mode::kAlways:
      fire = true;
      break;
    case Mode::kOnce:
      fire = state.fires == 0;
      break;
    case Mode::kNth:
      fire = state.hits == spec.n;
      break;
    case Mode::kEveryNth:
      fire = state.hits % spec.n == 0;
      break;
    case Mode::kProb: {
      if (!state.rng_init) {
        // Seeded from (schedule seed, domain-qualified site name): each
        // domain's stream is independent, and a replay with the same seed
        // walks the identical firing sequence.
        state.rng = spec.seed ^ fnv1a(key);
        state.rng_init = true;
      }
      const std::uint64_t draw = splitmix64(state.rng);
      fire = static_cast<double>(draw >> 11) * 0x1.0p-53 < spec.p;
      break;
    }
  }
  if (!fire) return -1;
  ++state.fires;
  return spec.arg;
}

std::map<std::string, Registry::Counts> Registry::counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, Counts> out;
  for (const auto& [key, state] : states_)
    out[key] = Counts{state.hits, state.fires};
  return out;
}

void set_thread_domain(std::string domain) { t_domain = std::move(domain); }

const std::string& thread_domain() { return t_domain; }

DomainScope::DomainScope(std::string domain) : saved_(t_domain) {
  t_domain = std::move(domain);
}

DomainScope::~DomainScope() { t_domain = std::move(saved_); }

ScheduleScope::ScheduleScope(std::string_view schedule) {
  Registry::instance().arm_schedule(schedule);
}

ScheduleScope::~ScheduleScope() { Registry::instance().reset(); }

}  // namespace cwatpg::fp
