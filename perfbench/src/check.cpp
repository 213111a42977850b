#include "check.hpp"

#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "fault/fault.hpp"
#include "svc/proto.hpp"

namespace perfbench {

using fault::FaultStatus;

char verdict_class(FaultStatus status) {
  switch (status) {
    case FaultStatus::kDetected:
    case FaultStatus::kDroppedBySim:
    case FaultStatus::kDroppedRandom:
      return 'D';
    case FaultStatus::kUntestable:
      return 'U';
    case FaultStatus::kUnreachable:
      return 'R';
    default:
      return '?';
  }
}

GoldenSet load_golden(const std::string& dir, const std::string& set) {
  const std::string path = dir + "/" + set + ".txt";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing golden verdict file " + path);
  GoldenSet golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    GoldenEntry e;
    fields >> name >> e.hash >> e.verdicts;
    if (e.verdicts.empty())
      throw std::runtime_error("malformed golden line in " + path);
    golden[name] = std::move(e);
  }
  return golden;
}

void write_golden(const std::string& path, const GoldenSet& golden) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# circuit content_hash verdicts (D detected, U untestable, "
         "R unreachable; one per collapsed fault)\n";
  for (const auto& [name, e] : golden)
    out << name << " " << e.hash << " " << e.verdicts << "\n";
}

namespace {

/// Forward pass with fanin pin `pin` of `gate` forced to `stuck` — the
/// branch-fault case simulate64_fault (which forces a node's output)
/// cannot express.
net::SimFrame simulate64_pin(const net::Network& net,
                             std::span<const std::uint64_t> pi_words,
                             net::NodeId gate, std::int32_t pin, bool stuck) {
  net::SimFrame frame(net.node_count(), 0);
  for (std::size_t i = 0; i < net.inputs().size(); ++i)
    frame[net.inputs()[i]] = pi_words[i];
  std::vector<std::uint64_t> ins;
  const std::uint64_t forced = stuck ? ~std::uint64_t(0) : 0;
  for (net::NodeId id = 0; id < net.node_count(); ++id) {
    const net::GateType type = net.type(id);
    if (type == net::GateType::kInput) continue;
    if (type == net::GateType::kConst0 || type == net::GateType::kConst1) {
      frame[id] = type == net::GateType::kConst1 ? ~std::uint64_t(0) : 0;
      continue;
    }
    ins.clear();
    const auto fanins = net.fanins(id);
    for (std::size_t k = 0; k < fanins.size(); ++k)
      ins.push_back(id == gate && static_cast<std::int32_t>(k) == pin
                        ? forced
                        : frame[fanins[k]]);
    frame[id] = type == net::GateType::kOutput ? ins[0]
                                               : net::eval_gate_word(type, ins);
  }
  return frame;
}

std::uint64_t output_diff(const net::Network& net, const net::SimFrame& good,
                          const net::SimFrame& bad) {
  std::uint64_t diff = 0;
  for (const net::NodeId o : net.outputs()) diff |= good[o] ^ bad[o];
  return diff;
}

/// Packs patterns [first, first+count) into one word per primary input.
std::vector<std::uint64_t> pack(const std::vector<fault::Pattern>& patterns,
                                std::size_t first, std::size_t count,
                                std::size_t num_inputs) {
  std::vector<std::uint64_t> words(num_inputs, 0);
  for (std::size_t b = 0; b < count; ++b) {
    const fault::Pattern& p = patterns[first + b];
    for (std::size_t i = 0; i < num_inputs; ++i)
      if (p[i]) words[i] |= std::uint64_t(1) << b;
  }
  return words;
}

/// Faulty 64-pattern frame for any single stuck-at fault: simulate64_fault
/// for stems, the pin-forcing pass for branch faults.
net::SimFrame simulate_faulty(const net::Network& net,
                              std::span<const std::uint64_t> pi_words,
                              const fault::StuckAtFault& f) {
  if (f.is_stem())
    return net::simulate64_fault(net, pi_words, f.node, f.stuck_value);
  return simulate64_pin(net, pi_words, f.node, f.pin, f.stuck_value);
}

}  // namespace

bool detects_independently(const net::Network& net,
                           const fault::StuckAtFault& f,
                           const fault::Pattern& pattern) {
  if (pattern.size() != net.inputs().size()) return false;
  const std::vector<std::uint64_t> words = net::to_words(pattern);
  const net::SimFrame good = net::simulate64(net, words);
  return (output_diff(net, good, simulate_faulty(net, words, f)) & 1) != 0;
}

std::vector<bool> check_result(const net::Network& net,
                               const std::string& golden,
                               const fault::AtpgResult& result,
                               std::size_t random_patterns,
                               std::string* first_error) {
  const std::size_t n = result.outcomes.size();
  std::vector<bool> ok(n, false);
  auto fail = [&](std::size_t i, const std::string& why) {
    ok[i] = false;
    if (first_error != nullptr && first_error->empty())
      *first_error = net.name() + " fault " + std::to_string(i) + " (" +
                     fault::to_string(net, result.outcomes[i].fault) +
                     "): " + why;
  };
  const std::vector<fault::StuckAtFault> faults =
      fault::collapsed_fault_list(net);
  if (golden.size() != n || faults.size() != n) {
    for (std::size_t i = 0; i < n; ++i)
      fail(i, "fault list does not match the golden verdicts");
    return ok;
  }
  const std::size_t num_inputs = net.inputs().size();
  random_patterns = std::min(random_patterns, result.tests.size());

  // Attributed tests, simulated 64 distinct tests per good frame.
  std::map<std::size_t, std::vector<std::size_t>> by_test;
  std::vector<std::size_t> random_dropped;
  for (std::size_t i = 0; i < n; ++i) {
    const fault::FaultOutcome& o = result.outcomes[i];
    if (!(o.fault == faults[i])) {
      fail(i, "outcome names a different fault");
      continue;
    }
    const char got = verdict_class(o.status);
    if (got != golden[i]) {
      fail(i, std::string("verdict ") + got + ", golden " + golden[i]);
      continue;
    }
    if (got != 'D') {
      ok[i] = true;
      continue;
    }
    if (o.status == FaultStatus::kDroppedRandom) {
      random_dropped.push_back(i);
    } else if (o.has_test() && o.test() < result.tests.size() &&
               result.tests[o.test()].size() == num_inputs) {
      by_test[o.test()].push_back(i);
    } else {
      fail(i, "detected without a usable attributed test");
    }
  }

  std::vector<std::size_t> group;
  auto flush = [&] {
    if (group.empty()) return;
    std::vector<fault::Pattern> tests;
    for (const std::size_t t : group) tests.push_back(result.tests[t]);
    const std::vector<std::uint64_t> words =
        pack(tests, 0, tests.size(), num_inputs);
    const net::SimFrame good = net::simulate64(net, words);
    for (std::size_t lane = 0; lane < group.size(); ++lane) {
      for (const std::size_t i : by_test[group[lane]]) {
        const std::uint64_t diff =
            output_diff(net, good, simulate_faulty(net, words, faults[i]));
        if ((diff >> lane) & 1)
          ok[i] = true;
        else
          fail(i, "attributed test does not detect the fault");
      }
    }
    group.clear();
  };
  for (const auto& entry : by_test) {
    group.push_back(entry.first);
    if (group.size() == 64) flush();
  }
  flush();

  if (!random_dropped.empty()) {
    std::vector<std::vector<std::uint64_t>> words;
    std::vector<net::SimFrame> good;
    std::vector<std::uint64_t> lanes;
    for (std::size_t first = 0; first < random_patterns; first += 64) {
      const std::size_t count = std::min<std::size_t>(64, random_patterns - first);
      words.push_back(pack(result.tests, first, count, num_inputs));
      good.push_back(net::simulate64(net, words.back()));
      lanes.push_back(count == 64 ? ~std::uint64_t(0)
                                  : (std::uint64_t(1) << count) - 1);
    }
    for (const std::size_t i : random_dropped) {
      bool hit = false;
      for (std::size_t w = 0; w < words.size() && !hit; ++w)
        hit = (output_diff(net, good[w],
                           simulate_faulty(net, words[w], faults[i])) &
               lanes[w]) != 0;
      if (hit)
        ok[i] = true;
      else
        fail(i, "no random-phase pattern detects the fault");
    }
  }
  return ok;
}

bool same_result(const fault::AtpgResult& a, const fault::AtpgResult& b) {
  if (a.outcomes.size() != b.outcomes.size() || a.tests != b.tests)
    return false;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const fault::FaultOutcome& x = a.outcomes[i];
    const fault::FaultOutcome& y = b.outcomes[i];
    if (!(x.fault == y.fault) || x.status != y.status ||
        x.test_index != y.test_index || x.engine != y.engine)
      return false;
  }
  return true;
}

std::uint64_t fnv(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return (h ^ 0xff) * 0x100000001b3ull;  // separator: ("ab","c") != ("a","bc")
}

namespace {

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  return fnv(h, std::to_string(v));
}

}  // namespace

std::uint64_t answer_digest(const obs::Json& result) {
  std::uint64_t h = fnv_u64(kFnvBasis, result.at("faults").as_u64());
  for (const char* key : {"num_detected", "num_untestable", "num_aborted",
                          "num_undetermined"})
    h = fnv_u64(h, result.at(key).as_u64());
  for (const obs::Json& t : result.at("tests").items())
    h = fnv(h, t.as_string());
  return h;
}

std::uint64_t answer_digest(const fault::AtpgResult& r) {
  std::uint64_t h = fnv_u64(kFnvBasis, r.outcomes.size());
  for (const std::size_t v : {r.num_detected, r.num_untestable,
                              r.num_aborted, r.num_undetermined})
    h = fnv_u64(h, v);
  for (const fault::Pattern& t : r.tests) h = fnv(h, svc::encode_bits(t));
  return h;
}

bool plant_wrong_verdict(fault::AtpgResult& result) {
  for (fault::FaultOutcome& o : result.outcomes) {
    if (verdict_class(o.status) == 'D') {
      o.status = FaultStatus::kUntestable;
      o.test_index = -1;
      return true;
    }
  }
  return false;
}

}  // namespace perfbench
