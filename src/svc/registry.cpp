#include "svc/registry.hpp"

#include <new>
#include <sstream>
#include <utility>

#include "netlist/bench_io.hpp"
#include "sat/encode.hpp"
#include "util/failpoint.hpp"

namespace cwatpg::svc {

namespace {

class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }

  std::string hex() const {
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i)
      out[i] = digits[(hash_ >> (60 - 4 * i)) & 0xf];
    return out;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// Deliberate estimates, not an accounting: what the budget needs is a
// monotone, stable proxy for footprint so eviction pressure scales with
// circuit size.
std::size_t estimate_bytes(const CircuitEntry& entry) {
  std::size_t bytes = 0;
  for (net::NodeId id = 0; id < entry.net.node_count(); ++id) {
    bytes += sizeof(net::Network::Node) + 2 * sizeof(std::vector<net::NodeId>);
    bytes += (entry.net.fanins(id).size() + entry.net.fanouts(id).size()) *
             sizeof(net::NodeId);
  }
  bytes += entry.faults.size() * sizeof(fault::StuckAtFault);
  return bytes;
}

std::size_t estimate_bytes(const fault::SharedMiterCnf& miter) {
  return miter.cnf().num_clauses() * sizeof(sat::Clause) +
         miter.cnf().num_literals() * sizeof(sat::Lit);
}

}  // namespace

std::string content_hash(const net::Network& net) {
  Fnv1a h;
  h.mix(net.node_count());
  for (net::NodeId id = 0; id < net.node_count(); ++id) {
    h.mix(static_cast<std::uint64_t>(net.type(id)));
    h.mix(net.fanins(id).size());
    for (const net::NodeId fanin : net.fanins(id)) h.mix(fanin);
  }
  h.mix(net.inputs().size());
  for (const net::NodeId id : net.inputs()) h.mix(id);
  h.mix(net.outputs().size());
  for (const net::NodeId id : net.outputs()) h.mix(id);
  return h.hex();
}

obs::Json CircuitEntry::to_json() const {
  obs::Json j = obs::Json::object();
  j["key"] = key;
  j["name"] = net.name();
  j["gates"] = static_cast<std::uint64_t>(net.gate_count());
  j["inputs"] = static_cast<std::uint64_t>(net.inputs().size());
  j["outputs"] = static_cast<std::uint64_t>(net.outputs().size());
  j["faults"] = static_cast<std::uint64_t>(faults.size());
  j["cnf_vars"] = static_cast<std::uint64_t>(cnf_vars);
  j["cnf_clauses"] = static_cast<std::uint64_t>(cnf_clauses);
  j["bytes"] = static_cast<std::uint64_t>(approx_bytes);
  return j;
}

obs::Json RegistryStats::to_json() const {
  obs::Json j = obs::Json::object();
  j["entries"] = static_cast<std::uint64_t>(entries);
  j["bytes"] = static_cast<std::uint64_t>(bytes);
  j["byte_budget"] = static_cast<std::uint64_t>(byte_budget);
  j["loads"] = loads;
  j["hits"] = hits;
  j["misses"] = misses;
  j["evictions"] = evictions;
  return j;
}

CircuitRegistry::CircuitRegistry(std::size_t byte_budget)
    : byte_budget_(byte_budget) {}

std::shared_ptr<const CircuitEntry> CircuitRegistry::load_bench(
    std::string_view text, std::string name, bool* already_loaded) {
  std::istringstream in{std::string(text)};
  return insert(net::read_bench(in, std::move(name)), already_loaded,
                std::string(text));
}

std::shared_ptr<const CircuitEntry> CircuitRegistry::insert(
    net::Network net, bool* already_loaded, std::string text) {
  if (already_loaded != nullptr) *already_loaded = false;
  const std::string key = content_hash(net);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.loads;
    if (const auto it = entries_.find(key); it != entries_.end()) {
      ++counters_.hits;
      touch_locked(key);
      if (already_loaded != nullptr) *already_loaded = true;
      return it->second.entry;
    }
  }
  // Failpoint: a registry that cannot allocate the precomputed state must
  // surface bad_alloc to the caller (the server maps it to `internal`),
  // never a half-built entry.
  if (CWATPG_FAILPOINT("svc.registry.alloc")) throw std::bad_alloc();
  // Precompute outside the lock: collapsing a big circuit must not stall
  // concurrent lookups. Two racing loaders of the same new circuit both
  // compute; the second insert dedups below.
  auto entry = std::make_shared<CircuitEntry>();
  entry->key = key;
  entry->net = std::move(net);
  entry->faults = fault::collapsed_fault_list(entry->net);
  {
    const sat::Cnf cnf = sat::encode_constraints(entry->net);
    entry->cnf_vars = cnf.num_vars();
    entry->cnf_clauses = cnf.num_clauses();
  }
  entry->approx_bytes = estimate_bytes(*entry);
  entry->text = std::move(text);

  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = entries_.find(key); it != entries_.end()) {
    ++counters_.hits;
    touch_locked(key);
    if (already_loaded != nullptr) *already_loaded = true;
    return it->second.entry;
  }
  lru_.push_front(key);
  entries_.emplace(key, Slot{entry, lru_.begin(), entry->approx_bytes});
  bytes_ += entry->approx_bytes;
  evict_to_budget_locked();
  return entry;
}

std::shared_ptr<const fault::SharedMiterCnf> CircuitRegistry::shared_miter(
    const CircuitEntry& entry) {
  // The entry's mutex, not the registry's, is held across the build, so a
  // build never stalls lookups or other circuits' builds.
  std::lock_guard<std::mutex> build(entry.miter_mutex_);
  if (entry.miter_ != nullptr) return entry.miter_;
  auto miter = std::make_shared<const fault::SharedMiterCnf>(entry.net);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // An evicted entry lives on only in its jobs: its encoding is theirs.
    if (const auto it = entries_.find(entry.key);
        it != entries_.end() && it->second.entry.get() == &entry) {
      const std::size_t bytes = estimate_bytes(*miter);
      it->second.bytes += bytes;
      bytes_ += bytes;
      touch_locked(entry.key);
      evict_to_budget_locked();
    }
  }
  entry.miter_ = miter;
  return miter;
}

std::shared_ptr<const CircuitEntry> CircuitRegistry::find(
    std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(std::string(key));
  if (it == entries_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  ++counters_.hits;
  touch_locked(it->first);
  std::shared_ptr<const CircuitEntry> entry = it->second.entry;
  // Failpoint: evict EVERYTHING right after the lookup — the
  // eviction-under-pinning drill. The caller's shared_ptr (and any
  // in-flight job's) must keep the entry alive and usable; only the
  // registry's retention is gone.
  if (CWATPG_FAILPOINT("svc.registry.evict")) {
    counters_.evictions += entries_.size();
    entries_.clear();
    lru_.clear();
    bytes_ = 0;
  }
  return entry;
}

RegistryStats CircuitRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistryStats s = counters_;
  s.entries = entries_.size();
  s.bytes = bytes_;
  s.byte_budget = byte_budget_;
  return s;
}

void CircuitRegistry::touch_locked(const std::string& key) {
  const auto it = entries_.find(key);
  lru_.erase(it->second.lru_pos);
  lru_.push_front(key);
  it->second.lru_pos = lru_.begin();
}

void CircuitRegistry::evict_to_budget_locked() {
  while (bytes_ > byte_budget_ && entries_.size() > 1) {
    const std::string victim = lru_.back();
    const auto it = entries_.find(victim);
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++counters_.evictions;
  }
}

}  // namespace cwatpg::svc
