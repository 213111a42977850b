// Content-hash-keyed circuit registry with LRU eviction under a byte
// budget.
//
// The amortization substrate of the service: a circuit is parsed and
// fault-collapsed ONCE at load_circuit time, and every subsequent run_atpg
// / fsim job on it starts from the prebuilt state instead of repeating the
// front end. The incremental engine's shared miter is built once per entry
// too, by the first `engine=incremental` job on it (shared_miter()), so a
// load — and a cluster coordinator, which only forwards such jobs — never
// pays for it. Keys are content hashes of the circuit *structure* (gate
// types, fanins, IO lists — not names), so a client re-loading the same
// netlist, under any name, dedups onto the cached entry and a restart of
// the client cannot balloon the registry.
//
// Entries are handed out as shared_ptr<const CircuitEntry>: eviction only
// drops the registry's reference, so a job holding an entry keeps it alive
// until the job finishes — eviction can never yank a circuit out from
// under an in-flight solve. The byte budget therefore bounds what the
// registry *retains*, not what running jobs pin.
//
// Thread-safe: fully; the registry mutex guards the registry's own state.
// The entries themselves are immutable after construction (Network's
// contract) and safe to read from any number of jobs concurrently — all
// but the lazily built encoding, which only shared_miter() touches, under
// the entry's own mutex.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "fault/incremental.hpp"
#include "netlist/network.hpp"
#include "obs/json.hpp"

namespace cwatpg::svc {

/// A loaded circuit plus everything the service precomputes for it.
/// Immutable after construction, except for the encoding shared_miter()
/// builds on first use.
struct CircuitEntry {
  std::string key;   ///< 16-hex-digit structural content hash
  net::Network net;  ///< parsed, validated network
  /// Collapsed stuck-at fault list — what run_atpg classifies and what
  /// fsim jobs score coverage against.
  std::vector<fault::StuckAtFault> faults;
  /// Size of the whole-circuit CIRCUIT-SAT constraint encoding (sat::
  /// encode_constraints), which bounds every per-fault instance: reported
  /// to clients as a capacity signal, not kept.
  std::size_t cnf_vars = 0;
  std::size_t cnf_clauses = 0;
  /// Memory estimate of the circuit, without its encoding, that the load
  /// counts against the budget.
  std::size_t approx_bytes = 0;
  /// The `.bench` source load_bench parsed (empty for insert()): what a
  /// cluster coordinator replicates to its workers. Not serialized.
  std::string text;

  /// Summary the server embeds in load_circuit/status responses:
  /// {key,name,gates,inputs,outputs,faults,cnf_vars,cnf_clauses,bytes}.
  obs::Json to_json() const;

 private:
  friend class CircuitRegistry;
  mutable std::mutex miter_mutex_;
  /// The shared select-instrumented miter, null until shared_miter().
  mutable std::shared_ptr<const fault::SharedMiterCnf> miter_;
};

struct RegistryStats {
  std::size_t entries = 0;
  std::size_t bytes = 0;        ///< retained entries only (see header)
  std::size_t byte_budget = 0;
  std::uint64_t loads = 0;      ///< load_bench/insert calls
  std::uint64_t hits = 0;       ///< load or find satisfied by a cached entry
  std::uint64_t misses = 0;     ///< find() that came up empty
  std::uint64_t evictions = 0;  ///< entries dropped to fit the budget

  obs::Json to_json() const;
};

class CircuitRegistry {
 public:
  /// `byte_budget` caps the estimated bytes of retained entries. One entry
  /// is always retained even when it alone exceeds the budget (a registry
  /// that cannot hold the circuit it was just asked to load is useless).
  explicit CircuitRegistry(std::size_t byte_budget);

  /// Parses `.bench` text, then behaves like insert(); a new entry keeps
  /// the text. Propagates net::ParseError / std::runtime_error on
  /// malformed text.
  std::shared_ptr<const CircuitEntry> load_bench(std::string_view text,
                                                 std::string name,
                                                 bool* already_loaded = nullptr);

  /// Registers a network: hashes its structure, dedups against cached
  /// entries (a hit refreshes recency and returns the existing entry —
  /// the first-loaded name wins), otherwise precomputes the fault list and
  /// CNF size, inserts, and evicts least-recently-used entries as needed.
  /// Loading is therefore idempotent by content hash; `already_loaded`
  /// (when non-null) reports whether this call was satisfied by a cached
  /// entry — the ack that lets a coordinator or retrying client replicate
  /// loads blindly. A new entry keeps `text` as its source.
  std::shared_ptr<const CircuitEntry> insert(net::Network net,
                                             bool* already_loaded = nullptr,
                                             std::string text = {});

  /// Looks up by content-hash key; refreshes recency on hit, returns
  /// nullptr on miss.
  std::shared_ptr<const CircuitEntry> find(std::string_view key);

  /// The entry's shared-miter encoding (covering every collapsed fault),
  /// built by the first call and returned by every later one; concurrent
  /// first callers wait for that one build. While the entry is retained,
  /// the build counts the encoding against the byte budget, refreshes the
  /// entry's recency and evicts least-recently-used entries as needed.
  std::shared_ptr<const fault::SharedMiterCnf> shared_miter(
      const CircuitEntry& entry);

  RegistryStats stats() const;

 private:
  void touch_locked(const std::string& key);
  void evict_to_budget_locked();

  mutable std::mutex mutex_;
  std::size_t byte_budget_;
  std::size_t bytes_ = 0;
  RegistryStats counters_;  ///< loads/hits/misses/evictions only
  /// Recency list, most-recent first; map values point into it.
  std::list<std::string> lru_;
  struct Slot {
    std::shared_ptr<const CircuitEntry> entry;
    std::list<std::string>::iterator lru_pos;
    std::size_t bytes;  ///< the entry's estimate, plus its encoding's once built
  };
  std::unordered_map<std::string, Slot> entries_;
};

/// 64-bit FNV-1a over the structural content of `net` (gate types, fanin
/// lists, input/output order), rendered as 16 lowercase hex digits.
/// Node and circuit names do not participate: two structurally identical
/// netlists hash equal under any renaming.
std::string content_hash(const net::Network& net);

}  // namespace cwatpg::svc
