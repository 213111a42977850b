// Content-hash-keyed circuit registry with LRU eviction under a byte
// budget.
//
// The amortization substrate of the service: a circuit is parsed, fault-
// collapsed and CNF-encoded ONCE at load_circuit time, and every
// subsequent run_atpg / fsim job on it starts from the prebuilt state
// instead of repeating the front end. Keys are content hashes of the
// circuit *structure* (gate types, fanins, IO lists — not names), so a
// client re-loading the same netlist, under any name, dedups onto the
// cached entry and a restart of the client cannot balloon the registry.
//
// Entries are handed out as shared_ptr<const CircuitEntry>: eviction only
// drops the registry's reference, so a job holding an entry keeps it alive
// until the job finishes — eviction can never yank a circuit out from
// under an in-flight solve. The byte budget therefore bounds what the
// registry *retains*, not what running jobs pin.
//
// Thread-safe: fully; every public method takes the registry mutex. The
// entries themselves are immutable after construction (Network's contract)
// and safe to read from any number of jobs concurrently.
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
#include "sat/cnf.hpp"

namespace cwatpg::svc {

/// A loaded circuit plus everything the service precomputes for it.
/// Immutable after construction.
struct CircuitEntry {
  std::string key;   ///< 16-hex-digit structural content hash
  net::Network net;  ///< parsed, validated network
  /// Collapsed stuck-at fault list — what run_atpg classifies and what
  /// fsim jobs score coverage against.
  std::vector<fault::StuckAtFault> faults;
  /// Whole-circuit CIRCUIT-SAT constraint encoding (sat::encode_
  /// constraints): the reusable skeleton whose size bounds every per-fault
  /// instance, reported to clients as a capacity signal. Per-fault miters
  /// stay cone-local and are built inside the engines.
  sat::Cnf base_cnf;
  /// Prebuilt shared select-instrumented miter for the incremental engine:
  /// built once at load time, handed to every `engine=incremental` job via
  /// AtpgOptions::prebuilt_miter so repeat jobs skip the encoding pass
  /// entirely. Pinned for the entry's lifetime, keyed (like everything
  /// here) by the structural content hash.
  std::shared_ptr<const fault::SharedMiterCnf> miter;
  std::size_t approx_bytes = 0;  ///< memory estimate used for the budget
  /// The `.bench` source load_bench parsed (empty for insert()): what a
  /// cluster coordinator replicates to its workers. Not serialized.
  std::string text;

  /// Summary the server embeds in load_circuit/status responses:
  /// {key,name,gates,inputs,outputs,faults,cnf_vars,cnf_clauses,
  ///  miter_vars,miter_clauses,bytes}.
  obs::Json to_json() const;
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
  /// base CNF, inserts, and evicts least-recently-used entries as needed.
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
  };
  std::unordered_map<std::string, Slot> entries_;
};

/// 64-bit FNV-1a over the structural content of `net` (gate types, fanin
/// lists, input/output order), rendered as 16 lowercase hex digits.
/// Node and circuit names do not participate: two structurally identical
/// netlists hash equal under any renaming.
std::string content_hash(const net::Network& net);

}  // namespace cwatpg::svc
