// Typed cwatpg.rpc/1 request-parameter accessors and the shared
// params → AtpgOptions translation.
//
// Two components must agree byte-for-byte on how a `run_atpg` request maps
// onto fault::AtpgOptions: the Server (which runs the job) and the Cluster
// coordinator (which shards the job, then replays the recorded shard
// outcomes through the same pipeline to merge them). Keeping the mapping
// in one function is what makes "cluster result == single-daemon result"
// an invariant instead of a convention. Every type violation throws
// ProtocolError, which both callers map to a `bad_request` response.
//
// Thread-safe: free functions over immutable inputs.
#pragma once

#include <cstdint>
#include <string>

#include "fault/tegus.hpp"
#include "obs/json.hpp"
#include "svc/registry.hpp"

namespace cwatpg::svc {

std::uint64_t param_u64(const obs::Json& params, const char* key,
                        std::uint64_t fallback);
double param_double(const obs::Json& params, const char* key, double fallback);
std::int64_t param_i64(const obs::Json& params, const char* key,
                       std::int64_t fallback);
bool param_bool(const obs::Json& params, const char* key, bool fallback);
std::string param_string_required(const obs::Json& params, const char* key);

/// Builds the engine options a `run_atpg` request describes: seed,
/// random_blocks, max_conflicts, escalation_rounds, engine, threads,
/// drop_by_simulation, and the optional shard window — `fault_range`
/// ([lo,hi) pair over the collapsed fault list) or `fault_ids` (strictly
/// increasing index array). An empty window, in either form, is a bad
/// request: the engine reads an empty fault_subset as "every fault". So is
/// `threads` above 64. The run-level budget and the incremental engine's
/// encoding are NOT set here: the caller that runs the job owns both.
fault::AtpgOptions atpg_options_from_params(const obs::Json& params,
                                            const CircuitEntry& circuit);

}  // namespace cwatpg::svc
