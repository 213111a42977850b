#include "svc/params.hpp"

#include <exception>

#include "svc/proto.hpp"

namespace cwatpg::svc {

std::uint64_t param_u64(const obs::Json& params, const char* key,
                        std::uint64_t fallback) {
  const obs::Json* v = params.find(key);
  if (v == nullptr) return fallback;
  try {
    return v->as_u64();
  } catch (const std::exception&) {
    throw ProtocolError(std::string("param \"") + key +
                        "\" must be a non-negative integer");
  }
}

double param_double(const obs::Json& params, const char* key,
                    double fallback) {
  const obs::Json* v = params.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number())
    throw ProtocolError(std::string("param \"") + key + "\" must be a number");
  return v->as_double();
}

std::int64_t param_i64(const obs::Json& params, const char* key,
                       std::int64_t fallback) {
  const obs::Json* v = params.find(key);
  if (v == nullptr) return fallback;
  try {
    return v->as_i64();
  } catch (const std::exception&) {
    throw ProtocolError(std::string("param \"") + key +
                        "\" must be an integer");
  }
}

bool param_bool(const obs::Json& params, const char* key, bool fallback) {
  const obs::Json* v = params.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool())
    throw ProtocolError(std::string("param \"") + key +
                        "\" must be a boolean");
  return v->as_bool();
}

std::string param_string_required(const obs::Json& params, const char* key) {
  const obs::Json* v = params.find(key);
  if (v == nullptr || !v->is_string())
    throw ProtocolError(std::string("param \"") + key +
                        "\" (string) is required");
  return v->as_string();
}

namespace {

constexpr std::uint64_t kMaxThreads = 64;

/// One index out of a fault_range/fault_ids element, bounds-checked
/// against the collapsed fault list.
std::size_t fault_index(const obs::Json& v, std::size_t num_faults,
                        const char* what) {
  std::uint64_t raw = 0;
  try {
    raw = v.as_u64();
  } catch (const std::exception&) {
    throw ProtocolError(std::string(what) +
                        " entries must be non-negative integers");
  }
  if (raw > num_faults)
    throw ProtocolError(std::string(what) + " index " + std::to_string(raw) +
                        " exceeds the collapsed fault list (" +
                        std::to_string(num_faults) + " faults)");
  return static_cast<std::size_t>(raw);
}

}  // namespace

fault::AtpgOptions atpg_options_from_params(const obs::Json& params,
                                            const CircuitEntry& circuit) {
  fault::AtpgOptions opts;
  opts.seed = param_u64(params, "seed", opts.seed);
  opts.random_blocks = static_cast<std::size_t>(
      param_u64(params, "random_blocks", opts.random_blocks));
  opts.solver.max_conflicts =
      param_u64(params, "max_conflicts", opts.solver.max_conflicts);
  opts.escalation_rounds = static_cast<std::size_t>(
      param_u64(params, "escalation_rounds", opts.escalation_rounds));
  opts.drop_by_simulation =
      param_bool(params, "drop_by_simulation", opts.drop_by_simulation);
  // Checked here so a cluster coordinator rejects it too: a parallel job
  // starts a private pool of `threads` threads.
  opts.threads = static_cast<std::size_t>(
      param_u64(params, "threads", opts.threads));
  if (opts.threads > kMaxThreads)
    throw ProtocolError("param \"threads\" must be at most " +
                        std::to_string(kMaxThreads));
  if (const obs::Json* engine = params.find("engine")) {
    if (!engine->is_string())
      throw ProtocolError("param \"engine\" must be a string");
    const std::string name = engine->as_string();
    if (name == "incremental") {
      opts.engine = fault::AtpgEngine::kIncremental;
    } else if (name != "per-fault") {
      throw ProtocolError("param \"engine\" must be \"per-fault\" or "
                          "\"incremental\"");
    }
  }

  const std::size_t num_faults = circuit.faults.size();
  const obs::Json* range = params.find("fault_range");
  const obs::Json* ids = params.find("fault_ids");
  if (range != nullptr && ids != nullptr)
    throw ProtocolError("params \"fault_range\" and \"fault_ids\" are "
                        "mutually exclusive");
  if (range != nullptr) {
    if (!range->is_array() || range->size() != 2)
      throw ProtocolError("param \"fault_range\" must be a [lo, hi) pair");
    const std::size_t lo =
        fault_index((*range)[0], num_faults, "fault_range");
    const std::size_t hi =
        fault_index((*range)[1], num_faults, "fault_range");
    if (lo >= hi)
      throw ProtocolError("param \"fault_range\" must be a non-empty "
                          "[lo, hi) pair");
    opts.fault_subset.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) opts.fault_subset.push_back(i);
  } else if (ids != nullptr) {
    if (!ids->is_array() || ids->size() == 0)
      throw ProtocolError(
          "param \"fault_ids\" must be a non-empty array of indices");
    opts.fault_subset.reserve(ids->size());
    for (const obs::Json& v : ids->items()) {
      const std::size_t i = fault_index(v, num_faults, "fault_ids");
      if (i >= num_faults)
        throw ProtocolError("fault_ids index " + std::to_string(i) +
                            " is out of range");
      if (!opts.fault_subset.empty() && i <= opts.fault_subset.back())
        throw ProtocolError("fault_ids must be strictly increasing");
      opts.fault_subset.push_back(i);
    }
  }
  return opts;
}

}  // namespace cwatpg::svc
