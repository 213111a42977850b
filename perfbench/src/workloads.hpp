// The four workloads and the pieces they share.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check.hpp"
#include "common.hpp"
#include "fault/tegus.hpp"
#include "netlist/network.hpp"
#include "obs/json.hpp"
#include "svc/proto.hpp"
#include "svc/transport.hpp"

namespace perfbench {

/// The circuits a workload runs over (smoke mode: the same suites, tiny).
std::vector<Circuit> workload_circuits(const std::string& workload,
                                       bool smoke);

/// A parsed circuit with its golden verdicts.
struct Loaded {
  net::Network net;
  std::string golden;  ///< verdict classes, one per collapsed fault
};

/// Looks up every circuit's golden verdicts and checks that the parsed
/// structure is the one they were made for. Sets `drift` to a message
/// when a circuit is missing or its content hash differs.
std::vector<Loaded> load_with_golden(const RunConfig& cfg,
                                     const std::vector<Circuit>& circuits,
                                     std::string* drift);

/// Times `pass` into `times` until it holds at least `min_passes` samples
/// and `budget_s` seconds have gone by, or `max_passes` samples, and
/// returns their median: set-up is milliseconds of work, so one pass is
/// too noisy to compare between runs. `reset` (untimed) runs before every
/// pass but the very first, to tear the previous pass down.
double median_setup(const std::function<void()>& pass,
                    const std::function<void()>& reset,
                    std::vector<double>& times, int min_passes,
                    int max_passes, double budget_s);

/// Batch workloads run whole passes over their job set, so every run
/// measures the same job mix. Another pass starts only while the time
/// since `start` plus half an average pass stays within `seconds`: a run
/// ends within half a pass of its budget.
bool another_pass(double start, int passes_done, double seconds);

/// The tegus-drop job options: run_atpg defaults (4 random blocks,
/// sim-drop, verify) with the random-phase seed derived from --seed.
fault::AtpgOptions tegus_options(std::uint64_t seed, std::size_t index);

/// Number of random-phase patterns a run with `opts` keeps.
std::size_t random_pattern_count(const fault::AtpgOptions& opts);

/// Per-fault check tally over many results.
struct OkTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;

  void add(const std::vector<bool>& ok, const std::string& error);
  double ok_frac() const {
    return attempted == 0 ? 0.0
                          : 1.0 - static_cast<double>(failed) /
                                      static_cast<double>(attempted);
  }
};

/// A transport wrapper that forwards every call and reports each frame it
/// carried to `hook`, with the steady times the read or write call began
/// and ended. The hook runs on the thread that made the call.
class TapTransport final : public svc::Transport {
 public:
  using Hook = std::function<void(const obs::Json& frame, bool written,
                                  double start, double end)>;

  TapTransport(std::unique_ptr<svc::Transport> inner, Hook hook)
      : inner_(std::move(inner)), hook_(std::move(hook)) {}

  bool read(obs::Json& frame) override {
    const double t0 = now_s();
    if (!inner_->read(frame)) return false;
    hook_(frame, false, t0, now_s());
    return true;
  }
  void write(const obs::Json& frame) override {
    const double t0 = now_s();
    inner_->write(frame);
    hook_(frame, true, t0, now_s());
  }
  void close() override { inner_->close(); }
  bool set_read_timeout(double seconds) override {
    return inner_->set_read_timeout(seconds);
  }

 private:
  std::unique_ptr<svc::Transport> inner_;
  Hook hook_;
};

/// Size of `frame` on the wire (`<length>\n<json>`).
inline std::uint64_t frame_bytes(const obs::Json& frame) {
  const std::size_t n = frame.dump().size();
  return n + std::to_string(n).size() + 1;
}

/// One cwatpg.rpc/1 request frame.
inline obs::Json request_json(std::uint64_t id, const char* kind,
                              obs::Json params) {
  obs::Json j = obs::Json::object();
  j["schema"] = svc::kRpcSchema;
  j["id"] = id;
  j["kind"] = kind;
  j["params"] = std::move(params);
  return j;
}

void run_engine_workload(const RunConfig& cfg, Result& out);
void run_serve_mix(const RunConfig& cfg, Result& out);
void run_cluster_shard(const RunConfig& cfg, Result& out);

/// Regenerates the golden verdict files (per-fault CDCL, PODEM
/// cross-check, independent re-simulation of every test).
int make_golden(const std::string& dir, bool smoke);

}  // namespace perfbench
