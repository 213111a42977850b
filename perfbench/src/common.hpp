// Shared plumbing of the perfbench program: run configuration, the circuit
// sets, order statistics, the in-memory span tracer, and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "netlist/network.hpp"

namespace cwatpg {
namespace fault {}
namespace gen {}
namespace netio {}
namespace obs {}
namespace sat {}
namespace svc {}
}  // namespace cwatpg

namespace perfbench {

namespace fault = cwatpg::fault;
namespace gen = cwatpg::gen;
namespace net = cwatpg::net;
namespace netio = cwatpg::netio;
namespace obs = cwatpg::obs;
namespace sat = cwatpg::sat;
namespace svc = cwatpg::svc;

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Everything a workload needs from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny circuits and short phases: the self-test mode.
  bool smoke = false;
  /// Corrupt one verdict of the run under test before it is checked.
  bool plant_wrong = false;
  /// Directory holding the committed golden verdict files.
  std::string golden_dir;
  /// Where the traced run writes its spans (JSONL; empty = nowhere).
  std::string trace_path;
};

/// One circuit as users ship it: a name and its .bench text. Parsing the
/// text is part of every workload's timed set-up.
struct Circuit {
  std::string name;
  std::string text;
  std::string golden_set;  ///< which golden file holds its verdicts
};

/// The fixed circuits of one suite at one scale (suite seed 99), written
/// to .bench text. `suite` is "iscas85" or "mcnc91".
std::vector<Circuit> suite_circuits(const std::string& suite, double scale);

/// Golden-set name of a (suite, scale) pair, e.g. "iscas85-s1.00".
std::string golden_set_name(const std::string& suite, double scale);

/// splitmix64 finaliser: derives independent per-job seeds from --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for empty input.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of this process so far, in MiB (VmHWM).
double peak_rss_mb();

/// Metrics of one run, printed as the benchmark's last stdout line.
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  double value(const std::string& name) const { return metrics_.at(name).first; }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Traced runs: the per-layer time metrics (seconds per pass) that,
  /// with trace.harness_s, must add up to `timeline_s`, the traced
  /// timelines' length per pass (lanes x wall time).
  std::vector<std::string> partition;
  double timeline_s = 0.0;

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  std::string json_line() const;
  /// Human-readable table on stderr-friendly lines.
  std::string table() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// In-memory span recorder. Spans carry a name, start and end (steady
/// seconds), the request/job id they belong to, and their parent, which
/// self_times() derives from interval containment on one timeline. Self
/// time is a span's duration minus the part of it its children cover.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::uint64_t id = 0;
    int parent = -1;  ///< index into spans(); -1 for a root
  };

  /// Records a finished span. Thread-safe.
  void add(std::string name, double start, double end, std::uint64_t id);

  /// Assigns parents by containment and returns self seconds summed by
  /// span name. Spans must nest properly: a span that overlaps a sibling
  /// is counted twice, so the self times then add up to more than the wall
  /// time. `slack` absorbs clock-read ordering at span edges.
  std::map<std::string, double> self_times(double slack = 2e-6);

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
