// ppatc_bench: end-to-end and per-layer benchmark of the ppatc reproduction.
//
// It runs one workload per process as a closed loop with one client,
// times only calls into public ppatc layer functions (each wrapped in a
// `call.<module>.<fn>` span), and checks every output. README.md holds the
// workload and metric tables and the reasons behind them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ppatc/obs/prof.hpp"
#include "ppatc/obs/trace.hpp"

namespace e2e {

// ---- metrics ---------------------------------------------------------------

/// How `ppatc_bench compare` judges a metric.
enum class Gate {
  kBound,  ///< regressed when worse than the first set's median by more than the bound
  kExact,  ///< a work count independent of machine and thread count: must match exactly
  kInfo,   ///< reported, never gated
};

struct MetricDef {
  std::string name;
  std::string unit;
  bool higher_is_better;
  Gate gate;
  double rel_bound = 0.0;  ///< bound = max(abs_bound, rel_bound * |median|)
  double abs_bound = 0.0;
  /// Listed in BENCHMARK.json, so printed in the run's final JSON line.
  bool headline = true;
};

/// Metrics of an untraced run, in report order.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// The per-layer ledger of a traced run, in report order.
[[nodiscard]] const std::vector<MetricDef>& layer_metrics();

using Metrics = std::map<std::string, double>;

[[nodiscard]] double median(std::vector<double> v);
/// First and third quartile as Python's statistics.quantiles(v, n=4) gives
/// them (the "exclusive" method); both equal v[0] for a single value.
[[nodiscard]] std::pair<double, double> quartiles(std::vector<double> v);

// ---- child processes -------------------------------------------------------

struct ChildRun {
  int status = -1;  ///< exit code, or -1 when the child did not exit normally
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  ///< user + sys of the child
  /// ru_maxrss: Linux carries the spawner's own high-water mark into the
  /// child, so this never reads below ppatc_bench's own peak RSS.
  double max_rss_mb = 0.0;
};

/// Spawns `path args...` with exactly the environment `env` (NAME=value
/// entries), waits for it, and returns its exit status and resource use.
/// stdout goes to /dev/null when `quiet`.
[[nodiscard]] ChildRun run_child(const std::string& path, const std::vector<std::string>& args,
                                 const std::vector<std::string>& env, bool quiet);

// ---- workloads -------------------------------------------------------------

struct Context {
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  std::string artifact_dir;  ///< the ten paper-artifact binaries
  std::string golden_dir;    ///< bench/golden
  std::string work_dir;      ///< scratch files of child processes
};

/// What one op produced: a hash of its output values (every op of a run
/// must match the first bit for bit) and every failed check.
struct OpResult {
  std::uint64_t fingerprint = 0;
  std::vector<std::string> failures;
};

struct LedgerInput;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs op number `index`. The first op of a run also checks its outputs
  /// against bench/golden.
  virtual OpResult op(std::uint64_t index, bool check_golden) = 0;

  /// Checks made once after the measured window.
  virtual std::vector<std::string> after_window() { return {}; }

  /// Traced runs: child processes then write run manifests and folded
  /// profiles, which are summed into `sink` (counters, span counts and
  /// totals, profile, profiled CPU). Only paper_repro has children.
  virtual void trace_children(LedgerInput* /*sink*/) {}

  /// Child processes started by the last op, in order.
  [[nodiscard]] const std::vector<ChildRun>& children() const { return children_; }
  /// Instructions retired by ISS runs the benchmark started itself.
  [[nodiscard]] std::uint64_t iss_instructions() const { return iss_instructions_; }

 protected:
  std::vector<ChildRun> children_;
  std::uint64_t iss_instructions_ = 0;
};

/// Workload names in report order.
[[nodiscard]] const std::vector<std::string>& workload_names();
/// Builds a workload's inputs (the untimed part of set-up). Throws on an
/// unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name, const Context& ctx);
/// Ops a traced run executes: fixed, so its per-op counts are exact.
[[nodiscard]] std::size_t traced_ops(const std::string& name);
/// The ten paper-artifact binaries, in paper order.
[[nodiscard]] const std::vector<std::string>& artifacts();

// ---- ledger ----------------------------------------------------------------

/// What a traced run measured, from in-process spans or from the children.
struct LedgerInput {
  std::size_t ops = 0;
  std::size_t threads = 1;
  double op_wall_ms = 0.0;  ///< summed over the traced ops
  double traced_p50_ms = 0.0;
  double untraced_p50_ms = 0.0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> span_counts;
  std::map<std::string, double> span_self_ms;
  std::map<std::string, double> span_total_ms;
  double coverage_ms = 0.0;  ///< wall covered by the top-level call spans
  ppatc::obs::FoldedProfile profile;
  double profiled_cpu_ms = 0.0;
  std::uint64_t iss_instructions = 0;
  std::map<std::string, double> repro_wall_ms;  ///< artifact -> median wall, untraced
};

/// Folds the spans of a trace snapshot into per-name count, total and self
/// time (duration minus the union of the children's intervals), and sums
/// the top-level `call.*` spans into coverage_ms.
void add_trace_spans(const std::vector<ppatc::obs::SpanRecord>& spans, LedgerInput& in);

/// Attributes a profile's samples to the innermost open span, as CPU ms:
/// the self-time source when the spans ran in child processes.
void add_profile_self_time(LedgerInput& in);

/// Names the `binary+0xoffset` frames of the given binaries (file name ->
/// path) from their ELF symbol tables: the profiler resolves only dynamic
/// symbols, which lambdas and file-local functions do not have.
void resolve_local_frames(ppatc::obs::FoldedProfile& profile,
                          const std::map<std::string, std::string>& binaries);

/// Every layer_metrics() value (0 where a layer did no work).
[[nodiscard]] Metrics compute_ledger(const LedgerInput& in);

// ---- compare ---------------------------------------------------------------

/// `ppatc_bench compare <runs A...> -- <runs B...>`; returns the exit code.
[[nodiscard]] int compare_main(const std::vector<std::string>& args);

}  // namespace e2e
