// Metric tables, order statistics, and the per-layer ledger of a traced run.
#include <algorithm>
#include <unordered_map>

#include "e2e.hpp"

namespace e2e {

const std::vector<MetricDef>& end_to_end_metrics() {
  // Bounds match BENCHMARK.json; README.md records the spread measured for
  // each and why the timing bounds are as wide as they are.
  static const std::vector<MetricDef> defs{
      {"op_p50_ms", "ms", false, Gate::kBound, 0.25, 0.5},
      {"ops_per_s", "1/s", true, Gate::kBound, 0.25, 0.0},
      {"cpu_ms_per_op", "ms", false, Gate::kBound, 0.25, 0.0},
      {"setup_s", "s", false, Gate::kBound, 0.25, 0.03},
      {"peak_rss_mb", "MB", false, Gate::kBound, 0.10, 1.0},
      // Always 0 on a correct build, so it cannot be a relative bound; the
      // final line's `failed` carries it.
      {"error_rate", "fraction", false, Gate::kBound, 0.0, 0.0, false},
      // Moves by up to half between runs of one commit: reported, not gated.
      {"op_p90_ms", "ms", false, Gate::kInfo, 0.0, 0.0, false},
  };
  return defs;
}

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d{
        {"isa.insn_per_op", "count", false, Gate::kExact},
        {"isa.minsn_per_s", "Minsn/s", true, Gate::kInfo},
        {"isa.block_hits_per_op", "count", false, Gate::kExact},
        {"isa.blocks_decoded_per_op", "count", false, Gate::kExact},
        {"isa.block_hit_ratio", "fraction", true, Gate::kExact},
        {"workloads.run_ms_per_op", "ms", false, Gate::kInfo},
        {"core.call_optimize_self_ms_per_op", "ms", false, Gate::kInfo},
        {"core.optimize_self_ms_per_op", "ms", false, Gate::kInfo},
        {"core.points_per_op", "count", false, Gate::kExact},
        {"core.contract_violations_per_op", "count", false, Gate::kExact},
        {"memsys.characterize_calls_per_op", "count", false, Gate::kExact},
        {"memsys.characterize_self_ms_per_op", "ms", false, Gate::kInfo},
        {"memsys.corner_self_ms_per_op", "ms", false, Gate::kInfo},
        {"memsys.memory_energy_ms_per_op", "ms", false, Gate::kInfo},
        {"spice.transient_self_ms_per_op", "ms", false, Gate::kInfo},
        {"spice.dc_self_ms_per_op", "ms", false, Gate::kInfo},
        {"spice.newton_iters_per_op", "count", false, Gate::kExact},
        {"spice.transient_steps_per_op", "count", false, Gate::kExact},
        {"spice.sparse_solves_per_op", "count", false, Gate::kExact},
        // Whether a corner finds a cached elimination program depends on
        // scheduling order, so this count is not thread-count invariant.
        {"spice.symbolic_rebuilds_per_op", "count", false, Gate::kInfo},
        {"spice.nonconvergence_per_op", "count", false, Gate::kExact},
        {"carbon.mc_samples_per_op", "count", false, Gate::kExact},
        {"carbon.mc_samples_per_s", "1/s", true, Gate::kInfo},
        {"carbon.monte_carlo_self_ms_per_op", "ms", false, Gate::kInfo},
        {"carbon.tcdp_map_self_ms_per_op", "ms", false, Gate::kInfo},
        {"carbon.isoline_self_ms_per_op", "ms", false, Gate::kInfo},
        {"carbon.interval_ms_per_op", "ms", false, Gate::kInfo},
        {"carbon.bisections_per_op", "count", false, Gate::kExact},
        {"runtime.batches_per_op", "count", false, Gate::kInfo},
        {"runtime.inline_batches_per_op", "count", false, Gate::kInfo},
        {"runtime.chunks_per_op", "count", false, Gate::kInfo},
        {"runtime.queue_wait_ms_per_op", "ms", false, Gate::kInfo},
        {"runtime.worker_busy_ms_per_op", "ms", false, Gate::kInfo},
        {"runtime.pool_utilization", "fraction", true, Gate::kInfo},
        {"obs.traced_overhead_pct", "%", false, Gate::kInfo},
        {"obs.prof_achieved_hz", "Hz", true, Gate::kInfo},
        {"obs.no_span_sample_share", "fraction", false, Gate::kInfo},
    };
    for (const char* m : {"isa", "device", "spice", "memsys", "carbon", "runtime", "obs", "synth",
                          "core", "workloads", "other"}) {
      d.push_back({std::string{m} + ".cpu_share", "fraction", false, Gate::kInfo});
    }
    for (const std::string& a : artifacts()) {
      d.push_back({"repro." + a + ".wall_ms", "ms", false, Gate::kInfo});
    }
    d.push_back({"ledger.coverage_pct", "%", true, Gate::kInfo});
    return d;
  }();
  return defs;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  if (v.size() == 1) return {v[0], v[0]};
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  const auto cut = [&](long i) {
    const long m = n + 1;
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(3)};
}

void add_trace_spans(const std::vector<ppatc::obs::SpanRecord>& spans, LedgerInput& in) {
  // The pool's runtime.batch / runtime.drain spans are transparent: work in a
  // batch belongs to the span that submitted it, so their children count as
  // children of the nearest enclosing span outside the runtime.
  const auto is_pool = [](const ppatc::obs::SpanRecord& s) {
    return s.name.rfind("runtime.", 0) == 0;
  };
  std::unordered_map<std::uint64_t, const ppatc::obs::SpanRecord*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;
  std::unordered_map<std::uint64_t, std::vector<const ppatc::obs::SpanRecord*>> children;
  for (const auto& s : spans) {
    if (is_pool(s)) continue;
    std::uint64_t parent = s.parent;
    for (auto it = by_id.find(parent); it != by_id.end() && is_pool(*it->second);
         it = by_id.find(parent)) {
      parent = it->second->parent;
    }
    children[parent].push_back(&s);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (const auto& s : spans) {
    const std::uint64_t begin = s.start_ns;
    const std::uint64_t end = s.start_ns + s.dur_ns;
    intervals.clear();
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const auto* c : it->second) {
        const std::uint64_t lo = std::max(c->start_ns, begin);
        const std::uint64_t hi = std::min(c->start_ns + c->dur_ns, end);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
    }
    // Children on several pool threads overlap: subtract their union.
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = begin;
    for (const auto& [lo, hi] : intervals) {
      if (hi > reach) {
        covered += hi - std::max(lo, reach);
        reach = hi;
      }
    }
    in.span_counts[s.name] += 1;
    in.span_total_ms[s.name] += static_cast<double>(s.dur_ns) * 1e-6;
    in.span_self_ms[s.name] += static_cast<double>(s.dur_ns - covered) * 1e-6;
    if (s.parent == 0 && s.name.rfind("call.", 0) == 0) {
      in.coverage_ms += static_cast<double>(s.dur_ns) * 1e-6;
    }
  }
}

void add_profile_self_time(LedgerInput& in) {
  const auto total = static_cast<double>(in.profile.total_samples());
  if (total == 0.0) return;
  for (const auto& s : in.profile.stacks) {
    if (s.frames.empty()) continue;
    in.span_self_ms[s.frames[0]] += in.profiled_cpu_ms * static_cast<double>(s.count) / total;
  }
}

namespace {

// The innermost `ppatc::<module>::` frame of a folded stack names the layer
// a sample belongs to; frames[0] is the span, frames[1..] run root to leaf.
std::string sample_module(const ppatc::obs::FoldedStack& s) {
  static const std::vector<std::string> modules{"isa",     "device", "spice", "memsys",
                                                "carbon",  "runtime", "obs",  "synth",
                                                "core",    "workloads"};
  for (std::size_t i = s.frames.size(); i-- > 1;) {
    const std::string& f = s.frames[i];
    const std::size_t at = f.find("ppatc::");
    if (at == std::string::npos) continue;
    const std::size_t begin = at + 7;
    const std::size_t end = f.find("::", begin);
    if (end == std::string::npos) continue;
    const std::string m = f.substr(begin, end - begin);
    if (std::find(modules.begin(), modules.end(), m) != modules.end()) return m;
  }
  return "other";
}

}  // namespace

Metrics compute_ledger(const LedgerInput& in) {
  Metrics m;
  for (const MetricDef& d : layer_metrics()) m[d.name] = 0.0;
  const auto ops = static_cast<double>(std::max<std::size_t>(in.ops, 1));
  const auto find = [](const auto& map, const std::string& key) {
    const auto it = map.find(key);
    return it == map.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto counter = [&](const char* name) { return find(in.counters, name); };
  const auto self_ms = [&](const char* name) { return find(in.span_self_ms, name); };
  const auto total_ms = [&](const char* name) { return find(in.span_total_ms, name); };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  const auto insn = static_cast<double>(in.iss_instructions);
  const double run_ms = total_ms("call.workloads.run_workload");
  const double hits = counter("isa.decoded_block_hits");
  const double decoded = counter("isa.decoded_blocks");
  m["isa.insn_per_op"] = insn / ops;
  m["isa.minsn_per_s"] = ratio(insn * 1e-6, run_ms * 1e-3);
  m["isa.block_hits_per_op"] = hits / ops;
  m["isa.blocks_decoded_per_op"] = decoded / ops;
  m["isa.block_hit_ratio"] = ratio(hits, hits + decoded);
  m["workloads.run_ms_per_op"] = run_ms / ops;

  m["core.call_optimize_self_ms_per_op"] = self_ms("call.core.optimize") / ops;
  m["core.optimize_self_ms_per_op"] = self_ms("core.optimize") / ops;
  m["core.points_per_op"] = counter("core.points_evaluated") / ops;
  m["core.contract_violations_per_op"] = counter("core.contract_violations") / ops;

  m["memsys.characterize_calls_per_op"] = find(in.span_counts, "memsys.characterize") / ops;
  m["memsys.characterize_self_ms_per_op"] = self_ms("memsys.characterize") / ops;
  m["memsys.corner_self_ms_per_op"] =
      (self_ms("memsys.write_corner") + self_ms("memsys.read_corner")) / ops;
  m["memsys.memory_energy_ms_per_op"] = total_ms("call.memsys.memory_energy") / ops;

  m["spice.transient_self_ms_per_op"] = self_ms("spice.transient") / ops;
  m["spice.dc_self_ms_per_op"] = self_ms("spice.dc") / ops;
  m["spice.newton_iters_per_op"] = counter("spice.newton_iterations") / ops;
  m["spice.transient_steps_per_op"] = counter("spice.transient_steps") / ops;
  m["spice.sparse_solves_per_op"] = counter("spice.sparse_solves") / ops;
  m["spice.symbolic_rebuilds_per_op"] = counter("spice.sparse_symbolic_rebuilds") / ops;
  m["spice.nonconvergence_per_op"] = counter("spice.newton_nonconvergence") / ops;

  const double mc_samples = counter("carbon.mc_samples");
  m["carbon.mc_samples_per_op"] = mc_samples / ops;
  m["carbon.mc_samples_per_s"] = ratio(mc_samples, total_ms("carbon.monte_carlo") * 1e-3);
  m["carbon.monte_carlo_self_ms_per_op"] = self_ms("carbon.monte_carlo") / ops;
  m["carbon.tcdp_map_self_ms_per_op"] = self_ms("carbon.tcdp_map") / ops;
  m["carbon.isoline_self_ms_per_op"] = self_ms("carbon.tcdp_isoline") / ops;
  m["carbon.interval_ms_per_op"] =
      (total_ms("call.carbon.tcdp_ratio_interval") + total_ms("call.carbon.robust_compare")) / ops;
  m["carbon.bisections_per_op"] = counter("carbon.bisection_iterations") / ops;

  const double busy_ms = counter("runtime.worker_busy_ns") * 1e-6;
  m["runtime.batches_per_op"] = counter("runtime.batches") / ops;
  m["runtime.inline_batches_per_op"] = counter("runtime.inline_batches") / ops;
  m["runtime.chunks_per_op"] = counter("runtime.chunks_executed") / ops;
  m["runtime.queue_wait_ms_per_op"] = counter("runtime.queue_wait_ns") * 1e-6 / ops;
  m["runtime.worker_busy_ms_per_op"] = busy_ms / ops;
  m["runtime.pool_utilization"] =
      ratio(busy_ms, static_cast<double>(in.threads) * in.op_wall_ms);

  const auto samples = static_cast<double>(in.profile.total_samples());
  double no_span = 0.0;
  std::map<std::string, double> module_samples;
  for (const auto& s : in.profile.stacks) {
    if (!s.frames.empty() && s.frames[0] == "no_span") no_span += static_cast<double>(s.count);
    module_samples[sample_module(s)] += static_cast<double>(s.count);
  }
  m["obs.traced_overhead_pct"] = 100.0 * (ratio(in.traced_p50_ms, in.untraced_p50_ms) - 1.0);
  m["obs.prof_achieved_hz"] = ratio(samples, in.profiled_cpu_ms * 1e-3);
  m["obs.no_span_sample_share"] = ratio(no_span, samples);
  for (const auto& [module, n] : module_samples) m[module + ".cpu_share"] = ratio(n, samples);

  for (const auto& [artifact, ms] : in.repro_wall_ms) m["repro." + artifact + ".wall_ms"] = ms;
  m["ledger.coverage_pct"] = 100.0 * ratio(in.coverage_ms, in.op_wall_ms);
  return m;
}

}  // namespace e2e
