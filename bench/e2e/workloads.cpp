// The four benchmark workloads. Each constructor builds the inputs (the
// untimed part of set-up); each op() is one closed-loop operation whose calls
// into ppatc layers are wrapped in `call.<module>.<fn>` spans, followed by
// the checks of its outputs. README.md gives the reason for each workload.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "e2e.hpp"
#include "ppatc/carbon/isoline.hpp"
#include "ppatc/carbon/uncertainty.hpp"
#include "ppatc/core/optimize.hpp"
#include "ppatc/core/system.hpp"
#include "ppatc/device/library.hpp"
#include "ppatc/memsys/edram.hpp"
#include "ppatc/obs/report.hpp"
#include "ppatc/obs/trace.hpp"
#include "ppatc/runtime/parallel.hpp"
#include "ppatc/workloads/workload.hpp"

namespace e2e {

namespace {

namespace cb = ppatc::carbon;
namespace core = ppatc::core;
namespace obs = ppatc::obs;
namespace units = ppatc::units;

// FNV-1a over the bytes of every output value: later ops must reproduce the
// first op bit for bit, not within a tolerance.
class Hasher {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
  }
  void add(double v) { add(&v, sizeof v); }
  void add(std::uint64_t v) { add(&v, sizeof v); }
  void add(const std::string& s) {
    add(s.data(), s.size());
    add(static_cast<std::uint64_t>(s.size()));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Seeded Fisher-Yates with SplitMix64 draws, so a seed gives the same order
// with any standard library.
template <class T>
void permute(std::vector<T>& v, std::uint64_t seed) {
  std::uint64_t state = seed;
  for (std::size_t i = v.size(); i > 1; --i) {
    state = ppatc::runtime::splitmix64(state);
    std::swap(v[i - 1], v[state % i]);
  }
}

obs::Manifest read_golden(const Context& ctx, const std::string& artifact) {
  return obs::read_manifest(ctx.golden_dir + "/" + artifact + ".json");
}

// "<section title> / " of the golden's first result key starting with `tag`,
// so the checks use the artifact's own section titles.
std::string section_prefix(const obs::Manifest& golden, const std::string& tag) {
  for (const auto& entry : golden.results) {
    const std::string& key = entry.first;
    if (key.rfind(tag, 0) == 0 && key.find(" / ") != std::string::npos) {
      return key.substr(0, key.find(" / ") + 3);
    }
  }
  throw std::runtime_error(golden.artifact + " golden has no section " + tag);
}

void put(obs::Manifest& m, const std::string& key, double value, const std::string& unit) {
  obs::ManifestResult r;
  r.value = value;
  r.unit = unit;
  m.results[key] = r;
}

// Diffs `run` against the golden keys that `keep` selects, with the golden's
// tolerances (obs::diff_manifests, the drift gate's own comparison).
std::vector<std::string> diff_golden(obs::Manifest run, const obs::Manifest& golden,
                                     const std::function<bool(const std::string&)>& keep) {
  obs::Manifest subset;
  subset.artifact = golden.artifact;
  subset.schema_version = golden.schema_version;
  for (const auto& [key, r] : golden.results) {
    if (keep(key)) subset.results.emplace(key, r);
  }
  for (const auto& [key, text] : golden.text_results) {
    if (keep(key)) subset.text_results.emplace(key, text);
  }
  run.artifact = golden.artifact;
  std::vector<std::string> failures;
  for (const std::string& key : obs::diff_manifests(run, subset).offending_keys()) {
    failures.push_back(golden.artifact + " golden: " + key);
  }
  return failures;
}

void append(std::vector<std::string>& to, std::vector<std::string> from) {
  for (std::string& s : from) to.push_back(std::move(s));
}

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  if (!in.good()) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---- paper_repro -------------------------------------------------------------

class PaperRepro final : public Workload {
 public:
  explicit PaperRepro(const Context& ctx) : ctx_{ctx} {
    for (const std::string& a : artifacts()) {
      if (::access(path(a).c_str(), X_OK) != 0) {
        throw std::runtime_error("artifact binary missing: " + path(a));
      }
    }
  }

  OpResult op(std::uint64_t index, bool /*check_golden*/) override {
    children_.clear();
    OpResult out;
    for (const std::string& a : artifacts()) {
      std::vector<std::string> env = base_env();
      const std::string stem = ctx_.work_dir + "/" + a + ".op" + std::to_string(index);
      if (sink_ != nullptr) {
        env.push_back("BENCH_MANIFEST_OUT=" + stem + ".json");
        env.push_back("PPATC_PROFILE=" + stem + ".folded");
      }
      ChildRun child;
      {
        const obs::Span span{"call.repro.run_artifact"};
        child = run_child(path(a), {}, env, /*quiet=*/true);
      }
      children_.push_back(child);
      if (child.status != 0) {
        out.failures.push_back(a + " exited with status " + std::to_string(child.status));
      } else if (sink_ != nullptr) {
        collect(stem, child);
      }
    }
    return out;
  }

  // One more regeneration with run manifests on, each diffed against its
  // golden exactly as the ctest drift gate does.
  std::vector<std::string> after_window() override {
    std::vector<std::string> failures;
    for (const std::string& a : artifacts()) {
      const std::string manifest = ctx_.work_dir + "/" + a + ".check.json";
      std::vector<std::string> env = base_env();
      env.push_back("BENCH_MANIFEST_OUT=" + manifest);
      const ChildRun child = run_child(path(a), {}, env, /*quiet=*/true);
      if (child.status != 0) {
        failures.push_back(a + " (manifest run) exited with status " +
                           std::to_string(child.status));
        continue;
      }
      const obs::DiffReport d =
          obs::diff_manifests(obs::read_manifest(manifest), read_golden(ctx_, a));
      for (const std::string& key : d.offending_keys()) failures.push_back(a + " golden: " + key);
      std::remove(manifest.c_str());
    }
    return failures;
  }

  void trace_children(LedgerInput* sink) override { sink_ = sink; }

 private:
  [[nodiscard]] std::string path(const std::string& artifact) const {
    return ctx_.artifact_dir + "/" + artifact;
  }
  // Children see nothing of the caller's environment but the pinned pool size.
  [[nodiscard]] std::vector<std::string> base_env() const {
    return {"PPATC_THREADS=" + std::to_string(ctx_.threads)};
  }

  void collect(const std::string& stem, const ChildRun& child) {
    const obs::Manifest m = obs::read_manifest(stem + ".json");
    for (const auto& [name, n] : m.counters) sink_->counters[name] += n;
    for (const auto& [name, s] : m.spans) {
      sink_->span_counts[name] += s.count;
      sink_->span_total_ms[name] += s.total_ms;
    }
    obs::FoldedProfile p = obs::parse_folded(read_file(stem + ".folded"));
    for (auto& s : p.stacks) sink_->profile.stacks.push_back(std::move(s));
    sink_->profile.header["hz"] = p.header["hz"];
    sink_->profiled_cpu_ms += child.cpu_ms;
    std::remove((stem + ".json").c_str());
    std::remove((stem + ".folded").c_str());
  }

  Context ctx_;
  LedgerInput* sink_ = nullptr;
};

// ---- optimize ----------------------------------------------------------------

void hash_point(Hasher& h, const core::DesignPoint& p) {
  const core::SystemEvaluation& e = p.evaluation;
  h.add(static_cast<std::uint64_t>(p.spec.tech));
  h.add(static_cast<std::uint64_t>(p.spec.vt));
  h.add(p.spec.fclk.base());
  h.add(static_cast<std::uint64_t>(p.feasible) * 2 + static_cast<std::uint64_t>(p.meets_deadline));
  h.add(p.tcdp.base());
  h.add(p.total_carbon.base());
  h.add(e.cycles);
  h.add(e.execution_time.base());
  h.add(e.m0_energy_per_cycle.base());
  h.add(e.memory_energy_per_cycle.base());
  h.add(e.operational_power.base());
  h.add(e.total_area.base());
  h.add(e.embodied_per_good_die.base());
}

class Optimize final : public Workload {
 public:
  explicit Optimize(const Context& ctx)
      : program_{ppatc::workloads::crc32(48)},
        golden_{read_golden(ctx, "bench_extensions")},
        section_{section_prefix(golden_, "E3:")} {
    permute(space_.vt_flavors, ctx.seed);
    permute(space_.clocks, ppatc::runtime::splitmix64(ctx.seed));
    goal_.max_execution_time = units::milliseconds(6.0);
  }

  OpResult op(std::uint64_t /*index*/, bool check_golden) override {
    core::OptimizationResult r;
    {
      const obs::Span span{"call.core.optimize"};
      r = core::optimize(space_, program_, goal_);
    }
    Hasher h;
    for (const auto* list : {&r.all_points, &r.ranked, &r.pareto}) {
      for (const core::DesignPoint& p : *list) hash_point(h, p);
    }
    OpResult out;
    out.fingerprint = h.value();
    if (check_golden) out.failures = check(r);
    return out;
  }

 private:
  // The bench_extensions E3 rows, rebuilt from this op's result.
  [[nodiscard]] std::vector<std::string> check(const core::OptimizationResult& r) const {
    obs::Manifest run;
    int feasible = 0;
    for (const auto& p : r.all_points) feasible += p.feasible ? 1 : 0;
    put(run, section_ + "design points explored", static_cast<double>(r.all_points.size()),
        "points");
    put(run, section_ + "feasible design points", feasible, "points");
    for (std::size_t i = 0; i < r.ranked.size() && i < 6; ++i) {
      const core::DesignPoint& p = r.ranked[i];
      const std::string rank = section_ + "rank " + std::to_string(i + 1);
      run.text_results[rank + " design"] =
          std::string{core::to_string(p.spec.tech)} + " " + ppatc::device::to_string(p.spec.vt) +
          " @ " + std::to_string(static_cast<int>(units::in_megahertz(p.spec.fclk))) + " MHz";
      put(run, rank + " tCDP", units::in_gco2e_seconds(p.tcdp), "gCO2e.s");
      put(run, rank + " total carbon", units::in_grams_co2e(p.total_carbon), "gCO2e");
    }
    put(run, section_ + "Pareto front size", static_cast<double>(r.pareto.size()), "points");
    return diff_golden(run, golden_,
                       [&](const std::string& key) { return key.rfind(section_, 0) == 0; });
  }

  ppatc::workloads::Workload program_;
  core::DesignSpace space_;
  core::OptimizationGoal goal_;
  obs::Manifest golden_;
  std::string section_;
};

// ---- uncertainty -------------------------------------------------------------

class Uncertainty final : public Workload {
 public:
  explicit Uncertainty(const Context& ctx)
      : seed_{ctx.seed}, golden_{read_golden(ctx, "bench_fig6b")} {
    // The bench_fig6b scenario: Table II profiles, flat US grid, +/-20%
    // embodied carbon, CI_use x/÷3, lifetime 24 +/- 6 months.
    const core::Table2 t2 = core::table2(ppatc::workloads::matmult_int());
    m3d_ = t2.m3d.carbon_profile();
    si_ = t2.all_si.carbon_profile();
    scenario_.use_intensity = cb::DiurnalIntensity::flat(cb::grids::us().intensity);
    for (const auto& [u, ev] : {std::pair{&um3d_, &t2.m3d}, std::pair{&usi_, &t2.all_si}}) {
      u->embodied_per_good_die_g =
          cb::Interval::factor(units::in_grams_co2e(ev->embodied_per_good_die), 1.2);
      u->operational_power_w = cb::Interval::point(units::in_watts(ev->operational_power));
      u->execution_time = ev->execution_time;
    }
    uscenario_.ci_use_g_per_kwh = cb::Interval::factor(380.0, 3.0);
    uscenario_.lifetime_months = cb::Interval::plus_minus(24.0, 6.0);
  }

  OpResult op(std::uint64_t index, bool check_golden) override {
    const cb::AxisSpec axis{0.25, 4.0, 64};
    const ppatc::Duration life = units::months(24.0);
    cb::TcdpMap map;
    std::vector<cb::IsolinePoint> line;
    std::vector<cb::IsolineVariant> variants;
    cb::Interval ratio;
    cb::RobustVerdict verdict{};
    cb::MonteCarloSummary mc;
    {
      const obs::Span span{"call.carbon.tcdp_map"};
      map = cb::tcdp_map(m3d_, si_, scenario_, life, axis, axis);
    }
    {
      const obs::Span span{"call.carbon.tcdp_isoline"};
      line = cb::tcdp_isoline(m3d_, si_, scenario_, life, axis);
    }
    {
      const obs::Span span{"call.carbon.isoline_variants"};
      variants = cb::isoline_variants(m3d_, si_, scenario_, life);
    }
    {
      const obs::Span span{"call.carbon.tcdp_ratio_interval"};
      ratio = cb::tcdp_ratio_interval(um3d_, usi_, uscenario_);
    }
    {
      const obs::Span span{"call.carbon.robust_compare"};
      verdict = cb::robust_compare(um3d_, usi_, uscenario_);
    }
    {
      // A fresh seed per op: the samples differ every op, so only the
      // summary's invariants are checked, never its bits.
      const obs::Span span{"call.carbon.monte_carlo_tcdp_ratio"};
      mc = cb::monte_carlo_tcdp_ratio(um3d_, usi_, uscenario_, kMcSamples,
                                      ppatc::runtime::chunk_seed(seed_, index));
    }

    Hasher h;
    for (const auto& row : map.ratio) {
      for (const double v : row) h.add(v);
    }
    const auto add_line = [&](const std::vector<cb::IsolinePoint>& pts) {
      for (const cb::IsolinePoint& p : pts) h.add(p.energy_scale.value_or(-1.0));
    };
    add_line(line);
    for (const cb::IsolineVariant& v : variants) {
      h.add(v.label);
      add_line(v.isoline);
    }
    h.add(ratio.lo);
    h.add(ratio.hi);
    h.add(static_cast<std::uint64_t>(verdict));

    OpResult out;
    out.fingerprint = h.value();
    if (mc.samples != kMcSamples || !(mc.p05 <= mc.p50 && mc.p50 <= mc.p95)) {
      out.failures.push_back("monte_carlo_tcdp_ratio summary violates p05 <= p50 <= p95 or n");
    }
    if (check_golden) append(out.failures, check(variants, ratio, verdict));
    return out;
  }

 private:
  static constexpr std::size_t kMcSamples = 100'000;

  // The bench_fig6b rows other than its Monte Carlo (which uses another n
  // and seed), rebuilt from this op's result.
  [[nodiscard]] std::vector<std::string> check(const std::vector<cb::IsolineVariant>& variants,
                                               const cb::Interval& ratio,
                                               cb::RobustVerdict verdict) const {
    obs::Manifest run;
    for (const cb::IsolineVariant& v : variants) {
      for (const cb::IsolinePoint& p : v.isoline) {
        char key[96];
        std::snprintf(key, sizeof key, "%s isoline y @ x=%.3f", v.label.c_str(), p.embodied_scale);
        if (p.energy_scale) {
          put(run, key, *p.energy_scale, "x");
        } else {
          run.text_results[key] = "outside box";
        }
      }
    }
    const std::string section = "robust comparison at the nominal design point / ";
    put(run, section + "tCDP ratio interval lo", ratio.lo, "x");
    put(run, section + "tCDP ratio interval hi", ratio.hi, "x");
    run.text_results[section + "robust verdict"] =
        verdict == cb::RobustVerdict::kCandidateAlwaysWins  ? "M3D always wins"
        : verdict == cb::RobustVerdict::kBaselineAlwaysWins ? "all-Si always wins"
                                                            : "indeterminate (as in the paper: "
                                                              "uncertainty matters)";
    return diff_golden(run, golden_, [](const std::string& key) {
      return key.find("/ MC ") == std::string::npos;
    });
  }

  std::uint64_t seed_;
  obs::Manifest golden_;
  cb::SystemCarbonProfile m3d_;
  cb::SystemCarbonProfile si_;
  cb::OperationalScenario scenario_;
  cb::UncertainProfile um3d_;
  cb::UncertainProfile usi_;
  cb::UncertainScenario uscenario_;
};

// ---- embench_mix -------------------------------------------------------------

class EmbenchMix final : public Workload {
 public:
  explicit EmbenchMix(const Context& ctx)
      : golden_{read_golden(ctx, "bench_ablation")},
        section_{section_prefix(golden_, "A6:")},
        si_bank_{ppatc::memsys::si_bank_config()},
        m3d_bank_{ppatc::memsys::m3d_bank_config()} {
    for (ppatc::workloads::Workload& w : ppatc::workloads::embench_suite()) {
      if (w.name != "matmult-int") programs_.push_back(std::move(w));
    }
    permute(programs_, ctx.seed);
  }

  OpResult op(std::uint64_t /*index*/, bool check_golden) override {
    const ppatc::Frequency fclk = units::megahertz(500);
    OpResult out;
    Hasher h;
    obs::Manifest run;
    for (const ppatc::workloads::Workload& program : programs_) {
      ppatc::workloads::RunOutcome r;
      {
        const obs::Span span{"call.workloads.run_workload"};
        r = ppatc::workloads::run_workload(program);
      }
      iss_instructions_ += r.instructions;
      if (!r.halted || !r.checksum_ok) {
        out.failures.push_back(program.name + ": ISS run did not halt with the reference checksum");
      }
      ppatc::memsys::MemoryEnergyReport si;
      ppatc::memsys::MemoryEnergyReport m3d;
      {
        const obs::Span span{"call.memsys.memory_energy"};
        si = ppatc::memsys::memory_energy(si_bank_, r.stats, r.cycles, fclk);
      }
      {
        const obs::Span span{"call.memsys.memory_energy"};
        m3d = ppatc::memsys::memory_energy(m3d_bank_, r.stats, r.cycles, fclk);
      }
      h.add(static_cast<std::uint64_t>(r.checksum));
      h.add(r.instructions);
      h.add(r.cycles);
      h.add(r.stats.total_memory_accesses());
      for (const auto* e : {&si, &m3d}) {
        h.add(e->access_energy.base());
        h.add(e->refresh_energy.base());
        h.add(e->static_energy.base());
        h.add(e->per_cycle.base());
      }
      put(run, section_ + program.name + " cycles", static_cast<double>(r.cycles), "cycles");
      put(run, section_ + program.name + " Si memory energy", units::in_picojoules(si.per_cycle),
          "pJ/cycle");
      put(run, section_ + program.name + " M3D memory energy",
          units::in_picojoules(m3d.per_cycle), "pJ/cycle");
    }
    out.fingerprint = h.value();
    if (check_golden) {
      append(out.failures, diff_golden(run, golden_, [&](const std::string& key) {
               return key.rfind(section_, 0) == 0 && key.find("matmult-int") == std::string::npos;
             }));
    }
    return out;
  }

 private:
  obs::Manifest golden_;
  std::string section_;
  ppatc::memsys::EdramBank si_bank_;
  ppatc::memsys::EdramBank m3d_bank_;
  std::vector<ppatc::workloads::Workload> programs_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_repro", "optimize", "uncertainty",
                                              "embench_mix"};
  return names;
}

const std::vector<std::string>& artifacts() {
  static const std::vector<std::string> names{
      "bench_fig2c", "bench_fig2d", "bench_table1", "bench_fig4",     "bench_table2",
      "bench_fig5",  "bench_fig6a", "bench_fig6b",  "bench_ablation", "bench_extensions"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const Context& ctx) {
  if (name == "paper_repro") return std::make_unique<PaperRepro>(ctx);
  if (name == "optimize") return std::make_unique<Optimize>(ctx);
  if (name == "uncertainty") return std::make_unique<Uncertainty>(ctx);
  if (name == "embench_mix") return std::make_unique<EmbenchMix>(ctx);
  throw std::runtime_error("unknown workload: " + name);
}

std::size_t traced_ops(const std::string& name) {
  if (name == "paper_repro") return 3;
  if (name == "optimize") return 20;
  if (name == "uncertainty") return 500;
  return 50;  // embench_mix
}

}  // namespace e2e
