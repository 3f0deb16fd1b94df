// `ppatc_bench compare <runs A...> -- <runs B...>`: judges set B against set
// A, workload by workload, with the benchmark's own bounds.
//
//   bounded metric  ok, regressed (B's median worse than A's by more than
//                   max(abs, rel * |A median|)), or unresolved (the quartile
//                   spread within either set exceeds the bound)
//   count metric    must read exactly the same in every run of both sets
//
// Exits 1 on any regression, 2 on bad input or results from different
// machines or builds.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "e2e.hpp"
#include "ppatc/obs/report.hpp"

namespace e2e {

namespace {

namespace obs = ppatc::obs;
using Runs = std::vector<const obs::Manifest*>;

// Provenance that must agree before two result files may be compared.
constexpr const char* kMachineKeys[] = {"cpu_model", "nproc", "compiler", "build_type"};

std::string provenance(const obs::Manifest& m, const std::string& key) {
  const auto it = m.provenance.find(key);
  return it == m.provenance.end() ? "" : it->second;
}

// Values of `metric` in every run, or empty when a run lacks it.
std::vector<double> values(const Runs& runs, const std::string& metric) {
  std::vector<double> v;
  for (const obs::Manifest* m : runs) {
    const auto it = m->results.find(metric);
    if (it == m->results.end()) return {};
    v.push_back(it->second.value);
  }
  return v;
}

// "median [q1, q3]"; a count that every run agrees on prints once.
std::string summary(const std::vector<double>& v) {
  const auto [q1, q3] = quartiles(v);
  char buf[96];
  if (q1 == q3 && q1 == median(v)) {
    std::snprintf(buf, sizeof buf, "%.10g", q1);
  } else {
    std::snprintf(buf, sizeof buf, "%.5g [%.5g, %.5g]", median(v), q1, q3);
  }
  return buf;
}

// Prints one row; returns true when the metric regressed.
bool judge(const MetricDef& d, const std::vector<double>& a, const std::vector<double>& b) {
  const char* verdict = "ok";
  bool regressed = false;
  std::string bound_text = "-";
  const double med_a = median(a);
  const double med_b = median(b);
  if (d.gate == Gate::kExact) {
    const bool same = std::all_of(a.begin(), a.end(), [&](double x) { return x == a[0]; }) &&
                      std::all_of(b.begin(), b.end(), [&](double x) { return x == a[0]; });
    regressed = !same;
    verdict = same ? "ok" : "regressed";
    bound_text = "exact";
  } else if (d.gate == Gate::kBound) {
    const double bound = std::max(d.abs_bound, d.rel_bound * std::fabs(med_a));
    const auto [a1, a3] = quartiles(a);
    const auto [b1, b3] = quartiles(b);
    const double worse = d.higher_is_better ? med_a - med_b : med_b - med_a;
    if (std::max(a3 - a1, b3 - b1) > bound) {
      verdict = "unresolved";
    } else if (worse > bound) {
      verdict = "regressed";
      regressed = true;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", bound);
    bound_text = buf;
  } else {
    verdict = "info";
  }
  const double delta_pct = med_a != 0.0 ? 100.0 * (med_b - med_a) / std::fabs(med_a) : 0.0;
  std::printf("  %-34s %-9s %-30s %-30s %+8.2f%% %9s  %s\n", d.name.c_str(), d.unit.c_str(),
              summary(a).c_str(), summary(b).c_str(), delta_pct, bound_text.c_str(), verdict);
  return regressed;
}

}  // namespace

int compare_main(const std::vector<std::string>& args) {
  const auto sep = std::find(args.begin(), args.end(), "--");
  if (sep == args.end() || sep == args.begin() || sep + 1 == args.end()) {
    std::fprintf(stderr, "usage: ppatc_bench compare <runs A...> -- <runs B...>\n");
    return 2;
  }
  std::vector<obs::Manifest> all;
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (it != sep) all.push_back(obs::read_manifest(*it));
  }
  const auto a_count = static_cast<std::size_t>(sep - args.begin());
  for (const obs::Manifest& m : all) {
    for (const char* key : kMachineKeys) {
      if (provenance(m, key) != provenance(all.front(), key)) {
        std::fprintf(stderr,
                     "ppatc_bench compare: %s differs between result files ('%s' vs '%s'): "
                     "results from different machines or builds are not comparable\n",
                     key, provenance(all.front(), key).c_str(), provenance(m, key).c_str());
        return 2;
      }
    }
  }

  std::map<std::string, std::pair<Runs, Runs>> groups;
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto& [a, b] = groups[all[i].artifact];
    (i < a_count ? a : b).push_back(&all[i]);
  }
  int regressions = 0;
  for (const auto& [artifact, sets] : groups) {
    const auto& [a, b] = sets;
    if (a.empty() || b.empty()) {
      std::printf("%s: only in one set, skipped\n", artifact.c_str());
      continue;
    }
    std::printf("%s: A %zu runs (threads %s), B %zu runs (threads %s)\n", artifact.c_str(),
                a.size(), provenance(*a.front(), "threads").c_str(), b.size(),
                provenance(*b.front(), "threads").c_str());
    std::printf("  %-34s %-9s %-30s %-30s %9s %9s  %s\n", "metric", "unit", "A median [q1, q3]",
                "B median [q1, q3]", "delta", "bound", "verdict");
    for (const auto* table : {&end_to_end_metrics(), &layer_metrics()}) {
      for (const MetricDef& d : *table) {
        // Per-layer timings explain a verdict; they do not make one.
        if (d.gate == Gate::kInfo && table == &layer_metrics()) continue;
        const std::vector<double> va = values(a, d.name);
        const std::vector<double> vb = values(b, d.name);
        if (va.empty() || vb.empty()) continue;
        if (judge(d, va, vb)) ++regressions;
      }
    }
  }
  std::printf("%d regression(s)\n", regressions);
  return regressions == 0 ? 0 : 1;
}

}  // namespace e2e
