// ppatc_bench — end-to-end benchmark of the ppatc reproduction.
//
//   ppatc_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//               [--threads N] [--git SHA] [--out results.json] [--setup-only]
//   ppatc_bench compare <runs A...> -- <runs B...>
//
// An untraced run sets the workload up, runs one cold verified op, then runs
// ops back to back for --seconds and reports the end-to-end metrics. A traced
// run alternates a fixed number of untraced and traced ops (tracing, metrics
// and the sampling profiler on) and reports the per-layer ledger.
// Both write a results file (a ppatc run manifest) and end stdout with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. The exit code is
// non-zero if any output failed its check, and 2 when the environment would
// switch on observability the measured run must not pay for.
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "e2e.hpp"
#include "ppatc/obs/metrics.hpp"
#include "ppatc/obs/prof.hpp"
#include "ppatc/obs/report.hpp"
#include "ppatc/obs/trace.hpp"
#include "ppatc/runtime/parallel.hpp"

namespace e2e {

namespace {

namespace obs = ppatc::obs;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double timeval_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) * 1e-3;
}

double self_cpu_ms() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return timeval_ms(ru.ru_utime) + timeval_ms(ru.ru_stime);
}

// Peak RSS of this process image. Not ru_maxrss: Linux carries the high-water
// mark of whatever ran in the process before execve (the shell that
// started the benchmark, for one) into it.
double self_peak_rss_mb() {
  std::ifstream in{"/proc/self/status"};
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
  }
  return std::max(std::thread::hardware_concurrency(), 1U);
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(':') != std::string::npos) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

std::string self_exe() {
  std::error_code ec;
  const auto p = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) throw std::runtime_error("cannot resolve /proc/self/exe");
  return p.string();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool setup_only = false;
  std::size_t threads = 0;  ///< 0 = min(4, nproc)
  std::string git = "unknown";
  std::string out;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "ppatc_bench: %s\n"
               "usage: ppatc_bench --workload <paper_repro|optimize|uncertainty|embench_mix>\n"
               "                   [--seed N] [--seconds S] [--trace 0|1] [--threads N]\n"
               "                   [--git SHA] [--out results.json] [--setup-only]\n"
               "       ppatc_bench compare <runs A...> -- <runs B...>\n",
               problem.c_str());
  std::exit(2);
}

Options parse(const std::vector<std::string>& args) {
  Options o;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= args.size()) usage("missing value for " + a);
    const std::string& v = args[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = v == "1";
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      } else if (a == "--threads") {
        o.threads = std::stoul(v);
      } else if (a == "--git") {
        o.git = v;
      } else if (a == "--out") {
        o.out = v;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (std::find(workload_names().begin(), workload_names().end(), o.workload) ==
      workload_names().end()) {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

// Attempted and failed ops; every failure message goes to stderr.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::vector<std::string>& failures) {
    ++attempted;
    if (failures.empty()) return;
    ++failed;
    for (const std::string& f : failures) {
      std::fprintf(stderr, "ppatc_bench: FAILED %s\n", f.c_str());
    }
  }
  void add(const OpResult& r, std::uint64_t reference) {
    std::vector<std::string> failures = r.failures;
    if (r.fingerprint != reference) failures.push_back("outputs differ from the run's first op");
    add(failures);
  }
};

// set-up time: median over fresh `--setup-only` processes, each timed from
// spawn to exit (input construction plus the first cold, verified op).
double measure_setup_s(const Options& o, std::size_t threads, Tally& tally) {
  // Fresh processes vary far more than ops inside one (see README.md), so
  // the median needs more samples than a quick check would suggest.
  constexpr int kSetups = 11;
  const std::string exe = self_exe();
  std::vector<double> seconds;
  for (int i = 0; i < kSetups; ++i) {
    const ChildRun c = run_child(
        exe,
        {"--workload", o.workload, "--seed", std::to_string(o.seed), "--threads",
         std::to_string(threads), "--setup-only"},
        {"PPATC_THREADS=" + std::to_string(threads)}, /*quiet=*/true);
    tally.add(c.status == 0 ? std::vector<std::string>{}
                            : std::vector<std::string>{"--setup-only run exited with status " +
                                                       std::to_string(c.status)});
    seconds.push_back(c.wall_ms * 1e-3);
  }
  return median(seconds);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5)];
}

Metrics untraced_run(const Options& o, const Context& ctx, Tally& tally) {
  std::unique_ptr<Workload> w = make_workload(o.workload, ctx);
  const OpResult first = w->op(0, /*check_golden=*/true);
  tally.add(first.failures);

  std::vector<double> op_ms;
  double child_cpu_ms = 0.0;
  double child_rss_mb = 0.0;
  const double cpu_before = self_cpu_ms();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(o.seconds));
  Clock::time_point end = start;
  for (std::uint64_t i = 1; Clock::now() < deadline; ++i) {
    const Clock::time_point t0 = Clock::now();
    const OpResult r = w->op(i, false);
    end = Clock::now();
    op_ms.push_back(ms_between(t0, end));
    tally.add(r, first.fingerprint);
    for (const ChildRun& c : w->children()) {
      child_cpu_ms += c.cpu_ms;
      child_rss_mb = std::max(child_rss_mb, c.max_rss_mb);
    }
  }
  const double cpu_after = self_cpu_ms();
  tally.add(w->after_window());

  const auto ops = static_cast<double>(op_ms.size());
  Metrics m;
  m["op_p50_ms"] = median(op_ms);
  m["op_p90_ms"] = percentile(op_ms, 0.9);
  m["ops_per_s"] = ops / (ms_between(start, end) * 1e-3);
  m["cpu_ms_per_op"] = (cpu_after - cpu_before + child_cpu_ms) / ops;
  m["peak_rss_mb"] = w->children().empty() ? self_peak_rss_mb() : child_rss_mb;
  m["setup_s"] = measure_setup_s(o, ctx.threads, tally);
  m["error_rate"] = static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
  return m;
}

Metrics traced_run(const Options& o, const Context& ctx, Tally& tally,
                   obs::FoldedProfile& profile_out) {
  std::unique_ptr<Workload> w = make_workload(o.workload, ctx);
  const OpResult first = w->op(0, /*check_golden=*/true);
  tally.add(first.failures);
  const std::size_t n = traced_ops(o.workload);
  const bool has_children = !w->children().empty();

  // Traced and untraced ops alternate, so both see the same machine and
  // their difference is the tracing overhead. The untraced ops also time
  // paper_repro's artifacts from outside.
  LedgerInput in;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::map<std::string, std::vector<double>> artifact_ms;
  obs::reset_metrics();
  obs::reset_trace();
  obs::reset_prof();
  for (std::uint64_t i = 1; i <= 2 * n; ++i) {
    const bool traced = i % 2 == 0;
    obs::set_metrics_enabled(traced);
    obs::set_tracing_enabled(traced);
    if (has_children) {
      w->trace_children(traced ? &in : nullptr);
    } else if (traced) {
      obs::start_profiler(obs::kProfDefaultHz);
    }
    const std::uint64_t insn_before = w->iss_instructions();
    const double cpu_before = self_cpu_ms();
    const Clock::time_point t0 = Clock::now();
    const OpResult r = w->op(i, false);
    const double op_ms = ms_between(t0, Clock::now());
    if (!has_children && traced) obs::stop_profiler();
    tally.add(r, first.fingerprint);
    if (!traced) {
      untraced_ms.push_back(op_ms);
      for (std::size_t k = 0; k < w->children().size(); ++k) {
        artifact_ms[artifacts()[k]].push_back(w->children()[k].wall_ms);
      }
      continue;
    }
    traced_ms.push_back(op_ms);
    in.iss_instructions += w->iss_instructions() - insn_before;
    if (!has_children) in.profiled_cpu_ms += self_cpu_ms() - cpu_before;
  }
  obs::set_tracing_enabled(false);
  obs::set_metrics_enabled(false);

  in.ops = n;
  in.threads = ctx.threads;
  for (const double t : traced_ms) in.op_wall_ms += t;
  in.traced_p50_ms = median(traced_ms);
  in.untraced_p50_ms = median(untraced_ms);
  for (const auto& [artifact, ms] : artifact_ms) in.repro_wall_ms[artifact] = median(ms);
  std::map<std::string, std::string> binaries;
  if (has_children) {
    add_profile_self_time(in);
    for (const std::string& a : artifacts()) binaries[a] = ctx.artifact_dir + "/" + a;
  } else {
    in.counters = obs::metrics_snapshot().counters;
    in.profile = obs::parse_folded(obs::prof_to_folded(obs::prof_snapshot()));
    const std::string exe = self_exe();
    binaries[std::filesystem::path{exe}.filename().string()] = exe;
  }
  resolve_local_frames(in.profile, binaries);
  add_trace_spans(obs::trace_snapshot(), in);
  profile_out = in.profile;
  return compute_ledger(in);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run_main(const Options& o) {
  // A developer's shell must not silently slow (or reshape) the measured run.
  for (const char* var : {"PPATC_TRACE", "PPATC_METRICS", "PPATC_METRICS_INTERVAL", "PPATC_PROFILE",
                          "PPATC_FLIGHT", "BENCH_MANIFEST_OUT"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "ppatc_bench: refusing to run with %s set; unset it first\n", var);
      return 2;
    }
  }
  const std::size_t nproc = online_cpus();
  Context ctx;
  ctx.seed = o.seed;
  ctx.threads = o.threads != 0 ? o.threads : std::min<std::size_t>(4, nproc);
  ctx.artifact_dir = E2E_ARTIFACT_DIR;
  ctx.golden_dir = E2E_GOLDEN_DIR;
  ctx.work_dir = std::string{E2E_WORK_DIR} + "/tmp";
  std::filesystem::create_directories(ctx.work_dir);
  ppatc::runtime::set_thread_count(ctx.threads);

  Tally tally;
  if (o.setup_only) {
    tally.add(make_workload(o.workload, ctx)->op(0, /*check_golden=*/true).failures);
    return tally.failed == 0 ? 0 : 1;
  }

  obs::FoldedProfile profile;
  const Metrics m = o.trace ? traced_run(o, ctx, tally, profile) : untraced_run(o, ctx, tally);

  const std::string mode = o.trace ? "traced" : "untraced";
  const std::string stem = std::string{E2E_WORK_DIR} + "/results/" + o.workload + ".seed" +
                           std::to_string(o.seed) + "." + mode;
  const std::string out = o.out.empty() ? stem + ".json" : o.out;
  std::filesystem::create_directories(std::filesystem::path{out}.parent_path());
  obs::RunManifest manifest{"e2e." + o.workload + (o.trace ? ".traced" : "")};
  const std::size_t dash = o.git.rfind("-dirty");
  manifest.set_provenance("git_sha", o.git.substr(0, dash));
  manifest.set_provenance("git_dirty", dash == std::string::npos ? "no" : "yes");
  manifest.set_provenance("nproc", std::to_string(nproc));
  manifest.set_provenance("threads", std::to_string(ctx.threads));
  manifest.set_provenance("seed", std::to_string(o.seed));
  manifest.set_provenance("compiler", E2E_COMPILER);
  manifest.set_provenance("build_type", E2E_BUILD_TYPE);
  manifest.set_provenance("cpu_model", cpu_model());
  if (o.trace) {
    manifest.set_config("traced_ops", static_cast<double>(traced_ops(o.workload)), "ops");
  } else {
    manifest.set_config("window", o.seconds, "s");
  }

  std::printf("ppatc_bench %s %s: seed %llu, threads %zu of %zu cpus, %llu attempted, "
              "%llu failed\n",
              o.workload.c_str(), mode.c_str(), static_cast<unsigned long long>(o.seed),
              ctx.threads, nproc, static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  std::string json_metrics;
  for (const MetricDef& d : o.trace ? layer_metrics() : end_to_end_metrics()) {
    const double v = m.at(d.name);
    manifest.record(d.name, v, d.unit, {.abs_tol = d.abs_bound, .rel_tol = d.rel_bound});
    std::printf("  %-36s %16.6g  %s\n", d.name.c_str(), v, d.unit.c_str());
    if (!d.headline) continue;
    json_metrics += (json_metrics.empty() ? "" : ", ") + ("\"" + d.name + "\": {\"value\": ") +
                    json_number(v) + ", \"unit\": \"" + d.unit + "\"}";
  }
  manifest.write(out);
  std::printf("results: %s\n", out.c_str());
  if (o.trace) {
    const std::string folded = stem + ".folded";
    std::ofstream{folded} << obs::format_folded(profile);
    std::printf("profile: %s\n", folded.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), json_metrics.c_str());
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

ChildRun run_child(const std::string& path, const std::vector<std::string>& args,
                   const std::vector<std::string>& env, bool quiet) {
  std::vector<char*> argv{const_cast<char*>(path.c_str())};
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (const std::string& e : env) envp.push_back(const_cast<char*>(e.c_str()));
  envp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  if (quiet) ::posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  const Clock::time_point t0 = Clock::now();
  pid_t pid = 0;
  const int rc = ::posix_spawn(&pid, path.c_str(), &actions, nullptr, argv.data(), envp.data());
  ::posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot start " + path + ": " + std::strerror(rc));
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed for " + path);
  }
  ChildRun c;
  c.wall_ms = ms_between(t0, Clock::now());
  c.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  c.cpu_ms = timeval_ms(ru.ru_utime) + timeval_ms(ru.ru_stime);
  c.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return c;
}

}  // namespace e2e

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (!args.empty() && args[0] == "compare") {
      return e2e::compare_main({args.begin() + 1, args.end()});
    }
    return e2e::run_main(e2e::parse(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppatc_bench: %s\n", e.what());
    return 1;
  }
}
