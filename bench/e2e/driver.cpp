// End-to-end benchmark driver: runs one named workload and prints its
// metrics as JSON (the last stdout line), preceded by a context line.
//
//   e2e_driver --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//              [--trace-dir DIR] [--smoke 0|1]
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// runs the same measured section untraced and then traced, prints the
// per-layer metrics, and writes a Chrome trace of the traced pass.  The
// process must be started with OMP_NUM_THREADS set to the workload's
// thread count (run.sh does this): the service workers take their OpenMP
// thread count from the environment, not from the main thread.

#ifdef _OPENMP
#include <omp.h>
#endif
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace e2e {
namespace {

/// End-to-end metrics: every workload reports each of them.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"mean_ms", "ms"},
};

/// The modules whose self time the trace fold reports, plus the open-loop
/// generator ("load").
const char* const kLayers[] = {"sparse", "mcmc",      "precond", "krylov",
                               "pipeline", "surrogate", "bo",      "solve",
                               "serve",  "load"};

/// Per-layer metrics: every workload reports each of them; a count, ratio
/// or rate of a layer the workload does not exercise reads 0.
std::vector<MetricSpec> layer_metrics() {
  std::vector<MetricSpec> m = {
      {"latency.p90_ms", "ms"},
      {"latency.p99_ms", "ms"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_frac", "ratio"},
      {"proc.cpu_s", "s"},
      {"proc.max_rss_mb", "MB"},
      {"gen.setup_s", "s"},
  };
  for (const char* layer : kLayers) {
    m.push_back({std::string(layer) + ".share", "ratio"});
  }
  m.insert(m.end(), {
      {"sparse.spmv_gbps", "GB/s"},
      {"sparse.spmv_1t_gbps", "GB/s"},
      {"sparse.working_set_mb", "MB"},
      {"precond.apply_gbps", "GB/s"},
      {"precond.nnz_ratio", "ratio"},
      {"mcmc.mtrans_per_s", "M/s"},
      {"mcmc.mtrans_1t_per_s", "M/s"},
      {"mcmc.grid_share", "ratio"},
      {"mcmc.transitions", "count"},
      {"krylov.solve_ms_p50", "ms"},
      {"krylov.iters_mean", "steps"},
      {"krylov.true_residual_max", "ratio"},
      {"krylov.unprec_iters", "steps"},
      {"scaling.speedup_4t", "ratio"},
      {"scaling.eff_4t", "ratio"},
      {"quality.y", "ratio"},
      {"quality.tuned_y", "ratio"},
      {"quality.grid_y", "ratio"},
      {"pipeline.samples", "count"},
      {"pipeline.grid_vs_eval", "ratio"},
      {"surrogate.val_loss", "mse"},
      {"solve.mcmc_frac", "ratio"},
      {"solve.iters_mean_warm", "steps"},
      {"solve.iters_mean_cold", "steps"},
      {"solve.warm_over_cold", "ratio"},
      {"serve.goodput_rps", "1/s"},
      {"serve.submit_frac", "ratio"},
      {"serve.warm_frac", "ratio"},
      {"serve.builds_completed", "count"},
      {"serve.coalesced_builds", "count"},
      {"serve.store_evictions", "count"},
      {"serve.shed", "count"},
      {"serve.expired", "count"},
      {"serve.rejected", "count"},
  });
  return m;
}

struct Workload {
  const char* name;
  void (*run)(const Options&, Result&);
  bool parallel;  ///< OpenMP at up to 4 threads (else 1)
};

const Workload kWorkloads[] = {
    {"autotune", run_autotune, true},
    {"large_solve", run_large_solve, true},
    {"serve_warm", run_serve_warm, false},
    {"serve_churn", run_serve_churn, false},
};

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Processors this process may run on (the affinity mask, like nproc).
int processors() {
#ifdef _OPENMP
  return omp_get_num_procs();
#else
  return static_cast<int>(std::thread::hardware_concurrency());
#endif
}

double llc_mb() {
  const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 ? static_cast<double>(bytes) / (1024.0 * 1024.0) : 0.0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "e2e_driver: %s\nusage: e2e_driver --workload "
               "<autotune|large_solve|serve_warm|serve_churn> [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-dir DIR] [--smoke 0|1]\n",
               why);
  return 2;
}

}  // namespace

void report_trace(const Options& opts, Result& result,
                  const std::string& root_layer, double untraced_unit,
                  double traced_unit, double traced_cpu) {
  trace::Recorder& rec = trace::Recorder::instance();
  rec.set_enabled(false);
  const std::vector<trace::Span> spans = rec.collect();
  const trace::Fold f = trace::fold(spans, root_layer);
  result.set("trace.coverage", f.coverage());
  result.check(f.coverage() >= 0.90,
               "trace: layer spans cover less than 90% of the wall time");
  result.set("trace.overhead_frac", traced_unit / untraced_unit - 1.0);
  for (const char* layer : kLayers) {
    result.set(std::string(layer) + ".share", f.share(layer));
  }
  result.set("proc.cpu_s", traced_cpu);
  result.set("proc.max_rss_mb", max_rss_mb());
  std::error_code ec;
  std::filesystem::create_directories(opts.trace_dir, ec);
  const std::string path = opts.trace_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".json";
  result.check(trace::write_chrome(path, spans), "trace: cannot write " + path);
  result.context("trace_file", path);
}

}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Options opts;
  opts.trace_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--trace-dir") {
      opts.trace_dir = value;
    } else if (arg == "--smoke") {
      opts.smoke = value == "1";
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opts.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown workload");

  const int nproc = processors();
  const int want = workload->parallel ? std::min(4, nproc) : 1;
  if (omp_threads() != want) {
    std::fprintf(stderr,
                 "e2e_driver: %s needs OMP_NUM_THREADS=%d (got %d threads)\n",
                 workload->name, want, omp_threads());
    return 2;
  }

  (void)trace::now();  // start the clock before any set-up
  Result result;
  result.context("workload", workload->name);
  result.context("seed", static_cast<double>(opts.seed));
  result.context("seconds", opts.seconds);
  result.context("traced", opts.trace ? 1.0 : 0.0);
  result.context("smoke", opts.smoke ? 1.0 : 0.0);
  const char* sha = std::getenv("MCMI_E2E_GIT_SHA");
  result.context("git_sha", sha != nullptr ? sha : "unknown");
  result.context("compiler", MCMI_E2E_COMPILER);
  result.context("build_type", MCMI_E2E_BUILD_TYPE);
  result.context("cxx_flags", MCMI_E2E_CXX_FLAGS);
  result.context("nproc", static_cast<double>(nproc));
  result.context("omp_num_threads", static_cast<double>(omp_threads()));
  result.context("llc_mb", llc_mb());
  try {
    workload->run(opts, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_driver: %s failed: %s\n", workload->name,
                 e.what());
    return 1;
  }
  result.print(opts.trace ? layer_metrics() : kEndToEnd);
  return 0;
}
