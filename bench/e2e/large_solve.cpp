// large_solve: one new, large system — the 2D Laplacian on a 512 mesh
// (n = 261 121, nnz 1.30 M) — preconditioned with one MCMC build and
// solved with BiCGStab, as an HPC user would for a system nobody has seen.
// About 70% of the time is Krylov/SpMV/apply and 30% one standalone walk
// build; the working set (~70 MB computed) sits under the 105 MB LLC.  It
// is the only workload where OpenMP scaling, the fused recurrences and the
// SpmvPlan can show, so traced runs also take the single-threaded baseline.

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <memory>

#include "gen/laplace.hpp"
#include "krylov/solver.hpp"
#include "mcmc/inverter.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace mcmi;

constexpr index_t kMesh = 512;
constexpr index_t kSmokeMesh = 128;
/// x_M = (1, 1/16, 1/16): 117 chains per row, ~122 M transitions.
constexpr McmcParams kParams{1.0, 1.0 / 16, 1.0 / 16};
constexpr double kResidualLimit = 1e-6;
/// Nominal time of one 4-thread answer: a default 20 s run measures 7.
constexpr double kAnswerSeconds = 2.8;
constexpr int kMinAnswers = 3;

int parallel_threads() {
#ifdef _OPENMP
  return std::min(4, omp_get_num_procs());
#else
  return 1;
#endif
}

void set_threads(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

SolveOptions solve_options() {
  SolveOptions so;
  so.tolerance = 1e-8;
  so.max_iterations = 20000;
  return so;
}

struct Inputs {
  int unit = 0;
  CsrMatrix a;
  std::vector<real_t> b;
  u64 walk_seed = 0;
};

/// The inputs of answer `unit`: a freshly generated matrix, so the lazily
/// built plans are cold as they are for a user's new system, with the
/// unit's own right-hand side and walk seed.  The iteration count moves by
/// ~10% between seeds; drawing a seed per answer makes a run's median an
/// average over those draws instead of one draw.
Inputs generate(const Options& opts, int unit) {
  trace::Scope span("gen", "laplace_2d");
  Inputs in;
  in.unit = unit;
  in.a = laplace_2d(opts.smoke ? kSmokeMesh : kMesh);
  in.b = random_rhs(in.a.rows(), sub_seed(opts.seed, 10 + unit));
  in.walk_seed = sub_seed(opts.seed, 1000 + unit);
  return in;
}

struct Unit {
  int input = 0;  ///< the unit number its inputs were generated for
  int threads = 1;
  double build_seconds = 0.0;
  double solve_seconds = 0.0;
  long long transitions = 0;
  index_t iterations = 0;
  double residual = 0.0;  ///< true relative residual of the answer
  bool ok = false;
  u64 p_fingerprint = 0;
  std::unique_ptr<SparseApproximateInverse> p;

  [[nodiscard]] double seconds() const { return build_seconds + solve_seconds; }
};

/// One timed unit: McmcInverter::compute() + BiCGStab solve at `threads`,
/// then (untimed) the true-residual check and P's fingerprint.
Unit run_unit(const Inputs& in, int threads) {
  set_threads(threads);
  Unit u;
  u.input = in.unit;
  u.threads = threads;
  std::vector<real_t> x;
  SolveResult res;
  {
    trace::Scope root(threads == 1 ? "workload_1t" : "workload",
                      "build + solve");
    McmcOptions mo;
    mo.seed = in.walk_seed;
    McmcInverter inverter(in.a, kParams, mo);
    double t0 = trace::now();
    {
      trace::Scope span("mcmc", "McmcInverter::compute");
      u.p = std::make_unique<SparseApproximateInverse>(inverter.compute(),
                                                       "mcmcmi");
    }
    u.build_seconds = trace::now() - t0;
    u.transitions = inverter.info().total_transitions;
    t0 = trace::now();
    {
      trace::Scope span("krylov", "solve bicgstab");
      res = solve(KrylovMethod::kBiCGStab, in.a, in.b, *u.p, x,
                  solve_options());
    }
    u.solve_seconds = trace::now() - t0;
  }
  u.iterations = res.iterations;
  u.residual = true_residual(in.a, in.b, x);
  u.ok = res.converged() && u.residual <= kResidualLimit;
  u.p_fingerprint = u.p->matrix().content_fingerprint();
  return u;
}

/// The measured section: a fixed number of multi-threaded units, each on
/// freshly generated inputs of its own unit number; each generation is one
/// timed set-up, and `in` holds the last unit's inputs on return.  Traced
/// and smoke runs then repeat unit 0 single-threaded: the baseline run, and
/// the check that the answer does not depend on the thread count.  It
/// takes half a default run, so the end-to-end runs leave it out.
std::vector<Unit> run_pass(Inputs& in, const Options& opts,
                           SetupTimes& setups) {
  std::vector<Unit> units;
  auto next = [&](int unit, int threads) {
    if (!units.empty()) units.back().p.reset();  // only the last P is probed
    in = Inputs();  // released before the timer, as in every set-up
    setups.time([&] { in = generate(opts, unit); });
    units.push_back(run_unit(in, threads));
  };
  const int answers = answer_count(opts.seconds, kAnswerSeconds, kMinAnswers);
  for (int unit = 0; unit < answers; ++unit) next(unit, parallel_threads());
  if (opts.trace || opts.smoke) next(0, 1);
  set_threads(parallel_threads());
  return units;
}

std::vector<double> parallel_seconds(const std::vector<Unit>& units) {
  std::vector<double> out;
  for (const Unit& u : units) {
    if (u.threads != 1) out.push_back(u.seconds());
  }
  return out;
}

}  // namespace

void run_large_solve(const Options& opts, Result& result) {
  Inputs in;
  SetupTimes setups;
  std::vector<Unit> units = run_pass(in, opts, setups);
  setups.report(result);
  result.set("gen.setup_s", setups.median());
  const double untraced_unit = median(parallel_seconds(units));
  double traced_cpu = 0.0;
  if (opts.trace) {
    const Unit& first = units.front();
    const index_t untraced_iters = first.iterations;
    const u64 untraced_p = first.p_fingerprint;
    trace::Recorder::instance().set_enabled(true);
    SetupTimes traced_setups;
    const double cpu0 = cpu_seconds();
    units = run_pass(in, opts, traced_setups);
    traced_cpu = cpu_seconds() - cpu0;
    result.check(untraced_iters == units.front().iterations &&
                     untraced_p == units.front().p_fingerprint,
                 "large_solve: tracing changed P or the iteration count");
  }

  // Output checks: every solve reaches the true residual, and a repeat of
  // unit 0 (the single-threaded one) has the same P and step count.
  std::vector<double> iterations;
  for (const Unit& u : units) {
    result.operation(!u.ok);
    result.check(u.ok, "large_solve: solve at " + std::to_string(u.threads) +
                           " thread(s) missed the true residual limit");
    if (u.input == 0) {
      result.check(u.p_fingerprint == units.front().p_fingerprint &&
                       u.iterations == units.front().iterations,
                   "large_solve: P or the iteration count depends on the "
                   "thread count");
    }
    if (u.threads != 1) iterations.push_back(static_cast<double>(u.iterations));
  }

  const std::vector<double> tts = parallel_seconds(units);
  std::vector<double> tts_ms;
  for (double s : tts) tts_ms.push_back(s * 1e3);
  report_answers(result, tts_ms);
  result.context("answers_ms", join(tts_ms));
  result.context("iterations", join(iterations));
  result.context("threads", static_cast<double>(parallel_threads()));
  result.context("n", static_cast<double>(in.a.rows()));
  result.context("nnz", static_cast<double>(in.a.nnz()));
  const Unit& last = units.back();
  const double n = static_cast<double>(in.a.rows());
  // A and P streamed once each, plus BiCGStab's eight length-n vectors.
  const double working_set_mb =
      (spmv_bytes(in.a) + spmv_bytes(last.p->matrix()) + 8.0 * 8.0 * n) / 1e6;
  result.context("working_set_mb", working_set_mb);
  if (!opts.trace) return;

  // Per-layer probes on the last unit's system (unit 0's, single-threaded),
  // at the parallel thread count unless named _1t.
  std::vector<double> build_rates, solve_ms;
  double residual = 0.0;
  for (const Unit& u : units) {
    residual = std::max(residual, u.residual);
    if (u.threads == 1) continue;
    build_rates.push_back(static_cast<double>(u.transitions) /
                          u.build_seconds / 1e6);
    solve_ms.push_back(u.solve_seconds * 1e3);
  }
  result.set("mcmc.mtrans_per_s", median(build_rates));
  result.set("mcmc.mtrans_1t_per_s", static_cast<double>(last.transitions) /
                                         last.build_seconds / 1e6);
  result.set("mcmc.transitions", static_cast<double>(last.transitions));
  result.set("krylov.solve_ms_p50", median(solve_ms));
  result.set("krylov.iters_mean", mean(iterations));
  result.set("krylov.true_residual_max", residual);
  const double speedup = last.seconds() / units.front().seconds();
  result.set("scaling.speedup_4t", speedup);
  result.set("scaling.eff_4t",
             speedup / static_cast<double>(parallel_threads()));

  std::vector<real_t> x;
  {
    trace::Scope span("krylov", "solve bicgstab unpreconditioned");
    const double t0 = trace::now();
    const SolveResult r = solve(KrylovMethod::kBiCGStab, in.a, in.b,
                                IdentityPreconditioner{}, x, solve_options());
    result.context("unpreconditioned_ms", (trace::now() - t0) * 1e3);
    result.check(r.converged(), "large_solve: unpreconditioned baseline "
                                "did not converge");
    result.set("krylov.unprec_iters", static_cast<double>(r.iterations));
    result.set("quality.y", static_cast<double>(last.iterations) /
                                static_cast<double>(r.iterations));
  }
  report_probes(result, in.a, *last.p);
  {
    trace::Scope span("sparse", "CsrMatrix::multiply probe, 1 thread");
    std::vector<real_t> v(static_cast<std::size_t>(in.a.cols()), 1.0), y;
    set_threads(1);
    result.set("sparse.spmv_1t_gbps",
               bandwidth_gbps([&] { in.a.multiply(v, y); }, spmv_bytes(in.a),
                              0.2));
    set_threads(parallel_threads());
  }
  report_trace(opts, result, "workload", untraced_unit, median(tts),
               traced_cpu);
}

}  // namespace e2e
