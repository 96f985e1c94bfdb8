#pragma once
// The MCMC preconditioning performance metric (eq. 4):
//
//   y(A, x_M) = (# Krylov steps with preconditioner)
//             / (# Krylov steps without preconditioner)
//
// Lower is better; y >= 1 means the preconditioner did not help (including
// the divergence scenarios deliberately present in the training data).

#include <vector>

#include "krylov/solver.hpp"
#include "mcmc/batched_build.hpp"
#include "mcmc/inverter.hpp"
#include "mcmc/params.hpp"
#include "sparse/csr.hpp"

namespace mcmi {

struct MetricResult {
  real_t y = 0.0;                ///< the eq. (4) ratio
  /// Preconditioned steps to convergence within the label budget, or the
  /// solve options' max_iterations for a miss, including a solve stopped
  /// at the budget.
  index_t steps_with = 0;
  index_t steps_without = 0;
  /// Converged within the label budget (see PerformanceMeasurer).
  bool preconditioned_converged = false;
  bool baseline_converged = false;
  McmcBuildInfo build;           ///< sampler diagnostics
};

/// Measures y(A, x_M) with replicate-seeded MCMC preconditioners.
/// The unpreconditioned baseline is deterministic and cached per solver, and
/// the walk kernel (with its alias tables) is cached per alpha — the grid /
/// HPO loops probe many (eps, delta) trials per alpha, so only the sampling
/// itself is redone per trial.
///
/// The batched probes (measure_grid_replicates*, measure_grouped_medians)
/// solve their (trial, replicate) cells concurrently through parallel_for,
/// each cell with its own P and its own output slot; every solve's kernels
/// stay serial at these sizes, so the y's are bit-identical at any thread
/// count.  A measurer is not itself thread-safe: call it from one thread.
///
/// Label budget: y = min(y_cap, steps_with / steps_without) is y_cap once a
/// preconditioned solve has run B = ceil(y_cap * steps_without) steps,
/// whatever it does next.  So each preconditioned solve stops at
/// min(max_iterations, B) steps, with B rounded so that B / steps_without
/// >= y_cap holds in floating point.  A miss still counts max_iterations
/// steps, and every step before B is the same arithmetic as under the full
/// budget, so every y is bit-identical to the full-budget label
/// (score_solve spells out why).  The unpreconditioned baseline always
/// runs the full budget.
class PerformanceMeasurer {
 public:
  /// `solve_options` applies to both baseline and preconditioned runs;
  /// non-convergent runs count max_iterations steps.  The ratio is capped
  /// at `y_cap` so divergence scenarios stay a bounded failure signal for
  /// the surrogate instead of dominating its loss.
  PerformanceMeasurer(const CsrMatrix& a, SolveOptions solve_options = {},
                      McmcOptions mcmc_options = {}, real_t y_cap = 4.0);

  /// One replicate.  The MCMC seed is keyed by (base seed, replicate).
  MetricResult measure(const McmcParams& params, KrylovMethod method,
                       index_t replicate);

  /// y over `replicates` runs (vector of length `replicates`).
  std::vector<real_t> measure_replicates(const McmcParams& params,
                                         KrylovMethod method,
                                         index_t replicates);

  /// Batched grid probe: one walk ensemble at this alpha serves every
  /// (eps, delta) trial (mcmc/batched_build.hpp), then one solve per trial.
  /// Element r of the result equals measure({alpha, eps_t, delta_t}, method,
  /// replicate) exactly — same seeds, bit-identical preconditioner.
  std::vector<MetricResult> measure_grid(real_t alpha,
                                         const std::vector<GridTrial>& trials,
                                         KrylovMethod method,
                                         index_t replicate);

  /// Replicated batched probe: ys[t][r] = y of trial t, replicate r
  /// (identical to measure_replicates per trial, at ONE interleaved walk
  /// ensemble for the whole (trial, replicate) grid — replicate lanes
  /// advance in lockstep, see replicate_batched_grid_build — instead of one
  /// ensemble per replicate).
  std::vector<std::vector<real_t>> measure_grid_replicates(
      real_t alpha, const std::vector<GridTrial>& trials, KrylovMethod method,
      index_t replicates);

  /// Multi-method replicated probe: ys[m][t][r] = y of methods[m], trial t,
  /// replicate r.  The preconditioner is method-independent, so ONE
  /// replicate-batched ensemble serves every method — each (trial,
  /// replicate) P is built once and solved once per method, with y's
  /// identical to per-method measure_grid_replicates calls.
  std::vector<std::vector<std::vector<real_t>>> measure_grid_replicates_methods(
      real_t alpha, const std::vector<GridTrial>& trials,
      const std::vector<KrylovMethod>& methods, index_t replicates);

  /// Median replicated y per point of an arbitrary parameter list, grouped
  /// by alpha internally and routed through multi_alpha_grid_build: one
  /// ensemble's successor draws serve every alpha when the kernels allow
  /// sharing, one replicate-batched ensemble per alpha otherwise.  Results
  /// are in source order and independent of which path ran.
  std::vector<real_t> measure_grouped_medians(
      const std::vector<McmcParams>& grid, KrylovMethod method,
      index_t replicates);

  /// Baseline (unpreconditioned) step count for a solver.
  index_t baseline_steps(KrylovMethod method);

  [[nodiscard]] const CsrMatrix& matrix() const { return a_; }
  [[nodiscard]] const SolveOptions& solve_options() const {
    return solve_options_;
  }

 private:
  /// Sampler options for one replicate: the seed keyed by (base seed,
  /// replicate) — the single definition both measure paths share, so the
  /// batched probe cannot drift from the per-trial one.
  [[nodiscard]] McmcOptions replicate_options(index_t replicate) const;
  /// The chain-stream seeds of replicates 0..replicates-1, in order — the
  /// lane seeds handed to the replicate-batched builders.
  [[nodiscard]] std::vector<u64> replicate_seeds(index_t replicates) const;
  /// Iteration limit of a preconditioned solve: the label budget above, or
  /// the full max_iterations when that is smaller or steps_without is 0.
  [[nodiscard]] index_t label_budget(index_t steps_without) const;
  /// Solve with `precond` within the label budget, fill the step counts and
  /// the capped eq. (4) ratio of `result` (steps_without must be set).
  /// Reads only immutable state, so concurrent cells may call it.
  void score_solve(const SparseApproximateInverse& precond,
                   KrylovMethod method, MetricResult& result) const;

  const CsrMatrix& a_;
  SolveOptions solve_options_;
  McmcOptions mcmc_options_;
  real_t y_cap_;
  std::vector<real_t> rhs_;
  index_t baseline_[3] = {-1, -1, -1};  // lazily computed per method
  WalkKernelCache kernel_cache_;        // walk kernels keyed by alpha
};

}  // namespace mcmi
