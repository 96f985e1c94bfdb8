#include "pipeline/metric.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "stats/summary.hpp"

namespace mcmi {

PerformanceMeasurer::PerformanceMeasurer(const CsrMatrix& a,
                                         SolveOptions solve_options,
                                         McmcOptions mcmc_options,
                                         real_t y_cap)
    : a_(a), solve_options_(solve_options), mcmc_options_(mcmc_options),
      y_cap_(y_cap) {
  MCMI_CHECK(a.rows() == a.cols(), "metric needs a square system");
  // Fixed right-hand side b = (1, ..., 1): deterministic across replicates,
  // so all randomness comes from the preconditioner sampler.
  rhs_.assign(static_cast<std::size_t>(a.rows()), 1.0);
}

index_t PerformanceMeasurer::baseline_steps(KrylovMethod method) {
  const int m = static_cast<int>(method);
  if (baseline_[m] < 0) {
    IdentityPreconditioner identity;
    std::vector<real_t> x;
    const SolveResult res =
        solve(method, a_, rhs_, identity, x, solve_options_);
    baseline_[m] =
        res.converged() ? res.iterations : solve_options_.max_iterations;
  }
  return baseline_[m];
}

McmcOptions PerformanceMeasurer::replicate_options(index_t replicate) const {
  McmcOptions options = mcmc_options_;
  options.seed = mix64(mcmc_options_.seed +
                       0x9e3779b9 * static_cast<u64>(replicate + 1));
  return options;
}

index_t PerformanceMeasurer::label_budget(index_t steps_without) const {
  const index_t full = solve_options_.max_iterations;
  if (steps_without <= 0) return full;
  // The smallest B with B / steps_without >= y_cap in the arithmetic that
  // computes y.  ceil(y_cap * steps_without) alone can fall one short when
  // the product rounds down onto an integer: y_cap = 0.1 * 39 over 20 steps
  // gives 78, and 78 / 20 < y_cap.
  const auto s0 = static_cast<real_t>(steps_without);
  real_t budget = std::ceil(y_cap_ * s0);
  while (budget < static_cast<real_t>(full) && budget / s0 < y_cap_) {
    budget += 1.0;
  }
  return budget < static_cast<real_t>(full) ? static_cast<index_t>(budget)
                                            : full;
}

void PerformanceMeasurer::score_solve(const SparseApproximateInverse& precond,
                                      KrylovMethod method,
                                      MetricResult& result) const {
  // The solve stops at the label budget B, and the label is the one the
  // full budget gives:
  // - CG and BiCGStab loop `it < max_iterations`; GMRES reads
  //   max_iterations only once result.iterations reaches it (the restart
  //   check and the inner-loop bound).  Every step before B does the same
  //   arithmetic, so a solve that stops before B keeps its steps, status
  //   and x.
  // - A solve the full budget converges at step k >= B scored
  //   min(y_cap, k / s0) = y_cap; one that did not converge scored a miss.
  //   Under the cap it either converges at exactly B (GMRES verifies the
  //   cut cycle's iterate at the restart), scoring min(y_cap, B / s0) =
  //   y_cap, or misses.
  // - A miss counts solve_options_.max_iterations, as before: when
  //   B < max_iterations, max_iterations / s0 > B / s0 >= y_cap, so a miss
  //   scores y_cap too.  When B >= max_iterations nothing changes.
  SolveOptions options = solve_options_;
  options.max_iterations = label_budget(result.steps_without);
  std::vector<real_t> x;
  const SolveResult res = solve(method, a_, rhs_, precond, x, options);
  result.preconditioned_converged = res.converged();
  result.baseline_converged = true;  // baseline counted even when saturated
  result.steps_with =
      res.converged() ? res.iterations : solve_options_.max_iterations;
  result.y = std::min(y_cap_, static_cast<real_t>(result.steps_with) /
                                  static_cast<real_t>(result.steps_without));
}

MetricResult PerformanceMeasurer::measure(const McmcParams& params,
                                          KrylovMethod method,
                                          index_t replicate) {
  MetricResult result;
  result.steps_without = baseline_steps(method);

  McmcInverter inverter(a_, params, replicate_options(replicate));
  inverter.set_kernel_cache(&kernel_cache_);
  CsrMatrix p = inverter.compute();
  result.build = inverter.info();
  const SparseApproximateInverse precond(std::move(p), "mcmcmi");
  score_solve(precond, method, result);
  return result;
}

std::vector<MetricResult> PerformanceMeasurer::measure_grid(
    real_t alpha, const std::vector<GridTrial>& trials, KrylovMethod method,
    index_t replicate) {
  const index_t base = baseline_steps(method);

  BatchedGridResult built = batched_grid_build(
      a_, alpha, trials, replicate_options(replicate), &kernel_cache_);

  std::vector<MetricResult> results(trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) {
    MetricResult& result = results[t];
    result.steps_without = base;
    result.build = built.info[t];
    const SparseApproximateInverse precond(
        std::move(built.preconditioners[t]), "mcmcmi");
    score_solve(precond, method, result);
  }
  return results;
}

std::vector<u64> PerformanceMeasurer::replicate_seeds(
    index_t replicates) const {
  std::vector<u64> seeds;
  seeds.reserve(static_cast<std::size_t>(replicates));
  for (index_t r = 0; r < replicates; ++r) {
    seeds.push_back(replicate_options(r).seed);
  }
  return seeds;
}

std::vector<std::vector<real_t>> PerformanceMeasurer::measure_grid_replicates(
    real_t alpha, const std::vector<GridTrial>& trials, KrylovMethod method,
    index_t replicates) {
  return measure_grid_replicates_methods(alpha, trials, {method},
                                         replicates)[0];
}

std::vector<std::vector<std::vector<real_t>>>
PerformanceMeasurer::measure_grid_replicates_methods(
    real_t alpha, const std::vector<GridTrial>& trials,
    const std::vector<KrylovMethod>& methods, index_t replicates) {
  MCMI_CHECK(replicates >= 1, "need at least one replicate");
  MCMI_CHECK(!methods.empty(), "need at least one Krylov method");
  std::vector<index_t> bases;
  bases.reserve(methods.size());
  for (KrylovMethod method : methods) bases.push_back(baseline_steps(method));

  // One interleaved walk ensemble serves every (trial, replicate) — and
  // every method, because P does not depend on the solver: each replicate's
  // build is bit-identical to measure()'s, so the solves — and the y's —
  // match per-(method, replicate) loops exactly.
  ReplicatedGridResult built = replicate_batched_grid_build(
      a_, alpha, trials, replicate_seeds(replicates), mcmc_options_,
      &kernel_cache_);

  // One concurrent cell per (replicate, trial): it owns its P, solves it
  // once per method and writes pre-sized slots ys[m][t][r], so the output
  // does not depend on the schedule.  Baselines are cached above, so the
  // loop only reads shared state.
  const std::size_t num_trials = trials.size();
  const auto reps = static_cast<std::size_t>(replicates);
  std::vector<std::vector<std::vector<real_t>>> ys(
      methods.size(),
      std::vector<std::vector<real_t>>(num_trials, std::vector<real_t>(reps)));
  parallel_for(0, static_cast<index_t>(reps * num_trials), [&](index_t cell) {
    const std::size_t r = static_cast<std::size_t>(cell) / num_trials;
    const std::size_t t = static_cast<std::size_t>(cell) % num_trials;
    BatchedGridResult& round = built.replicates[r];
    const SparseApproximateInverse precond(
        std::move(round.preconditioners[t]), "mcmcmi");
    for (std::size_t m = 0; m < methods.size(); ++m) {
      MetricResult result;
      result.steps_without = bases[m];
      score_solve(precond, methods[m], result);
      ys[m][t][r] = result.y;
    }
  });
  return ys;
}

std::vector<real_t> PerformanceMeasurer::measure_grouped_medians(
    const std::vector<McmcParams>& grid, KrylovMethod method,
    index_t replicates) {
  MCMI_CHECK(replicates >= 1, "need at least one replicate");
  if (grid.empty()) return {};
  const index_t base = baseline_steps(method);
  const std::vector<AlphaGroup> groups = group_grid_by_alpha(grid);

  // The multi-alpha builder shares one ensemble's successor draws across
  // every alpha when the kernels allow it (alias path, bitwise-identical
  // tables) and falls back to one replicate-batched ensemble per alpha
  // otherwise; the per-(point, replicate) preconditioners — and so the
  // medians — are bit-identical either way.
  MultiAlphaGridResult built = multi_alpha_grid_build(
      a_, groups, replicate_seeds(replicates), mcmc_options_, &kernel_cache_);

  // Flatten the (group, replicate, trial) cells: cell_begin[g] is group g's
  // first cell, and each cell solves into its own pre-sized slot
  // ys[g][t][r], so the output does not depend on the schedule.
  const auto reps = static_cast<std::size_t>(replicates);
  std::vector<std::size_t> cell_begin(groups.size() + 1, 0);
  std::vector<std::vector<std::vector<real_t>>> ys(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::size_t num_trials = groups[g].trials.size();
    cell_begin[g + 1] = cell_begin[g] + reps * num_trials;
    ys[g].assign(num_trials, std::vector<real_t>(reps));
  }
  parallel_for(0, static_cast<index_t>(cell_begin.back()), [&](index_t cell) {
    const auto c = static_cast<std::size_t>(cell);
    const std::size_t g = static_cast<std::size_t>(
        std::upper_bound(cell_begin.begin(), cell_begin.end(), c) -
        cell_begin.begin() - 1);
    const std::size_t num_trials = groups[g].trials.size();
    const std::size_t r = (c - cell_begin[g]) / num_trials;
    const std::size_t t = (c - cell_begin[g]) % num_trials;
    BatchedGridResult& round = built.groups[g].replicates[r];
    MetricResult result;
    result.steps_without = base;
    const SparseApproximateInverse precond(
        std::move(round.preconditioners[t]), "mcmcmi");
    score_solve(precond, method, result);
    ys[g][t][r] = result.y;
  });

  std::vector<real_t> medians(grid.size(), 0.0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t t = 0; t < groups[g].trials.size(); ++t) {
      medians[static_cast<std::size_t>(groups[g].indices[t])] =
          median(ys[g][t]);
    }
  }
  return medians;
}

std::vector<real_t> PerformanceMeasurer::measure_replicates(
    const McmcParams& params, KrylovMethod method, index_t replicates) {
  MCMI_CHECK(replicates >= 1, "need at least one replicate");
  std::vector<real_t> ys;
  ys.reserve(static_cast<std::size_t>(replicates));
  for (index_t r = 0; r < replicates; ++r) {
    ys.push_back(measure(params, method, r).y);
  }
  return ys;
}

}  // namespace mcmi
