// Tests for src/pipeline: the eq. (4) metric and its label budget, dataset
// building shapes and measurement bookkeeping, and the thread-count
// invariance of the concurrent label loops.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/cancellation.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "gen/laplace.hpp"
#include "gen/matrix_set.hpp"
#include "pipeline/dataset_builder.hpp"
#include "pipeline/metric.hpp"
#include "precond/sparse_precond.hpp"
#include "stats/summary.hpp"

namespace mcmi {
namespace {

SolveOptions quick_solve() {
  SolveOptions opt;
  opt.restart = 250;
  opt.max_iterations = 1500;
  return opt;
}

/// Runs a scope at a fixed OpenMP thread count, restoring the previous
/// count on exit (a no-op without OpenMP).
class ThreadCount {
 public:
  explicit ThreadCount(int threads) {
#ifdef _OPENMP
    saved_ = omp_get_max_threads();
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
  }
  ~ThreadCount() {
#ifdef _OPENMP
    omp_set_num_threads(saved_);
#endif
  }
  ThreadCount(const ThreadCount&) = delete;
  ThreadCount& operator=(const ThreadCount&) = delete;

 private:
  int saved_ = 1;
};

/// Replicated y's of every divergence probe of build_dataset on `matrix`
/// (registered as `matrix_id`), in dataset order: probe-major,
/// GMRES-then-BiCGStab.
std::vector<std::vector<real_t>> divergence_ys(const NamedMatrix& matrix,
                                               index_t matrix_id,
                                               const DatasetBuildOptions& opt) {
  McmcOptions mcmc = opt.mcmc;
  mcmc.seed = mix64(opt.seed ^ static_cast<u64>(matrix_id + 1));
  PerformanceMeasurer measurer(matrix.matrix, opt.solve, mcmc);
  std::vector<std::vector<real_t>> ys;
  for (index_t d = 0; d < opt.divergence_samples; ++d) {
    const McmcParams probe{0.01 + 0.01 * static_cast<real_t>(d), 0.5, 0.5};
    for (KrylovMethod method :
         {KrylovMethod::kGMRES, KrylovMethod::kBiCGStab}) {
      ys.push_back(measurer.measure_replicates(probe, method, opt.replicates));
    }
  }
  return ys;
}

/// One label cell: an x_M point scored with one Krylov method.
struct LabelCell {
  McmcParams params;
  KrylovMethod method;
};

/// eq. (4) labels worked out by hand with the whole solve budget:
/// ys[cell][replicate], and how many of those solves ran past the label
/// budget ceil(y_cap * steps_without) — the solves the measurer cuts short.
struct FullBudgetLabels {
  std::vector<std::vector<real_t>> ys;
  index_t cut = 0;
};

/// Rebuilds every (cell, replicate) P the way PerformanceMeasurer seeds it
/// (replicate r draws from mix64(seed + 0x9e3779b9 * (r + 1))), solves it
/// once to `options.max_iterations` and applies eq. (4): a miss counts
/// max_iterations steps, the ratio is capped at `y_cap`.
FullBudgetLabels full_budget_labels(const CsrMatrix& a,
                                    const std::vector<LabelCell>& cells,
                                    const SolveOptions& options,
                                    const McmcOptions& mcmc,
                                    index_t replicates, real_t y_cap) {
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  auto steps = [&](const SolveResult& res) {
    return res.converged() ? res.iterations : options.max_iterations;
  };
  FullBudgetLabels out;
  for (const LabelCell& cell : cells) {
    std::vector<real_t> x;
    const IdentityPreconditioner identity;
    const index_t without =
        steps(solve(cell.method, a, b, identity, x, options));
    std::vector<real_t> ys;
    for (index_t r = 0; r < replicates; ++r) {
      McmcOptions seeded = mcmc;
      seeded.seed = mix64(mcmc.seed + 0x9e3779b9 * static_cast<u64>(r + 1));
      const SparseApproximateInverse p(
          McmcInverter(a, cell.params, seeded).compute(), "mcmcmi");
      const SolveResult res = solve(cell.method, a, b, p, x, options);
      if (static_cast<real_t>(res.iterations) >
          std::ceil(y_cap * static_cast<real_t>(without))) {
        ++out.cut;
      }
      ys.push_back(std::min(y_cap, static_cast<real_t>(steps(res)) /
                                       static_cast<real_t>(without)));
    }
    out.ys.push_back(std::move(ys));
  }
  return out;
}

/// The cells build_dataset labels for one matrix, in dataset order: the
/// grid with GMRES and BiCGStab, the CG block of an SPD matrix, then the
/// divergence probes with GMRES and BiCGStab.
std::vector<LabelCell> dataset_cells(const NamedMatrix& m,
                                     const DatasetBuildOptions& opt) {
  const KrylovMethod both[] = {KrylovMethod::kGMRES, KrylovMethod::kBiCGStab};
  std::vector<LabelCell> cells;
  for (const McmcParams& params : opt.grid) {
    for (KrylovMethod method : both) cells.push_back({params, method});
  }
  if (m.spd) {
    for (real_t eps : paper_eps_values()) {
      for (real_t delta : paper_eps_values()) {
        cells.push_back({{opt.cg_alpha, eps, delta}, KrylovMethod::kCG});
      }
    }
  }
  for (index_t d = 0; d < opt.divergence_samples; ++d) {
    const McmcParams probe{0.01 + 0.01 * static_cast<real_t>(d), 0.5, 0.5};
    for (KrylovMethod method : both) cells.push_back({probe, method});
  }
  return cells;
}

TEST(Metric, RatioBelowOneOnPreconditionableMatrix) {
  const NamedMatrix nm = make_matrix("a00512");
  PerformanceMeasurer measurer(nm.matrix, quick_solve());
  const MetricResult r =
      measurer.measure({1.0, 0.0625, 0.0625}, KrylovMethod::kGMRES, 0);
  EXPECT_TRUE(r.preconditioned_converged);
  EXPECT_LT(r.y, 1.0);
  EXPECT_EQ(r.steps_without, measurer.baseline_steps(KrylovMethod::kGMRES));
  EXPECT_NEAR(r.y,
              static_cast<real_t>(r.steps_with) /
                  static_cast<real_t>(r.steps_without),
              1e-12);
}

TEST(Metric, BaselineIsCachedAndDeterministic) {
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N64");
  PerformanceMeasurer measurer(nm.matrix, quick_solve());
  const index_t b1 = measurer.baseline_steps(KrylovMethod::kGMRES);
  const index_t b2 = measurer.baseline_steps(KrylovMethod::kGMRES);
  EXPECT_EQ(b1, b2);
  EXPECT_GT(b1, 0);
}

TEST(Metric, ReplicatesVaryButAreSeedStable) {
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N128");
  PerformanceMeasurer m1(nm.matrix, quick_solve());
  PerformanceMeasurer m2(nm.matrix, quick_solve());
  const std::vector<real_t> ys1 =
      m1.measure_replicates({1.0, 0.5, 0.0625}, KrylovMethod::kGMRES, 4);
  const std::vector<real_t> ys2 =
      m2.measure_replicates({1.0, 0.5, 0.0625}, KrylovMethod::kGMRES, 4);
  ASSERT_EQ(ys1.size(), 4u);
  EXPECT_EQ(ys1, ys2);  // identical seeds -> identical replicates
  // Replicates use different sampler seeds, so they are not all equal
  // (statistically certain at eps = 0.5 where N = 2 chains).
  bool any_different = false;
  for (std::size_t i = 1; i < ys1.size(); ++i) {
    if (ys1[i] != ys1[0]) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Metric, DivergentAlphaIsCappedFailureSignal) {
  const NamedMatrix nm = make_matrix("2DFDLaplace_16");
  McmcOptions mcmc;
  mcmc.walk_cap = 64;
  PerformanceMeasurer measurer(nm.matrix, quick_solve(), mcmc, 4.0);
  const MetricResult r =
      measurer.measure({0.01, 0.5, 0.5}, KrylovMethod::kGMRES, 0);
  EXPECT_GE(r.y, 1.0);
  EXPECT_LE(r.y, 4.0);  // the cap
}

TEST(Metric, MeasureGridMatchesPerTrialMeasure) {
  // The batched probe must reproduce measure() exactly: same replicate
  // seeds, bit-identical preconditioner, so identical step counts and y.
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N64");
  PerformanceMeasurer batched(nm.matrix, quick_solve());
  PerformanceMeasurer serial(nm.matrix, quick_solve());
  const real_t alpha = 1.0;
  const std::vector<GridTrial> trials = {
      {0.5, 0.5}, {0.25, 0.125}, {0.125, 0.0625}, {0.5, 0.0625}};
  for (index_t replicate = 0; replicate < 2; ++replicate) {
    const std::vector<MetricResult> grid =
        batched.measure_grid(alpha, trials, KrylovMethod::kGMRES, replicate);
    ASSERT_EQ(grid.size(), trials.size());
    for (std::size_t t = 0; t < trials.size(); ++t) {
      const MetricResult single = serial.measure(
          {alpha, trials[t].eps, trials[t].delta}, KrylovMethod::kGMRES,
          replicate);
      EXPECT_EQ(grid[t].steps_with, single.steps_with) << "trial " << t;
      EXPECT_EQ(grid[t].steps_without, single.steps_without);
      EXPECT_EQ(grid[t].y, single.y) << "trial " << t;  // bit-identical
      EXPECT_EQ(grid[t].build.total_transitions,
                single.build.total_transitions)
          << "trial " << t;
      EXPECT_EQ(grid[t].build.chains_per_row, single.build.chains_per_row);
      EXPECT_EQ(grid[t].build.walk_cutoff, single.build.walk_cutoff);
    }
  }
}

TEST(Metric, MeasureGridReplicatesShape) {
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N64");
  PerformanceMeasurer measurer(nm.matrix, quick_solve());
  const std::vector<GridTrial> trials = {{0.5, 0.5}, {0.25, 0.25}};
  const auto ys =
      measurer.measure_grid_replicates(1.0, trials, KrylovMethod::kGMRES, 3);
  ASSERT_EQ(ys.size(), 2u);
  for (const auto& column : ys) {
    ASSERT_EQ(column.size(), 3u);
    for (real_t y : column) EXPECT_GT(y, 0.0);
  }
  const auto per_trial =
      measurer.measure_replicates({1.0, 0.5, 0.5}, KrylovMethod::kGMRES, 3);
  EXPECT_EQ(ys[0], per_trial);  // identical replicate seeding
}

TEST(Metric, MeasureGridReplicatesMatchesPerReplicateMeasure) {
  // The interleaved replicate-batched path must reproduce measure() for
  // EVERY (trial, replicate) cell — bit-identical preconditioners, so
  // bit-identical y's.
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N64");
  PerformanceMeasurer batched(nm.matrix, quick_solve());
  PerformanceMeasurer serial(nm.matrix, quick_solve());
  const std::vector<GridTrial> trials = {
      {0.5, 0.5}, {0.25, 0.125}, {0.125, 0.0625}};
  const index_t replicates = 3;
  const auto ys = batched.measure_grid_replicates(
      2.0, trials, KrylovMethod::kBiCGStab, replicates);
  ASSERT_EQ(ys.size(), trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) {
    ASSERT_EQ(ys[t].size(), static_cast<std::size_t>(replicates));
    for (index_t r = 0; r < replicates; ++r) {
      const MetricResult single =
          serial.measure({2.0, trials[t].eps, trials[t].delta},
                         KrylovMethod::kBiCGStab, r);
      EXPECT_EQ(ys[t][static_cast<std::size_t>(r)], single.y)
          << "trial " << t << " replicate " << r;
    }
  }
}

TEST(Metric, MultiMethodGridMatchesPerMethodGrids) {
  // One ensemble serving both Krylov methods must score exactly like two
  // per-method probes: P is method-independent, so only the solves differ.
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N64");
  PerformanceMeasurer multi(nm.matrix, quick_solve());
  PerformanceMeasurer gmres_only(nm.matrix, quick_solve());
  PerformanceMeasurer bicg_only(nm.matrix, quick_solve());
  const std::vector<GridTrial> trials = {{0.5, 0.5}, {0.25, 0.125}};
  const auto ys = multi.measure_grid_replicates_methods(
      1.0, trials, {KrylovMethod::kGMRES, KrylovMethod::kBiCGStab}, 2);
  ASSERT_EQ(ys.size(), 2u);
  EXPECT_EQ(ys[0], gmres_only.measure_grid_replicates(
                       1.0, trials, KrylovMethod::kGMRES, 2));
  EXPECT_EQ(ys[1], bicg_only.measure_grid_replicates(
                       1.0, trials, KrylovMethod::kBiCGStab, 2));
}

TEST(Metric, GroupedMediansMatchPerPointMedians) {
  // measure_grouped_medians routes through the multi-alpha builder; the
  // alpha pair (1, 3) engages shared successor draws while 2.0 in the mix
  // forms its own group — medians must match plain per-point replicate
  // loops either way.
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N64");
  PerformanceMeasurer grouped(nm.matrix, quick_solve());
  PerformanceMeasurer serial(nm.matrix, quick_solve());
  const std::vector<McmcParams> grid = {{1.0, 0.5, 0.25},
                                        {3.0, 0.25, 0.125},
                                        {1.0, 0.25, 0.25},
                                        {2.0, 0.5, 0.125}};
  const index_t replicates = 3;
  const std::vector<real_t> medians =
      grouped.measure_grouped_medians(grid, KrylovMethod::kGMRES, replicates);
  ASSERT_EQ(medians.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::vector<real_t> ys =
        serial.measure_replicates(grid[i], KrylovMethod::kGMRES, replicates);
    EXPECT_EQ(medians[i], median(ys)) << "grid point " << i;
  }
}

TEST(Metric, GroupedMediansAreThreadCountInvariant) {
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N128");
  const std::vector<McmcParams> grid = {{1.0, 0.5, 0.25},
                                        {3.0, 0.25, 0.125},
                                        {1.0, 0.125, 0.25},
                                        {2.0, 0.5, 0.0625},
                                        {2.0, 0.0625, 0.5}};
  auto medians_at = [&](int threads) {
    const ThreadCount scope(threads);
    PerformanceMeasurer measurer(nm.matrix, quick_solve());
    return measurer.measure_grouped_medians(grid, KrylovMethod::kGMRES, 3);
  };
  const std::vector<real_t> one = medians_at(1);
  EXPECT_EQ(medians_at(4), one);
}

TEST(Metric, SolveErrorsPropagateFromConcurrentCells) {
  // A solve that throws must reach the caller as mcmi::Error, never
  // std::terminate.  restart = 0 makes every GMRES solve throw; here the
  // baseline solve ahead of the concurrent loop throws first.
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N64");
  const std::vector<GridTrial> trials = {{0.5, 0.5}, {0.25, 0.25}};
  const ThreadCount four(4);
  SolveOptions bad = quick_solve();
  bad.restart = 0;
  PerformanceMeasurer bad_solves(nm.matrix, bad);
  EXPECT_THROW(bad_solves.measure_grid_replicates_methods(
                   1.0, trials, {KrylovMethod::kGMRES}, 3),
               Error);

  // A pre-cancelled build token leaves every P empty (0 x 0).  The
  // unpreconditioned baselines still succeed, so the throw comes from P's
  // size check inside each concurrent cell's solve.
  CancelToken cancelled;
  cancelled.request_cancel();
  McmcOptions abandoned;
  abandoned.cancel = &cancelled;
  PerformanceMeasurer empty_ps(nm.matrix, quick_solve(), abandoned);
  EXPECT_THROW(empty_ps.measure_grid_replicates_methods(
                   1.0, trials,
                   {KrylovMethod::kGMRES, KrylovMethod::kBiCGStab}, 3),
               Error);
  EXPECT_THROW(empty_ps.measure_grouped_medians(
                   {{1.0, 0.5, 0.5}, {2.0, 0.25, 0.25}}, KrylovMethod::kGMRES,
                   3),
               Error);
}

TEST(LabelBudget, DatasetLabelsMatchFullBudgetLabels) {
  // Every label build_dataset makes for a two-matrix corpus — grid, CG
  // block and divergence probes — is bit-identical to the label of a solve
  // run to the full 4000-step budget, although the measurer stops each
  // solve once its label is settled.  The cut count keeps the comparison
  // from passing on a corpus where the budget never bites.
  DatasetBuildOptions opt;
  opt.replicates = 2;
  opt.grid = {{1.0, 0.5, 0.5}, {2.0, 0.25, 0.125}, {4.0, 0.125, 0.5}};
  const std::vector<NamedMatrix> corpus = {
      {"laplace_2d(8)", laplace_2d(8), true},
      make_matrix("PDD_RealSparse_N128")};
  const SurrogateDataset ds = build_dataset(corpus, opt);

  index_t cut = 0;
  std::size_t s = 0;
  for (std::size_t id = 0; id < corpus.size(); ++id) {
    McmcOptions mcmc = opt.mcmc;
    mcmc.seed = mix64(opt.seed ^ static_cast<u64>(id + 1));
    const FullBudgetLabels full =
        full_budget_labels(corpus[id].matrix, dataset_cells(corpus[id], opt),
                           opt.solve, mcmc, opt.replicates, 4.0);
    cut += full.cut;
    for (const std::vector<real_t>& ys : full.ys) {
      ASSERT_LT(s, ds.samples.size());
      EXPECT_EQ(ds.samples[s].y_mean, mean(ys)) << "sample " << s;
      EXPECT_EQ(ds.samples[s].y_std, sample_std(ys)) << "sample " << s;
      ++s;
    }
  }
  EXPECT_EQ(s, ds.samples.size());
  EXPECT_GT(cut, 0);
}

TEST(LabelBudget, NonIntegerCapKeepsLabels) {
  // y_cap = 2.5 over an odd GMRES baseline puts y_cap * steps_without
  // halfway between two integers; a budget rounded down would stop one
  // step before the label is settled.
  const NamedMatrix m = make_matrix("PDD_RealSparse_N128");
  const DatasetBuildOptions opt;
  const real_t y_cap = 2.5;
  PerformanceMeasurer measurer(m.matrix, opt.solve, opt.mcmc, y_cap);
  const real_t settled =
      y_cap *
      static_cast<real_t>(measurer.baseline_steps(KrylovMethod::kGMRES));
  ASSERT_NE(settled, std::floor(settled));
  const std::vector<LabelCell> cells = {
      {{0.01, 0.5, 0.5}, KrylovMethod::kGMRES},
      {{0.1, 0.0625, 0.0625}, KrylovMethod::kGMRES},
      {{1.0, 0.5, 0.5}, KrylovMethod::kGMRES},
      {{0.02, 0.5, 0.5}, KrylovMethod::kBiCGStab}};
  const index_t replicates = 2;
  const FullBudgetLabels full = full_budget_labels(
      m.matrix, cells, opt.solve, opt.mcmc, replicates, y_cap);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (index_t r = 0; r < replicates; ++r) {
      EXPECT_EQ(measurer.measure(cells[c].params, cells[c].method, r).y,
                full.ys[c][static_cast<std::size_t>(r)])
          << "cell " << c << " replicate " << r;
    }
  }
  EXPECT_GT(full.cut, 0);
}

TEST(LabelBudget, CapJustAboveAConvergedSolveKeepsItsRatio) {
  // With y_cap half a step above a solve's own step count k, the budget
  // ends one step after k, so the solve still converges inside it and
  // scores k / steps_without, below the cap.  A budget two or more steps
  // short would turn it into a capped miss.
  const NamedMatrix m = make_matrix("PDD_RealSparse_N128");
  const DatasetBuildOptions opt;
  PerformanceMeasurer uncapped(m.matrix, opt.solve, opt.mcmc,
                               std::numeric_limits<real_t>::infinity());
  const std::vector<LabelCell> cells = {
      {{1.0, 0.5, 0.5}, KrylovMethod::kGMRES},
      {{0.01, 0.5, 0.5}, KrylovMethod::kGMRES},
      {{1.0, 0.5, 0.5}, KrylovMethod::kBiCGStab},
      {{2.0, 0.25, 0.125}, KrylovMethod::kBiCGStab}};
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const MetricResult full = uncapped.measure(cells[c].params,
                                               cells[c].method, 0);
    ASSERT_TRUE(full.preconditioned_converged) << "cell " << c;
    const auto k = static_cast<real_t>(full.steps_with);
    const auto s0 = static_cast<real_t>(full.steps_without);
    PerformanceMeasurer capped(m.matrix, opt.solve, opt.mcmc,
                               (k + 0.5) / s0);
    const MetricResult got = capped.measure(cells[c].params,
                                            cells[c].method, 0);
    EXPECT_TRUE(got.preconditioned_converged) << "cell " << c;
    EXPECT_EQ(got.steps_with, full.steps_with) << "cell " << c;
    EXPECT_EQ(got.y, k / s0) << "cell " << c;
  }
}

TEST(LabelBudget, NothingCutWhenBudgetReachesMaxIterations) {
  // With max_iterations below ceil(y_cap * steps_without) every solve runs
  // to max_iterations as before, and a miss still scores
  // max_iterations / steps_without, below the cap.
  const NamedMatrix m = make_matrix("PDD_RealSparse_N128");
  DatasetBuildOptions opt;
  opt.solve.max_iterations = 80;
  PerformanceMeasurer measurer(m.matrix, opt.solve, opt.mcmc);
  ASSERT_GE(4 * measurer.baseline_steps(KrylovMethod::kGMRES),
            opt.solve.max_iterations);
  const std::vector<LabelCell> cells = {
      {{0.01, 0.5, 0.5}, KrylovMethod::kGMRES},
      {{0.1, 0.5, 0.5}, KrylovMethod::kGMRES},
      {{1.0, 0.25, 0.125}, KrylovMethod::kGMRES}};
  const index_t replicates = 2;
  const FullBudgetLabels full = full_budget_labels(
      m.matrix, cells, opt.solve, opt.mcmc, replicates, 4.0);
  bool below_cap_miss = false;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (index_t r = 0; r < replicates; ++r) {
      const MetricResult got =
          measurer.measure(cells[c].params, cells[c].method, r);
      EXPECT_EQ(got.y, full.ys[c][static_cast<std::size_t>(r)])
          << "cell " << c << " replicate " << r;
      if (!got.preconditioned_converged && got.y < 4.0) below_cap_miss = true;
    }
  }
  EXPECT_EQ(full.cut, 0);
  EXPECT_TRUE(below_cap_miss);
}

TEST(DatasetBuilder, SampleCountFormula) {
  // One SPD matrix: 64 grid x 2 solvers + 16 CG + 2 divergence x 2 solvers.
  DatasetBuildOptions opt;
  opt.replicates = 2;
  const std::vector<NamedMatrix> mats = {make_matrix("2DFDLaplace_16")};
  const SurrogateDataset ds = build_dataset(mats, opt);
  EXPECT_EQ(ds.num_matrices(), 1);
  EXPECT_EQ(ds.size(), 64 * 2 + 16 + 4);
  // One non-SPD matrix: no CG block.
  const std::vector<NamedMatrix> mats2 = {make_matrix("PDD_RealSparse_N64")};
  const SurrogateDataset ds2 = build_dataset(mats2, opt);
  EXPECT_EQ(ds2.size(), 64 * 2 + 4);

  // The divergence labels close each matrix's block.  They ride the
  // batched grid path, and must equal per-probe measure_replicates labels
  // value for value, in the same probe-major, GMRES-then-BiCGStab order.
  for (const SurrogateDataset* d : {&ds, &ds2}) {
    const NamedMatrix& m = d == &ds ? mats[0] : mats2[0];
    const std::vector<std::vector<real_t>> ys = divergence_ys(m, 0, opt);
    ASSERT_EQ(ys.size(), 4u);
    const std::size_t first = d->samples.size() - ys.size();
    for (std::size_t k = 0; k < ys.size(); ++k) {
      const LabeledSample& s = d->samples[first + k];
      EXPECT_EQ(s.y_mean, mean(ys[k])) << m.name << " probe label " << k;
      EXPECT_EQ(s.y_std, sample_std(ys[k])) << m.name << " probe label " << k;
      EXPECT_DOUBLE_EQ(s.xm[k % 2 == 0 ? 4 : 5], 1.0);  // GMRES, BiCGStab
    }
  }
}

TEST(DatasetBuilder, RepeatedNameReusesMatrixId) {
  // A corpus that names one matrix twice registers it once, and every
  // label of the repeat — grid, CG and divergence blocks alike — carries
  // the first entry's id and seed, so it repeats the first block exactly.
  DatasetBuildOptions opt;
  opt.replicates = 2;
  opt.grid = {{1.0, 0.5, 0.5}};
  opt.divergence_samples = 1;
  const NamedMatrix a = make_matrix("2DFDLaplace_16");  // SPD: has CG labels
  const NamedMatrix b = make_matrix("PDD_RealSparse_N64");
  const SurrogateDataset ds = build_dataset({a, b, a}, opt);
  EXPECT_EQ(ds.num_matrices(), 2);
  const std::size_t a_block = 2 + 16 + 2;  // grid x 2, CG, divergence x 2
  const std::size_t b_block = 2 + 2;
  ASSERT_EQ(ds.samples.size(), 2 * a_block + b_block);
  for (std::size_t k = 0; k < a_block; ++k) {
    const LabeledSample& first = ds.samples[k];
    const LabeledSample& repeat = ds.samples[a_block + b_block + k];
    EXPECT_EQ(repeat.matrix_id, 0) << "label " << k;
    EXPECT_EQ(repeat.xm, first.xm) << "label " << k;
    EXPECT_EQ(repeat.y_mean, first.y_mean) << "label " << k;
    EXPECT_EQ(repeat.y_std, first.y_std) << "label " << k;
  }
}

TEST(DatasetBuilder, LabelsAreThreadCountInvariant) {
  // The label loops solve concurrently; every label (and every matrix
  // feature) must be bit-identical at 1 and 4 threads.
  DatasetBuildOptions opt;
  opt.replicates = 2;
  const std::vector<NamedMatrix> mats = {make_matrix("2DFDLaplace_16"),
                                         make_matrix("PDD_RealSparse_N64")};
  SurrogateDataset serial, parallel;
  {
    const ThreadCount one(1);
    serial = build_dataset(mats, opt);
  }
  {
    const ThreadCount four(4);
    parallel = build_dataset(mats, opt);
  }
  ASSERT_EQ(parallel.size(), serial.size());
  EXPECT_EQ(parallel.features, serial.features);
  for (std::size_t s = 0; s < serial.samples.size(); ++s) {
    EXPECT_EQ(parallel.samples[s].matrix_id, serial.samples[s].matrix_id);
    EXPECT_EQ(parallel.samples[s].xm, serial.samples[s].xm) << "sample " << s;
    EXPECT_EQ(parallel.samples[s].y_mean, serial.samples[s].y_mean)
        << "sample " << s;
    EXPECT_EQ(parallel.samples[s].y_std, serial.samples[s].y_std)
        << "sample " << s;
  }
}

TEST(DatasetBuilder, SamplesCarryEncodedSolver) {
  DatasetBuildOptions opt;
  opt.replicates = 2;
  opt.grid = {{1.0, 0.5, 0.5}};  // single grid point for speed
  opt.divergence_samples = 0;
  const std::vector<NamedMatrix> mats = {make_matrix("PDD_RealSparse_N64")};
  const SurrogateDataset ds = build_dataset(mats, opt);
  ASSERT_EQ(ds.size(), 2);
  EXPECT_DOUBLE_EQ(ds.samples[0].xm[4], 1.0);  // gmres one-hot
  EXPECT_DOUBLE_EQ(ds.samples[1].xm[5], 1.0);  // bicgstab one-hot
  for (const LabeledSample& s : ds.samples) {
    EXPECT_GE(s.y_mean, 0.0);
    EXPECT_GE(s.y_std, 0.0);
  }
}

TEST(DatasetBuilder, AppendReusesMatrixEntry) {
  DatasetBuildOptions opt;
  opt.replicates = 2;
  opt.grid = {{1.0, 0.5, 0.5}};
  opt.divergence_samples = 0;
  const NamedMatrix m = make_matrix("PDD_RealSparse_N64");
  SurrogateDataset ds = build_dataset({m}, opt);
  const index_t id1 = append_matrix_measurements(
      ds, m, {{2.0, 0.5, 0.5}}, {KrylovMethod::kGMRES}, opt);
  EXPECT_EQ(id1, 0);  // reused, not duplicated
  EXPECT_EQ(ds.num_matrices(), 1);
  EXPECT_EQ(ds.size(), 3);
  const NamedMatrix other = make_matrix("PDD_RealSparse_N128");
  const index_t id2 = append_matrix_measurements(
      ds, other, {{2.0, 0.5, 0.5}}, {KrylovMethod::kGMRES}, opt);
  EXPECT_EQ(id2, 1);
  EXPECT_EQ(ds.num_matrices(), 2);
}

TEST(DatasetBuilder, BatchedGridLabelsMatchPerTrialLabels) {
  // The alpha-grouped batched path must label exactly like the per-trial
  // loop it replaced: same sample order (grid-major, method-minor), same
  // means and deviations.  The grid interleaves two alphas to exercise the
  // group-and-scatter logic.
  DatasetBuildOptions opt;
  opt.replicates = 2;
  opt.divergence_samples = 0;
  opt.grid = {{1.0, 0.5, 0.5},
              {2.0, 0.5, 0.25},
              {1.0, 0.25, 0.5},
              {2.0, 0.25, 0.25}};
  const NamedMatrix m = make_matrix("PDD_RealSparse_N64");
  const SurrogateDataset ds = build_dataset({m}, opt);
  ASSERT_EQ(ds.size(), static_cast<index_t>(opt.grid.size() * 2));

  McmcOptions mcmc = opt.mcmc;
  mcmc.seed = mix64(opt.seed ^ 1u);  // matrix_id 0
  PerformanceMeasurer measurer(m.matrix, opt.solve, mcmc);
  std::size_t s = 0;
  for (const McmcParams& params : opt.grid) {
    for (KrylovMethod method :
         {KrylovMethod::kGMRES, KrylovMethod::kBiCGStab}) {
      const std::vector<real_t> ys =
          measurer.measure_replicates(params, method, opt.replicates);
      EXPECT_EQ(ds.samples[s].y_mean, mean(ys)) << "sample " << s;
      EXPECT_EQ(ds.samples[s].y_std, sample_std(ys)) << "sample " << s;
      ++s;
    }
  }
}

TEST(DatasetBuilder, GraphAndFeaturesMatchMatrix) {
  DatasetBuildOptions opt;
  opt.replicates = 2;
  opt.grid = {{1.0, 0.5, 0.5}};
  opt.divergence_samples = 0;
  const NamedMatrix m = make_matrix("PDD_RealSparse_N64");
  const SurrogateDataset ds = build_dataset({m}, opt);
  EXPECT_EQ(ds.graphs[0].num_nodes, m.matrix.rows());
  EXPECT_EQ(ds.graphs[0].num_edges(), m.matrix.nnz());
  EXPECT_FALSE(ds.features[0].empty());
  EXPECT_EQ(ds.matrix_names[0], "PDD_RealSparse_N64");
}

}  // namespace
}  // namespace mcmi
