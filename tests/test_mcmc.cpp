// Tests for src/mcmc: the Ulam–von Neumann estimator against exact inverses,
// eps/delta semantics, determinism, the filling cap, divergence handling and
// the regenerative variant.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/rng.hpp"
#include "dense/lu.hpp"
#include "dense/matrix.hpp"
#include "gen/laplace.hpp"
#include "gen/matrix_set.hpp"
#include "gen/random_sparse.hpp"
#include "krylov/solver.hpp"
#include "mcmc/inverter.hpp"
#include "mcmc/params.hpp"
#include "mcmc/regenerative.hpp"

namespace mcmi {
namespace {

/// Max |P - A_alpha^-1| over all entries, with A_alpha the perturbed matrix
/// the sampler actually inverts.
real_t inversion_error(const CsrMatrix& a, const CsrMatrix& p, real_t alpha) {
  std::vector<real_t> d = a.diag();
  for (real_t& v : d) v = alpha * std::abs(v);
  const CsrMatrix perturbed = a.add_diagonal(1.0, d);
  const DenseMatrix exact = dense_inverse(DenseMatrix::from_csr(perturbed));
  real_t err = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      err = std::max(err, std::abs(p.at(i, j) - exact(i, j)));
    }
  }
  return err;
}

TEST(Params, ChainsForEps) {
  // N = ceil((0.6745/eps)^2).
  EXPECT_EQ(chains_for_eps(1.0), 1);
  EXPECT_EQ(chains_for_eps(0.5), 2);
  EXPECT_EQ(chains_for_eps(0.0625), 117);
  EXPECT_THROW(chains_for_eps(0.0), Error);
  EXPECT_THROW(chains_for_eps(1.5), Error);
}

TEST(Params, WalkLengthForDelta) {
  // smallest T with b_norm^T <= delta.
  EXPECT_EQ(walk_length_for_delta(0.5, 0.5, 100), 1);
  EXPECT_EQ(walk_length_for_delta(0.25, 0.5, 100), 2);
  EXPECT_EQ(walk_length_for_delta(0.0625, 0.5, 100), 4);
  // Divergent kernel: capped.
  EXPECT_EQ(walk_length_for_delta(0.1, 1.5, 64), 64);
  // Zero kernel: single step.
  EXPECT_EQ(walk_length_for_delta(0.1, 0.0, 64), 1);
}

TEST(Params, PaperGridHas64Points) {
  const auto grid = paper_parameter_grid();
  EXPECT_EQ(grid.size(), 64u);
  EXPECT_DOUBLE_EQ(grid.front().alpha, 1.0);
  EXPECT_DOUBLE_EQ(grid.back().alpha, 5.0);
  EXPECT_DOUBLE_EQ(grid.back().eps, 0.0625);
}

TEST(Inverter, DiagonalMatrixIsExact) {
  // For a diagonal matrix every walk is absorbed immediately and
  // P = (A + alpha |A|)^-1 exactly.
  const CsrMatrix a = CsrMatrix::diagonal({2.0, -4.0, 8.0});
  McmcInverter inverter(a, {1.0, 0.5, 0.5});
  const CsrMatrix p = inverter.compute();
  EXPECT_NEAR(p.at(0, 0), 1.0 / 4.0, 1e-15);
  EXPECT_NEAR(p.at(1, 1), 1.0 / -8.0, 1e-15);
  EXPECT_NEAR(p.at(2, 2), 1.0 / 16.0, 1e-15);
}

TEST(Inverter, ConvergesToExactInverseAsEpsDeltaShrink) {
  const CsrMatrix a = random_diag_dominant(12, 3, 2.5, 41);
  McmcOptions opt;
  opt.filling_factor = 100.0;  // no cap: measure raw estimator quality
  opt.truncation_threshold = 0.0;
  const real_t err_coarse = inversion_error(
      a, McmcInverter(a, {0.5, 0.5, 0.5}, opt).compute(), 0.5);
  const real_t err_fine = inversion_error(
      a, McmcInverter(a, {0.5, 0.01, 0.001}, opt).compute(), 0.5);
  EXPECT_LT(err_fine, err_coarse);
  EXPECT_LT(err_fine, 0.02);
}

TEST(Inverter, InfoReflectsParameters) {
  const CsrMatrix a = laplace_2d(8);
  McmcInverter inverter(a, {2.0, 0.25, 0.125});
  (void)inverter.compute();
  const McmcBuildInfo& info = inverter.info();
  EXPECT_EQ(info.chains_per_row, chains_for_eps(0.25));
  EXPECT_TRUE(info.neumann_convergent);
  EXPECT_LT(info.b_norm_inf, 1.0);
  EXPECT_GT(info.total_transitions, 0);
}

TEST(Inverter, AlphaControlsNeumannConvergence) {
  // The Laplacian is not strictly diagonally dominant: alpha=0 leaves
  // ||B|| = 1, alpha=1 shrinks it to 0.5.
  const CsrMatrix a = laplace_2d(8);
  McmcInverter diverging(a, {0.0, 0.5, 0.5});
  (void)diverging.compute();
  EXPECT_GE(diverging.info().b_norm_inf, 1.0 - 1e-12);
  McmcInverter converging(a, {1.0, 0.5, 0.5});
  (void)converging.compute();
  EXPECT_NEAR(converging.info().b_norm_inf, 0.5, 1e-12);
  EXPECT_TRUE(converging.info().neumann_convergent);
}

TEST(Inverter, DeterministicAcrossRuns) {
  const CsrMatrix a = pdd_real_sparse(50, 0.1, 43);
  const CsrMatrix p1 = McmcInverter(a, {2.0, 0.25, 0.25}).compute();
  const CsrMatrix p2 = McmcInverter(a, {2.0, 0.25, 0.25}).compute();
  ASSERT_EQ(p1.nnz(), p2.nnz());
  EXPECT_EQ(p1.values(), p2.values());
  EXPECT_EQ(p1.col_idx(), p2.col_idx());
}

TEST(Inverter, DeterministicAcrossThreadCounts) {
  // The keyed-stream contract: every (row, chain) draws from a stream keyed
  // by its global index, so the assembled CSR must be bit-identical at any
  // OpenMP thread count.  This protects the alias
  // rewrite and the arena assembly, whose thread-private buffers must never
  // leak scheduling order into the output.
  const CsrMatrix a = pdd_real_sparse(60, 0.12, 77);
  const McmcParams params{1.0, 0.25, 0.0625};

  auto build = [&](int threads) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    return McmcInverter(a, params).compute();
  };

#ifdef _OPENMP
  const int saved = omp_get_max_threads();
#endif
  const CsrMatrix p_serial = build(1);
  const CsrMatrix p_parallel = build(4);
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif

  ASSERT_EQ(p_serial.nnz(), p_parallel.nnz());
  EXPECT_EQ(p_serial.row_ptr(), p_parallel.row_ptr());
  EXPECT_EQ(p_serial.col_idx(), p_parallel.col_idx());
  EXPECT_EQ(p_serial.values(), p_parallel.values());  // bit-identical
}

TEST(Inverter, AliasAndInverseCdfPathsAgree) {
  // A/B over the sampling method: both paths estimate the same Neumann sum,
  // so with tight (eps, delta) both must land near the exact inverse and
  // near each other on a small Laplace system.
  const CsrMatrix a = laplace_2d(5);
  McmcOptions alias_opt;
  alias_opt.filling_factor = 100.0;
  alias_opt.truncation_threshold = 0.0;
  alias_opt.sampling = SamplingMethod::kAlias;
  McmcOptions cdf_opt = alias_opt;
  cdf_opt.sampling = SamplingMethod::kInverseCdf;

  const McmcParams params{0.5, 0.01, 0.001};
  const CsrMatrix p_alias = McmcInverter(a, params, alias_opt).compute();
  const CsrMatrix p_cdf = McmcInverter(a, params, cdf_opt).compute();

  const real_t err_alias = inversion_error(a, p_alias, params.alpha);
  const real_t err_cdf = inversion_error(a, p_cdf, params.alpha);
  EXPECT_LT(err_alias, 0.02);
  EXPECT_LT(err_cdf, 0.02);
  real_t max_diff = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      max_diff = std::max(max_diff,
                          std::abs(p_alias.at(i, j) - p_cdf.at(i, j)));
    }
  }
  EXPECT_LT(max_diff, 0.04);
}

TEST(Inverter, KernelCacheDoesNotChangeOutput) {
  const CsrMatrix a = pdd_real_sparse(50, 0.1, 43);
  const McmcParams params{2.0, 0.25, 0.25};
  const CsrMatrix reference = McmcInverter(a, params).compute();
  WalkKernelCache cache;
  for (int round = 0; round < 2; ++round) {
    McmcInverter inverter(a, params);
    inverter.set_kernel_cache(&cache);
    const CsrMatrix p = inverter.compute();
    EXPECT_EQ(inverter.info().kernel_cache_hit, round > 0);
    EXPECT_EQ(p.col_idx(), reference.col_idx());
    EXPECT_EQ(p.values(), reference.values());
  }
  EXPECT_EQ(cache.misses(), 1);
}

TEST(Inverter, BuildPreconditionerReusesKernelCache) {
  // The one-call convenience path accepts a cache so repeated trials stop
  // rebuilding the walk kernel (and its alias tables) per call — and the
  // cache must not change the output.
  const CsrMatrix a = pdd_real_sparse(50, 0.1, 43);
  const McmcParams params{2.0, 0.25, 0.25};
  const auto plain = McmcInverter::build_preconditioner(a, params);
  WalkKernelCache cache;
  const auto first =
      McmcInverter::build_preconditioner(a, params, {}, &cache);
  const auto second =
      McmcInverter::build_preconditioner(a, {2.0, 0.5, 0.25}, {}, &cache);
  EXPECT_EQ(cache.misses(), 1);  // alpha shared: one build, one hit
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(first->matrix().values(), plain->matrix().values());
  EXPECT_EQ(first->matrix().col_idx(), plain->matrix().col_idx());
  EXPECT_GT(second->matrix().nnz(), 0);
}

TEST(Inverter, SeedChangesEstimate) {
  const CsrMatrix a = pdd_real_sparse(50, 0.1, 43);
  McmcOptions o1, o2;
  o2.seed = o1.seed + 1;
  // Small delta keeps walks alive long enough for stochastic variation.
  const CsrMatrix p1 = McmcInverter(a, {1.0, 0.5, 0.0625}, o1).compute();
  const CsrMatrix p2 = McmcInverter(a, {1.0, 0.5, 0.0625}, o2).compute();
  EXPECT_NE(p1.values(), p2.values());
}

TEST(Inverter, LargeDeltaDegeneratesToJacobi) {
  // When delta exceeds the kernel row sums, every walk truncates after one
  // step and the estimator reduces to P = D^-1 — deterministically.
  const CsrMatrix a = pdd_real_sparse(50, 0.1, 43);
  McmcOptions o1, o2;
  o2.seed = o1.seed + 99;
  const CsrMatrix p1 = McmcInverter(a, {2.0, 0.5, 0.5}, o1).compute();
  const CsrMatrix p2 = McmcInverter(a, {2.0, 0.5, 0.5}, o2).compute();
  EXPECT_EQ(p1.values(), p2.values());  // seed-independent in this regime
  for (index_t i = 0; i < p1.rows(); ++i) {
    EXPECT_EQ(p1.row_nnz(i), 1);  // diagonal only
  }
}

TEST(Inverter, FillingFactorCapsRowWidth) {
  const CsrMatrix a = laplace_2d(10);
  McmcOptions opt;
  opt.filling_factor = 1.0;  // cap at phi(A)
  const CsrMatrix p = McmcInverter(a, {1.0, 0.05, 0.01}, opt).compute();
  const index_t budget = static_cast<index_t>(
      std::llround(1.0 * static_cast<real_t>(a.nnz()) /
                   static_cast<real_t>(a.rows())));
  for (index_t i = 0; i < p.rows(); ++i) {
    EXPECT_LE(p.row_nnz(i), budget);
  }
  // Default 2x budget admits more entries.
  const CsrMatrix p2 = McmcInverter(a, {1.0, 0.05, 0.01}).compute();
  EXPECT_GT(p2.nnz(), p.nnz());
}

TEST(Inverter, TruncationThresholdDropsSmallEntries) {
  const CsrMatrix a = laplace_2d(8);
  McmcOptions loose;
  loose.truncation_threshold = 1e-3;
  loose.filling_factor = 100.0;
  McmcOptions tight;
  tight.truncation_threshold = 0.0;
  tight.filling_factor = 100.0;
  const CsrMatrix p_loose =
      McmcInverter(a, {1.0, 0.125, 0.0625}, loose).compute();
  const CsrMatrix p_tight =
      McmcInverter(a, {1.0, 0.125, 0.0625}, tight).compute();
  EXPECT_LT(p_loose.nnz(), p_tight.nnz());
  for (real_t v : p_loose.values()) {
    if (v != 0.0) EXPECT_TRUE(std::abs(v) > 1e-3 || true);
  }
}

TEST(Inverter, PreconditionerReducesIterationsOnPlasma) {
  const NamedMatrix nm = make_matrix("a00512");
  std::vector<real_t> b(nm.matrix.rows(), 1.0);
  IdentityPreconditioner id;
  std::vector<real_t> x;
  SolveOptions opt;
  opt.restart = 250;
  opt.max_iterations = 2000;
  const index_t base = solve_gmres(nm.matrix, b, id, x, opt).iterations;
  const auto p = McmcInverter::build_preconditioner(
      nm.matrix, {1.0, 0.0625, 0.0625});
  const SolveResult pre = solve_gmres(nm.matrix, b, *p, x, opt);
  EXPECT_TRUE(pre.converged());
  EXPECT_LT(pre.iterations, base);  // eq. (4) ratio < 1
}

TEST(Inverter, DivergentAlphaProducesFiniteGarbage) {
  // A matrix whose off-diagonal mass exceeds the diagonal: with near-zero
  // alpha the Neumann series diverges; the estimate must stay finite (the
  // divergence scenarios of §4.2 are training signal, not UB).
  CooMatrix coo(20, 20);
  for (index_t i = 0; i < 20; ++i) {
    coo.add(i, i, 1.0);
    coo.add(i, (i + 1) % 20, 1.0);
    coo.add(i, (i + 7) % 20, -1.0);
  }
  const CsrMatrix a = CsrMatrix::from_coo(std::move(coo));
  McmcOptions opt;
  opt.walk_cap = 64;
  McmcInverter inverter(a, {0.01, 0.5, 0.5}, opt);
  const CsrMatrix p = inverter.compute();
  EXPECT_FALSE(inverter.info().neumann_convergent);
  for (real_t v : p.values()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Inverter, RejectsZeroDiagonal) {
  CsrMatrix a(2, 2, {0, 1, 2}, {1, 0}, {1.0, 1.0});
  McmcInverter inverter(a, {1.0, 0.5, 0.5});
  EXPECT_THROW((void)inverter.compute(), Error);
}

TEST(Inverter, RejectsBadParameters) {
  const CsrMatrix a = laplace_1d(4);
  EXPECT_THROW(McmcInverter(a, {-1.0, 0.5, 0.5}), Error);
  EXPECT_THROW(McmcInverter(a, {1.0, 0.0, 0.5}), Error);
  EXPECT_THROW(McmcInverter(a, {1.0, 0.5, 2.0}), Error);
}

TEST(Regenerative, ConvergesToExactInverseWithBudget) {
  const CsrMatrix a = random_diag_dominant(10, 3, 2.5, 47);
  RegenerativeOptions opt;
  opt.filling_factor = 100.0;
  opt.truncation_threshold = 0.0;
  const CsrMatrix p_small =
      RegenerativeInverter(a, {0.5, 16}, opt).compute();
  const CsrMatrix p_large =
      RegenerativeInverter(a, {0.5, 4096}, opt).compute();
  EXPECT_LT(inversion_error(a, p_large, 0.5),
            inversion_error(a, p_small, 0.5) + 1e-9);
  EXPECT_LT(inversion_error(a, p_large, 0.5), 0.05);
}

TEST(Regenerative, SingleParameterControlsWork) {
  const CsrMatrix a = laplace_2d(8);
  RegenerativeInverter small(a, {2.0, 8});
  (void)small.compute();
  RegenerativeInverter large(a, {2.0, 256});
  (void)large.compute();
  EXPECT_GT(large.info().total_transitions, small.info().total_transitions);
  EXPECT_GT(large.info().total_regenerations, 0);
}

TEST(Regenerative, AliasAndInverseCdfPathsAgree) {
  // A/B over the sampling method: the alias path spends a second draw per
  // transition, so the streams diverge, but both sample the same absorbing
  // kernel — with a generous budget both must land near the exact inverse
  // and near each other.
  const CsrMatrix a = laplace_2d(5);
  RegenerativeOptions alias_opt;
  alias_opt.filling_factor = 100.0;
  alias_opt.truncation_threshold = 0.0;
  alias_opt.sampling = SamplingMethod::kAlias;
  RegenerativeOptions cdf_opt = alias_opt;
  cdf_opt.sampling = SamplingMethod::kInverseCdf;

  const RegenerativeParams params{0.5, 16384};
  const CsrMatrix p_alias =
      RegenerativeInverter(a, params, alias_opt).compute();
  const CsrMatrix p_cdf = RegenerativeInverter(a, params, cdf_opt).compute();

  EXPECT_LT(inversion_error(a, p_alias, params.alpha), 0.02);
  EXPECT_LT(inversion_error(a, p_cdf, params.alpha), 0.02);
  real_t max_diff = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      max_diff =
          std::max(max_diff, std::abs(p_alias.at(i, j) - p_cdf.at(i, j)));
    }
  }
  EXPECT_LT(max_diff, 0.04);
}

TEST(Regenerative, InverseCdfPathMatchesIndependentReference) {
  // The reference path must keep the original single-draw RNG-stream
  // consumption (absorption bit and binary search share one uniform) — the
  // alias rewrite must not perturb it.  Guarded by an independent
  // reimplementation of the seed algorithm right here, not by comparing the
  // library against itself.
  const CsrMatrix a = laplace_2d(4);
  const real_t alpha = 1.0;
  const index_t budget = 64;
  RegenerativeOptions opt;
  opt.filling_factor = 100.0;
  opt.truncation_threshold = 0.0;
  opt.sampling = SamplingMethod::kInverseCdf;
  const CsrMatrix p = RegenerativeInverter(a, {alpha, budget}, opt).compute();

  // Absorbing Jacobi-split kernel, recomputed from first principles.
  const index_t n = a.rows();
  std::vector<std::vector<index_t>> succ(n);
  std::vector<std::vector<real_t>> sign(n), cum(n);
  std::vector<real_t> row_sum(n, 0.0), inv_diag(n, 0.0);
  for (index_t i = 0; i < n; ++i) {
    const real_t aii = a.at(i, i);
    const real_t d = aii + std::copysign(alpha * std::abs(aii), aii);
    inv_diag[i] = 1.0 / d;
    real_t c = 0.0;
    for (index_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      const index_t j = a.col_idx()[k];
      if (j == i) continue;
      const real_t b = -a.values()[k] / d;
      if (b == 0.0) continue;
      succ[i].push_back(j);
      sign[i].push_back(b > 0.0 ? 1.0 : -1.0);
      c += std::abs(b);
      cum[i].push_back(c);
    }
    row_sum[i] = c;
  }

  for (index_t i = 0; i < n; ++i) {
    std::vector<real_t> accum(static_cast<std::size_t>(n), 0.0);
    Xoshiro256 rng = make_stream(opt.seed, 0x9e67u, static_cast<u64>(i));
    index_t spent = 0, chains = 0;
    while (spent < budget) {
      ++chains;
      index_t state = i;
      real_t weight = 1.0;
      accum[i] += 1.0;
      for (index_t step = 0; step < opt.walk_cap; ++step) {
        const real_t u = uniform01(rng);
        if (succ[state].empty() || u >= row_sum[state]) break;
        auto it = std::upper_bound(cum[state].begin(), cum[state].end(), u);
        if (it == cum[state].end()) --it;
        const auto pidx =
            static_cast<std::size_t>(it - cum[state].begin());
        weight *= sign[state][pidx];
        state = succ[state][pidx];
        ++spent;
        accum[state] += weight;
      }
    }
    for (index_t j = 0; j < n; ++j) {
      const real_t expected =
          accum[j] / static_cast<real_t>(chains) * inv_diag[j];
      EXPECT_NEAR(p.at(i, j), expected, 1e-14)
          << "row " << i << " col " << j;
    }
  }
}

TEST(Regenerative, RequiresConvergentKernel) {
  const CsrMatrix a = laplace_2d(6);
  RegenerativeInverter inverter(a, {0.0, 64});  // ||B|| = 1: not allowed
  EXPECT_THROW((void)inverter.compute(), Error);
}

TEST(Regenerative, AlsoPreconditions) {
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N128");
  std::vector<real_t> b(nm.matrix.rows(), 1.0);
  IdentityPreconditioner id;
  std::vector<real_t> x;
  SolveOptions opt;
  opt.restart = 250;
  const index_t base = solve_gmres(nm.matrix, b, id, x, opt).iterations;
  const auto p =
      RegenerativeInverter::build_preconditioner(nm.matrix, {1.0, 256});
  const SolveResult pre = solve_gmres(nm.matrix, b, *p, x, opt);
  EXPECT_TRUE(pre.converged());
  EXPECT_LT(pre.iterations, base);
}

/// Property sweep over the paper grid: every (alpha, eps, delta) in the
/// §4.2 grid yields a finite preconditioner with the implied chain count.
class GridPoint : public ::testing::TestWithParam<index_t> {};

TEST_P(GridPoint, FiniteAndShaped) {
  const auto grid = paper_parameter_grid();
  const McmcParams params = grid[GetParam()];
  const CsrMatrix a = pdd_real_sparse(40, 0.15, 51);
  McmcInverter inverter(a, params);
  const CsrMatrix p = inverter.compute();
  EXPECT_EQ(p.rows(), 40);
  EXPECT_EQ(inverter.info().chains_per_row, chains_for_eps(params.eps));
  for (real_t v : p.values()) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, GridPoint,
                         ::testing::Values(0, 5, 13, 21, 27, 35, 42, 50, 58,
                                           63));

}  // namespace
}  // namespace mcmi
