// Tests for src/mcmc/batched_build: every trial of a batched grid build must
// be bit-identical to its standalone McmcInverter::compute() — the CRN
// prefix-sharing invariant — across thread counts, sampling methods, and
// convergent / divergent kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "gen/laplace.hpp"
#include "gen/random_sparse.hpp"
#include "mcmc/batched_build.hpp"
#include "mcmc/inverter.hpp"
#include "sparse/coo.hpp"

namespace mcmi {
namespace {

/// A matrix whose off-diagonal mass exceeds the diagonal: with near-zero
/// alpha the Neumann series diverges (||B||_inf >= 1) and walks hit the
/// divergence guard / walk cap instead of the delta truncation.
CsrMatrix divergent_matrix() {
  CooMatrix coo(20, 20);
  for (index_t i = 0; i < 20; ++i) {
    coo.add(i, i, 1.0);
    coo.add(i, (i + 1) % 20, 1.0);
    coo.add(i, (i + 7) % 20, -1.0);
  }
  return CsrMatrix::from_coo(std::move(coo));
}

/// The shared 6-point (eps, delta) grid exercised by the equality tests:
/// spans chain counts 2..117 and both loose and tight truncation.
std::vector<GridTrial> test_grid() {
  return {{0.5, 0.5},      {0.5, 0.0625}, {0.25, 0.125},
          {0.125, 0.0625}, {0.0625, 0.5}, {0.0625, 0.03125}};
}

void expect_equal(const CsrMatrix& batched, const CsrMatrix& standalone,
                  const char* label, std::size_t trial) {
  ASSERT_EQ(batched.nnz(), standalone.nnz()) << label << " trial " << trial;
  EXPECT_EQ(batched.row_ptr(), standalone.row_ptr())
      << label << " trial " << trial;
  EXPECT_EQ(batched.col_idx(), standalone.col_idx())
      << label << " trial " << trial;
  EXPECT_EQ(batched.values(), standalone.values())  // bit-identical
      << label << " trial " << trial;
}

/// Batched-vs-standalone bit-equality for every grid point of `trials` on
/// `a`, under `options`.
void check_grid(const CsrMatrix& a, real_t alpha,
                const std::vector<GridTrial>& trials,
                const McmcOptions& options, const char* label) {
  const BatchedGridResult batched =
      batched_grid_build(a, alpha, trials, options);
  ASSERT_EQ(batched.preconditioners.size(), trials.size());
  ASSERT_EQ(batched.info.size(), trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) {
    McmcInverter standalone(a, {alpha, trials[t].eps, trials[t].delta},
                            options);
    const CsrMatrix reference = standalone.compute();
    expect_equal(batched.preconditioners[t], reference, label, t);
    // The per-trial accounting must match the trial's own truncated work.
    EXPECT_EQ(batched.info[t].total_transitions,
              standalone.info().total_transitions)
        << label << " trial " << t;
    EXPECT_EQ(batched.info[t].chains_per_row,
              standalone.info().chains_per_row);
    EXPECT_EQ(batched.info[t].walk_cutoff, standalone.info().walk_cutoff);
    EXPECT_EQ(batched.info[t].b_norm_inf, standalone.info().b_norm_inf);
    EXPECT_EQ(batched.info[t].neumann_convergent,
              standalone.info().neumann_convergent);
    EXPECT_GE(batched.info[t].build_seconds, 0.0);
  }
}

TEST(BatchedBuild, BitIdenticalOnLaplace) {
  const CsrMatrix a = laplace_2d(10);
  check_grid(a, 1.0, test_grid(), {}, "laplace/alias");
  McmcOptions cdf;
  cdf.sampling = SamplingMethod::kInverseCdf;
  check_grid(a, 1.0, test_grid(), cdf, "laplace/cdf");
}

TEST(BatchedBuild, BitIdenticalOnRandomSparse) {
  const CsrMatrix a = pdd_real_sparse(60, 0.12, 77);
  check_grid(a, 2.0, test_grid(), {}, "random/alias");
  McmcOptions cdf;
  cdf.sampling = SamplingMethod::kInverseCdf;
  check_grid(a, 2.0, test_grid(), cdf, "random/cdf");
}

TEST(BatchedBuild, BitIdenticalOnDivergentKernel) {
  // ||B||_inf >= 1: walks run to the cap or the divergence guard; both the
  // guard step and the cap must freeze each trial exactly as standalone.
  const CsrMatrix a = divergent_matrix();
  McmcOptions opt;
  opt.walk_cap = 64;
  check_grid(a, 0.01, test_grid(), opt, "divergent/alias");
  McmcOptions cdf = opt;
  cdf.sampling = SamplingMethod::kInverseCdf;
  check_grid(a, 0.01, test_grid(), cdf, "divergent/cdf");
}

TEST(BatchedBuild, DeterministicAcrossThreadCounts) {
  const CsrMatrix a = pdd_real_sparse(50, 0.15, 51);
  const std::vector<GridTrial> trials = test_grid();

  auto build = [&](int threads) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    return batched_grid_build(a, 1.0, trials);
  };

#ifdef _OPENMP
  const int saved = omp_get_max_threads();
#endif
  const BatchedGridResult r1 = build(1);
  const BatchedGridResult r2 = build(2);
  const BatchedGridResult r4 = build(4);
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif

  for (std::size_t t = 0; t < trials.size(); ++t) {
    expect_equal(r2.preconditioners[t], r1.preconditioners[t], "2-thread", t);
    expect_equal(r4.preconditioners[t], r1.preconditioners[t], "4-thread", t);
    EXPECT_EQ(r2.info[t].total_transitions, r1.info[t].total_transitions);
    EXPECT_EQ(r4.info[t].total_transitions, r1.info[t].total_transitions);
  }
}

TEST(BatchedBuild, DuplicateTrialsGetIdenticalOutputs) {
  const CsrMatrix a = laplace_2d(8);
  const std::vector<GridTrial> trials = {{0.25, 0.125}, {0.25, 0.125}};
  const BatchedGridResult r = batched_grid_build(a, 1.0, trials);
  expect_equal(r.preconditioners[1], r.preconditioners[0], "duplicate", 1);
  EXPECT_EQ(r.info[0].total_transitions, r.info[1].total_transitions);
}

TEST(BatchedBuild, KernelCacheIsUsedAndHarmless) {
  const CsrMatrix a = pdd_real_sparse(40, 0.15, 51);
  const std::vector<GridTrial> trials = {{0.5, 0.25}, {0.25, 0.0625}};
  const BatchedGridResult no_cache = batched_grid_build(a, 1.0, trials);
  WalkKernelCache cache;
  const BatchedGridResult first =
      batched_grid_build(a, 1.0, trials, {}, &cache);
  const BatchedGridResult second =
      batched_grid_build(a, 1.0, trials, {}, &cache);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);
  for (std::size_t t = 0; t < trials.size(); ++t) {
    EXPECT_FALSE(first.info[t].kernel_cache_hit);
    EXPECT_TRUE(second.info[t].kernel_cache_hit);
    expect_equal(first.preconditioners[t], no_cache.preconditioners[t],
                 "cache-first", t);
    expect_equal(second.preconditioners[t], no_cache.preconditioners[t],
                 "cache-second", t);
  }
}

/// Replicate-batched builds must equal one batched build per seed — and so,
/// transitively through the PR 3 tests above, the standalone inverter.
void check_replicated(const CsrMatrix& a, real_t alpha,
                      const std::vector<GridTrial>& trials,
                      const std::vector<u64>& seeds,
                      const McmcOptions& options, const char* label) {
  const ReplicatedGridResult batched =
      replicate_batched_grid_build(a, alpha, trials, seeds, options);
  ASSERT_EQ(batched.replicates.size(), seeds.size());
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    McmcOptions serial = options;
    serial.seed = seeds[r];
    ASSERT_EQ(batched.replicates[r].preconditioners.size(), trials.size());
    for (std::size_t t = 0; t < trials.size(); ++t) {
      McmcInverter standalone(a, {alpha, trials[t].eps, trials[t].delta},
                              serial);
      const CsrMatrix reference = standalone.compute();
      expect_equal(batched.replicates[r].preconditioners[t], reference, label,
                   r * 100 + t);
      EXPECT_EQ(batched.replicates[r].info[t].total_transitions,
                standalone.info().total_transitions)
          << label << " replicate " << r << " trial " << t;
      EXPECT_EQ(batched.replicates[r].info[t].chains_per_row,
                standalone.info().chains_per_row);
      EXPECT_EQ(batched.replicates[r].info[t].walk_cutoff,
                standalone.info().walk_cutoff);
      EXPECT_GE(batched.replicates[r].info[t].build_seconds, 0.0);
    }
  }
}

TEST(ReplicateBatchedBuild, BitIdenticalOnLaplace) {
  const CsrMatrix a = laplace_2d(10);
  const std::vector<u64> seeds = {11, 20250922, 77777};
  check_replicated(a, 1.0, test_grid(), seeds, {}, "rep/laplace/alias");
  McmcOptions cdf;
  cdf.sampling = SamplingMethod::kInverseCdf;
  check_replicated(a, 1.0, test_grid(), seeds, cdf, "rep/laplace/cdf");
}

TEST(ReplicateBatchedBuild, BitIdenticalOnRandomSparse) {
  const CsrMatrix a = pdd_real_sparse(60, 0.12, 77);
  const std::vector<u64> seeds = {1, 2, 3, 4};
  check_replicated(a, 2.0, test_grid(), seeds, {}, "rep/random/alias");
  McmcOptions cdf;
  cdf.sampling = SamplingMethod::kInverseCdf;
  check_replicated(a, 2.0, test_grid(), seeds, cdf, "rep/random/cdf");
}

TEST(ReplicateBatchedBuild, BitIdenticalOnDivergentKernel) {
  const CsrMatrix a = divergent_matrix();
  McmcOptions opt;
  opt.walk_cap = 64;
  const std::vector<u64> seeds = {5, 6};
  check_replicated(a, 0.01, test_grid(), seeds, opt, "rep/divergent/alias");
  McmcOptions cdf = opt;
  cdf.sampling = SamplingMethod::kInverseCdf;
  check_replicated(a, 0.01, test_grid(), seeds, cdf, "rep/divergent/cdf");
}

TEST(ReplicateBatchedBuild, DeterministicAcrossThreadCounts) {
  const CsrMatrix a = pdd_real_sparse(50, 0.15, 51);
  const std::vector<GridTrial> trials = test_grid();
  const std::vector<u64> seeds = {31, 32, 33};

  auto build = [&](int threads) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    return replicate_batched_grid_build(a, 1.0, trials, seeds);
  };

#ifdef _OPENMP
  const int saved = omp_get_max_threads();
#endif
  const ReplicatedGridResult r1 = build(1);
  const ReplicatedGridResult r2 = build(2);
  const ReplicatedGridResult r4 = build(4);
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif

  for (std::size_t r = 0; r < seeds.size(); ++r) {
    for (std::size_t t = 0; t < trials.size(); ++t) {
      expect_equal(r2.replicates[r].preconditioners[t],
                   r1.replicates[r].preconditioners[t], "rep-2-thread", t);
      expect_equal(r4.replicates[r].preconditioners[t],
                   r1.replicates[r].preconditioners[t], "rep-4-thread", t);
      EXPECT_EQ(r2.replicates[r].info[t].total_transitions,
                r1.replicates[r].info[t].total_transitions);
    }
  }
}

TEST(ReplicateBatchedBuild, DuplicateSeedsGiveIdenticalReplicates) {
  const CsrMatrix a = laplace_2d(8);
  const std::vector<GridTrial> trials = {{0.25, 0.125}, {0.5, 0.25}};
  const ReplicatedGridResult r =
      replicate_batched_grid_build(a, 1.0, trials, {42, 42});
  for (std::size_t t = 0; t < trials.size(); ++t) {
    expect_equal(r.replicates[1].preconditioners[t],
                 r.replicates[0].preconditioners[t], "dup-seed", t);
    EXPECT_EQ(r.replicates[0].info[t].total_transitions,
              r.replicates[1].info[t].total_transitions);
  }
}

TEST(ReplicateBatchedBuild, RejectsEmptySeeds) {
  const CsrMatrix a = laplace_1d(4);
  EXPECT_THROW(replicate_batched_grid_build(a, 1.0, {{0.5, 0.5}}, {}), Error);
}

/// Multi-alpha builds must equal one replicate-batched build per group,
/// whether or not the shared-successor fast path engaged.
void check_multi_alpha(const CsrMatrix& a,
                       const std::vector<AlphaGroup>& groups,
                       const std::vector<u64>& seeds,
                       const McmcOptions& options, const char* label) {
  const MultiAlphaGridResult multi =
      multi_alpha_grid_build(a, groups, seeds, options);
  ASSERT_EQ(multi.groups.size(), groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    ASSERT_EQ(multi.groups[g].replicates.size(), seeds.size());
    for (std::size_t r = 0; r < seeds.size(); ++r) {
      McmcOptions serial = options;
      serial.seed = seeds[r];
      for (std::size_t t = 0; t < groups[g].trials.size(); ++t) {
        McmcInverter standalone(
            a,
            {groups[g].alpha, groups[g].trials[t].eps,
             groups[g].trials[t].delta},
            serial);
        const CsrMatrix reference = standalone.compute();
        expect_equal(multi.groups[g].replicates[r].preconditioners[t],
                     reference, label, g * 1000 + r * 100 + t);
        EXPECT_EQ(multi.groups[g].replicates[r].info[t].total_transitions,
                  standalone.info().total_transitions)
            << label << " group " << g << " replicate " << r << " trial " << t;
      }
    }
  }
}

TEST(MultiAlphaBuild, SharesSuccessorDrawsWhenTablesAgree) {
  // The perturbed diagonals d = a_ii (1 + alpha) of alphas 1 and 3 differ
  // by exactly 2x, a power of two, so every kernel quantity scales exactly
  // and the alias tables round bit-identically: the runtime check must
  // enable sharing, and the shared ensemble must still reproduce each
  // alpha's standalone builds bit for bit.
  const CsrMatrix a = pdd_real_sparse(60, 0.12, 77);
  const std::vector<AlphaGroup> groups = {
      {1.0, {}, {{0.5, 0.5}, {0.25, 0.125}}},
      {3.0, {}, {{0.25, 0.125}, {0.125, 0.0625}}}};
  const std::vector<u64> seeds = {7, 8};
  const MultiAlphaGridResult multi =
      multi_alpha_grid_build(a, groups, seeds);
  EXPECT_TRUE(multi.shared_successors);
  check_multi_alpha(a, groups, seeds, {}, "multi/shared");
}

TEST(MultiAlphaBuild, FallsBackWhenTablesDiffer) {
  // Alphas 1 and 2 scale the diagonals by 2 vs 3 — not a power-of-two
  // ratio, so on a non-uniform matrix the per-alpha alias tables round
  // differently and the builder must fall back to per-alpha ensembles.
  const CsrMatrix a = pdd_real_sparse(60, 0.12, 77);
  const std::vector<AlphaGroup> groups = {{1.0, {}, {{0.25, 0.125}}},
                                          {2.0, {}, {{0.25, 0.125}}}};
  const WalkKernel k1 = build_walk_kernel(a, 1.0);
  const WalkKernel k2 = build_walk_kernel(a, 2.0);
  ASSERT_FALSE(can_share_successor_draws(k1, k2));  // the premise
  const std::vector<u64> seeds = {7, 8};
  const MultiAlphaGridResult multi =
      multi_alpha_grid_build(a, groups, seeds);
  EXPECT_FALSE(multi.shared_successors);
  check_multi_alpha(a, groups, seeds, {}, "multi/fallback");
}

TEST(MultiAlphaBuild, InverseCdfSharesWhenScalingExact) {
  // Alphas 1 and 3 scale every row's cumulative weights and row sum by
  // exactly 2x, so the u * S_u binary search picks the same transition slot
  // in both kernels for every RNG word: the inverse-CDF sharing check must
  // pass and the shared ensemble must reproduce each alpha's standalone
  // builds bit for bit — the A/B counterpart of the alias-path sharing test
  // above on the same matrix and grid shape.
  const CsrMatrix a = pdd_real_sparse(40, 0.15, 51);
  const std::vector<AlphaGroup> groups = {
      {1.0, {}, {{0.5, 0.25}, {0.25, 0.125}}},
      {3.0, {}, {{0.5, 0.25}, {0.125, 0.0625}}}};
  const WalkKernel k1 = build_walk_kernel(a, 1.0);
  const WalkKernel k3 = build_walk_kernel(a, 3.0);
  ASSERT_TRUE(can_share_inverse_cdf_draws(k1, k3));  // the premise
  McmcOptions cdf;
  cdf.sampling = SamplingMethod::kInverseCdf;
  const std::vector<u64> seeds = {9, 10};
  const MultiAlphaGridResult multi =
      multi_alpha_grid_build(a, groups, seeds, cdf);
  EXPECT_TRUE(multi.shared_successors);
  check_multi_alpha(a, groups, seeds, cdf, "multi/cdf-shared");
}

TEST(MultiAlphaBuild, InverseCdfFallsBackWhenScalingInexact) {
  // Alphas 1 and 2 scale the diagonals by 2 vs 3 — not a power-of-two
  // ratio — so the rounded cumulative weights are not exact rescalings and
  // the inverse-CDF builder must fall back to per-alpha ensembles.
  const CsrMatrix a = pdd_real_sparse(40, 0.15, 51);
  const std::vector<AlphaGroup> groups = {{1.0, {}, {{0.5, 0.25}}},
                                          {2.0, {}, {{0.5, 0.25}}}};
  const WalkKernel k1 = build_walk_kernel(a, 1.0);
  const WalkKernel k2 = build_walk_kernel(a, 2.0);
  ASSERT_FALSE(can_share_inverse_cdf_draws(k1, k2));  // the premise
  McmcOptions cdf;
  cdf.sampling = SamplingMethod::kInverseCdf;
  const std::vector<u64> seeds = {9, 10};
  const MultiAlphaGridResult multi =
      multi_alpha_grid_build(a, groups, seeds, cdf);
  EXPECT_FALSE(multi.shared_successors);
  check_multi_alpha(a, groups, seeds, cdf, "multi/cdf-fallback");
}

TEST(MultiAlphaBuild, InverseCdfDivergenceRetiresOneAlphaOnly) {
  // The inverse-CDF twin of DivergenceRetiresOneAlphaOnly below: alphas 0
  // and 1 share draws (exact 2x scaling), alpha 0 diverges, alpha 1 keeps
  // accumulating — both must still match their standalone builds.
  CooMatrix coo(16, 16);
  for (index_t i = 0; i < 16; ++i) {
    coo.add(i, i, 1.0);
    coo.add(i, (i + 1) % 16, 1.0);
    coo.add(i, (i + 3) % 16, -1.0);
    coo.add(i, (i + 5) % 16, 1.0);
    coo.add(i, (i + 7) % 16, -1.0);
  }
  const CsrMatrix a = CsrMatrix::from_coo(std::move(coo));
  McmcOptions opt;
  opt.walk_cap = 64;
  opt.sampling = SamplingMethod::kInverseCdf;
  const std::vector<AlphaGroup> groups = {
      {0.0, {}, {{0.25, 0.125}, {0.5, 0.5}}},
      {1.0, {}, {{0.25, 0.125}, {0.5, 0.5}}}};
  const WalkKernel k0 = build_walk_kernel(a, 0.0);
  const WalkKernel k1 = build_walk_kernel(a, 1.0);
  ASSERT_TRUE(can_share_inverse_cdf_draws(k0, k1));
  EXPECT_GE(k0.norm_inf, 1.0);
  const std::vector<u64> seeds = {21, 22};
  const MultiAlphaGridResult multi =
      multi_alpha_grid_build(a, groups, seeds, opt);
  EXPECT_TRUE(multi.shared_successors);
  check_multi_alpha(a, groups, seeds, opt, "multi/cdf-divergent");
}

TEST(MultiAlphaBuild, DivergenceRetiresOneAlphaOnly) {
  // Alphas 0 and 1 share successor draws (d scales by exactly 2x) on a
  // kernel that blows past the divergence guard at alpha 0 (row sums of 4:
  // |W| = 4^s crosses 1e30 near step 50, inside the cap) but not at
  // alpha 1 (row sums of 2: |W| = 2^64 stays under the guard): the shared
  // walk must retire the diverging alpha's groups at the guard step while
  // the other alpha keeps accumulating — and both must still match their
  // standalone builds bit for bit.
  CooMatrix coo(16, 16);
  for (index_t i = 0; i < 16; ++i) {
    coo.add(i, i, 1.0);
    coo.add(i, (i + 1) % 16, 1.0);
    coo.add(i, (i + 3) % 16, -1.0);
    coo.add(i, (i + 5) % 16, 1.0);
    coo.add(i, (i + 7) % 16, -1.0);
  }
  const CsrMatrix a = CsrMatrix::from_coo(std::move(coo));
  McmcOptions opt;
  opt.walk_cap = 64;
  const std::vector<AlphaGroup> groups = {
      {0.0, {}, {{0.25, 0.125}, {0.5, 0.5}}},
      {1.0, {}, {{0.25, 0.125}, {0.5, 0.5}}}};
  const WalkKernel k0 = build_walk_kernel(a, 0.0);
  const WalkKernel k1 = build_walk_kernel(a, 1.0);
  ASSERT_TRUE(can_share_successor_draws(k0, k1));
  EXPECT_GE(k0.norm_inf, 1.0);
  const std::vector<u64> seeds = {21, 22};
  const MultiAlphaGridResult multi =
      multi_alpha_grid_build(a, groups, seeds, opt);
  EXPECT_TRUE(multi.shared_successors);
  check_multi_alpha(a, groups, seeds, opt, "multi/divergent");
}

TEST(BatchedBuild, RejectsBadInputs) {
  const CsrMatrix a = laplace_1d(4);
  EXPECT_THROW(batched_grid_build(a, -1.0, {{0.5, 0.5}}), Error);
  EXPECT_THROW(batched_grid_build(a, 1.0, {}), Error);
  EXPECT_THROW(batched_grid_build(a, 1.0, {{0.0, 0.5}}), Error);
  EXPECT_THROW(batched_grid_build(a, 1.0, {{0.5, 2.0}}), Error);
}

}  // namespace
}  // namespace mcmi
