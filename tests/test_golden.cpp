// Stored conformance oracle: 64-bit content digests (core/hash.hpp) of the
// SpMV products, MCMC preconditioners, Krylov solutions, one served answer,
// the eq. (4) dataset labels and one direct tuning run, pinned as literal
// values.  The other bit-identity suites compare
// two engines of this library with each other, so a change that moves both
// sides at once still passes them; this table does not move with the code.
//
// Every row is checked at 1 and at 4 OpenMP threads against the same
// stored digest (the served answer: see WarmServedAnswer).  A failure names the row and prints the digest it got.
// An intended change of output bits replaces the row's value here and
// names the row and the reason in CHANGES.md.
//
// The digests hold per toolchain and per FP code-generation setting: a
// build that contracts a*b + c into FMA (e.g. -march=x86-64-v3 under GCC)
// computes different bits.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/hash.hpp"
#include "core/rng.hpp"
#include "gen/laplace.hpp"
#include "gen/matrix_set.hpp"
#include "gen/random_sparse.hpp"
#include "hpo/mcmc_tuner.hpp"
#include "krylov/solver.hpp"
#include "mcmc/batched_build.hpp"
#include "mcmc/inverter.hpp"
#include "pipeline/dataset_builder.hpp"
#include "pipeline/metric.hpp"
#include "precond/preconditioner.hpp"
#include "precond/sparse_precond.hpp"
#include "serve/solve_service.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace mcmi {
namespace {

struct GoldenRow {
  const char* name;
  u64 digest;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"multiply/laplace_2d(24)", 0xb80b4eac21937d16ULL},
    {"multiply/pdd_real_sparse(200)", 0x6e3598995960a884ULL},
    {"multiply_dot_norm2/laplace_2d(24)", 0x28abf59c3d7f7d49ULL},
    {"multiply_dot_norm2/pdd_real_sparse(200)", 0xcb1cfb8dcbf09d42ULL},
    {"multiply/laplace_2d(64)", 0x9b2a7d6d38939f64ULL},
    {"multiply_dot_norm2/laplace_2d(64)", 0x70fa62af06b9b9faULL},
    {"mcmc_compute/laplace_2d(24)", 0x15bd6c8130ed71eaULL},
    {"mcmc_compute/pdd_real_sparse(200)", 0x885fce16de4ab2a1ULL},
    {"batched_grid_build/laplace_2d(24)", 0x15bd6c8130ed71eaULL},
    {"batched_grid_build/pdd_real_sparse(200)", 0x885fce16de4ab2a1ULL},
    {"cg/identity/laplace_2d(24)", 0x6104188f25545bbbULL},
    {"cg/mcmc/laplace_2d(24)", 0x8590f8bb6165292bULL},
    {"gmres/identity/laplace_2d(24)", 0x7abf0a58b04ad61bULL},
    {"gmres/mcmc/laplace_2d(24)", 0xf2ca12c4f05178c8ULL},
    {"bicgstab/identity/laplace_2d(24)", 0xf9cdc53216c44d01ULL},
    {"bicgstab/mcmc/laplace_2d(24)", 0x9bb2840102437138ULL},
    {"cg/identity/pdd_real_sparse(200)", 0xda7185562b8167a9ULL},
    {"cg/mcmc/pdd_real_sparse(200)", 0x1705f2e98dba5bceULL},
    {"gmres/identity/pdd_real_sparse(200)", 0xfc4805972c3ea4fdULL},
    {"gmres/mcmc/pdd_real_sparse(200)", 0x7a0375f13ab036e6ULL},
    {"bicgstab/identity/pdd_real_sparse(200)", 0xb1fdbd6048f9be2bULL},
    {"bicgstab/mcmc/pdd_real_sparse(200)", 0xd3965c61ab7cc1bcULL},
    {"serve_warm/p/laplace_2d(8)", 0xc42e77e54b58a7ddULL},
    {"serve_warm/x/laplace_2d(8)", 0x7c5058beddc43de1ULL},
    {"mcmc_compute/cdf/laplace_2d(24)", 0xe656cbd7a69fdd76ULL},
    {"mcmc_compute/divergent(16)", 0xce986d762d399e69ULL},
    {"batched_grid_build/grid6/laplace_2d(16)", 0x0d63380b19c96cf7ULL},
    {"batched_grid_build/grid6/cdf/pdd_real_sparse(60)", 0x4b765da0d7aea664ULL},
    {"replicate_batched_grid_build/3_lanes/grid6/laplace_2d(16)", 0x3ed801b5eb00ded8ULL},
    {"replicate_batched_grid_build/4_lanes/grid6/laplace_2d(16)", 0x5b46f065cd40733bULL},
    {"replicate_batched_grid_build/4_lanes/one_trial/pdd_real_sparse(60)", 0x3921f315f94861b6ULL},
    {"replicate_batched_grid_build/4_lanes/cdf/divergent(16)", 0xe7f556a56895098cULL},
    {"multi_alpha_grid_build/shared/pdd_real_sparse(60)", 0x4e4d16e9550d1b3eULL},
    {"multi_alpha_grid_build/fallback/pdd_real_sparse(60)", 0xfe6168af9e094a71ULL},
    {"multi_alpha_grid_build/cdf_shared/pdd_real_sparse(40)", 0x122809d571863c2cULL},
    {"multi_alpha_grid_build/divergent(16)", 0xd217578bea0ad56aULL},
    {"build_dataset/labels/laplace_2d(8)+pdd_real_sparse(128)", 0x9291a1b8f4716314ULL},
    {"tune_mcmc_params/bicgstab/pdd_real_sparse(64)", 0x470491f9dd38d420ULL},
};
// clang-format on

/// The x_M = (alpha, eps, delta) every MCMC row is built at.
constexpr McmcParams kParams{1.0, 1.0 / 16.0, 1.0 / 16.0};

void expect_golden(const std::string& name, u64 got) {
  for (const GoldenRow& row : kGolden) {
    if (name == row.name) {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                    static_cast<unsigned long long>(got));
      EXPECT_EQ(got, row.digest) << "golden row \"" << name << "\" got " << hex;
      return;
    }
  }
  ADD_FAILURE() << "no golden row named \"" << name << "\"";
}

u64 digest(const std::vector<real_t>& v) {
  Hash64 h;
  h.update_array(v.data(), v.size());
  return h.digest();
}

/// Deterministic dense test vector (same shape as the other suites use).
std::vector<real_t> test_vector(index_t n, u64 salt) {
  std::vector<real_t> x(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x[i] = std::sin(static_cast<real_t>(i + 1) * 0.7 +
                    static_cast<real_t>(salt));
  }
  return x;
}

struct NamedMatrix {
  std::string name;
  CsrMatrix a;
};

/// An SPD Laplacian and a nonsymmetric diagonally dominant random matrix.
/// Both fit one SpMV chunk; their builds and solves still run parallel row
/// loops and blocked reductions.
std::vector<NamedMatrix> golden_matrices() {
  std::vector<NamedMatrix> out;
  out.push_back({"laplace_2d(24)", laplace_2d(24)});
  out.push_back({"pdd_real_sparse(200)", pdd_real_sparse(200, 0.1, 31)});
  return out;
}

/// Runs `body` once per checked thread count: 1 and 4 with OpenMP, once
/// without it.
template <typename Body>
void at_thread_counts(Body&& body) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    omp_set_num_threads(threads);
    body();
  }
  omp_set_num_threads(saved);
#else
  body();
#endif
}

TEST(Golden, SpmvProducts) {
  std::vector<NamedMatrix> matrices = golden_matrices();
  // 3969 rows in two nnz-balanced chunks: the chunked product and the
  // fixed-order chunk reduction.
  matrices.push_back({"laplace_2d(64)", laplace_2d(64)});
  at_thread_counts([&] {
    for (const NamedMatrix& m : matrices) {
      const std::vector<real_t> x = test_vector(m.a.cols(), 3);
      const std::vector<real_t> w = test_vector(m.a.rows(), 9);
      expect_golden("multiply/" + m.name, digest(m.a.multiply(x)));

      std::vector<real_t> y;
      real_t dot = 0.0, norm_sq = 0.0;
      m.a.multiply_dot_norm2(x, y, w, dot, norm_sq);
      Hash64 h;
      h.update_array(y.data(), y.size());
      h.update_bits(dot);
      h.update_bits(norm_sq);
      expect_golden("multiply_dot_norm2/" + m.name, h.digest());
    }
  });
}

TEST(Golden, McmcPreconditioners) {
  const std::vector<NamedMatrix> matrices = golden_matrices();
  at_thread_counts([&] {
    for (const NamedMatrix& m : matrices) {
      expect_golden("mcmc_compute/" + m.name,
                    McmcInverter(m.a, kParams).compute().content_fingerprint());
      const BatchedGridResult grid = batched_grid_build(
          m.a, kParams.alpha, {{kParams.eps, kParams.delta}});
      ASSERT_EQ(grid.preconditioners.size(), 1u);
      expect_golden("batched_grid_build/" + m.name,
                    grid.preconditioners[0].content_fingerprint());
    }
  });
}

/// Folds one build into `h`: P's content digest and its walk accounting.
void fold_build(Hash64& h, const CsrMatrix& p, const McmcBuildInfo& info) {
  h.update(p.content_fingerprint());
  h.update(static_cast<u64>(info.total_transitions));
  h.update(static_cast<u64>(info.divergence_retirements));
}

u64 digest(const BatchedGridResult& r) {
  Hash64 h;
  for (std::size_t t = 0; t < r.preconditioners.size(); ++t) {
    fold_build(h, r.preconditioners[t], r.info[t]);
  }
  return h.digest();
}

u64 digest(const ReplicatedGridResult& r) {
  Hash64 h;
  for (const BatchedGridResult& rep : r.replicates) h.update(digest(rep));
  return h.digest();
}

u64 digest(const MultiAlphaGridResult& r) {
  Hash64 h;
  h.update(r.shared_successors ? 1 : 0);
  for (const ReplicatedGridResult& g : r.groups) h.update(digest(g));
  return h.digest();
}

/// Total divergence-guard retirements over every build of a result.
long long retirements(const ReplicatedGridResult& r) {
  long long sum = 0;
  for (const BatchedGridResult& rep : r.replicates) {
    for (const McmcBuildInfo& info : rep.info) {
      sum += info.divergence_retirements;
    }
  }
  return sum;
}

long long retirements(const MultiAlphaGridResult& r) {
  long long sum = 0;
  for (const ReplicatedGridResult& g : r.groups) sum += retirements(g);
  return sum;
}

/// Row sums of |B| are 4 at alpha 0 (walks cross the divergence guard near
/// step 50, inside a cap of 64) and 2 at alpha 1; the two kernels share
/// successor draws on both samplers.
CsrMatrix divergent_matrix() {
  CooMatrix coo(16, 16);
  for (index_t i = 0; i < 16; ++i) {
    coo.add(i, i, 1.0);
    coo.add(i, (i + 1) % 16, 1.0);
    coo.add(i, (i + 3) % 16, -1.0);
    coo.add(i, (i + 5) % 16, 1.0);
    coo.add(i, (i + 7) % 16, -1.0);
  }
  return CsrMatrix::from_coo(std::move(coo));
}

/// Chain counts 2..117 in three delta groups with loose and tight
/// truncation: the segment schedule and its snapshot copies.
const std::vector<GridTrial> kGrid6 = {{0.5, 0.5},      {0.5, 0.0625},
                                       {0.25, 0.125},   {0.125, 0.0625},
                                       {0.0625, 0.5},   {0.0625, 0.03125}};

// Each row folds P's digest with total_transitions and
// divergence_retirements of every build it makes.  Lane counts 3 and 4
// cover the replicate counts the tuner uses and the widths the walk loop
// has been specialised for.
TEST(Golden, McmcBuildPaths) {
  const CsrMatrix lap = laplace_2d(16);
  const CsrMatrix lap24 = laplace_2d(24);
  const CsrMatrix pdd60 = pdd_real_sparse(60, 0.12, 77);
  const CsrMatrix pdd40 = pdd_real_sparse(40, 0.15, 51);
  const CsrMatrix div = divergent_matrix();
  McmcOptions cdf;
  cdf.sampling = SamplingMethod::kInverseCdf;
  McmcOptions capped;
  capped.walk_cap = 64;
  McmcOptions capped_cdf = capped;
  capped_cdf.sampling = SamplingMethod::kInverseCdf;

  at_thread_counts([&] {
    {
      McmcInverter inv(lap24, kParams, cdf);
      const CsrMatrix p = inv.compute();
      Hash64 h;
      fold_build(h, p, inv.info());
      expect_golden("mcmc_compute/cdf/laplace_2d(24)", h.digest());
    }
    {
      McmcInverter inv(div, {0.0, 0.25, 0.125}, capped);
      const CsrMatrix p = inv.compute();
      EXPECT_GT(inv.info().divergence_retirements, 0);
      Hash64 h;
      fold_build(h, p, inv.info());
      expect_golden("mcmc_compute/divergent(16)", h.digest());
    }
    expect_golden("batched_grid_build/grid6/laplace_2d(16)",
                  digest(batched_grid_build(lap, 1.0, kGrid6)));
    expect_golden("batched_grid_build/grid6/cdf/pdd_real_sparse(60)",
                  digest(batched_grid_build(pdd60, 0.5, kGrid6, cdf)));
    expect_golden(
        "replicate_batched_grid_build/3_lanes/grid6/laplace_2d(16)",
        digest(replicate_batched_grid_build(lap, 1.0, kGrid6, {1, 2, 3})));
    expect_golden(
        "replicate_batched_grid_build/4_lanes/grid6/laplace_2d(16)",
        digest(replicate_batched_grid_build(lap, 1.0, kGrid6, {1, 2, 3, 4})));
    expect_golden(
        "replicate_batched_grid_build/4_lanes/one_trial/pdd_real_sparse(60)",
        digest(replicate_batched_grid_build(pdd60, 1.0, {{0.125, 0.0625}},
                                            {5, 6, 7, 8})));
    const ReplicatedGridResult div_lanes = replicate_batched_grid_build(
        div, 0.0, {{0.25, 0.125}}, {11, 12, 13, 14}, capped_cdf);
    EXPECT_GT(retirements(div_lanes), 0);
    expect_golden("replicate_batched_grid_build/4_lanes/cdf/divergent(16)",
                  digest(div_lanes));

    const MultiAlphaGridResult shared = multi_alpha_grid_build(
        pdd60,
        {{1.0, {}, {{0.5, 0.5}, {0.25, 0.125}}},
         {3.0, {}, {{0.25, 0.125}, {0.125, 0.0625}}}},
        {7, 8, 9});
    EXPECT_TRUE(shared.shared_successors);
    expect_golden("multi_alpha_grid_build/shared/pdd_real_sparse(60)",
                  digest(shared));
    const MultiAlphaGridResult fallback = multi_alpha_grid_build(
        pdd60, {{1.0, {}, {{0.25, 0.125}}}, {2.0, {}, {{0.25, 0.125}}}},
        {7, 8, 9});
    EXPECT_FALSE(fallback.shared_successors);
    expect_golden("multi_alpha_grid_build/fallback/pdd_real_sparse(60)",
                  digest(fallback));
    const MultiAlphaGridResult cdf_shared = multi_alpha_grid_build(
        pdd40,
        {{1.0, {}, {{0.5, 0.25}, {0.25, 0.125}}},
         {3.0, {}, {{0.5, 0.25}, {0.125, 0.0625}}}},
        {9, 10, 11}, cdf);
    EXPECT_TRUE(cdf_shared.shared_successors);
    expect_golden("multi_alpha_grid_build/cdf_shared/pdd_real_sparse(40)",
                  digest(cdf_shared));
    const MultiAlphaGridResult divergent = multi_alpha_grid_build(
        div,
        {{0.0, {}, {{0.25, 0.125}, {0.5, 0.5}}},
         {1.0, {}, {{0.25, 0.125}, {0.5, 0.5}}}},
        {21, 22, 23}, capped);
    EXPECT_TRUE(divergent.shared_successors);
    EXPECT_GT(retirements(divergent), 0);
    expect_golden("multi_alpha_grid_build/divergent(16)", digest(divergent));
  });
}

TEST(Golden, KrylovSolutions) {
  // tolerance = 0 can never be met, so every solve runs exactly 25 steps
  // and x carries every product and reduction of the trajectory.
  SolveOptions options;
  options.tolerance = 0.0;
  options.max_iterations = 25;
  options.restart = 10;

  const std::vector<NamedMatrix> matrices = golden_matrices();
  std::vector<CsrMatrix> ps;
  for (const NamedMatrix& m : matrices) {
    ps.push_back(McmcInverter(m.a, kParams).compute());
  }
  const struct {
    const char* name;
    KrylovMethod method;
  } methods[] = {{"cg", KrylovMethod::kCG},
                 {"gmres", KrylovMethod::kGMRES},
                 {"bicgstab", KrylovMethod::kBiCGStab}};

  at_thread_counts([&] {
    for (std::size_t k = 0; k < matrices.size(); ++k) {
      const NamedMatrix& m = matrices[k];
      const std::vector<real_t> b = test_vector(m.a.rows(), 17);
      const IdentityPreconditioner identity;
      const SparseApproximateInverse mcmc(ps[k], "mcmc");
      for (const auto& method : methods) {
        std::vector<real_t> x;
        (void)solve(method.method, m.a, b, identity, x, options);
        expect_golden(std::string(method.name) + "/identity/" + m.name,
                      digest(x));
        (void)solve(method.method, m.a, b, mcmc, x, options);
        expect_golden(std::string(method.name) + "/mcmc/" + m.name, digest(x));
      }
    }
  });
}

// Every label of a two-matrix, two-replicate corpus: matrix id, encoded x_M,
// mean and deviation of y.  The reduced grid and the 8x8 Laplacian keep the
// row fast; the SPD member's CG block and the near-zero-alpha divergence
// probes stay as build_dataset makes them.  Given the whole 4000-step
// budget, every CG solve and every divergence-probe solve runs on past the
// step where eq. (4) already reads y_cap.
TEST(Golden, DatasetLabels) {
  const std::vector<mcmi::NamedMatrix> corpus = {
      {"laplace_2d(8)", laplace_2d(8), true},
      make_matrix("PDD_RealSparse_N128")};
  DatasetBuildOptions options;
  options.replicates = 2;
  options.grid = {{1.0, 0.5, 0.5}, {2.0, 0.25, 0.125}, {4.0, 0.125, 0.5}};
  at_thread_counts([&] {
    const SurrogateDataset dataset = build_dataset(corpus, options);
    Hash64 h;
    for (const LabeledSample& s : dataset.samples) {
      h.update(static_cast<u64>(s.matrix_id));
      h.update_array(s.xm.data(), s.xm.size());
      h.update_bits(s.y_mean);
      h.update_bits(s.y_std);
    }
    expect_golden("build_dataset/labels/laplace_2d(8)+pdd_real_sparse(128)",
                  h.digest());
  });
}

// A short direct TPE run with BiCGStab: its 16-step baseline on this matrix
// makes every candidate at the near-zero alpha a y_cap label.  The row
// folds the incumbent, its median y and the whole history.
TEST(Golden, TuneMcmcParams) {
  const mcmi::NamedMatrix m = make_matrix("PDD_RealSparse_N64");
  hpo::McmcTuneOptions options;
  options.alphas = {0.02, 1.0, 2.0};
  options.rounds = 2;
  options.candidates_per_round = 4;
  options.replicates = 2;
  at_thread_counts([&] {
    PerformanceMeasurer measurer(m.matrix, DatasetBuildOptions().solve);
    const hpo::McmcTuneResult result =
        hpo::tune_mcmc_params(measurer, KrylovMethod::kBiCGStab, options);
    Hash64 h;
    h.update_bits(result.best.alpha);
    h.update_bits(result.best.eps);
    h.update_bits(result.best.delta);
    h.update_bits(result.best_median);
    for (const hpo::McmcTrialResult& trial : result.history) {
      h.update_bits(trial.params.alpha);
      h.update_bits(trial.params.eps);
      h.update_bits(trial.params.delta);
      h.update_bits(trial.median_y);
    }
    expect_golden("tune_mcmc_params/bicgstab/pdd_real_sparse(64)", h.digest());
  });
}

// The service solves on its own worker threads, which run at the process's
// default OpenMP thread count whatever the test thread sets; the loop still
// builds and checks a fresh service per pass.
TEST(Golden, WarmServedAnswer) {
  const CsrMatrix a = laplace_2d(8);
  Xoshiro256 rng = make_stream(7);
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()));
  for (real_t& v : b) v = normal01(rng);

  at_thread_counts([&] {
    serve::ServiceOptions opts;
    opts.workers = 2;
    opts.mcmc_params = kParams;
    serve::SolveService service(opts);
    (void)service.submit(a, b).wait();  // cold answer; schedules the build
    service.drain();
    const auto entry = service.store().find(a);
    ASSERT_NE(entry, nullptr);
    ASSERT_EQ(entry->state(), serve::BuildState::kTuned);
    expect_golden("serve_warm/p/laplace_2d(8)",
                  entry->tuned()->matrix().content_fingerprint());

    const serve::ServeResult warm = service.submit(a, b).wait();
    ASSERT_TRUE(warm.warm);
    ASSERT_TRUE(warm.report.converged());
    expect_golden("serve_warm/x/laplace_2d(8)", digest(warm.x));
  });
}

}  // namespace
}  // namespace mcmi
