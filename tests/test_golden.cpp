// Stored conformance oracle: 64-bit content digests (core/hash.hpp) of the
// SpMV products, MCMC preconditioners, Krylov solutions and one served
// answer, pinned as literal values.  The other bit-identity suites compare
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
#include "gen/random_sparse.hpp"
#include "krylov/solver.hpp"
#include "mcmc/batched_build.hpp"
#include "mcmc/inverter.hpp"
#include "precond/preconditioner.hpp"
#include "precond/sparse_precond.hpp"
#include "serve/solve_service.hpp"
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
