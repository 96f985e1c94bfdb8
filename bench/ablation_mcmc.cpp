// Ablations of the MCMC matrix-inversion design choices called out in
// DESIGN.md:
//   (a) chain count (eps) vs estimator error — the 1/sqrt(N) law;
//   (b) walk cutoff (delta) vs estimator error — the truncation bias;
//   (c) filling-factor cap vs preconditioner quality;
//   (d) classic (eps, delta) sampler vs the regenerative single-budget
//       variant at matched transition cost (the paper's cited extension).

#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/table.hpp"
#include "dense/lu.hpp"
#include "dense/matrix.hpp"
#include "gen/matrix_set.hpp"
#include "gen/random_sparse.hpp"
#include "krylov/solver.hpp"
#include "mcmc/inverter.hpp"
#include "mcmc/regenerative.hpp"

namespace {

using namespace mcmi;

real_t inversion_error(const CsrMatrix& a, const CsrMatrix& p, real_t alpha) {
  std::vector<real_t> d = a.diag();
  for (real_t& v : d) v = alpha * std::abs(v);
  const DenseMatrix exact =
      dense_inverse(DenseMatrix::from_csr(a.add_diagonal(1.0, d)));
  real_t num = 0.0, den = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      const real_t e = p.at(i, j) - exact(i, j);
      num += e * e;
      den += exact(i, j) * exact(i, j);
    }
  }
  return std::sqrt(num / den);
}

}  // namespace

int main() {
  using namespace mcmi;
  const CsrMatrix a = random_diag_dominant(48, 5, 2.0, 77);
  McmcOptions uncapped;
  uncapped.filling_factor = 1000.0;
  uncapped.truncation_threshold = 0.0;

  std::printf("== MCMC ablations (n=%lld reference matrix) ==\n",
              static_cast<long long>(a.rows()));

  // (a) eps sweep at fixed small delta.
  {
    TextTable t({"eps", "chains/row", "rel. inversion error",
                 "transitions"});
    for (real_t eps : {1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125}) {
      McmcInverter inv(a, {0.5, eps, 0.001}, uncapped);
      const CsrMatrix p = inv.compute();
      t.add_row({TextTable::fmt(eps, 5),
                 TextTable::fmt(inv.info().chains_per_row),
                 TextTable::fmt(inversion_error(a, p, 0.5), 5),
                 TextTable::fmt(inv.info().total_transitions)});
    }
    std::printf("\n-- (a) stochastic error eps -> chain count (expect "
                "~1/sqrt(N) error decay) --\n");
    t.print(std::cout);
  }

  // (b) delta sweep at fixed eps.
  {
    TextTable t({"delta", "walk cutoff", "rel. inversion error",
                 "transitions"});
    for (real_t delta : {1.0, 0.5, 0.25, 0.125, 0.0625, 0.001}) {
      McmcInverter inv(a, {0.5, 0.0625, delta}, uncapped);
      const CsrMatrix p = inv.compute();
      t.add_row({TextTable::fmt(delta, 4),
                 TextTable::fmt(inv.info().walk_cutoff),
                 TextTable::fmt(inversion_error(a, p, 0.5), 5),
                 TextTable::fmt(inv.info().total_transitions)});
    }
    std::printf("\n-- (b) truncation error delta -> walk length (expect "
                "bias shrinking with delta) --\n");
    t.print(std::cout);
  }

  // (c) filling-factor cap vs preconditioner quality on a Table 1 member.
  {
    const NamedMatrix nm = make_matrix("a00512");
    std::vector<real_t> b(nm.matrix.rows(), 1.0);
    SolveOptions solve;
    solve.restart = 250;
    solve.max_iterations = 2000;
    IdentityPreconditioner id;
    std::vector<real_t> x;
    const index_t base = solve_gmres(nm.matrix, b, id, x, solve).iterations;
    TextTable t({"filling factor", "nnz(P)/nnz(A)", "gmres steps",
                 "y = steps ratio"});
    for (real_t factor : {0.5, 1.0, 2.0, 4.0}) {
      McmcOptions opt;
      opt.filling_factor = factor;
      McmcInverter inv(nm.matrix, {1.0, 0.0625, 0.0625}, opt);
      const SparseApproximateInverse p(inv.compute(), "mcmcmi");
      const SolveResult res = solve_gmres(nm.matrix, b, p, x, solve);
      t.add_row({TextTable::fmt(factor, 2),
                 TextTable::fmt(static_cast<real_t>(p.matrix().nnz()) /
                                    static_cast<real_t>(nm.matrix.nnz()),
                                3),
                 TextTable::fmt(res.iterations),
                 TextTable::fmt(static_cast<real_t>(res.iterations) /
                                    static_cast<real_t>(base),
                                4)});
    }
    std::printf("\n-- (c) filling factor on a00512 (baseline %lld steps; "
                "paper fixes 2x) --\n",
                static_cast<long long>(base));
    t.print(std::cout);
  }

  // (d) classic vs regenerative at matched transition budgets.
  {
    TextTable t({"scheme", "parameters", "transitions",
                 "rel. inversion error"});
    for (real_t eps : {0.25, 0.125, 0.0625}) {
      McmcInverter classic(a, {0.5, eps, 0.01}, uncapped);
      const CsrMatrix pc = classic.compute();
      const index_t spent = classic.info().total_transitions;
      const index_t budget =
          std::max<index_t>(1, spent / a.rows());
      RegenerativeOptions ropt;
      ropt.filling_factor = 1000.0;
      ropt.truncation_threshold = 0.0;
      RegenerativeInverter regen(a, {0.5, budget}, ropt);
      const CsrMatrix pr = regen.compute();
      t.add_row({"classic",
                 "eps=" + TextTable::fmt(eps, 4) + ", delta=0.01",
                 TextTable::fmt(spent),
                 TextTable::fmt(inversion_error(a, pc, 0.5), 5)});
      t.add_row({"regenerative",
                 "budget=" + TextTable::fmt(budget) + "/row",
                 TextTable::fmt(regen.info().total_transitions),
                 TextTable::fmt(inversion_error(a, pr, 0.5), 5)});
    }
    std::printf("\n-- (d) classic Ulam-von Neumann vs regenerative variant "
                "at matched cost --\n");
    t.print(std::cout);
  }

  return 0;
}
