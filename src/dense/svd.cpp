#include "dense/svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mcmi {

namespace {

/// One-sided Jacobi on the `n` columns of `rows` entries each stored one
/// after another in `col`: orthogonalise pairs of columns by plane rotations
/// until all pairs are numerically orthogonal; column norms are then the
/// singular values, returned sorted descending.  Contiguous columns make
/// every pair's dot products and rotation stream two unit-stride arrays.
std::vector<real_t> jacobi_singular_values(std::vector<real_t> col,
                                           std::size_t rows, index_t n,
                                           index_t max_sweeps) {
  const real_t eps = std::numeric_limits<real_t>::epsilon();
  for (index_t sweep = 0; sweep < max_sweeps; ++sweep) {
    bool converged = true;
    for (index_t p = 0; p < n - 1; ++p) {
      real_t* const cp = col.data() + static_cast<std::size_t>(p) * rows;
      for (index_t q = p + 1; q < n; ++q) {
        real_t* const cq = col.data() + static_cast<std::size_t>(q) * rows;
        real_t app = 0.0, aqq = 0.0, apq = 0.0;
        for (std::size_t i = 0; i < rows; ++i) {
          const real_t u = cp[i];
          const real_t v = cq[i];
          app += u * u;
          aqq += v * v;
          apq += u * v;
        }
        if (std::abs(apq) <= eps * std::sqrt(app * aqq)) continue;
        converged = false;
        // Jacobi rotation annihilating the (p,q) Gram entry.
        const real_t tau = (aqq - app) / (2.0 * apq);
        const real_t t = (tau >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const real_t c = 1.0 / std::sqrt(1.0 + t * t);
        const real_t s = c * t;
        for (std::size_t i = 0; i < rows; ++i) {
          const real_t u = cp[i];
          const real_t v = cq[i];
          cp[i] = c * u - s * v;
          cq[i] = s * u + c * v;
        }
      }
    }
    if (converged) break;
  }

  std::vector<real_t> sigma(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    const real_t* const cj = col.data() + static_cast<std::size_t>(j) * rows;
    real_t sum = 0.0;
    for (std::size_t i = 0; i < rows; ++i) sum += cj[i] * cj[i];
    sigma[j] = std::sqrt(sum);
  }
  std::sort(sigma.begin(), sigma.end(), std::greater<real_t>());
  return sigma;
}

}  // namespace

std::vector<real_t> singular_values(DenseMatrix a, index_t max_sweeps) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  MCMI_CHECK(m >= n, "one-sided Jacobi expects rows >= cols; transpose first");
  // Row-major A^T stores A's columns contiguously.
  return jacobi_singular_values(std::move(a.transpose().data()),
                                static_cast<std::size_t>(m), n, max_sweeps);
}

real_t condition_number_exact(const DenseMatrix& a) {
  // Jacobi runs on the columns of A when rows >= cols and on those of A^T —
  // the rows of A, already contiguous in row-major storage — otherwise.
  const std::vector<real_t> sigma =
      a.rows() >= a.cols()
          ? jacobi_singular_values(std::move(a.transpose().data()),
                                   static_cast<std::size_t>(a.rows()),
                                   a.cols(), 60)
          : jacobi_singular_values(a.data(),
                                   static_cast<std::size_t>(a.cols()),
                                   a.rows(), 60);
  MCMI_CHECK(!sigma.empty(), "empty matrix has no condition number");
  const real_t smin = sigma.back();
  if (smin <= 0.0) return std::numeric_limits<real_t>::infinity();
  return sigma.front() / smin;
}

}  // namespace mcmi
