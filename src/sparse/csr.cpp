#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "core/error.hpp"
#include "core/hash.hpp"

namespace mcmi {

CsrMatrix::CsrMatrix(const CsrMatrix& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      row_ptr_(other.row_ptr_),
      col_idx_(other.col_idx_),
      values_(other.values_),
      plan_(std::atomic_load(&other.plan_)),
      tgather_(std::atomic_load(&other.tgather_)) {}

CsrMatrix& CsrMatrix::operator=(const CsrMatrix& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  row_ptr_ = other.row_ptr_;
  col_idx_ = other.col_idx_;
  values_ = other.values_;
  std::atomic_store(&plan_, std::atomic_load(&other.plan_));
  std::atomic_store(&tgather_, std::atomic_load(&other.tgather_));
  return *this;
}

CsrMatrix CsrMatrix::from_coo(CooMatrix coo) {
  coo.compress();
  const index_t rows = coo.rows();
  std::vector<index_t> row_ptr(rows + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<real_t> values;
  col_idx.reserve(coo.entries().size());
  values.reserve(coo.entries().size());
  for (const Triplet& t : coo.entries()) row_ptr[t.row + 1]++;
  for (index_t i = 0; i < rows; ++i) row_ptr[i + 1] += row_ptr[i];
  for (const Triplet& t : coo.entries()) {
    col_idx.push_back(t.col);
    values.push_back(t.value);
  }
  return CsrMatrix(rows, coo.cols(), std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

CsrMatrix::CsrMatrix(index_t rows, index_t cols, std::vector<index_t> row_ptr,
                     std::vector<index_t> col_idx, std::vector<real_t> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  validate();
}

void CsrMatrix::validate() const {
  MCMI_CHECK(rows_ >= 0 && cols_ >= 0, "negative dimensions");
  MCMI_CHECK(static_cast<index_t>(row_ptr_.size()) == rows_ + 1,
             "row_ptr size " << row_ptr_.size() << " != rows+1 " << rows_ + 1);
  MCMI_CHECK(col_idx_.size() == values_.size(),
             "col_idx/values size mismatch");
  MCMI_CHECK(row_ptr_.front() == 0, "row_ptr must start at 0");
  MCMI_CHECK(row_ptr_.back() == static_cast<index_t>(values_.size()),
             "row_ptr must end at nnz");
  for (index_t i = 0; i < rows_; ++i) {
    MCMI_CHECK(row_ptr_[i] <= row_ptr_[i + 1], "row_ptr not monotone at row "
                                                   << i);
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      MCMI_CHECK(col_idx_[k] >= 0 && col_idx_[k] < cols_,
                 "column " << col_idx_[k] << " out of range in row " << i);
      MCMI_CHECK(k == row_ptr_[i] || col_idx_[k - 1] < col_idx_[k],
                 "columns not strictly increasing in row " << i);
    }
  }
}

CsrMatrix CsrMatrix::identity(index_t n) {
  std::vector<index_t> row_ptr(n + 1);
  std::vector<index_t> col_idx(n);
  std::vector<real_t> values(n, 1.0);
  for (index_t i = 0; i <= n; ++i) row_ptr[i] = i;
  for (index_t i = 0; i < n; ++i) col_idx[i] = i;
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

CsrMatrix CsrMatrix::diagonal(const std::vector<real_t>& d) {
  const index_t n = static_cast<index_t>(d.size());
  std::vector<index_t> row_ptr(n + 1);
  std::vector<index_t> col_idx(n);
  for (index_t i = 0; i <= n; ++i) row_ptr[i] = i;
  for (index_t i = 0; i < n; ++i) col_idx[i] = i;
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx), d);
}

real_t CsrMatrix::fill() const {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<real_t>(nnz()) /
         (static_cast<real_t>(rows_) * static_cast<real_t>(cols_));
}

real_t CsrMatrix::at(index_t i, index_t j) const {
  MCMI_CHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_,
             "(" << i << "," << j << ") outside matrix");
  const auto begin = col_idx_.begin() + row_ptr_[i];
  const auto end = col_idx_.begin() + row_ptr_[i + 1];
  const auto it = std::lower_bound(begin, end, j);
  if (it != end && *it == j) {
    return values_[static_cast<std::size_t>(it - col_idx_.begin())];
  }
  return 0.0;
}

const SpmvPlan& CsrMatrix::spmv_plan() const {
  std::shared_ptr<const SpmvPlan> p = std::atomic_load(&plan_);
  if (!p) {
    auto built = std::make_shared<const SpmvPlan>(
        SpmvPlan::build(rows_, cols_, row_ptr_, col_idx_));
    std::shared_ptr<const SpmvPlan> expected;
    // First publisher wins; a loser adopts the winner's plan, so the member
    // is never replaced and returned references stay valid for the life of
    // the matrix.
    if (std::atomic_compare_exchange_strong(&plan_, &expected,
                                            std::shared_ptr<const SpmvPlan>(
                                                built))) {
      p = built;
    } else {
      p = expected;
    }
  }
  return *p;
}

void CsrMatrix::multiply(const std::vector<real_t>& x,
                         std::vector<real_t>& y) const {
  MCMI_CHECK(static_cast<index_t>(x.size()) == cols_,
             "x size " << x.size() << " != cols " << cols_);
  y.resize(static_cast<std::size_t>(rows_));  // every y[i] is written
  spmv_plan().multiply(row_ptr_.data(), col_idx_.data(), values_.data(),
                       x.data(), y.data());
}

std::vector<real_t> CsrMatrix::multiply(const std::vector<real_t>& x) const {
  std::vector<real_t> y;
  multiply(x, y);
  return y;
}

real_t CsrMatrix::multiply_dot(const std::vector<real_t>& x,
                               std::vector<real_t>& y) const {
  return multiply_dot(x, y, x);
}

real_t CsrMatrix::multiply_dot(const std::vector<real_t>& x,
                               std::vector<real_t>& y,
                               const std::vector<real_t>& w) const {
  MCMI_CHECK(static_cast<index_t>(x.size()) == cols_,
             "x size " << x.size() << " != cols " << cols_);
  MCMI_CHECK(static_cast<index_t>(w.size()) == rows_,
             "w size " << w.size() << " != rows " << rows_);
  y.resize(static_cast<std::size_t>(rows_));
  return spmv_plan().multiply_dot(row_ptr_.data(), col_idx_.data(),
                                  values_.data(), x.data(), w.data(),
                                  y.data());
}

void CsrMatrix::multiply_dot_norm2(const std::vector<real_t>& x,
                                   std::vector<real_t>& y,
                                   const std::vector<real_t>& w,
                                   real_t& dot_wy, real_t& norm_sq_y) const {
  MCMI_CHECK(static_cast<index_t>(x.size()) == cols_,
             "x size " << x.size() << " != cols " << cols_);
  MCMI_CHECK(static_cast<index_t>(w.size()) == rows_,
             "w size " << w.size() << " != rows " << rows_);
  y.resize(static_cast<std::size_t>(rows_));
  spmv_plan().multiply_dot_norm2(row_ptr_.data(), col_idx_.data(),
                                 values_.data(), x.data(), w.data(), y.data(),
                                 dot_wy, norm_sq_y);
}

void CsrMatrix::multiply_dot_norm2_xpby(const std::vector<real_t>& x,
                                        std::vector<real_t>& z,
                                        const std::vector<real_t>& w,
                                        real_t rho_prev,
                                        std::vector<real_t>& q,
                                        real_t& dot_wz,
                                        real_t& norm_sq_z) const {
  MCMI_CHECK(static_cast<index_t>(q.size()) == rows_,
             "q size " << q.size() << " != rows " << rows_);
  MCMI_CHECK(static_cast<index_t>(x.size()) == cols_,
             "x size " << x.size() << " != cols " << cols_);
  MCMI_CHECK(static_cast<index_t>(w.size()) == rows_,
             "w size " << w.size() << " != rows " << rows_);
  z.resize(static_cast<std::size_t>(rows_));
  spmv_plan().multiply_dot_norm2_xpby(row_ptr_.data(), col_idx_.data(),
                                      values_.data(), x.data(), w.data(),
                                      z.data(), rho_prev, q.data(), dot_wz,
                                      norm_sq_z);
}

real_t CsrMatrix::multiply_dot_axpy2(const std::vector<real_t>& q, real_t rho,
                                     std::vector<real_t>& aq,
                                     std::vector<real_t>& x,
                                     std::vector<real_t>& r) const {
  MCMI_CHECK(static_cast<index_t>(x.size()) == rows_,
             "x size " << x.size() << " != rows " << rows_);
  MCMI_CHECK(static_cast<index_t>(r.size()) == rows_,
             "r size " << r.size() << " != rows " << rows_);
  MCMI_CHECK(static_cast<index_t>(q.size()) == cols_,
             "q size " << q.size() << " != cols " << cols_);
  aq.resize(static_cast<std::size_t>(rows_));
  return spmv_plan().multiply_dot_axpy2(row_ptr_.data(), col_idx_.data(),
                                        values_.data(), q.data(), rho,
                                        aq.data(), x.data(), r.data());
}

std::shared_ptr<const CsrMatrix::TransposeGather>
CsrMatrix::transpose_gather() const {
  std::shared_ptr<const TransposeGather> g = std::atomic_load(&tgather_);
  if (g) return g;
  // Build the column-major gather: same counting pass as transpose(), but
  // recording source positions instead of copying values, so the gather
  // tracks in-place value edits.  A concurrent first call may build twice;
  // the compare-exchange below keeps the first published structure.
  auto built = std::make_shared<TransposeGather>();
  built->col_ptr.assign(static_cast<std::size_t>(cols_) + 1, 0);
  built->src_row.resize(values_.size());
  built->src_pos.resize(values_.size());
  for (index_t c : col_idx_) built->col_ptr[c + 1]++;
  for (index_t j = 0; j < cols_; ++j) built->col_ptr[j + 1] += built->col_ptr[j];
  std::vector<index_t> next(built->col_ptr.begin(), built->col_ptr.end() - 1);
  for (index_t i = 0; i < rows_; ++i) {
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const index_t pos = next[col_idx_[k]]++;
      built->src_row[pos] = i;
      built->src_pos[pos] = k;
    }
  }
  built->plan = SpmvPlan::build(cols_, rows_, built->col_ptr, built->src_row);
  g = built;
  std::shared_ptr<const TransposeGather> expected;
  if (!std::atomic_compare_exchange_strong(&tgather_, &expected, g)) {
    g = expected;
  }
  return g;
}

void CsrMatrix::multiply_transpose(const std::vector<real_t>& x,
                                   std::vector<real_t>& y) const {
  MCMI_CHECK(static_cast<index_t>(x.size()) == rows_,
             "x size " << x.size() << " != rows " << rows_);
  const std::shared_ptr<const TransposeGather> g = transpose_gather();
  y.resize(static_cast<std::size_t>(cols_));
  // Gather over the cached transpose structure: each column's sum runs in
  // ascending source-row order, so the result is bit-identical to the
  // historical serial scatter at any thread count.
  g->plan.multiply_gather(g->col_ptr.data(), g->src_row.data(),
                          g->src_pos.data(), values_.data(), x.data(),
                          y.data());
}

CsrMatrix CsrMatrix::transpose() const {
  std::vector<index_t> row_ptr(cols_ + 1, 0);
  std::vector<index_t> col_idx(values_.size());
  std::vector<real_t> values(values_.size());
  for (index_t c : col_idx_) row_ptr[c + 1]++;
  for (index_t j = 0; j < cols_; ++j) row_ptr[j + 1] += row_ptr[j];
  std::vector<index_t> next(row_ptr.begin(), row_ptr.end() - 1);
  for (index_t i = 0; i < rows_; ++i) {
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const index_t pos = next[col_idx_[k]]++;
      col_idx[pos] = i;
      values[pos] = values_[k];
    }
  }
  return CsrMatrix(cols_, rows_, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

CsrMatrix CsrMatrix::multiply(const CsrMatrix& other) const {
  MCMI_CHECK(cols_ == other.rows_, "inner dimension mismatch: "
                                       << cols_ << " vs " << other.rows_);
  CooMatrix out(rows_, other.cols_);
  std::vector<real_t> accum(static_cast<std::size_t>(other.cols_), 0.0);
  std::vector<index_t> marked;
  for (index_t i = 0; i < rows_; ++i) {
    marked.clear();
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const index_t j = col_idx_[k];
      const real_t aij = values_[k];
      for (index_t l = other.row_ptr_[j]; l < other.row_ptr_[j + 1]; ++l) {
        const index_t c = other.col_idx_[l];
        if (accum[c] == 0.0) marked.push_back(c);
        accum[c] += aij * other.values_[l];
      }
    }
    for (index_t c : marked) {
      if (accum[c] != 0.0) out.add(i, c, accum[c]);
      accum[c] = 0.0;
    }
  }
  return from_coo(std::move(out));
}

CsrMatrix CsrMatrix::add(real_t alpha, const CsrMatrix& a, real_t beta,
                         const CsrMatrix& b) {
  MCMI_CHECK(a.rows_ == b.rows_ && a.cols_ == b.cols_,
             "dimension mismatch in add");
  CooMatrix out(a.rows_, a.cols_);
  for (index_t i = 0; i < a.rows_; ++i) {
    for (index_t k = a.row_ptr_[i]; k < a.row_ptr_[i + 1]; ++k) {
      out.add(i, a.col_idx_[k], alpha * a.values_[k]);
    }
    for (index_t k = b.row_ptr_[i]; k < b.row_ptr_[i + 1]; ++k) {
      out.add(i, b.col_idx_[k], beta * b.values_[k]);
    }
  }
  return from_coo(std::move(out));
}

std::vector<real_t> CsrMatrix::diag() const {
  const index_t n = std::min(rows_, cols_);
  std::vector<real_t> d(static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < n; ++i) d[i] = at(i, i);
  return d;
}

CsrMatrix CsrMatrix::add_diagonal(real_t alpha,
                                  const std::vector<real_t>& d) const {
  MCMI_CHECK(static_cast<index_t>(d.size()) == std::min(rows_, cols_),
             "diagonal length mismatch");
  CooMatrix out(rows_, cols_);
  for (index_t i = 0; i < rows_; ++i) {
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      out.add(i, col_idx_[k], values_[k]);
    }
  }
  for (index_t i = 0; i < static_cast<index_t>(d.size()); ++i) {
    if (alpha * d[i] != 0.0) out.add(i, i, alpha * d[i]);
  }
  return from_coo(std::move(out));
}

void CsrMatrix::scale_rows(const std::vector<real_t>& s) {
  MCMI_CHECK(static_cast<index_t>(s.size()) == rows_,
             "scale vector length mismatch");
  for (index_t i = 0; i < rows_; ++i) {
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      values_[k] *= s[i];
    }
  }
}

real_t CsrMatrix::norm_inf() const {
  real_t best = 0.0;
  for (index_t i = 0; i < rows_; ++i) {
    real_t sum = 0.0;
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      sum += std::abs(values_[k]);
    }
    best = std::max(best, sum);
  }
  return best;
}

real_t CsrMatrix::norm_one() const {
  std::vector<real_t> col_sum(static_cast<std::size_t>(cols_), 0.0);
  for (std::size_t k = 0; k < values_.size(); ++k) {
    col_sum[col_idx_[k]] += std::abs(values_[k]);
  }
  real_t best = 0.0;
  for (real_t s : col_sum) best = std::max(best, s);
  return best;
}

real_t CsrMatrix::norm_frobenius() const {
  real_t sum = 0.0;
  for (real_t v : values_) sum += v * v;
  return std::sqrt(sum);
}

real_t CsrMatrix::symmetry_score() const {
  if (rows_ != cols_) return 0.0;
  const real_t fro = norm_frobenius();
  if (fro == 0.0) return 1.0;
  const CsrMatrix diff = add(1.0, *this, -1.0, transpose());
  return std::max(0.0, 1.0 - diff.norm_frobenius() / (2.0 * fro));
}

bool CsrMatrix::is_symmetric(real_t tol) const {
  if (rows_ != cols_) return false;
  const CsrMatrix t = transpose();
  if (t.col_idx_ != col_idx_ || t.row_ptr_ != row_ptr_) {
    // Pattern differs; fall back to value comparison through at().
    for (index_t i = 0; i < rows_; ++i) {
      for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        if (std::abs(values_[k] - at(col_idx_[k], i)) > tol) return false;
      }
    }
    return true;
  }
  for (std::size_t k = 0; k < values_.size(); ++k) {
    if (std::abs(values_[k] - t.values_[k]) > tol) return false;
  }
  return true;
}

std::vector<real_t> CsrMatrix::to_dense() const {
  std::vector<real_t> dense(
      static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_), 0.0);
  for (index_t i = 0; i < rows_; ++i) {
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      dense[static_cast<std::size_t>(i) * cols_ + col_idx_[k]] = values_[k];
    }
  }
  return dense;
}

CsrMatrix CsrMatrix::dropped(real_t threshold) const {
  CooMatrix out(rows_, cols_);
  for (index_t i = 0; i < rows_; ++i) {
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      if (col_idx_[k] == i || std::abs(values_[k]) > threshold) {
        out.add(i, col_idx_[k], values_[k]);
      }
    }
  }
  return from_coo(std::move(out));
}

u64 CsrMatrix::content_fingerprint() const {
  Hash64 h(0x63737266ULL);  // "csrf"
  h.update(static_cast<u64>(rows_));
  h.update(static_cast<u64>(cols_));
  h.update_array(row_ptr_.data(), row_ptr_.size());
  h.update_array(col_idx_.data(), col_idx_.size());
  h.update_array(values_.data(), values_.size());
  return h.digest();
}

bool CsrMatrix::same_content(const CsrMatrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_ ||
      row_ptr_.size() != other.row_ptr_.size() ||
      col_idx_.size() != other.col_idx_.size() ||
      values_.size() != other.values_.size()) {
    return false;
  }
  const auto bytes_equal = [](const void* a, const void* b, std::size_t n) {
    return n == 0 || std::memcmp(a, b, n) == 0;
  };
  return bytes_equal(row_ptr_.data(), other.row_ptr_.data(),
                     row_ptr_.size() * sizeof(index_t)) &&
         bytes_equal(col_idx_.data(), other.col_idx_.data(),
                     col_idx_.size() * sizeof(index_t)) &&
         bytes_equal(values_.data(), other.values_.data(),
                     values_.size() * sizeof(real_t));
}

std::string CsrMatrix::summary() const {
  std::ostringstream os;
  os << "csr " << rows_ << "x" << cols_ << " nnz=" << nnz()
     << " fill=" << fill();
  return os.str();
}

}  // namespace mcmi
