#pragma once
// The four end-to-end workloads.  Each one generates its inputs from the
// seed in set-up, runs its measured section, checks every output, and
// fills the Result with its end-to-end metrics (untraced run) or its
// per-layer metrics (traced run).  See README.md for why each exists.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/rng.hpp"
#include "precond/sparse_precond.hpp"
#include "sparse/csr.hpp"

namespace e2e {

void run_autotune(const Options& opts, Result& result);
void run_large_solve(const Options& opts, Result& result);
void run_serve_warm(const Options& opts, Result& result);
void run_serve_churn(const Options& opts, Result& result);

/// An independent seed for one input site of a workload.
inline std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t site) {
  return mcmi::mix64(seed * 0x9e3779b97f4a7c15ULL + site);
}

/// Seeded standard-normal right-hand side.
inline std::vector<double> random_rhs(mcmi::index_t n, std::uint64_t seed) {
  mcmi::Xoshiro256 rng = mcmi::make_stream(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = mcmi::normal01(rng);
  return b;
}

/// True relative residual ||b - A x|| / ||b||, recomputed with one SpMV.
inline double true_residual(const mcmi::CsrMatrix& a,
                            const std::vector<double>& b,
                            const std::vector<double>& x) {
  std::vector<double> ax;
  a.multiply(x, ax);
  double r2 = 0.0;
  double b2 = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    r2 += (b[i] - ax[i]) * (b[i] - ax[i]);
    b2 += b[i] * b[i];
  }
  return b2 > 0.0 ? std::sqrt(r2 / b2) : std::sqrt(r2);
}

/// Bytes one y = A x product moves by array size alone (values, 32-bit
/// plan columns, row pointers, x read once, y written once).  Computed,
/// not measured: cache reuse of x is ignored.
inline double spmv_bytes(const mcmi::CsrMatrix& a) {
  return static_cast<double>(a.nnz()) * 12.0 +
         static_cast<double>(a.rows()) * 16.0 +
         static_cast<double>(a.cols()) * 8.0;
}

/// Resident bytes of a CSR matrix's arrays.
inline double csr_bytes(const mcmi::CsrMatrix& a) {
  return static_cast<double>(a.nnz()) * 16.0 +
         static_cast<double>(a.rows() + 1) * 8.0;
}

/// GB/s of `reps` products of `op` over `bytes_per_call` computed bytes,
/// with at least `min_seconds` of repetitions.
template <typename Op>
double bandwidth_gbps(Op&& op, double bytes_per_call, double min_seconds) {
  op();  // first call builds lazy plans outside the timing
  long long calls = 0;
  const double t0 = trace::now();
  double elapsed = 0.0;
  do {
    op();
    ++calls;
    elapsed = trace::now() - t0;
  } while (calls < 50 || elapsed < min_seconds);
  return bytes_per_call * static_cast<double>(calls) / elapsed / 1e9;
}

/// The probes every workload reports on its largest system `a` and a
/// preconditioner `p` of it, at the current thread count: SpMV and P-apply
/// bandwidth (computed bytes), nnz(P) / nnz(A), and the pair's resident
/// size.
inline void report_probes(Result& result, const mcmi::CsrMatrix& a,
                          const mcmi::SparseApproximateInverse& p) {
  std::vector<mcmi::real_t> x(static_cast<std::size_t>(a.cols()), 1.0), y;
  {
    trace::Scope span("sparse", "CsrMatrix::multiply probe");
    result.set("sparse.spmv_gbps",
               bandwidth_gbps([&] { a.multiply(x, y); }, spmv_bytes(a), 0.2));
  }
  {
    trace::Scope span("precond", "SparseApproximateInverse::apply probe");
    result.set("precond.apply_gbps",
               bandwidth_gbps([&] { p.apply(x, y); }, spmv_bytes(p.matrix()),
                              0.2));
  }
  result.set("precond.nnz_ratio", static_cast<double>(p.matrix().nnz()) /
                                      static_cast<double>(a.nnz()));
  result.set("sparse.working_set_mb",
             (csr_bytes(a) + csr_bytes(p.matrix())) / 1e6);
}

/// Fold the recorded spans of a traced pass into the per-layer shares and
/// the trace's own metrics, and write the Chrome trace.
/// @param root_layer     layer of the spans that delimit the units of work
/// @param untraced_unit  median unit time of the same pass, tracing off
/// @param traced_unit    median unit time of the traced pass
/// @param traced_cpu     process CPU seconds of the traced pass
void report_trace(const Options& opts, Result& result,
                  const std::string& root_layer, double untraced_unit,
                  double traced_unit, double traced_cpu);

}  // namespace e2e
