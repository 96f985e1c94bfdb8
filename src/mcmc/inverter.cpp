#include "mcmc/inverter.hpp"

#include <utility>

#include "core/error.hpp"
#include "core/timer.hpp"
#include "mcmc/batched_build.hpp"

namespace mcmi {

McmcInverter::McmcInverter(const CsrMatrix& a, McmcParams params,
                           McmcOptions options)
    : a_(a), params_(params), options_(options) {
  MCMI_CHECK(a.rows() == a.cols(), "MCMCMI needs a square matrix");
  MCMI_CHECK(params_.alpha >= 0.0, "alpha must be nonnegative");
  MCMI_CHECK(params_.eps > 0.0 && params_.eps <= 1.0, "eps must be in (0,1]");
  MCMI_CHECK(params_.delta > 0.0 && params_.delta <= 1.0,
             "delta must be in (0,1]");
  MCMI_CHECK(options_.filling_factor > 0.0, "filling factor must be positive");
}

CsrMatrix McmcInverter::compute() {
  WallTimer timer;
  if (options_.cancel != nullptr && options_.cancel->should_stop()) {
    info_ = McmcBuildInfo{};
    info_.status = build_stop_reason(*options_.cancel);
    return CsrMatrix();  // refused before any work
  }
  // One lane, one unit of the batched engine: every build runs the same
  // walk loop, so a standalone P is by construction the P a grid or
  // replicate build makes for the same (alpha, eps, delta) and seed.
  BatchedGridResult built = batched_grid_build(
      a_, params_.alpha, {{params_.eps, params_.delta}}, options_,
      kernel_cache_);
  info_ = built.info.front();
  info_.build_seconds = timer.seconds();
  return std::move(built.preconditioners.front());
}

std::unique_ptr<SparseApproximateInverse> McmcInverter::build_preconditioner(
    const CsrMatrix& a, const McmcParams& params, const McmcOptions& options,
    WalkKernelCache* kernel_cache) {
  McmcInverter inverter(a, params, options);
  inverter.set_kernel_cache(kernel_cache);
  CsrMatrix p = inverter.compute();
  return std::make_unique<SparseApproximateInverse>(
      std::move(p), "mcmcmi" + params.to_string());
}

}  // namespace mcmi
