// autotune: the paper's §4.4 flow at reduced size, as a user runs it for a
// system the surrogate has never seen — label a corpus, train the
// surrogate, recommend an x_M batch, evaluate the batch.  Many small
// batched builds and many small GMRES solves (n <= 256): most time goes to
// the walks and to per-call overhead, and this is the only workload that
// runs the surrogate and the Bayesian optimiser.

#include <cmath>
#include <limits>
#include <memory>

#include "bo/recommender.hpp"
#include "features/matrix_features.hpp"
#include "gen/matrix_set.hpp"
#include "mcmc/batched_build.hpp"
#include "pipeline/dataset_builder.hpp"
#include "pipeline/metric.hpp"
#include "stats/summary.hpp"
#include "surrogate/trainer.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace mcmi;

constexpr const char* kUnseen = "unsteady_adv_diff_order2_0001";
constexpr index_t kCorpusMaxDim = 300;
constexpr index_t kSmokeCorpusMaxDim = 100;
constexpr index_t kReplicates = 3;
constexpr index_t kEpochs = 20;
constexpr index_t kBatch = 8;
/// Nominal time of one flow: a default 20 s run measures 3.
constexpr double kFlowSeconds = 6.0;
constexpr int kMinFlows = 2;
/// Set-ups before each flow (the last one's inputs are used).
constexpr int kSetupsPerFlow = 3;

struct Inputs {
  std::vector<NamedMatrix> corpus;
  NamedMatrix unseen;
};

Inputs generate(const Options& opts) {
  trace::Scope span("gen", "training_matrix_set");
  return {training_matrix_set(opts.smoke ? kSmokeCorpusMaxDim : kCorpusMaxDim),
          make_matrix(kUnseen)};
}

/// Solver settings of every evaluation on the unseen system (those of the
/// dataset builder: effectively full GMRES at these sizes).
SolveOptions eval_solve_options() {
  SolveOptions so;
  so.restart = 250;
  so.max_iterations = 4000;
  return so;
}

McmcOptions eval_mcmc_options(u64 seed) {
  McmcOptions mo;
  mo.seed = sub_seed(seed, 7);
  return mo;
}

struct FlowOutput {
  u64 seed = 0;
  double seconds = 0.0;
  double eval_seconds = 0.0;  ///< the batch evaluation alone
  index_t samples = 0;
  double val_loss = 0.0;
  double tuned_y = std::numeric_limits<double>::infinity();
  McmcParams best;
};

/// One tuning flow: label -> train -> recommend -> evaluate.
FlowOutput run_flow(const Inputs& in, u64 seed) {
  trace::Scope root("workload", "autotune flow");
  FlowOutput out;
  out.seed = seed;
  const double t0 = trace::now();

  DatasetBuildOptions data;
  data.replicates = kReplicates;
  data.seed = sub_seed(seed, 1);
  data.mcmc.seed = sub_seed(seed, 2);
  SurrogateDataset dataset;
  {
    trace::Scope span("pipeline", "build_dataset");
    dataset = build_dataset(in.corpus, data);
  }
  out.samples = dataset.size();

  SurrogateConfig config = default_config();
  config.seed = sub_seed(seed, 3);
  SurrogateModel model(config);
  {
    trace::Scope span("surrogate", "train_surrogate");
    model.fit_standardizers(dataset);
    std::vector<LabeledSample> train, validation;
    dataset.split(0.2, sub_seed(seed, 4), train, validation);
    TrainOptions to;
    to.epochs = kEpochs;
    to.seed = sub_seed(seed, 5);
    out.val_loss =
        train_surrogate(model, dataset, train, validation, to)
            .final_validation_loss;
  }

  std::vector<McmcParams> candidates;
  {
    trace::Scope span("bo", "recommend_batch");
    model.cache_matrix(gnn::Graph::from_csr(in.unseen.matrix),
                       extract_features(in.unseen.matrix).to_vector());
    RecommendOptions ro;
    ro.batch_size = kBatch;
    ro.xi = 0.05;
    ro.y_min = std::numeric_limits<real_t>::infinity();
    for (const LabeledSample& s : dataset.samples) {
      ro.y_min = std::min(ro.y_min, s.y_mean);
    }
    ro.seed = sub_seed(seed, 6);
    for (const Recommendation& r :
         recommend_batch(model, KrylovMethod::kGMRES, McmcSearchSpace{}, ro)) {
      candidates.push_back(r.params);
    }
  }

  {
    trace::Scope span("pipeline", "measure_grouped_medians");
    const double e0 = trace::now();
    PerformanceMeasurer measurer(in.unseen.matrix, eval_solve_options(),
                                 eval_mcmc_options(seed));
    const std::vector<real_t> medians = measurer.measure_grouped_medians(
        candidates, KrylovMethod::kGMRES, kReplicates);
    for (std::size_t i = 0; i < medians.size(); ++i) {
      if (medians[i] < out.tuned_y) {
        out.tuned_y = medians[i];
        out.best = candidates[i];
      }
    }
    out.eval_seconds = trace::now() - e0;
  }
  out.seconds = trace::now() - t0;
  return out;
}

/// The measured section: a fixed number of flows, each on freshly
/// generated inputs (timed set-ups) so no lazily built plan is reused.
/// Flow k tunes with its own seed: the recommendations, and so the cost of
/// evaluating them, vary by seed, and a run's median then averages over
/// several draws of them.
std::vector<FlowOutput> run_pass(Inputs& in, const Options& opts,
                                 SetupTimes& setups) {
  std::vector<FlowOutput> flows;
  const int count = answer_count(opts.seconds, kFlowSeconds, kMinFlows);
  for (int k = 0; k < count; ++k) {
    for (int s = 0; s < kSetupsPerFlow; ++s) {
      in = Inputs();  // released before the timer, as in every set-up
      setups.time([&] { in = generate(opts); });
    }
    flows.push_back(run_flow(in, sub_seed(opts.seed, 300 + k)));
  }
  return flows;
}

struct StandaloneSolve {
  double build_seconds = 0.0;
  double solve_seconds = 0.0;
  long long transitions = 0;
  index_t iterations = 0;
  bool converged = false;
  double residual = 0.0;  ///< true relative residual of the answer
  std::unique_ptr<SparseApproximateInverse> p;
};

/// Build P for `params` with a standalone McmcInverter and solve A x = 1
/// with GMRES.
StandaloneSolve standalone_solve(const CsrMatrix& a, const McmcParams& params,
                                 u64 seed) {
  StandaloneSolve out;
  McmcOptions mo;
  mo.seed = seed;
  McmcInverter inverter(a, params, mo);
  double t0 = trace::now();
  {
    trace::Scope span("mcmc", "McmcInverter::compute");
    out.p = std::make_unique<SparseApproximateInverse>(inverter.compute(),
                                                       "mcmcmi");
  }
  out.build_seconds = trace::now() - t0;
  out.transitions = inverter.info().total_transitions;
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<real_t> x;
  t0 = trace::now();
  SolveResult res;
  {
    trace::Scope span("krylov", "solve gmres");
    res = solve(KrylovMethod::kGMRES, a, b, *out.p, x, eval_solve_options());
  }
  out.solve_seconds = trace::now() - t0;
  out.iterations = res.iterations;
  out.converged = res.converged();
  out.residual = true_residual(a, b, x);
  return out;
}

struct GridProbe {
  double best_y = std::numeric_limits<double>::infinity();
  double seconds = 0.0;        ///< the whole probe
  double build_seconds = 0.0;  ///< its multi_alpha_grid_build call
};

/// Per-layer probe of the conventional search the flow replaces: the
/// 64-point paper grid on the unseen system, its walks built through
/// multi_alpha_grid_build (3 replicate seeds) and each P solved with
/// GMRES, each side under its own span.
GridProbe grid_probe(const CsrMatrix& a, u64 seed) {
  trace::Scope root("probe", "paper grid");
  GridProbe out;
  const double t0 = trace::now();
  const std::vector<AlphaGroup> groups =
      group_grid_by_alpha(paper_parameter_grid());
  const std::vector<u64> seeds = {sub_seed(seed, 200), sub_seed(seed, 201),
                                  sub_seed(seed, 202)};
  MultiAlphaGridResult built;
  {
    trace::Scope span("mcmc", "multi_alpha_grid_build");
    built = multi_alpha_grid_build(a, groups, seeds);
  }
  out.build_seconds = trace::now() - t0;
  const SolveOptions so = eval_solve_options();
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<real_t> x;
  index_t base = 0;
  {
    trace::Scope span("krylov", "solve gmres unpreconditioned");
    const SolveResult r =
        solve(KrylovMethod::kGMRES, a, b, IdentityPreconditioner{}, x, so);
    base = r.converged() ? r.iterations : so.max_iterations;
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t t = 0; t < groups[g].trials.size(); ++t) {
      std::vector<real_t> ys;
      for (BatchedGridResult& rep : built.groups[g].replicates) {
        trace::Scope span("krylov", "solve gmres");
        const SparseApproximateInverse p(std::move(rep.preconditioners[t]),
                                         "mcmcmi");
        const SolveResult r = solve(KrylovMethod::kGMRES, a, b, p, x, so);
        const index_t steps = r.converged() ? r.iterations : so.max_iterations;
        ys.push_back(std::min(4.0, static_cast<double>(steps) /
                                       static_cast<double>(base)));
      }
      out.best_y = std::min(out.best_y, mcmi::median(ys));
    }
  }
  out.seconds = trace::now() - t0;
  return out;
}

}  // namespace

void run_autotune(const Options& opts, Result& result) {
  // Set-up is input generation alone here.
  Inputs in;
  SetupTimes setups;
  std::vector<FlowOutput> flows = run_pass(in, opts, setups);
  setups.report(result);
  result.set("gen.setup_s", setups.median());
  result.context("corpus_matrices", static_cast<double>(in.corpus.size()));
  result.context("unseen_nnz", static_cast<double>(in.unseen.matrix.nnz()));
  result.context("working_set_mb", csr_bytes(in.unseen.matrix) / 1e6);

  std::vector<double> seconds;
  for (const FlowOutput& f : flows) seconds.push_back(f.seconds);
  const double untraced_unit = median(seconds);
  double traced_cpu = 0.0;
  if (opts.trace) {
    // The per-layer run: the same measured section again, traced.
    const double untraced_y = flows.front().tuned_y;
    trace::Recorder::instance().set_enabled(true);
    SetupTimes traced_setups;
    const double cpu0 = cpu_seconds();
    flows = run_pass(in, opts, traced_setups);
    traced_cpu = cpu_seconds() - cpu0;
    result.check(untraced_y == flows.front().tuned_y,
                 "autotune: tracing changed the tuned y");
  }

  // Output check: each flow's best recommendation, re-evaluated per
  // replicate with standalone (unbatched) builds, must reproduce its
  // tuned_y bit for bit.
  seconds.clear();
  std::vector<double> tuned_y;
  for (const FlowOutput& f : flows) {
    seconds.push_back(f.seconds * 1e3);
    tuned_y.push_back(f.tuned_y);
    PerformanceMeasurer measurer(in.unseen.matrix, eval_solve_options(),
                                 eval_mcmc_options(f.seed));
    std::vector<real_t> ys;
    for (index_t r = 0; r < kReplicates; ++r) {
      ys.push_back(measurer.measure(f.best, KrylovMethod::kGMRES, r).y);
    }
    const bool ok = std::isfinite(f.tuned_y) && mcmi::median(ys) == f.tuned_y;
    result.operation(!ok);
    result.check(ok, "autotune: standalone re-evaluation does not reproduce "
                     "tuned_y (" + std::to_string(mcmi::median(ys)) + " vs " +
                         std::to_string(f.tuned_y) + ")");
  }
  report_answers(result, seconds);
  result.context("answers_ms", join(seconds));
  result.context("tuned_y", join(tuned_y));
  if (!opts.trace) return;
  const FlowOutput& flow = flows.front();

  // Layer probes: standalone builds + solves with the recommendation, at
  // seeds of their own, so a solve may legitimately fail to converge.
  // Their true residual is reported, not checked: on this system family
  // left-preconditioned GMRES stops on ||P r|| while ||r|| can be huge.
  std::vector<double> solve_ms, iters;
  double transitions = 0.0, build_seconds = 0.0, residual = 0.0;
  std::unique_ptr<SparseApproximateInverse> p;
  for (index_t r = 0; r < kReplicates; ++r) {
    StandaloneSolve s = standalone_solve(in.unseen.matrix, flow.best,
                                         sub_seed(opts.seed, 100 + r));
    solve_ms.push_back(s.solve_seconds * 1e3);
    iters.push_back(static_cast<double>(s.iterations));
    transitions += static_cast<double>(s.transitions);
    build_seconds += s.build_seconds;
    if (s.converged) residual = std::max(residual, s.residual);
    p = std::move(s.p);
  }
  const CsrMatrix& a = in.unseen.matrix;
  const GridProbe grid = grid_probe(a, opts.seed);
  result.set("quality.tuned_y", flow.tuned_y);
  result.set("quality.grid_y", grid.best_y);
  result.set("pipeline.samples", static_cast<double>(flow.samples));
  result.set("surrogate.val_loss", flow.val_loss);
  result.set("pipeline.grid_vs_eval", grid.seconds / flow.eval_seconds);
  result.set("mcmc.grid_share", grid.build_seconds / grid.seconds);
  result.set("mcmc.mtrans_per_s", transitions / build_seconds / 1e6);
  result.set("mcmc.transitions", transitions / kReplicates);
  result.set("krylov.solve_ms_p50", median(solve_ms));
  result.set("krylov.iters_mean", mean(iters));
  result.set("krylov.true_residual_max", residual);
  report_probes(result, a, *p);
  report_trace(opts, result, "workload", untraced_unit, median(seconds) / 1e3,
               traced_cpu);
}

}  // namespace e2e
