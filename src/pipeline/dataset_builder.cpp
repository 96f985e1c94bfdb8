#include "pipeline/dataset_builder.hpp"

#include <algorithm>

#include "core/parallel.hpp"
#include "features/matrix_features.hpp"
#include "stats/summary.hpp"

namespace mcmi {

DatasetBuildOptions::DatasetBuildOptions() {
  grid = paper_parameter_grid();
  solve.max_iterations = 4000;
  // Long restart: the study matrices have n <= ~1e3, so this is effectively
  // full GMRES and the step counts are not polluted by restart stagnation.
  solve.restart = 250;
  solve.tolerance = 1e-8;
}

namespace {

/// Label from replicated measurements: the sample mean/std of y.
LabeledSample make_label(index_t matrix_id, const McmcParams& params,
                         KrylovMethod method, const std::vector<real_t>& ys) {
  LabeledSample s;
  s.matrix_id = matrix_id;
  s.xm = encode_xm(params, method);
  s.y_mean = mean(ys);
  s.y_std = sample_std(ys);
  return s;
}

/// Grid-search labels over `grid` x `methods`: trials sharing an alpha run
/// as ONE interleaved walk ensemble through
/// measure_grid_replicates_methods — every replicate advances in lockstep
/// through the same kernel pass, and the method-independent preconditioners
/// are built once and solved once per method — and the labels land in the
/// dataset in the same grid-major, method-minor order (and with the same
/// values — replicate-batched builds are bit-identical to standalone ones)
/// as the per-(trial, method) loop this replaces.
void append_grid_samples(SurrogateDataset& dataset,
                         PerformanceMeasurer& measurer, index_t matrix_id,
                         const std::vector<McmcParams>& grid,
                         const std::vector<KrylovMethod>& methods,
                         index_t replicates) {
  const std::vector<AlphaGroup> groups = group_grid_by_alpha(grid);
  // labels[grid index][method index], scattered back into source order.
  std::vector<std::vector<LabeledSample>> labels(
      grid.size(), std::vector<LabeledSample>(methods.size()));
  for (const AlphaGroup& group : groups) {
    const std::vector<std::vector<std::vector<real_t>>> ys =
        measurer.measure_grid_replicates_methods(group.alpha, group.trials,
                                                 methods, replicates);
    for (std::size_t m = 0; m < methods.size(); ++m) {
      for (std::size_t t = 0; t < group.trials.size(); ++t) {
        const auto gi = static_cast<std::size_t>(group.indices[t]);
        labels[gi][m] = make_label(matrix_id, grid[gi], methods[m], ys[m][t]);
      }
    }
  }
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    for (std::size_t m = 0; m < methods.size(); ++m) {
      dataset.samples.push_back(labels[gi][m]);
    }
  }
}

/// Sampler options of every measurement on matrix `matrix_id`: the seed is
/// keyed by the dataset seed and the id.
McmcOptions matrix_mcmc_options(const DatasetBuildOptions& options,
                                index_t matrix_id) {
  McmcOptions mcmc = options.mcmc;
  mcmc.seed = mix64(options.seed ^ static_cast<u64>(matrix_id + 1));
  return mcmc;
}

/// Id of the matrix registered under `name`, or -1: a name identifies a
/// matrix, so a repeated name reuses the first entry.
index_t find_matrix(const SurrogateDataset& dataset, const std::string& name) {
  const auto it = std::find(dataset.matrix_names.begin(),
                            dataset.matrix_names.end(), name);
  return it == dataset.matrix_names.end()
             ? -1
             : static_cast<index_t>(it - dataset.matrix_names.begin());
}

/// Register every matrix of `matrices` whose name is not yet in `dataset`,
/// in list order, so ids are those of one-at-a-time registration.  The
/// graphs and features — one dense SVD per matrix for log_kappa — are
/// computed concurrently first (a name repeated within the list is
/// computed per entry and registered once).
void register_matrices(SurrogateDataset& dataset,
                       const std::vector<const NamedMatrix*>& matrices) {
  std::vector<const NamedMatrix*> fresh;
  for (const NamedMatrix* m : matrices) {
    if (find_matrix(dataset, m->name) < 0) fresh.push_back(m);
  }
  std::vector<gnn::Graph> graphs(fresh.size());
  std::vector<std::vector<real_t>> features(fresh.size());
  parallel_for(0, static_cast<index_t>(fresh.size()), [&](index_t i) {
    const CsrMatrix& a = fresh[static_cast<std::size_t>(i)]->matrix;
    graphs[static_cast<std::size_t>(i)] = gnn::Graph::from_csr(a);
    features[static_cast<std::size_t>(i)] = extract_features(a).to_vector();
  });
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (find_matrix(dataset, fresh[i]->name) >= 0) continue;
    dataset.add_matrix(fresh[i]->name, std::move(graphs[i]),
                       std::move(features[i]));
  }
}

}  // namespace

index_t append_matrix_measurements(SurrogateDataset& dataset,
                                   const NamedMatrix& matrix,
                                   const std::vector<McmcParams>& grid,
                                   const std::vector<KrylovMethod>& methods,
                                   const DatasetBuildOptions& options) {
  register_matrices(dataset, {&matrix});
  const index_t matrix_id = find_matrix(dataset, matrix.name);

  PerformanceMeasurer measurer(matrix.matrix, options.solve,
                               matrix_mcmc_options(options, matrix_id));
  append_grid_samples(dataset, measurer, matrix_id, grid, methods,
                      options.replicates);
  if (options.on_matrix) {
    options.on_matrix(matrix.name,
                      static_cast<index_t>(grid.size() * methods.size()));
  }
  return matrix_id;
}

SurrogateDataset build_dataset(const std::vector<NamedMatrix>& matrices,
                               const DatasetBuildOptions& options) {
  SurrogateDataset dataset;
  std::vector<const NamedMatrix*> corpus;
  for (const NamedMatrix& m : matrices) corpus.push_back(&m);
  register_matrices(dataset, corpus);
  const std::vector<KrylovMethod> methods = {KrylovMethod::kGMRES,
                                             KrylovMethod::kBiCGStab};
  // Near-zero-alpha probes: divergence scenarios for the surrogate.  They
  // take the grid path too, so one P per (alpha, replicate) serves both
  // methods.
  std::vector<McmcParams> divergence_grid;
  for (index_t d = 0; d < options.divergence_samples; ++d) {
    divergence_grid.push_back(
        {0.01 + 0.01 * static_cast<real_t>(d), 0.5, 0.5});
  }
  for (const NamedMatrix& m : matrices) {
    const index_t matrix_id =
        append_matrix_measurements(dataset, m, options.grid, methods, options);
    PerformanceMeasurer measurer(m.matrix, options.solve,
                                 matrix_mcmc_options(options, matrix_id));

    // SPD matrices additionally run CG at the small alpha of §4.2: one
    // (eps, delta) grid at a single alpha — exactly one replicate-batched
    // ensemble.
    if (m.spd) {
      std::vector<McmcParams> cg_grid;
      for (real_t eps : paper_eps_values()) {
        for (real_t delta : paper_eps_values()) {
          cg_grid.push_back({options.cg_alpha, eps, delta});
        }
      }
      append_grid_samples(dataset, measurer, matrix_id, cg_grid,
                          {KrylovMethod::kCG}, options.replicates);
    }
    append_grid_samples(dataset, measurer, matrix_id, divergence_grid, methods,
                        options.replicates);
  }
  return dataset;
}

}  // namespace mcmi
