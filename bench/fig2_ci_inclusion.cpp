// Regenerates Figure 2: confidence-interval inclusion heatmaps over the
// (eps, delta) grid for each alpha — does the surrogate's predicted mean
// fall inside the 99% empirical confidence interval of the replicated runs?
// Top block = Pre-BO model, bottom block = BO-enhanced model.
//
// Paper shape: the BO-enhanced model achieves substantially higher inclusion
// across broad (eps, delta) regions, most visibly at alpha in {4, 5}; the
// empirical-mean heatmap shows the success region eps <~ delta.

#include <cstdio>
#include <iostream>
#include <map>

#include "core/table.hpp"
#include "experiment_cache.hpp"
#include "mcmc/params.hpp"

int main() {
  using namespace mcmi;
  const ExperimentResults r = bench::run_or_load_experiment("fig2");

  const std::vector<real_t> alphas = paper_alpha_values();
  const std::vector<real_t> eps_values = paper_eps_values();

  // Index inclusion cells by (alpha, eps, delta).
  std::map<std::tuple<real_t, real_t, real_t>, const InclusionCell*> cells;
  for (const InclusionCell& c : r.inclusion) {
    cells[{c.params.alpha, c.params.eps, c.params.delta}] = &c;
  }

  auto print_heatmap = [&](const char* title, auto accessor) {
    std::printf("\n-- %s --\n", title);
    for (real_t alpha : alphas) {
      TextTable table({"alpha=" + TextTable::fmt(alpha, 2) + "  eps\\delta",
                       TextTable::fmt(eps_values[0], 4),
                       TextTable::fmt(eps_values[1], 4),
                       TextTable::fmt(eps_values[2], 4),
                       TextTable::fmt(eps_values[3], 4)});
      for (real_t eps : eps_values) {
        std::vector<std::string> row = {TextTable::fmt(eps, 4)};
        for (real_t delta : eps_values) {
          const auto it = cells.find({alpha, eps, delta});
          row.push_back(it == cells.end() ? "-" : accessor(*it->second));
        }
        table.add_row(std::move(row));
      }
      table.print(std::cout);
    }
  };

  std::printf("== Figure 2: predicted-mean inclusion in the 99%% empirical "
              "CI on the unseen matrix ==\n");
  print_heatmap("Pre-BO model (IN = mean inside the empirical CI)",
                [](const InclusionCell& c) {
                  return std::string(c.included_pre ? "IN" : "out");
                });
  print_heatmap("BO-enhanced model",
                [](const InclusionCell& c) {
                  return std::string(c.included_post ? "IN" : "out");
                });
  print_heatmap("empirical mean y(A, x_M)  [success region: eps <~ delta]",
                [](const InclusionCell& c) {
                  return TextTable::fmt(c.empirical_mean, 3);
                });

  index_t in_pre = 0, in_post = 0;
  for (const InclusionCell& c : r.inclusion) {
    in_pre += c.included_pre ? 1 : 0;
    in_post += c.included_post ? 1 : 0;
  }
  std::printf("\ninclusion totals: Pre-BO %lld/%zu, BO-enhanced %lld/%zu "
              "(%s)\n",
              static_cast<long long>(in_pre), r.inclusion.size(),
              static_cast<long long>(in_post), r.inclusion.size(),
              in_post > in_pre
                  ? "BO round improves pointwise accuracy, as in the paper"
                  : in_post == in_pre ? "no change"
                                      : "no improvement at this scale");

  // CSV mirror of the raw cells.
  TextTable csv({"alpha", "eps", "delta", "empirical_mean", "empirical_std",
                 "pred_pre", "pred_post", "included_pre", "included_post"});
  for (const InclusionCell& c : r.inclusion) {
    csv.add_row({TextTable::fmt(c.params.alpha, 3),
                 TextTable::fmt(c.params.eps, 4),
                 TextTable::fmt(c.params.delta, 4),
                 TextTable::fmt(c.empirical_mean, 5),
                 TextTable::fmt(c.empirical_std, 5),
                 TextTable::fmt(c.predicted_pre, 5),
                 TextTable::fmt(c.predicted_post, 5),
                 c.included_pre ? "1" : "0", c.included_post ? "1" : "0"});
  }
  csv.write_csv("fig2_ci_inclusion.csv");
  std::printf("[fig2] CSV written to fig2_ci_inclusion.csv\n");
  return 0;
}
