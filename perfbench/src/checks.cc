#include "checks.h"

#include <memory>

#include "common/sim_time.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "optimizer/cardinality_model.h"
#include "optimizer/planner.h"
#include "optimizer/query_context.h"
#include "optimizer/true_cardinality.h"

namespace perfbench {

namespace {

using reopt::common::Result;
namespace optimizer = reopt::optimizer;
namespace reoptimizer = reopt::reoptimizer;

// The reference plan: the plain estimator choosing among hash joins over
// sequential scans only, so its shape differs from the plans the workloads
// time (which use index scans and nested-loop joins where they are cheaper).
Result<Independent> ComputeOne(const reopt::plan::QuerySpec& spec,
                               reopt::storage::Catalog* catalog,
                               reopt::stats::StatsCatalog* stats,
                               const optimizer::CostParams& params) {
  REOPT_ASSIGN_OR_RETURN(std::unique_ptr<optimizer::QueryContext> ctx,
                         optimizer::QueryContext::Bind(&spec, catalog, stats));
  Independent out;
  optimizer::TrueCardinalityOracle oracle(ctx.get());
  out.full_count = oracle.True(spec.AllRelations());

  optimizer::EstimatorModel model(ctx.get());
  optimizer::PlannerOptions options;
  options.enable_nested_loop = false;
  options.enable_index_nested_loop = false;
  options.enable_index_scan = false;
  optimizer::Planner planner(ctx.get(), &model, params, options);
  REOPT_ASSIGN_OR_RETURN(optimizer::PlannerResult planned, planner.Plan());
  reopt::exec::Executor executor(catalog, stats, params);
  executor.set_kernel_mode(reopt::exec::KernelMode::kReference);
  REOPT_ASSIGN_OR_RETURN(reopt::exec::QueryResult executed,
                         executor.Execute(spec, planned.root.get()));
  out.reference_aggregates = std::move(executed.aggregates);
  out.reference_raw_rows = executed.raw_rows;
  return out;
}

}  // namespace

Outcome Outcome::Of(const reoptimizer::RunResult& run) {
  return Outcome{run.aggregates, run.raw_rows, run.plan_cost_units,
                 run.exec_cost_units, run.num_materializations};
}

Outcome Outcome::Of(const reopt::sql::StatementOutcome& outcome) {
  return Outcome{outcome.aggregates, outcome.raw_rows,
                 outcome.plan_cost_units, outcome.exec_cost_units,
                 outcome.num_materializations};
}

double Outcome::sim_total_s() const {
  return reopt::common::CostUnitsToSeconds(plan_cost_units + exec_cost_units);
}

bool Outcome::operator==(const Outcome& other) const {
  return aggregates == other.aggregates && raw_rows == other.raw_rows &&
         plan_cost_units == other.plan_cost_units &&
         exec_cost_units == other.exec_cost_units &&
         num_materializations == other.num_materializations;
}

std::vector<Independent> ComputeIndependent(
    const std::vector<const reopt::plan::QuerySpec*>& specs,
    reopt::storage::Catalog* catalog, reopt::stats::StatsCatalog* stats,
    const optimizer::CostParams& params, int threads) {
  std::vector<Independent> out(specs.size());
  reopt::common::ParallelFor(
      static_cast<int64_t>(specs.size()), threads,
      [&](int64_t i, int /*worker*/) {
        auto computed = ComputeOne(*specs[i], catalog, stats, params);
        if (computed.ok()) {
          out[i] = std::move(computed.value());
        } else {
          out[i].error = computed.status().ToString();
        }
      });
  return out;
}

std::vector<Outcome> RunEachOnce(
    const std::vector<const reopt::plan::QuerySpec*>& specs,
    reopt::storage::Catalog* catalog, reopt::stats::StatsCatalog* stats,
    const optimizer::CostParams& params, const reoptimizer::ReoptOptions& reopt,
    int threads, std::vector<std::string>* errors) {
  std::vector<Outcome> out(specs.size());
  std::vector<std::string> failures(specs.size());
  std::vector<std::unique_ptr<reoptimizer::QueryRunner>> runners;
  for (int w = 0; w < threads; ++w) {
    runners.push_back(
        std::make_unique<reoptimizer::QueryRunner>(catalog, stats, params));
    runners.back()->set_temp_namespace("check_w" + std::to_string(w));
  }
  reopt::common::ParallelFor(
      static_cast<int64_t>(specs.size()), threads, [&](int64_t i, int worker) {
        auto session = reoptimizer::QuerySession::Create(specs[i], catalog,
                                                         stats);
        if (!session.ok()) {
          failures[i] = session.status().ToString();
          return;
        }
        auto run = runners[worker]->Run(
            session->get(), reoptimizer::ModelSpec::Estimator(), reopt);
        if (!run.ok()) {
          failures[i] = run.status().ToString();
          return;
        }
        out[i] = Outcome::Of(*run);
      });
  for (size_t i = 0; i < specs.size(); ++i) {
    if (!failures[i].empty()) {
      errors->push_back(specs[i]->name + ": check run failed: " + failures[i]);
    }
  }
  return out;
}

void CheckAgainstIndependent(const std::vector<std::string>& names,
                             const std::vector<Outcome>& outcomes,
                             const std::vector<Independent>& independent,
                             std::vector<std::string>* errors) {
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Independent& want = independent[i];
    if (!want.error.empty()) {
      errors->push_back(names[i] + ": independent check failed: " +
                        want.error);
      continue;
    }
    const Outcome& got = outcomes[i];
    if (static_cast<double>(got.raw_rows) != want.full_count) {
      errors->push_back(names[i] + ": raw_rows " +
                        std::to_string(got.raw_rows) +
                        " != factorized count " +
                        std::to_string(want.full_count));
    }
    if (got.raw_rows != want.reference_raw_rows ||
        got.aggregates != want.reference_aggregates) {
      errors->push_back(names[i] +
                        ": result differs from the hash-join plan run "
                        "through exec::reference");
    }
  }
}

}  // namespace perfbench
