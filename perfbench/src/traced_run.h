// The traced twin of reoptimizer::QueryRunner::Run.
//
// Run makes, in the same order, the public calls QueryRunner::Run makes for
// the configuration the benchmark uses (plain estimator, no knowledge base,
// incremental re-planning on, no budgets, no cancellation): Planner::Plan /
// PlanIncremental / PlanFromMemo, TrueCardinalityOracle::True on each join
// node, Executor::Execute of a TempWrite or of the final plan, and
// ColumnsToMaterialize / RewriteWithTemp / QueryContext::Bind /
// MemoTranslationFor after each materialization. Each call is wrapped in a
// span. The benchmark compares every traced result with QueryRunner::Run's
// and fails on any difference, so the per-layer numbers stay tied to the
// program's real path; if QueryRunner::Run changes its calls, this file has
// to follow.
#ifndef PERFBENCH_TRACED_RUN_H_
#define PERFBENCH_TRACED_RUN_H_

#include <memory>
#include <string>

#include "optimizer/cost_params.h"
#include "plan/query_spec.h"
#include "reopt/query_runner.h"
#include "stats/stats_catalog.h"
#include "storage/catalog.h"
#include "trace.h"

namespace perfbench {

class TracedRunner {
 public:
  /// `recorder` and `totals` belong to the calling thread.
  TracedRunner(reopt::storage::Catalog* catalog,
               reopt::stats::StatsCatalog* stats_catalog,
               const reopt::optimizer::CostParams& params,
               std::string temp_namespace, SpanRecorder* recorder,
               LayerTotals* totals)
      : catalog_(catalog),
        stats_catalog_(stats_catalog),
        params_(params),
        temp_namespace_(std::move(temp_namespace)),
        recorder_(recorder),
        totals_(totals) {}

  /// QuerySession::Create (the bind of a first run), traced.
  reopt::common::Result<std::unique_ptr<reopt::reoptimizer::QuerySession>>
  CreateSession(const reopt::plan::QuerySpec* spec);

  /// QueryRunner::Run under the plain estimator, traced.
  reopt::common::Result<reopt::reoptimizer::RunResult> Run(
      reopt::reoptimizer::QuerySession* session,
      const reopt::reoptimizer::ReoptOptions& reopt);

 private:
  reopt::storage::Catalog* catalog_;
  reopt::stats::StatsCatalog* stats_catalog_;
  reopt::optimizer::CostParams params_;
  std::string temp_namespace_;
  SpanRecorder* recorder_;
  LayerTotals* totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_RUN_H_
