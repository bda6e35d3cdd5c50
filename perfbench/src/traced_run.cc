#include "traced_run.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/scope_guard.h"
#include "exec/executor.h"
#include "optimizer/cardinality_model.h"
#include "optimizer/planner.h"
#include "optimizer/query_context.h"
#include "optimizer/true_cardinality.h"
#include "reopt/rewrite.h"

namespace perfbench {

namespace {

using reopt::common::Result;
using reopt::reoptimizer::QuerySession;
using reopt::reoptimizer::ReoptOptions;
using reopt::reoptimizer::RoundRecord;
using reopt::reoptimizer::RunResult;
namespace optimizer = reopt::optimizer;
namespace plan = reopt::plan;

// The replica keeps its round-0 memos under its own key: the sessions it
// plans are never shared with a QueryRunner, so the key only has to be
// stable, not equal to QueryRunner's private one.
constexpr uint64_t kMemoKey = 1;

}  // namespace

Result<std::unique_ptr<QuerySession>> TracedRunner::CreateSession(
    const plan::QuerySpec* spec) {
  SpanRecorder::Scope span(recorder_, "optimizer.bind", &totals_->bind_s);
  return QuerySession::Create(spec, catalog_, stats_catalog_);
}

Result<RunResult> TracedRunner::Run(QuerySession* session,
                                    const ReoptOptions& reopt) {
  RunResult result;
  reopt::exec::Executor executor(catalog_, stats_catalog_, params_);

  std::vector<std::unique_ptr<plan::QuerySpec>> owned_specs;
  std::vector<std::unique_ptr<optimizer::QueryContext>> owned_ctxs;
  std::vector<std::unique_ptr<optimizer::TrueCardinalityOracle>>
      owned_oracles;
  std::vector<std::string> temp_tables;

  const plan::QuerySpec* spec = &session->spec();
  optimizer::QueryContext* ctx = session->ctx();
  optimizer::TrueCardinalityOracle* oracle = session->oracle();
  const int64_t session_computed_before = oracle->num_computed();

  reopt::common::ScopeGuard drop_temps([&]() {
    for (const std::string& name : temp_tables) {
      (void)catalog_->DropTable(name);
      stats_catalog_->Remove(name);
    }
  });

  optimizer::EstimatorModel model(ctx);
  std::shared_ptr<const optimizer::PlanMemo> cached =
      session->FindPlanMemo(kMemoKey);
  optimizer::PlanMemo prev_memo;
  optimizer::MemoTranslation translation;

  for (int round = 0;; ++round) {
    optimizer::Planner planner(ctx, &model, params_);
    auto planned = [&]() -> Result<optimizer::PlannerResult> {
      SpanRecorder::Scope span(recorder_, "optimizer.plan", &totals_->plan_s);
      auto out = round == 0 ? (cached != nullptr ? planner.PlanFromMemo(*cached)
                                                 : planner.Plan())
                            : planner.PlanIncremental(prev_memo, translation);
      if (out.ok()) {
        prev_memo = planner.TakeMemo();
        if (round == 0 && cached == nullptr) {
          session->StorePlanMemo(kMemoKey, prev_memo);
        }
      }
      return out;
    }();
    if (!planned.ok()) return planned.status();
    ++totals_->rounds;
    totals_->dp_estimates += planned->num_estimates;
    totals_->dp_paths += planned->num_paths;
    result.plan_cost_units += planned->planning_cost_units;

    // The trigger: the lowest join whose true cardinality is more than the
    // threshold off the estimate (ReoptOptions::Pick::kLowestJoin).
    plan::PlanNode* offender = nullptr;
    double offender_q = 0.0;
    const bool consider =
        reopt.enabled && round < reopt.max_rounds &&
        planned->root->est_cost >= reopt.min_plan_cost_units;
    if (consider) {
      planned->root->PostOrder([&](plan::PlanNode* node) {
        if (!node->is_join()) return;
        double est = std::max(1.0, node->est_rows);
        double truth;
        {
          SpanRecorder::Scope span(recorder_, "optimizer.oracle",
                                   &totals_->oracle_s);
          truth = std::max(1.0, oracle->True(node->rels));
        }
        ++totals_->oracle_calls;
        double q = std::max(truth / est, est / truth);
        if (q <= reopt.qerror_threshold) return;
        bool better = offender == nullptr ||
                      node->rels.count() < offender->rels.count() ||
                      (node->rels.count() == offender->rels.count() &&
                       node->rels.bits() < offender->rels.bits());
        if (better) {
          offender = node;
          offender_q = q;
        }
      });
    }

    if (offender == nullptr) {
      auto executed = [&] {
        SpanRecorder::Scope span(recorder_, "exec.execute",
                                 &totals_->execute_s);
        return executor.Execute(*spec, planned->root.get());
      }();
      if (!executed.ok()) return executed.status();
      planned->root->PostOrderConst([&](const plan::PlanNode* node) {
        if (node->op != plan::PlanOp::kAggregate && node->actual_rows > 0) {
          totals_->exec_rows += static_cast<int64_t>(node->actual_rows);
        }
      });
      result.aggregates = std::move(executed->aggregates);
      result.raw_rows = executed->raw_rows;
      result.exec_cost_units += executed->cost_units;
      RoundRecord record;
      record.subset = planned->root->rels;
      record.plan_cost_units = planned->planning_cost_units;
      record.exec_cost_units = executed->cost_units;
      result.rounds.push_back(record);
      break;
    }

    plan::RelSet subset = offender->rels;
    std::vector<plan::ColumnRef> temp_cols;
    std::string temp_name;
    {
      SpanRecorder::Scope span(recorder_, "reopt.rewrite",
                               &totals_->rewrite_s);
      temp_cols = reopt::reoptimizer::ColumnsToMaterialize(*spec, subset);
      temp_name = catalog_->NextTempName(temp_namespace_);
    }

    auto write = std::make_unique<plan::PlanNode>();
    write->op = plan::PlanOp::kTempWrite;
    write->rels = subset;
    write->est_rows = offender->est_rows;
    write->temp_table_name = temp_name;
    write->temp_columns = temp_cols;
    write->left = plan::ClonePlan(*offender);
    write->est_cost = write->left->est_cost;

    temp_tables.push_back(temp_name);
    auto executed = [&] {
      SpanRecorder::Scope span(recorder_, "exec.materialize",
                               &totals_->materialize_s);
      return executor.Execute(*spec, write.get());
    }();
    if (!executed.ok()) return executed.status();
    result.exec_cost_units += executed->cost_units;
    ++result.num_materializations;
    result.materialized_rows += executed->raw_rows;
    result.materialized_bytes +=
        executed->raw_rows * static_cast<int64_t>(temp_cols.size()) * 8;
    totals_->materialized_rows += executed->raw_rows;

    RoundRecord record;
    record.materialized = true;
    record.subset = subset;
    record.qerror = offender_q;
    record.est_rows = offender->est_rows;
    record.true_rows = static_cast<double>(executed->raw_rows);
    record.plan_cost_units = planned->planning_cost_units;
    record.exec_cost_units = executed->cost_units;
    result.rounds.push_back(record);

    reopt::reoptimizer::RewriteInfo rewrite_info;
    {
      SpanRecorder::Scope span(recorder_, "reopt.rewrite",
                               &totals_->rewrite_s);
      owned_specs.push_back(reopt::reoptimizer::RewriteWithTemp(
          *spec, subset, temp_name, temp_cols, round, &rewrite_info));
    }
    const plan::QuerySpec* old_spec = spec;
    spec = owned_specs.back().get();
    auto bound = [&] {
      SpanRecorder::Scope span(recorder_, "optimizer.bind", &totals_->bind_s);
      return optimizer::QueryContext::Bind(spec, catalog_, stats_catalog_);
    }();
    if (!bound.ok()) return bound.status();
    owned_ctxs.push_back(std::move(bound.value()));
    ctx = owned_ctxs.back().get();
    owned_oracles.push_back(
        std::make_unique<optimizer::TrueCardinalityOracle>(ctx));
    oracle = owned_oracles.back().get();
    {
      SpanRecorder::Scope span(recorder_, "reopt.rewrite",
                               &totals_->rewrite_s);
      translation = reopt::reoptimizer::MemoTranslationFor(
          *old_spec, *spec, subset, rewrite_info);
    }
    model.Rebind(ctx, oracle);
  }

  totals_->materializations += result.num_materializations;
  if (result.num_materializations > 0) ++totals_->fired_queries;
  totals_->oracle_computed +=
      session->oracle()->num_computed() - session_computed_before;
  for (const auto& owned : owned_oracles) {
    totals_->oracle_computed += owned->num_computed();
  }
  return result;
}

}  // namespace perfbench
