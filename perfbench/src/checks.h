// Output checks made apart from the timed code, after the timed phases.
//
// The timed workloads run queries through QueryRunner::Run (or the server
// that wraps it). Their outputs are checked here against computations that
// share as little as possible with that path:
//   * the true-cardinality oracle's count of the query's full relation set,
//     which is a factorized (Yannakakis-style) count for tree queries and
//     never executes a plan;
//   * a different plan for the same query (the plain estimator's, with hash
//     joins and sequential scans only) run through the scalar
//     exec::reference kernel instead of the vectorized one.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "common/value.h"
#include "optimizer/cost_params.h"
#include "plan/query_spec.h"
#include "reopt/query_runner.h"
#include "sql/engine.h"
#include "stats/stats_catalog.h"
#include "storage/catalog.h"

namespace perfbench {

/// What QueryRunner::Run and the server report for one statement.
struct Outcome {
  std::vector<reopt::common::Value> aggregates;
  int64_t raw_rows = 0;
  double plan_cost_units = 0.0;
  double exec_cost_units = 0.0;
  int num_materializations = 0;

  static Outcome Of(const reopt::reoptimizer::RunResult& run);
  static Outcome Of(const reopt::sql::StatementOutcome& outcome);
  /// Simulated plan + execution seconds.
  double sim_total_s() const;
  bool operator==(const Outcome& other) const;
  bool operator!=(const Outcome& other) const { return !(*this == other); }
};

/// Per-statement results of the independent computations.
struct Independent {
  /// TrueCardinalityOracle::True over all relations, on a fresh context.
  double full_count = 0.0;
  /// The hash-join-only estimator plan through exec::reference.
  std::vector<reopt::common::Value> reference_aggregates;
  int64_t reference_raw_rows = 0;
  /// Empty unless a computation failed.
  std::string error;
};

/// Computes Independent for every spec, spread over `threads` threads.
std::vector<Independent> ComputeIndependent(
    const std::vector<const reopt::plan::QuerySpec*>& specs,
    reopt::storage::Catalog* catalog, reopt::stats::StatsCatalog* stats,
    const reopt::optimizer::CostParams& params, int threads);

/// QueryRunner::Run of every spec on a fresh single-use session under the
/// plain estimator, spread over `threads` threads, each with its own runner
/// and temp-table namespace. `errors` receives one line per failed run.
std::vector<Outcome> RunEachOnce(
    const std::vector<const reopt::plan::QuerySpec*>& specs,
    reopt::storage::Catalog* catalog, reopt::stats::StatsCatalog* stats,
    const reopt::optimizer::CostParams& params,
    const reopt::reoptimizer::ReoptOptions& reopt, int threads,
    std::vector<std::string>* errors);

/// Appends one line to `errors` for every statement whose outcome
/// disagrees with its independent results.
void CheckAgainstIndependent(const std::vector<std::string>& names,
                             const std::vector<Outcome>& outcomes,
                             const std::vector<Independent>& independent,
                             std::vector<std::string>* errors);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
