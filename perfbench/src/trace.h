// Spans and per-layer totals for the benchmark's traced run.
//
// The traced run records one span around each call the benchmark makes into
// a layer's public functions (see traced_run.h). Spans stay in memory, one
// recorder per thread, and are written out once at the end of the run as a
// Chrome trace-event file (load it in Perfetto or chrome://tracing). Each
// span also adds its duration to one LayerTotals field, which is what the
// per-layer metrics are computed from.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Busy time (seconds) and work counts of each layer over one traced phase.
struct LayerTotals {
  double bind_s = 0.0;         // QueryContext::Bind (via QuerySession::Create)
  double plan_s = 0.0;         // Planner::Plan / PlanIncremental / PlanFromMemo
  double oracle_s = 0.0;       // TrueCardinalityOracle::True
  double execute_s = 0.0;      // Executor::Execute of a final plan
  double materialize_s = 0.0;  // Executor::Execute of a TempWrite (+ ANALYZE)
  double rewrite_s = 0.0;      // ColumnsToMaterialize / RewriteWithTemp /
                               // MemoTranslationFor
  double parse_s = 0.0;        // sql::ParseStatement
  int64_t oracle_calls = 0;
  int64_t oracle_computed = 0;  // calls that missed the oracle's count cache
  int64_t exec_rows = 0;        // rows produced by the final plans' operators
  int64_t materialized_rows = 0;
  int64_t dp_estimates = 0;
  int64_t dp_paths = 0;
  int64_t rounds = 0;  // planning rounds, final one included
  int64_t materializations = 0;
  int64_t fired_queries = 0;  // statements with >= 1 materialization

  void Add(const LayerTotals& other);
};

struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t query = -1;  // statement index in the workload
  int thread = 0;
  double start_us = 0.0;  // since the recorder's epoch
  double dur_us = 0.0;
};

/// Spans of one thread. Not thread-safe: give every thread its own.
class SpanRecorder {
 public:
  SpanRecorder(int thread, Clock::time_point epoch)
      : thread_(thread), epoch_(epoch) {}

  /// Opens a span on construction and closes it on destruction, adding its
  /// duration to `*total_s` (may be null). Scopes nest: the innermost open
  /// scope is the parent of the next one.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, double* total_s);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    size_t index_;
    double* total_s_;
    Clock::time_point start_;
  };

  /// Statement the spans opened from now on belong to.
  void set_query(int64_t query) { query_ = query; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int thread_;
  Clock::time_point epoch_;
  int64_t query_ = -1;
  int64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;  // ids of the open scopes, innermost last
};

/// Writes every recorder's spans as one Chrome trace-event JSON file.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanRecorder*>& recorders);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
