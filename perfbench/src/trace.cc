#include "trace.h"

#include <cstdio>

namespace perfbench {

void LayerTotals::Add(const LayerTotals& other) {
  bind_s += other.bind_s;
  plan_s += other.plan_s;
  oracle_s += other.oracle_s;
  execute_s += other.execute_s;
  materialize_s += other.materialize_s;
  rewrite_s += other.rewrite_s;
  parse_s += other.parse_s;
  oracle_calls += other.oracle_calls;
  oracle_computed += other.oracle_computed;
  exec_rows += other.exec_rows;
  materialized_rows += other.materialized_rows;
  dp_estimates += other.dp_estimates;
  dp_paths += other.dp_paths;
  rounds += other.rounds;
  materializations += other.materializations;
  fired_queries += other.fired_queries;
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name,
                           double* total_s)
    : recorder_(recorder), index_(recorder->spans_.size()), total_s_(total_s) {
  Span span;
  span.name = name;
  // Ids are unique across recorders: the thread number is the high part.
  span.id = (static_cast<int64_t>(recorder->thread_ + 1) << 40) |
            recorder->next_id_++;
  span.parent = recorder->open_.empty() ? 0 : recorder->open_.back();
  span.query = recorder->query_;
  span.thread = recorder->thread_;
  recorder->spans_.push_back(span);
  recorder->open_.push_back(span.id);
  start_ = Clock::now();
}

SpanRecorder::Scope::~Scope() {
  const Clock::time_point end = Clock::now();
  const double seconds = SecondsBetween(start_, end);
  Span& span = recorder_->spans_[index_];
  span.start_us = 1e6 * SecondsBetween(recorder_->epoch_, start_);
  span.dur_us = 1e6 * seconds;
  recorder_->open_.pop_back();
  if (total_s_ != nullptr) *total_s_ += seconds;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanRecorder*>& recorders) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\":[\n");
  bool first = true;
  for (const SpanRecorder* recorder : recorders) {
    for (const Span& span : recorder->spans()) {
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld,\"query\":%lld}}",
                   first ? "" : ",\n", span.name, span.thread, span.start_us,
                   span.dur_us, static_cast<long long>(span.id),
                   static_cast<long long>(span.parent),
                   static_cast<long long>(span.query));
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
