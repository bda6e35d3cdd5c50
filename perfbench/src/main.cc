// perfbench: the wall-clock benchmark of reoptdb.
//
//   perfbench --workload <job-reopt|job-estimator|service-zipf> --seed <n>
//             --seconds <s> --trace <0|1> [--imdb-seed <n>]
//             [--workload-seed <n>]
//
// Builds the synthetic IMDB database and the 113-query JOB-like workload,
// runs the named workload for --seconds of timed work, checks every output
// against computations made apart from the timed code (checks.h), and
// prints one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the run
// spends half of --seconds untraced and half in the traced twin of the same
// work (traced_run.h), reports per-layer metrics, and writes its spans to
// .bench_trace/<workload>-seed<n>.json. See README.md for the metrics, the
// seeds and the layer-to-metric map.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "imdb/imdb.h"
#include "reopt/query_runner.h"
#include "service/sql_server.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "stats/analyze.h"
#include "trace.h"
#include "traced_run.h"
#include "workload/job_like.h"

namespace perfbench {
namespace {

namespace common = reopt::common;
namespace reoptimizer = reopt::reoptimizer;
namespace service = reopt::service;

// Set during static initialization, before main: the start of the cold
// set-up that setup_s measures.
const Clock::time_point kProcessStart = Clock::now();

// Threads the checks spread over; the timed phases use at most this many
// threads too (see Workload).
constexpr int kCheckThreads = 4;
// Statements per service round: twice the 113 distinct statements, so the
// Zipf(0.8) frequencies round to a mix in which every statement appears.
constexpr int kServiceRoundStatements = 226;
constexpr double kZipfTheta = 0.8;
constexpr int kServiceClients = 2;
constexpr int kServiceWorkers = 2;

struct Workload {
  const char* name;
  double scale;
  bool reopt;
  bool service;
};

// job-reopt: the paper's loop on first runs, dominated by the oracle.
// job-estimator: no oracle at all, dominated by execution; twice the data.
// service-zipf: cached SQL statements through the server, 2 clients on 2
// workers (4 threads).
constexpr Workload kWorkloads[] = {
    {"job-reopt", 1.0, true, false},
    {"job-estimator", 2.0, false, false},
    {"service-zipf", 1.0, true, true},
};

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  uint64_t imdb_seed = 42;
  uint64_t workload_seed = 20190319;
};

bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      std::fprintf(stderr, "error: %s needs a value\n", flag.c_str());
      return false;
    }
    uint64_t number = 0;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) options->workload = &w;
      }
      if (options->workload == nullptr) {
        std::fprintf(stderr, "error: unknown workload '%s'\n", value);
        return false;
      }
    } else if (flag == "--seed" && ParseUint(value, &number)) {
      options->seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options->seconds > 0.0) ||
          options->seconds > 3600.0) {
        std::fprintf(stderr, "error: --seconds must be in (0, 3600]\n");
        return false;
      }
      have_seconds = true;
    } else if (flag == "--trace" && (std::strcmp(value, "0") == 0 ||
                                     std::strcmp(value, "1") == 0)) {
      options->trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--imdb-seed" && ParseUint(value, &number)) {
      options->imdb_seed = number;
    } else if (flag == "--workload-seed" && ParseUint(value, &number)) {
      options->workload_seed = number;
    } else {
      std::fprintf(stderr, "error: bad flag or value: %s %s\n", flag.c_str(),
                   value);
      return false;
    }
  }
  if (options->workload == nullptr || !have_seed || !have_seconds ||
      !have_trace) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <job-reopt|job-estimator|"
                 "service-zipf> --seed <n> --seconds <s> --trace <0|1> "
                 "[--imdb-seed <n>] [--workload-seed <n>]\n");
    return false;
  }
  return true;
}

// ---- Measurement helpers ---------------------------------------------------

// Nearest-rank percentile of `values` (p in (0, 1]).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

// Peak resident set (VmHWM) of this process so far, in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t Mix(uint64_t seed, uint64_t round) {
  return seed * 0x9e3779b97f4a7c15ull + round * 0xbf58476d1ce4e5b9ull + 1;
}

// The statement order of pass/round `round`: `items` shuffled by the seed.
std::vector<int> ShuffledOrder(std::vector<int> items, uint64_t seed,
                               uint64_t round) {
  common::Rng rng(Mix(seed, round));
  rng.Shuffle(&items);
  return items;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

void PrintReport(const Report& report) {
  std::string json = "{\"correct\": ";
  json += report.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- Shared state of a run ---------------------------------------------------

struct Env {
  Options options;
  std::unique_ptr<reopt::imdb::ImdbDatabase> db;
  std::unique_ptr<reopt::workload::JobLikeWorkload> workload;
  reopt::optimizer::CostParams params;
  reoptimizer::ReoptOptions reopt;  // enabled per workload, threshold 32
  std::vector<std::string> names;   // per query, workload order
};

// The metrics that do not depend on how the statements were sent.
// `outcomes` holds each distinct statement's outcome; `baseline` the same
// statements under the plain estimator.
void AddSimMetrics(const std::vector<Outcome>& outcomes,
                   const std::vector<Outcome>& baseline, Report* report) {
  double plan_units = 0.0, exec_units = 0.0;
  for (const Outcome& o : outcomes) {
    plan_units += o.plan_cost_units;
    exec_units += o.exec_cost_units;
  }
  std::vector<size_t> by_baseline(outcomes.size());
  for (size_t i = 0; i < by_baseline.size(); ++i) by_baseline[i] = i;
  std::stable_sort(by_baseline.begin(), by_baseline.end(),
                   [&](size_t a, size_t b) {
                     return baseline[a].sim_total_s() >
                            baseline[b].sim_total_s();
                   });
  double top20 = 0.0;
  for (size_t i = 0; i < std::min<size_t>(20, by_baseline.size()); ++i) {
    top20 += outcomes[by_baseline[i]].sim_total_s();
  }
  report->Add("sim_exec_s", common::CostUnitsToSeconds(exec_units), "sim_s");
  report->Add("sim_plan_s", common::CostUnitsToSeconds(plan_units), "sim_s");
  report->Add("top20_sim_s", top20, "sim_s");
}

// Re-runs stats::Analyze over every base table (the set-up's ANALYZE).
double TimeAnalyze(Env* env, SpanRecorder* recorder) {
  double analyze_s = 0.0;
  reopt::stats::AnalyzeOptions options;
  options.statistics_target = env->db->options.statistics_target;
  for (const std::string& name : env->db->catalog.TableNames()) {
    const reopt::storage::Table* table = env->db->catalog.FindTable(name);
    SpanRecorder::Scope span(recorder, "stats.analyze", &analyze_s);
    reopt::stats::TableStats stats = reopt::stats::Analyze(*table, options);
    (void)stats;
  }
  return analyze_s;
}

// Per-layer metrics of a traced phase that ran `units` passes or rounds.
// `helped` counts statements executed in the phase whose re-optimization
// fired and beat the plain estimator's simulated time. `queue_wait_s` is
// already per round.
void AddLayerMetrics(const LayerTotals& t, double units, double helped,
                     double parse_s, double analyze_s, double queue_wait_s,
                     double cache_hit_ratio, double overhead_s,
                     Report* report) {
  auto per = [units](double v) { return v / units; };
  report->Add("optimizer.oracle_s", per(t.oracle_s), "s");
  report->Add("optimizer.oracle_calls", per(t.oracle_calls), "count");
  report->Add("optimizer.oracle_computed", per(t.oracle_computed), "count");
  report->Add("exec.execute_s", per(t.execute_s), "s");
  report->Add("exec.rows", per(t.exec_rows), "count");
  report->Add("exec.materialize_s", per(t.materialize_s), "s");
  report->Add("exec.materialized_rows", per(t.materialized_rows), "count");
  report->Add("optimizer.plan_s", per(t.plan_s), "s");
  report->Add("optimizer.dp_estimates", per(t.dp_estimates), "count");
  report->Add("optimizer.dp_paths", per(t.dp_paths), "count");
  report->Add("optimizer.bind_s", per(t.bind_s), "s");
  report->Add("reopt.rewrite_s", per(t.rewrite_s), "s");
  report->Add("reopt.rounds", per(t.rounds), "count");
  report->Add("reopt.materializations", per(t.materializations), "count");
  report->Add("reopt.fired_queries", per(t.fired_queries), "count");
  report->Add("reopt.helped_queries", per(helped), "count");
  report->Add("sql.parse_s", parse_s, "s");
  report->Add("stats.analyze_s", analyze_s, "s");
  report->Add("service.queue_wait_s", queue_wait_s, "s");
  report->Add("service.cache_hit_ratio", cache_hit_ratio, "ratio");
  report->Add("trace.overhead_s", overhead_s, "s");
}

bool Helped(const Outcome& outcome, const Outcome& baseline) {
  return outcome.num_materializations > 0 &&
         outcome.sim_total_s() < baseline.sim_total_s();
}

void WriteSpans(const Env& env,
                const std::vector<const SpanRecorder*>& recorders) {
  const std::string dir = ".bench_trace";
  ::mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/" + env.options.workload->name + "-seed" +
                           std::to_string(env.options.seed) + ".json";
  if (WriteChromeTrace(path, recorders)) {
    std::fprintf(stderr, "[perfbench] spans written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "[perfbench] could not write %s\n", path.c_str());
  }
}

// ---- Batch workloads (job-reopt, job-estimator) ------------------------------

// The timings a batch run reports are each query's fastest latency over the
// passes. Interference from the rest of a shared machine only ever adds
// time, and it comes and goes over seconds, so the fastest of many passes is
// the steadiest measure of what the query itself costs.
struct BatchPhase {
  std::vector<std::vector<double>> latencies_s;  // per pass, per query index
  std::vector<double> pass_s;

  // Each query's fastest latency over the passes.
  std::vector<double> BestLatencies() const {
    std::vector<double> best = latencies_s.front();
    for (const auto& pass : latencies_s) {
      for (size_t qi = 0; qi < best.size(); ++qi) {
        best[qi] = std::min(best[qi], pass[qi]);
      }
    }
    return best;
  }

  // A pass with every query at its fastest.
  double BestPassSeconds() const {
    double total = 0.0;
    for (double s : BestLatencies()) total += s;
    return total;
  }
};

// Runs whole passes over every query until `budget_s` has elapsed (at least
// one pass). `run_one(qi)` times nothing itself; its outcome is compared
// with `outcomes[qi]` (filled on first sight when `fill` is set).
BatchPhase RunBatchPasses(
    Env* env, double budget_s, uint64_t round_base,
    const std::function<common::Result<reoptimizer::RunResult>(int)>& run_one,
    bool fill, const char* what, std::vector<Outcome>* outcomes,
    std::vector<bool>* have, Report* report) {
  const int n = static_cast<int>(env->workload->queries.size());
  std::vector<int> all(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
  BatchPhase phase;
  const Clock::time_point start = Clock::now();
  for (uint64_t pass = 0;; ++pass) {
    if (pass > 0 && SecondsBetween(start, Clock::now()) >= budget_s) break;
    const std::vector<int> order =
        ShuffledOrder(all, env->options.seed, round_base + pass);
    const Clock::time_point pass_start = Clock::now();
    phase.latencies_s.emplace_back(static_cast<size_t>(n), 0.0);
    for (int qi : order) {
      const Clock::time_point t0 = Clock::now();
      common::Result<reoptimizer::RunResult> run = run_one(qi);
      phase.latencies_s.back()[static_cast<size_t>(qi)] =
          SecondsBetween(t0, Clock::now());
      ++report->attempted;
      const std::string& name = env->names[static_cast<size_t>(qi)];
      if (!run.ok()) {
        ++report->failed;
        std::fprintf(stderr, "[perfbench] %s failed: %s\n", name.c_str(),
                     run.status().ToString().c_str());
        continue;
      }
      Outcome got = Outcome::Of(*run);
      if (fill && !(*have)[static_cast<size_t>(qi)]) {
        (*outcomes)[static_cast<size_t>(qi)] = std::move(got);
        (*have)[static_cast<size_t>(qi)] = true;
      } else if (!(*have)[static_cast<size_t>(qi)] ||
                 got != (*outcomes)[static_cast<size_t>(qi)]) {
        report->errors.push_back(name + ": " + what +
                                 " differs from QueryRunner::Run's first "
                                 "result");
      }
    }
    phase.pass_s.push_back(SecondsBetween(pass_start, Clock::now()));
    std::fprintf(stderr, "[perfbench] pass %llu: %.3f s\n",
                 static_cast<unsigned long long>(pass), phase.pass_s.back());
  }
  return phase;
}

int RunBatch(Env* env, double setup_s, Report* report) {
  const Options& opt = env->options;
  const int n = static_cast<int>(env->workload->queries.size());
  std::vector<const reopt::plan::QuerySpec*> specs;
  for (const auto& q : env->workload->queries) specs.push_back(q.get());

  reoptimizer::QueryRunner runner(&env->db->catalog, &env->db->stats,
                                  env->params);
  std::vector<Outcome> outcomes(static_cast<size_t>(n));
  std::vector<bool> have(static_cast<size_t>(n), false);
  auto untraced = [&](int qi) -> common::Result<reoptimizer::RunResult> {
    REOPT_ASSIGN_OR_RETURN(
        std::unique_ptr<reoptimizer::QuerySession> session,
        reoptimizer::QuerySession::Create(specs[static_cast<size_t>(qi)],
                                          &env->db->catalog, &env->db->stats));
    return runner.Run(session.get(), reoptimizer::ModelSpec::Estimator(),
                      env->reopt);
  };
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::fprintf(stderr, "[perfbench] %s: timed passes (%.1f s)\n",
               opt.workload->name, budget);
  BatchPhase timed = RunBatchPasses(env, budget, 0, untraced, true,
                                    "a later pass", &outcomes, &have, report);
  const double peak_rss_mb = PeakRssMb();  // before the checks add their own

  BatchPhase traced;
  LayerTotals totals;
  SpanRecorder recorder(0, Clock::now());
  std::vector<int> traced_runs(static_cast<size_t>(n), 0);
  double analyze_s = 0.0;
  if (opt.trace) {
    std::fprintf(stderr, "[perfbench] traced passes (%.1f s)\n", budget);
    TracedRunner tracer(&env->db->catalog, &env->db->stats, env->params,
                        "trace", &recorder, &totals);
    auto traced_one = [&](int qi) -> common::Result<reoptimizer::RunResult> {
      ++traced_runs[static_cast<size_t>(qi)];
      recorder.set_query(qi);
      SpanRecorder::Scope span(&recorder, "query", nullptr);
      REOPT_ASSIGN_OR_RETURN(
          std::unique_ptr<reoptimizer::QuerySession> session,
          tracer.CreateSession(specs[static_cast<size_t>(qi)]));
      return tracer.Run(session.get(), env->reopt);
    };
    traced = RunBatchPasses(env, budget, 1u << 20, traced_one, false,
                            "the traced run", &outcomes, &have, report);
    recorder.set_query(-1);
    analyze_s = TimeAnalyze(env, &recorder);
  }

  // Checks, after every timed phase.
  std::fprintf(stderr, "[perfbench] checking outputs\n");
  reoptimizer::ReoptOptions off;
  std::vector<Outcome> baseline =
      RunEachOnce(specs, &env->db->catalog, &env->db->stats, env->params, off,
                  kCheckThreads, &report->errors);
  std::vector<Independent> independent = ComputeIndependent(
      specs, &env->db->catalog, &env->db->stats, env->params, kCheckThreads);
  for (int qi = 0; qi < n; ++qi) {
    if (!have[static_cast<size_t>(qi)]) {
      report->errors.push_back(env->names[static_cast<size_t>(qi)] +
                               ": no successful run");
    }
  }
  if (report->errors.empty()) {
    CheckAgainstIndependent(env->names, outcomes, independent,
                            &report->errors);
  }
  if (report->errors.empty() && baseline.size() == outcomes.size()) {
    if (!env->reopt.enabled) {
      // The estimator workload times exactly the baseline configuration.
      for (int qi = 0; qi < n; ++qi) {
        if (outcomes[static_cast<size_t>(qi)] !=
            baseline[static_cast<size_t>(qi)]) {
          report->errors.push_back(env->names[static_cast<size_t>(qi)] +
                                   ": differs from the baseline run");
        }
      }
    }
  }

  if (!opt.trace) {
    const std::vector<double> best = timed.BestLatencies();
    const double best_pass_s = timed.BestPassSeconds();
    report->Add("setup_s", setup_s, "s");
    report->Add("workload_s", best_pass_s, "s");
    report->Add("latency_p50_ms", 1e3 * Percentile(best, 0.50), "ms");
    report->Add("latency_p90_ms", 1e3 * Percentile(best, 0.90), "ms");
    report->Add("latency_p99_ms", 1e3 * Percentile(best, 0.99), "ms");
    report->Add("throughput_qps", static_cast<double>(n) / best_pass_s,
                "q/s");
    AddSimMetrics(outcomes, baseline, report);
    report->Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    double helped = 0.0;
    for (int qi = 0; qi < n; ++qi) {
      if (Helped(outcomes[static_cast<size_t>(qi)],
                 baseline[static_cast<size_t>(qi)])) {
        helped += traced_runs[static_cast<size_t>(qi)];
      }
    }
    const double passes = static_cast<double>(traced.pass_s.size());
    AddLayerMetrics(totals, passes, helped, 0.0, analyze_s, 0.0, 0.0,
                    traced.BestPassSeconds() - timed.BestPassSeconds(), report);
    WriteSpans(*env, {&recorder});
  }
  return 0;
}

// ---- service-zipf -----------------------------------------------------------

// One statement as a client saw it.
struct ClientReply {
  int qi = -1;
  int64_t round = 0;
  common::Status status;
  Outcome outcome;
  double client_s = 0.0;   // the client's own timing of the statement
  double wall_s = 0.0;     // QueryReply::wall_seconds (server side)
  double queue_s = 0.0;    // QueryReply::queue_seconds
  bool cache_hit = false;
  double done_at_s = 0.0;  // completion, since the phase started
};

// The statements of one round: Zipf(0.8) popularity over the distinct
// statements (rank k = statement k-1, as bench/service_replay ranks them),
// applied as exact per-round counts (largest remainder), so every round
// sends the same mix and only the order depends on the seed.
std::vector<int> ZipfRound(int distinct, int statements) {
  std::vector<double> weight(static_cast<size_t>(distinct));
  double sum = 0.0;
  for (int k = 0; k < distinct; ++k) {
    weight[static_cast<size_t>(k)] = 1.0 / std::pow(k + 1.0, kZipfTheta);
    sum += weight[static_cast<size_t>(k)];
  }
  std::vector<int> count(static_cast<size_t>(distinct));
  std::vector<std::pair<double, int>> remainders;
  int assigned = 0;
  for (int k = 0; k < distinct; ++k) {
    const double exact = statements * weight[static_cast<size_t>(k)] / sum;
    count[static_cast<size_t>(k)] = static_cast<int>(exact);
    assigned += count[static_cast<size_t>(k)];
    remainders.emplace_back(exact - std::floor(exact), k);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (int i = 0; assigned < statements; ++i, ++assigned) {
    ++count[static_cast<size_t>(remainders[static_cast<size_t>(i)].second)];
  }
  std::vector<int> round;
  for (int k = 0; k < distinct; ++k) {
    round.insert(round.end(), static_cast<size_t>(count[static_cast<size_t>(k)]), k);
  }
  return round;
}

// A closed loop of kServiceClients clients: each takes the next statement
// slot from a shared cursor, sends it, and waits for the reply before taking
// another. Rounds are whole: the loop stops at the first round boundary
// after `budget_s` (so budget 0 runs exactly one round). Round r sends
// `order(r)`.
std::vector<ClientReply> ClosedLoop(
    const std::function<std::vector<int>(int64_t round)>& order,
    double budget_s,
    const std::function<ClientReply(int client, int qi)>& send) {
  common::Mutex mu;
  int64_t cursor = 0;
  bool stopped = false;
  std::vector<std::vector<int>> rounds = {order(0)};
  const int64_t size = static_cast<int64_t>(rounds[0].size());
  const Clock::time_point start = Clock::now();
  // The next (round, statement), or false once the loop is done.
  auto next = [&](int64_t* round, int* qi) {
    common::MutexLock lock(&mu);
    if (!stopped && cursor > 0 && cursor % size == 0 &&
        SecondsBetween(start, Clock::now()) >= budget_s) {
      stopped = true;
    }
    if (stopped) return false;
    *round = cursor / size;
    if (*round == static_cast<int64_t>(rounds.size())) {
      rounds.push_back(order(*round));
    }
    *qi = rounds[static_cast<size_t>(*round)][static_cast<size_t>(cursor % size)];
    ++cursor;
    return true;
  };
  std::vector<std::vector<ClientReply>> per_client(kServiceClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kServiceClients; ++c) {
    threads.emplace_back([&, c] {
      int64_t round = 0;
      int qi = 0;
      while (next(&round, &qi)) {
        const Clock::time_point t0 = Clock::now();
        ClientReply reply = send(c, qi);
        const Clock::time_point t1 = Clock::now();
        reply.qi = qi;
        reply.round = round;
        reply.client_s = SecondsBetween(t0, t1);
        reply.done_at_s = SecondsBetween(start, t1);
        per_client[static_cast<size_t>(c)].push_back(std::move(reply));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<ClientReply> all;
  for (auto& replies : per_client) {
    for (auto& r : replies) all.push_back(std::move(r));
  }
  return all;
}

// Rounds in a closed-loop phase (they are whole).
double Rounds(const std::vector<ClientReply>& replies) {
  int64_t last = -1;
  for (const ClientReply& r : replies) last = std::max(last, r.round);
  return static_cast<double>(last + 1);
}

// Wall time of each round: from the previous round's last completion (or
// the phase start) to this round's last completion.
std::vector<double> RoundSeconds(const std::vector<ClientReply>& replies) {
  std::map<int64_t, double> round_end;
  for (const ClientReply& r : replies) {
    round_end[r.round] = std::max(round_end[r.round], r.done_at_s);
  }
  std::vector<double> durations;
  double prev = 0.0;
  for (const auto& [round, end] : round_end) {
    durations.push_back(end - prev);
    prev = end;
  }
  return durations;
}

double MinRoundSeconds(const std::vector<ClientReply>& replies) {
  const std::vector<double> rounds = RoundSeconds(replies);
  return *std::min_element(rounds.begin(), rounds.end());
}
int RunService(Env* env, Report* report) {
  const Options& opt = env->options;
  const int n = static_cast<int>(env->workload->queries.size());
  std::vector<std::string> sql;
  for (const auto& q : env->workload->queries) {
    sql.push_back(reopt::sql::RenderSql(*q));
  }

  service::ServerOptions server_options;
  server_options.session_workers = kServiceWorkers;
  server_options.params = env->params;
  server_options.reopt = env->reopt;
  auto server = std::make_unique<service::SqlServer>(
      &env->db->catalog, &env->db->stats, server_options);
  std::vector<service::SqlSession*> sessions;
  for (int c = 0; c < kServiceClients; ++c) {
    sessions.push_back(server->OpenSession("client" + std::to_string(c)));
  }
  auto send = [&](int client, int qi) {
    service::QueryReply reply =
        sessions[static_cast<size_t>(client)]->Execute(
            sql[static_cast<size_t>(qi)]);
    ClientReply out;
    out.status = reply.status;
    if (reply.status.ok()) out.outcome = Outcome::Of(reply.outcome);
    out.wall_s = reply.wall_seconds;
    out.queue_s = reply.queue_seconds;
    out.cache_hit = reply.cache_hit;
    return out;
  };
  std::vector<int> in_order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) in_order[static_cast<size_t>(i)] = i;
  auto warm_order = [&](int64_t) { return in_order; };

  // Warm-up: every statement once, so every timed statement hits the
  // statement cache. Part of the set-up.
  std::vector<ClientReply> warm = ClosedLoop(warm_order, 0.0, send);
  const double setup_s = SecondsBetween(kProcessStart, Clock::now());
  const service::ServerStats before = server->Snapshot();

  const std::vector<int> mix = ZipfRound(n, kServiceRoundStatements);
  auto round_order = [&](int64_t round) {
    return ShuffledOrder(mix, opt.seed, static_cast<uint64_t>(round));
  };
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::fprintf(stderr, "[perfbench] service-zipf: timed rounds (%.1f s)\n",
               budget);
  std::vector<ClientReply> timed = ClosedLoop(round_order, budget, send);
  const service::ServerStats after = server->Snapshot();
  server->Shutdown();
  const double peak_rss_mb = PeakRssMb();  // before the checks add their own

  // The traced twin: the same rounds, each statement run by the client
  // thread through TracedRunner over its own statement cache (parsed once,
  // one shared QuerySession per statement, warmed like the server's).
  std::vector<ClientReply> traced;
  LayerTotals totals;
  double parse_s = 0.0, analyze_s = 0.0;
  const Clock::time_point epoch = Clock::now();
  std::vector<std::unique_ptr<SpanRecorder>> recorders;
  for (int c = 0; c < kServiceClients; ++c) {
    recorders.push_back(std::make_unique<SpanRecorder>(c, epoch));
  }
  if (opt.trace) {
    std::fprintf(stderr, "[perfbench] traced rounds (%.1f s)\n", budget);
    struct Cached {
      reopt::sql::ParsedStatement parsed;
      std::unique_ptr<reoptimizer::QuerySession> session;
    };
    std::vector<Cached> cache(static_cast<size_t>(n));
    LayerTotals warm_totals;
    TracedRunner setup_runner(&env->db->catalog, &env->db->stats, env->params,
                              "trace_setup", recorders[0].get(), &warm_totals);
    for (int qi = 0; qi < n; ++qi) {
      recorders[0]->set_query(qi);
      Cached& entry = cache[static_cast<size_t>(qi)];
      auto parsed = [&] {
        SpanRecorder::Scope span(recorders[0].get(), "sql.parse", &parse_s);
        return reopt::sql::ParseStatement(sql[static_cast<size_t>(qi)],
                                          env->db->catalog, "svc");
      }();
      if (!parsed.ok()) {
        report->errors.push_back(env->names[static_cast<size_t>(qi)] +
                                 ": parse failed: " +
                                 parsed.status().ToString());
        return 1;
      }
      entry.parsed = std::move(parsed.value());
      auto session = setup_runner.CreateSession(entry.parsed.query.get());
      if (!session.ok()) {
        report->errors.push_back(env->names[static_cast<size_t>(qi)] +
                                 ": bind failed: " +
                                 session.status().ToString());
        return 1;
      }
      entry.session = std::move(session.value());
    }
    std::vector<LayerTotals> client_totals(kServiceClients);
    std::vector<std::unique_ptr<TracedRunner>> tracers;
    for (int c = 0; c < kServiceClients; ++c) {
      tracers.push_back(std::make_unique<TracedRunner>(
          &env->db->catalog, &env->db->stats, env->params,
          "trace_c" + std::to_string(c), recorders[static_cast<size_t>(c)].get(),
          &client_totals[static_cast<size_t>(c)]));
    }
    auto traced_send = [&](int client, int qi) {
      SpanRecorder* recorder = recorders[static_cast<size_t>(client)].get();
      recorder->set_query(qi);
      SpanRecorder::Scope span(recorder, "statement", nullptr);
      auto run = tracers[static_cast<size_t>(client)]->Run(
          cache[static_cast<size_t>(qi)].session.get(), env->reopt);
      ClientReply out;
      if (run.ok()) {
        out.outcome = Outcome::Of(*run);
      } else {
        out.status = run.status();
      }
      out.cache_hit = true;
      return out;
    };
    std::vector<ClientReply> traced_warm =
        ClosedLoop(warm_order, 0.0, traced_send);
    for (const ClientReply& r : traced_warm) {
      if (!r.status.ok()) {
        report->errors.push_back("traced warm-up failed: " +
                                 r.status.ToString());
      }
    }
    for (LayerTotals& t : client_totals) t = LayerTotals{};
    traced = ClosedLoop(round_order, budget, traced_send);
    for (const LayerTotals& t : client_totals) totals.Add(t);
    recorders[0]->set_query(-1);
    analyze_s = TimeAnalyze(env, recorders[0].get());
  }

  // ---- Checks ---------------------------------------------------------------
  std::fprintf(stderr, "[perfbench] checking outputs\n");
  std::vector<reopt::sql::ParsedStatement> parsed(static_cast<size_t>(n));
  std::vector<const reopt::plan::QuerySpec*> specs;
  for (int qi = 0; qi < n; ++qi) {
    auto p = reopt::sql::ParseStatement(sql[static_cast<size_t>(qi)],
                                        env->db->catalog, "ref");
    if (!p.ok()) {
      report->errors.push_back(env->names[static_cast<size_t>(qi)] +
                               ": reference parse failed");
      return 1;
    }
    parsed[static_cast<size_t>(qi)] = std::move(p.value());
    specs.push_back(parsed[static_cast<size_t>(qi)].query.get());
  }
  // The serial single-session reference: each statement alone on a fresh
  // session (no server, no shared cache).
  std::vector<Outcome> reference =
      RunEachOnce(specs, &env->db->catalog, &env->db->stats, env->params,
                  env->reopt, kCheckThreads, &report->errors);
  reoptimizer::ReoptOptions off;
  std::vector<Outcome> baseline =
      RunEachOnce(specs, &env->db->catalog, &env->db->stats, env->params, off,
                  kCheckThreads, &report->errors);
  std::vector<Independent> independent = ComputeIndependent(
      specs, &env->db->catalog, &env->db->stats, env->params, kCheckThreads);
  if (report->errors.empty()) {
    CheckAgainstIndependent(env->names, reference, independent,
                            &report->errors);
  }

  int64_t mismatches = 0, late = 0;
  auto check_replies = [&](const std::vector<ClientReply>& replies,
                           bool count, bool server_side) {
    for (const ClientReply& r : replies) {
      if (count) ++report->attempted;
      if (!r.status.ok()) {
        if (count) ++report->failed;
        std::fprintf(stderr, "[perfbench] %s failed: %s\n",
                     env->names[static_cast<size_t>(r.qi)].c_str(),
                     r.status.ToString().c_str());
        continue;
      }
      if (r.outcome != reference[static_cast<size_t>(r.qi)]) ++mismatches;
      if (server_side && r.wall_s > r.client_s) ++late;
    }
  };
  check_replies(warm, false, true);
  check_replies(timed, true, true);
  check_replies(traced, true, false);
  if (mismatches > 0) {
    report->errors.push_back(std::to_string(mismatches) +
                             " replies differ from the serial reference");
  }
  if (late > 0) {
    report->errors.push_back(std::to_string(late) +
                             " replies report a server wall time above the "
                             "client's own timing");
  }
  const int64_t sent = static_cast<int64_t>(warm.size() + timed.size());
  if (after.submitted != sent ||
      after.completed + after.failed != after.submitted) {
    report->errors.push_back(
        "server counters disagree: submitted " +
        std::to_string(after.submitted) + ", completed " +
        std::to_string(after.completed) + ", failed " +
        std::to_string(after.failed) + ", sent " + std::to_string(sent));
  }

  if (!opt.trace) {
    // As in the batch workloads, each statement's fastest timed latency
    // stands for it, and the percentiles are taken over one round's mix of
    // those; the round time is the fastest round.
    std::vector<double> best(static_cast<size_t>(n), 1e300);
    for (const ClientReply& r : timed) {
      best[static_cast<size_t>(r.qi)] =
          std::min(best[static_cast<size_t>(r.qi)], r.client_s);
    }
    std::vector<double> latencies;
    for (int qi : mix) latencies.push_back(best[static_cast<size_t>(qi)]);
    const double best_round_s = MinRoundSeconds(timed);
    std::vector<Outcome> served(static_cast<size_t>(n));
    for (const ClientReply& r : warm) {
      served[static_cast<size_t>(r.qi)] = r.outcome;
    }
    report->Add("setup_s", setup_s, "s");
    report->Add("workload_s", best_round_s, "s");
    report->Add("latency_p50_ms", 1e3 * Percentile(latencies, 0.50), "ms");
    report->Add("latency_p90_ms", 1e3 * Percentile(latencies, 0.90), "ms");
    report->Add("latency_p99_ms", 1e3 * Percentile(latencies, 0.99), "ms");
    report->Add("throughput_qps", kServiceRoundStatements / best_round_s,
                "q/s");
    AddSimMetrics(served, baseline, report);
    report->Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    double helped = 0.0, queue_wait = 0.0;
    for (const ClientReply& r : traced) {
      if (Helped(reference[static_cast<size_t>(r.qi)],
                 baseline[static_cast<size_t>(r.qi)])) {
        helped += 1.0;
      }
    }
    for (const ClientReply& r : timed) queue_wait += r.queue_s;
    const double hit_ratio =
        static_cast<double>(after.cache_hits - before.cache_hits) /
        static_cast<double>(timed.size());
    AddLayerMetrics(totals, Rounds(traced), helped,
                    parse_s, analyze_s,
                    queue_wait / Rounds(timed),
                    hit_ratio,
                    MinRoundSeconds(traced) - MinRoundSeconds(timed),
                    report);
    std::vector<const SpanRecorder*> recs;
    for (const auto& r : recorders) recs.push_back(r.get());
    WriteSpans(*env, recs);
  }
  return 0;
}

int Main(int argc, char** argv) {
  Env env;
  if (!ParseArgs(argc, argv, &env.options)) return 2;
  const Options& opt = env.options;
  const Workload& workload = *opt.workload;
  std::fprintf(stderr, "[perfbench] %s: building the IMDB database (scale %g)\n",
               workload.name, workload.scale);
  reopt::imdb::ImdbOptions db_options;
  db_options.scale = workload.scale;
  db_options.seed = opt.imdb_seed;
  env.db = reopt::imdb::BuildImdbDatabase(db_options);
  reopt::workload::WorkloadOptions wl_options;
  wl_options.seed = opt.workload_seed;
  env.workload =
      reopt::workload::BuildJobLikeWorkload(env.db->catalog, wl_options);
  for (const auto& q : env.workload->queries) env.names.push_back(q->name);
  int64_t rows = 0;
  const std::vector<std::string> tables = env.db->catalog.TableNames();
  for (const std::string& name : tables) {
    rows += env.db->catalog.FindTable(name)->num_rows();
  }
  std::fprintf(stderr, "[perfbench] %zu tables, %lld rows, %zu queries\n",
               tables.size(), static_cast<long long>(rows),
               env.workload->queries.size());
  env.reopt.enabled = workload.reopt;
  env.reopt.qerror_threshold = 32.0;

  Report report;
  int rc;
  if (workload.service) {
    rc = RunService(&env, &report);
  } else {
    const double setup_s = SecondsBetween(kProcessStart, Clock::now());
    rc = RunBatch(&env, setup_s, &report);
  }
  if (rc != 0 && report.errors.empty()) return rc;
  for (size_t i = 0; i < report.errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", report.errors[i].c_str());
  }
  if (rc != 0) return rc;
  PrintReport(report);
  return report.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
