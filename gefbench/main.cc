// gefbench — the repository's benchmark harness (see README.md).
//
// One process runs one workload once and prints, as its last stdout
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced (--trace 0) or the per-layer metrics (--trace 1).
//
//   gefbench --workload explain_census|serve_mixed
//            --seed N --seconds S --trace 0|1 --work-dir DIR
//
// The served model is written under --work-dir; the gef_serve binary
// is the one built next to this harness.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/census.h"
#include "forest/gbdt_trainer.h"
#include "forest/serialization.h"
#include "gef/evaluation.h"
#include "gef/explainer.h"
#include "gef/local_explanation.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve_client.h"
#include "util/parallel.h"

namespace gefbench {
namespace {

// bench_report's census workload reports this fidelity (BENCH_PR10.json)
// for the configuration explain_census runs; matching it shows the
// benchmark drives the same pipeline.
constexpr double kCensusFidelityR2 = 0.762428;
constexpr int kSetupReps = 5;
constexpr size_t kLocalQueries = 2048;
constexpr int kLocalPasses = 2;  // per fitted explanation
// Serving pool: explains cover a fixed probe set (in seeded order), so
// the served fidelity is a property of the surrogate, not of the seed;
// predicts draw from seeded rows.
constexpr size_t kProbeRows = 1024;
constexpr uint64_t kProbeSeed = 20231;
constexpr size_t kPredictRows = 1024;
constexpr size_t kRequestsPerConn = 4096;
constexpr int kExplainEvery = 8;  // serve_mixed: one request in 8

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

/// What one run reports.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;  // false on a wrong output or a broken invariant
  MetricSet metrics;
  std::vector<std::string> absent;  // /metrics names the server lacks
  std::string kernel = "unknown";
  int pool_threads = 0;
};

void Fail(Report* report, const std::string& what) {
  std::fprintf(stderr, "gefbench: %s\n", what.c_str());
  report->correct = false;
}

/// Percentile metrics with their sample counts.
void AddLatency(const std::string& prefix, const std::vector<double>& s,
                MetricSet* out) {
  out->Add(prefix + "_p50_ms", Quantile(s, 0.50) * 1e3, "ms");
  out->Add(prefix + "_p99_ms", Quantile(s, 0.99) * 1e3, "ms");
  std::printf("samples %s: %zu\n", prefix.c_str(), s.size());
}

void AddSliceLatency(const std::string& prefix, const SliceStats& stats,
                     MetricSet* out) {
  out->Add(prefix + "_p50_ms", stats.p50_s * 1e3, "ms");
  out->Add(prefix + "_p99_ms", stats.p99_s * 1e3, "ms");
  std::printf("samples %s: %zu in %zu slices\n", prefix.c_str(),
              stats.samples, stats.slices);
}

/// Appends `rows` rows drawn from the census distribution with `seed`,
/// with the reference prediction of `forest` for each.
void AppendRows(const gef::Forest& forest, size_t rows, uint64_t seed,
                RowPool* pool) {
  gef::Rng rng(seed);
  gef::Dataset data = gef::MakeCensusDatasetEncoded(rows, &rng);
  pool->logit_link =
      forest.objective() == gef::Objective::kBinaryClassification;
  for (size_t i = 0; i < data.num_rows(); ++i) {
    pool->rows.push_back(data.GetRow(i));
    pool->expected.push_back(forest.Predict(pool->rows.back()));
  }
}

Request MakeRequest(Request::Kind kind, uint32_t row, const RowPool& pool) {
  Request request;
  request.kind = kind;
  request.row = row;
  request.bytes = HttpPost(
      kind == Request::Kind::kPredict ? "/v1/predict" : "/v1/explain",
      RowBody(pool.rows[row]));
  return request;
}

int NumConnections() {
  return static_cast<int>(
      std::clamp<long>(sysconf(_SC_NPROCESSORS_ONLN), 1, 4));
}

double SelfCpuUs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
             1e6 +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  auto find = [&name](const std::map<std::string, double>& m) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  return find(after) - find(before);
}

std::string KernelFrom(double avx2, double scalar) {
  if (avx2 > 0 && scalar > 0) return "mixed";
  if (avx2 > 0) return "avx2";
  if (scalar > 0) return "scalar";
  return "unknown";
}

const std::vector<std::string>& ServerFlags() {
  static const std::vector<std::string> flags = {"--name", "census",
                                                 "--port", "0"};
  return flags;
}

/// A gef_serve child measured from outside: closed-loop load, /proc and
/// /metrics deltas. Shared by serve_mixed and explain_census's traced
/// serving probe.
struct ServeSession {
  std::vector<double> setup_s;
  LoadResult window;
  std::map<std::string, double> before;
  std::map<std::string, double> after;
  double server_cpu_us = 0.0;
  double client_cpu_us = 0.0;
  double peak_rss_mb = 0.0;
};

/// Boots the server `setup_reps` times (each boot: spawn → listening →
/// first /v1/explain answered, which pays the cold surrogate fit),
/// keeps the last one, runs the window, stops it.
bool RunServeSession(const std::string& model_path,
                     const std::vector<std::vector<Request>>& window_lists,
                     const RowPool& pool, double window_s,
                     int setup_reps, ServeSession* session, Report* report) {
  std::vector<std::string> args = {"--model", model_path};
  args.insert(args.end(), ServerFlags().begin(), ServerFlags().end());
  const Request cold = MakeRequest(Request::Kind::kExplain, 0, pool);
  std::unique_ptr<ServerProcess> server;
  for (int rep = 0; rep < setup_reps; ++rep) {
    if (server != nullptr && !server->Stop()) {
      Fail(report, "gef_serve did not drain and exit 0");
    }
    const Clock::time_point start = Clock::now();
    server = std::make_unique<ServerProcess>(GEFBENCH_SERVE_BIN, args);
    if (!server->WaitListening(60.0)) {
      std::fprintf(stderr, "gefbench: gef_serve did not start\n");
      return false;
    }
    const bool cold_ok = SendChecked(server->port(), cold, pool);
    session->setup_s.push_back(SecondsSince(start));
    ++report->attempted;
    if (!cold_ok) {
      ++report->failed;
      Fail(report, "cold /v1/explain failed its check");
    }
  }
  const int port = server->port();
  const std::string pid = server->pid();

  session->before = ScrapeMetrics(port);
  const double server_cpu0 = ProcessCpuUs(pid);
  const double client_cpu0 = SelfCpuUs();
  session->window = RunClosedLoop(port, window_lists, pool, window_s);
  session->server_cpu_us = ProcessCpuUs(pid) - server_cpu0;
  session->client_cpu_us = SelfCpuUs() - client_cpu0;
  session->after = ScrapeMetrics(port);
  session->peak_rss_mb = PeakRssMb(pid);
  if (!server->Stop()) Fail(report, "gef_serve did not drain and exit 0");

  report->attempted += session->window.attempted;
  report->failed += session->window.failed;
  if (session->before.empty() || session->after.empty()) {
    Fail(report, "GET /metrics failed");
  }
  report->kernel =
      KernelFrom(session->after["predict.kernel.avx2"],
                 session->after["predict.kernel.scalar"]);
  return true;
}

/// R² of the served surrogate against the forest over the explained
/// probe rows.
double ServedFidelity(const ServeSession& session, const RowPool& pool) {
  std::vector<std::pair<double, double>> probes;  // (forest, surrogate)
  for (const auto& [row, gam] : session.window.explained) {
    if (row < kProbeRows) probes.emplace_back(pool.expected[row], gam);
  }
  std::printf("samples fidelity_r2: %zu of %zu probe rows\n", probes.size(),
              kProbeRows);
  double mean = 0.0;
  for (const auto& probe : probes) mean += probe.first;
  mean /= static_cast<double>(std::max<size_t>(1, probes.size()));
  double residual = 0.0;
  double total = 0.0;
  for (const auto& [forest, gam] : probes) {
    residual += (gam - forest) * (gam - forest);
    total += (forest - mean) * (forest - mean);
  }
  return total > 0.0 ? 1.0 - residual / total : 0.0;
}

/// The serving layers' per-layer metrics measured from outside.
void AddServeLayerMetrics(const ServeSession& session, Report* report) {
  MetricSet& m = report->metrics;
  const double requests = static_cast<double>(session.window.attempted);
  m.Add("serve.cpu_us_per_request", session.server_cpu_us / requests, "us");
  m.Add("loadgen.cpu_us_per_request", session.client_cpu_us / requests,
        "us");
  auto window_delta = [&session](const std::string& name) {
    return Delta(session.before, session.after, name);
  };
  auto has = [&session, report](const std::string& name) {
    if (session.after.count(name) != 0) return true;
    report->absent.push_back(name);
    return false;
  };
  // Mean rows per micro-batch dispatch and per inline predict burst;
  // 0 when the path never ran in the window.
  auto mean = [&window_delta](const std::string& sum,
                              const std::string& count) {
    const double n = window_delta(count);
    return n > 0 ? window_delta(sum) / n : 0.0;
  };
  if (has("serve.batch.rows") && has("serve.batch.dispatches")) {
    m.Add("serve.batch.mean_size",
          mean("serve.batch.rows", "serve.batch.dispatches"), "rows");
  }
  if (has("serve.predict.burst_rows.count")) {
    m.Add("serve.predict.burst_rows",
          mean("serve.predict.burst_rows.sum",
               "serve.predict.burst_rows.count"),
          "rows");
  }
  // Error counters register on first use, so a missing one reads as 0.
  for (const char* name : {"serve.shed", "serve.errors", "serve.timeouts"}) {
    m.Add(name, window_delta(name), "count");
  }
  const std::map<std::string, double> none;
  const double hits =
      Delta(none, session.after, "serve.surrogate_cache.hits");
  const double misses =
      Delta(none, session.after, "serve.surrogate_cache.misses");
  if (hits + misses > 0) {
    m.Add("serve.surrogate_cache.hit_share", hits / (hits + misses),
          "share");
  } else {
    report->absent.push_back("serve.surrogate_cache.hits");
  }
  if (has("serve.gef_fits")) {
    m.Add("serve.gef_fits", session.after.at("serve.gef_fits"),
          "count");
  }
  for (const char* endpoint : {"predict", "explain"}) {
    const std::string name =
        std::string("serve.latency_s.") + endpoint + ".p50";
    if (has(name)) m.Add(name, session.after.at(name), "s");
  }
  const std::string server_p50 = "serve.latency_s.predict.p50";
  if (session.after.count(server_p50) != 0) {
    m.Add("serve.transport_share",
          1.0 - session.after.at(server_p50) /
                    Slices(session.window.predicts, session.window.wall_s)
                        .p50_s,
          "share");
  }
}

/// A session's request lists end to end, for the replay.
std::vector<Request> Flatten(const std::vector<std::vector<Request>>& lists) {
  std::vector<Request> out;
  for (const auto& list : lists) out.insert(out.end(), list.begin(), list.end());
  return out;
}

template <typename T>
std::vector<T> Concat(const std::vector<T>& a, const std::vector<T>& b) {
  std::vector<T> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

// ---------------------------------------------------------------------
// explain_census: the paper's pipeline as a user runs it, in process.

gef::GbdtConfig CensusExplainForestConfig() {
  gef::GbdtConfig config;
  config.objective = gef::Objective::kBinaryClassification;
  config.num_trees = 100;
  config.num_leaves = 32;
  config.learning_rate = 0.1;
  config.min_samples_leaf = 20;
  return config;
}

gef::GefConfig CensusExplainConfig() {
  gef::GefConfig config;
  config.num_univariate = 5;
  config.num_bivariate = 1;
  config.num_samples = 20000;
  config.k = 64;
  config.spline_basis = 16;
  return config;
}

/// Checks one in-process local explanation like the serving client
/// checks an /v1/explain response.
bool LocalExplanationOk(const gef::LocalExplanation& local, double forest) {
  double eta = local.intercept;
  for (const gef::LocalTermContribution& term : local.terms) {
    eta += term.contribution;
  }
  return !local.terms.empty() && SameBits(local.forest_prediction, forest) &&
         Reconstructs(eta, local.gam_prediction, /*logit_link=*/true);
}

void RunExplainCensus(const Args& args, Report* report) {
  gef::SetNumThreads(1);
  report->pool_threads = gef::NumThreads();
  const gef::GefConfig config = CensusExplainConfig();

  // Set-up: the pipeline's input (census data + the GBDT), built
  // kSetupReps times; every build must give the same model.
  std::vector<double> setup_s;
  gef::Forest forest;
  std::string first_model;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = Clock::now();
    gef::Rng rng(43);
    gef::Dataset train = gef::MakeCensusDatasetEncoded(4000, &rng);
    gef::Forest trained =
        gef::TrainGbdt(train, nullptr, CensusExplainForestConfig()).forest;
    setup_s.push_back(SecondsSince(start));
    const std::string text = gef::ForestToString(trained);
    if (rep == 0) first_model = text;
    if (text != first_model) Fail(report, "GBDT training is not repeatable");
    forest = std::move(trained);
  }
  const double kernel_avx2_0 =
      gef::obs::metrics::GetCounter("predict.kernel.avx2").Value();
  const double kernel_scalar_0 =
      gef::obs::metrics::GetCounter("predict.kernel.scalar").Value();
  // The seed picks the rows the user explains locally.
  RowPool pool;
  AppendRows(forest, kLocalQueries, args.seed, &pool);

  if (args.trace) {
    MetricSet& m = report->metrics;
    std::unique_ptr<gef::GefExplanation> explanation =
        MeasurePipelineLayers(forest, config, 2, &m);
    if (explanation == nullptr) {
      Fail(report, "surrogate fit failed");
      return;
    }
    // Serving probe: the same local queries (predict, then explain)
    // against gef_serve on this model, for the serving-layer metrics.
    const std::string model_path = args.work_dir + "/census100.txt";
    if (!gef::SaveForest(forest, model_path).ok()) {
      Fail(report, "cannot write the model");
      return;
    }
    const int conns = NumConnections();
    std::vector<std::vector<Request>> lists(conns);
    for (uint32_t row = 0; row < pool.rows.size(); ++row) {
      auto& list = lists[row % conns];
      list.push_back(MakeRequest(Request::Kind::kPredict, row, pool));
      list.push_back(MakeRequest(Request::Kind::kExplain, row, pool));
    }
    ServeSession session;
    if (!RunServeSession(model_path, lists, pool,
                         std::max(1.0, args.seconds / 5), 1, &session,
                         report)) {
      Fail(report, "serving probe failed");
      return;
    }
    AddServeLayerMetrics(session, report);
    if (!MeasureReplay(forest, *explanation, Flatten(lists), pool,
                       session.window.predict_bodies,
                       session.window.explain_bodies, &m)) {
      Fail(report, "replayed requests did not parse");
    }
    return;
  }

  // Each query's predict latency is its fastest of the run's passes, so
  // the percentiles describe the queries rather than host interruptions.
  constexpr double kNever = 1e30;
  std::vector<double> explain_s;
  std::vector<double> predict_latency(pool.rows.size(), kNever);
  double fidelity = 0.0;
  const Clock::time_point begin = Clock::now();
  for (int rep = 0; rep == 0 || SecondsSince(begin) < args.seconds; ++rep) {
    ++report->attempted;
    Clock::time_point start = Clock::now();
    std::unique_ptr<gef::GefExplanation> explanation =
        gef::ExplainForest(forest, config);
    explain_s.push_back(SecondsSince(start));
    if (explanation == nullptr) {
      ++report->failed;
      Fail(report, "surrogate fit failed");
      continue;
    }
    const double r2 =
        gef::EvaluateFidelity(*explanation, forest, explanation->dstar_test)
            .r2;
    if (rep == 0) fidelity = r2;
    if (!SameBits(r2, fidelity) ||
        std::fabs(r2 - kCensusFidelityR2) > 5e-7) {
      ++report->failed;
      Fail(report, "fidelity_r2 " + std::to_string(r2) +
                       " differs from the reference " +
                       std::to_string(kCensusFidelityR2));
    }
    // Local what-if queries on the fitted explanation. ExplainInstance
    // is checked here and timed in the traced run
    // (gef.explain_instance_us): its latency swings with the host's
    // load far beyond the bound.
    for (int pass = 0; pass < kLocalPasses; ++pass) {
      for (size_t i = 0; i < pool.rows.size(); ++i) {
        report->attempted += 2;
        start = Clock::now();
        const double prediction = forest.Predict(pool.rows[i]);
        predict_latency[i] = std::min(predict_latency[i], SecondsSince(start));
        if (!SameBits(prediction, pool.expected[i])) ++report->failed;
        const gef::LocalExplanation local =
            gef::ExplainInstance(*explanation, forest, pool.rows[i]);
        if (!LocalExplanationOk(local, pool.expected[i])) ++report->failed;
      }
    }
  }
  if (report->failed > 0) Fail(report, "wrong outputs");

  double total_cost_s = 0.0;
  for (double latency : predict_latency) total_cost_s += latency;
  MetricSet& m = report->metrics;
  m.Add("setup_s", Median(setup_s), "s");
  m.Add("peak_rss_mb", PeakRssMb("self"), "MB");
  m.Add("explain_s", Median(explain_s), "s");
  m.Add("fidelity_r2", fidelity, "r2");
  m.Add("qps", static_cast<double>(pool.rows.size()) / total_cost_s, "1/s");
  AddLatency("predict", predict_latency, &m);
  // Here an explanation is the global one: the ExplainForest calls.
  AddLatency("explain", explain_s, &m);
  report->kernel = KernelFrom(
      gef::obs::metrics::GetCounter("predict.kernel.avx2").Value() -
          kernel_avx2_0,
      gef::obs::metrics::GetCounter("predict.kernel.scalar").Value() -
          kernel_scalar_0);
}

// ---------------------------------------------------------------------
// serve_mixed: closed-loop mixed load on a fresh gef_serve.

void RunServeMixed(const Args& args, Report* report) {
  // The census model the CI serving benchmark serves: 4000 rows (seed
  // 11), binary GBDT with 200 trees of 31 leaves, gef_train defaults.
  const std::string model_path = args.work_dir + "/census200.txt";
  {
    gef::Rng rng(11);
    gef::Dataset data = gef::MakeCensusDatasetEncoded(4000, &rng);
    gef::GbdtConfig config;
    config.objective = gef::Objective::kBinaryClassification;
    config.num_trees = 200;
    config.num_leaves = 31;
    if (!gef::SaveForest(gef::TrainGbdt(data, nullptr, config).forest,
                         model_path)
             .ok()) {
      Fail(report, "cannot write the model");
      return;
    }
  }
  // The reference is the model as the server loads it.
  gef::StatusOr<gef::Forest> loaded = gef::LoadForest(model_path);
  if (!loaded.ok()) {
    Fail(report, "cannot read the model back");
    return;
  }
  const gef::Forest& forest = loaded.value();
  RowPool pool;
  AppendRows(forest, kProbeRows, kProbeSeed, &pool);
  AppendRows(forest, kPredictRows, args.seed, &pool);

  // Every request is generated and serialized before the clock starts.
  gef::Rng rng(args.seed);
  std::vector<uint32_t> probe_order(kProbeRows);
  for (uint32_t row = 0; row < kProbeRows; ++row) probe_order[row] = row;
  for (size_t i = kProbeRows - 1; i > 0; --i) {
    std::swap(probe_order[i], probe_order[rng.UniformInt(i + 1)]);
  }
  const int conns = NumConnections();
  std::vector<std::vector<Request>> window(conns);
  size_t explains = 0;
  for (size_t i = 0; i < kRequestsPerConn; ++i) {
    for (int c = 0; c < conns; ++c) {
      if ((i + static_cast<size_t>(c)) % kExplainEvery == 0) {
        window[c].push_back(
            MakeRequest(Request::Kind::kExplain,
                        probe_order[explains++ % kProbeRows], pool));
      } else {
        window[c].push_back(MakeRequest(
            Request::Kind::kPredict,
            static_cast<uint32_t>(kProbeRows + rng.UniformInt(kPredictRows)),
            pool));
      }
    }
  }
  ServeSession session;
  if (!RunServeSession(model_path, window, pool, args.seconds, kSetupReps,
                       &session, report)) {
    Fail(report, "server session failed");
    return;
  }
  report->pool_threads = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (report->failed > 0) Fail(report, "wrong or failed responses");
  const double fits =
      session.after.count("serve.gef_fits") != 0
          ? session.after.at("serve.gef_fits")
          : 1.0;
  if (fits != 1.0) Fail(report, "the server fitted its surrogate twice");

  if (args.trace) {
    gef::SetNumThreads(1);
    MetricSet& m = report->metrics;
    // The fit gef_serve performs on the first explain, in process.
    std::unique_ptr<gef::GefExplanation> explanation =
        MeasurePipelineLayers(forest, gef::GefConfig(), 2, &m);
    if (explanation == nullptr) {
      Fail(report, "surrogate fit failed");
      return;
    }
    AddServeLayerMetrics(session, report);
    if (!MeasureReplay(forest, *explanation, Flatten(window), pool,
                       session.window.predict_bodies,
                       session.window.explain_bodies, &m)) {
      Fail(report, "replayed requests did not parse");
    }
    return;
  }

  const LoadResult& load = session.window;
  const SliceStats all = Slices(Concat(load.predicts, load.explains),
                                load.wall_s);
  const SliceStats predict = Slices(load.predicts, load.wall_s);
  const SliceStats explain = Slices(load.explains, load.wall_s);
  MetricSet& m = report->metrics;
  m.Add("setup_s", Median(session.setup_s), "s");
  m.Add("peak_rss_mb", session.peak_rss_mb, "MB");
  // The time a caller waits for one explanation from the warm server;
  // the cold fit is part of setup_s.
  m.Add("explain_s", explain.p50_s, "s");
  m.Add("fidelity_r2", ServedFidelity(session, pool), "r2");
  m.Add("qps", all.rate_per_s, "1/s");
  AddSliceLatency("predict", predict, &m);
  AddSliceLatency("explain", explain, &m);
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const std::string type = GEFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo" ||
         type == "MinSizeRel";
#else
  return false;
#endif
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      std::fprintf(stderr, "gefbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.work_dir.empty() || !(args.seconds > 0)) {
    std::fprintf(stderr, "gefbench: --work-dir and --seconds > 0 needed\n");
    return 2;
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "gefbench: refusing to measure a %s build without "
                 "optimisation\n",
                 GEFBENCH_BUILD_TYPE);
    return 3;
  }
  // Untraced unless a traced pass turns tracing on explicitly.
  gef::obs::Disable();

  Report report;
  if (args.workload == "explain_census") {
    RunExplainCensus(args, &report);
  } else if (args.workload == "serve_mixed") {
    RunServeMixed(args, &report);
  } else {
    std::fprintf(stderr, "gefbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (!report.metrics.Finite()) Fail(&report, "a metric is not finite");

  std::string absent;
  for (const std::string& name : report.absent) {
    absent += (absent.empty() ? "\"" : ", \"") + name + "\"";
  }
  std::string flags;
  for (const std::string& flag : ServerFlags()) {
    flags += (flags.empty() ? "\"" : ", \"") + flag + "\"";
  }
  std::printf(
      "env {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %ld, \"pool_threads\": %d, \"kernel\": \"%s\", "
      "\"build_type\": \"%s\", \"server_flags\": [%s], "
      "\"absent_metrics\": [%s]}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), report.pool_threads,
      report.kernel.c_str(), GEFBENCH_BUILD_TYPE, flags.c_str(),
      absent.c_str());
  std::printf("%s\n", ResultLine(report.correct, report.attempted,
                                 report.failed, report.metrics)
                          .c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace gefbench

int main(int argc, char** argv) { return gefbench::Main(argc, argv); }
