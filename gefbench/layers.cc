#include "layers.h"

#include <algorithm>
#include <utility>

#include "gef/feature_selection.h"
#include "gef/interaction.h"
#include "gef/local_explanation.h"
#include "obs/obs.h"
#include "serve/handlers.h"
#include "serve/http.h"
#include "serve/json.h"

namespace gefbench {
namespace {

// Results are folded in here so the timed calls cannot be elided.
volatile double g_sink = 0.0;

/// Median wall seconds of `reps` calls of `fn`.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    fn();
    samples.push_back(SecondsSince(start));
  }
  return Median(std::move(samples));
}

/// Median microseconds per call over repeated passes of `pass`, which
/// makes `calls` calls: at least 5 passes and at least 0.2 s in total.
template <typename Pass>
double PerCallUs(size_t calls, Pass&& pass) {
  if (calls == 0) return 0.0;
  std::vector<double> samples;
  const Clock::time_point begin = Clock::now();
  while (samples.size() < 5 || SecondsSince(begin) < 0.2) {
    const Clock::time_point start = Clock::now();
    pass();
    samples.push_back(SecondsSince(start) * 1e6 /
                      static_cast<double>(calls));
  }
  return Median(std::move(samples));
}

}  // namespace

std::unique_ptr<gef::GefExplanation> MeasurePipelineLayers(
    const gef::Forest& forest, const gef::GefConfig& config,
    int overhead_pairs, MetricSet* out) {
  namespace obs = gef::obs;
  obs::Enable("");
  obs::Flush();

  Clock::time_point start = Clock::now();
  gef::GefSamplingArtifacts artifacts =
      gef::BuildSamplingArtifacts(forest, config);
  out->Add("gef.sampling_s", SecondsSince(start), "s");
  const double rows_labeled =
      obs::Flush().Counter("gef.dstar_rows_labeled");

  const double label_s = MedianSeconds(5, [&] {
    g_sink = g_sink + forest.PredictBatch(artifacts.dstar).back();
  });
  out->Add("forest.label_rows_per_s",
           static_cast<double>(artifacts.dstar.num_rows()) / label_s,
           "rows/s");

  const double selection_s = MedianSeconds(20, [&] {
    std::vector<int> selected =
        gef::SelectTopFeatures(forest, config.num_univariate);
    if (config.num_bivariate > 0 && selected.size() >= 2) {
      g_sink = g_sink + static_cast<double>(
                            gef::SelectTopInteractions(
                                forest, selected, config.interaction,
                                config.num_bivariate, nullptr)
                                .size());
    }
    g_sink = g_sink + static_cast<double>(selected.size());
  });
  out->Add("gef.selection_s", selection_s, "s");

  obs::Flush();
  start = Clock::now();
  std::unique_ptr<gef::GefExplanation> explanation =
      gef::FitExplanation(forest, artifacts, config);
  out->Add("gef.fit_explanation_s", SecondsSince(start), "s");
  const double gram_builds = obs::Flush().Counter("gam.gram_builds");
  if (explanation == nullptr) {
    obs::Disable();
    return nullptr;
  }

  const gef::Dataset& holdout = explanation->dstar_test;
  const double predict_s = MedianSeconds(5, [&] {
    g_sink =
        g_sink + explanation->surrogate->PredictBatch(holdout).back();
  });
  out->Add("surrogate.predict_rows_per_s",
           static_cast<double>(holdout.num_rows()) / predict_s, "rows/s");

  gef::GefConfig fanova_config = config;
  fanova_config.surrogate_backend = "boosted_fanova";
  start = Clock::now();
  const bool fanova_fitted =
      gef::FitExplanation(forest, artifacts, fanova_config) != nullptr;
  out->Add("surrogate.fanova_fit_s", SecondsSince(start), "s");
  out->Add("gam.gram_builds", gram_builds, "count");
  out->Add("gef.dstar_rows_labeled", rows_labeled, "count");

  // Alternate which side runs first so drift hits both equally.
  std::vector<double> untraced;
  std::vector<double> traced;
  for (int pair = 0; pair < overhead_pairs; ++pair) {
    for (int side = 0; side < 2; ++side) {
      const bool trace_on = (side + pair) % 2 == 1;
      if (trace_on) {
        obs::Enable("");
      } else {
        obs::Disable();
      }
      start = Clock::now();
      const bool fitted = gef::ExplainForest(forest, config) != nullptr;
      (trace_on ? traced : untraced).push_back(SecondsSince(start));
      if (trace_on) obs::Flush();
      if (!fitted) return nullptr;
    }
  }
  obs::Disable();
  const double untraced_s = Median(untraced);
  out->Add("obs.trace_overhead_share",
           (Median(traced) - untraced_s) / untraced_s, "share");
  return fanova_fitted ? std::move(explanation) : nullptr;
}

bool MeasureReplay(const gef::Forest& forest,
                   const gef::GefExplanation& explanation,
                   const std::vector<Request>& requests, const RowPool& pool,
                   const std::vector<std::string>& predict_bodies,
                   const std::vector<std::string>& explain_bodies,
                   MetricSet* out) {
  namespace serve = gef::serve;
  using Parser = serve::HttpRequestParser;

  // One parse up front yields the bodies the later layers consume.
  std::vector<std::string> scan_bodies;
  std::vector<std::string> json_bodies;
  std::vector<uint32_t> predict_rows;
  std::vector<uint32_t> explain_rows;
  for (const Request& request : requests) {
    Parser parser;
    if (parser.Consume(request.bytes) != Parser::State::kDone) return false;
    if (request.kind == Request::Kind::kPredict) {
      scan_bodies.push_back(parser.request().body);
      predict_rows.push_back(request.row);
    } else {
      json_bodies.push_back(parser.request().body);
      explain_rows.push_back(request.row);
    }
  }

  bool ok = true;
  out->Add("serve.http_parse_us", PerCallUs(requests.size(), [&] {
             Parser parser;
             for (const Request& request : requests) {
               ok = ok && parser.Consume(request.bytes) ==
                              Parser::State::kDone;
               g_sink = g_sink + static_cast<double>(
                                     parser.request().body.size());
               parser.Reset();
             }
           }),
           "us");

  out->Add("serve.scan_predict_us", PerCallUs(scan_bodies.size(), [&] {
             bool have_model = false;
             std::string_view model;
             std::vector<double> row;
             for (const std::string& body : scan_bodies) {
               ok = ok && serve::ScanPredictBody(body, &have_model, &model,
                                                 &row);
               g_sink = g_sink + row.back();
             }
           }),
           "us");

  out->Add("serve.json_parse_us", PerCallUs(json_bodies.size(), [&] {
             for (const std::string& body : json_bodies) {
               gef::StatusOr<serve::Json> parsed = serve::ParseJson(body);
               ok = ok && parsed.ok();
               g_sink = g_sink + static_cast<double>(
                                     parsed.ok() ? parsed->object.size()
                                                 : 0);
             }
           }),
           "us");

  out->Add("forest.predict_row_us", PerCallUs(predict_rows.size(), [&] {
             for (uint32_t row : predict_rows) {
               g_sink = g_sink + forest.PredictRaw(pool.rows[row]);
             }
           }),
           "us");

  out->Add("gef.explain_instance_us", PerCallUs(explain_rows.size(), [&] {
             for (uint32_t row : explain_rows) {
               g_sink = g_sink +
                        gef::ExplainInstance(explanation, forest,
                                             pool.rows[row])
                            .gam_prediction;
             }
           }),
           "us");

  // Responses in request order, each kind cycling through the bodies
  // the server actually sent.
  std::vector<serve::HttpResponse> responses;
  size_t next_predict = 0;
  size_t next_explain = 0;
  for (const Request& request : requests) {
    const bool predict = request.kind == Request::Kind::kPredict;
    const std::vector<std::string>& bodies =
        predict ? predict_bodies : explain_bodies;
    if (bodies.empty()) return false;
    size_t& next = predict ? next_predict : next_explain;
    serve::HttpResponse response;
    response.body = bodies[next++ % bodies.size()];
    responses.push_back(std::move(response));
  }
  out->Add("serve.serialize_us", PerCallUs(responses.size(), [&] {
             for (const serve::HttpResponse& response : responses) {
               g_sink = g_sink + static_cast<double>(
                                     serve::SerializeHttpResponse(response)
                                         .size());
             }
           }),
           "us");
  return ok;
}

}  // namespace gefbench
