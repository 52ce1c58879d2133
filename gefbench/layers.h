#ifndef GEFBENCH_LAYERS_H_
#define GEFBENCH_LAYERS_H_

// Per-layer attribution for traced runs, timed from the benchmark
// around calls into each layer's public functions.

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "forest/forest.h"
#include "gef/explainer.h"
#include "serve_client.h"

namespace gefbench {

/// The pipeline's stages on `forest` under `config`, on the calling
/// thread's pool setting: sampling, D* labeling, selection, the
/// surrogate fit (spline and boosted fANOVA), surrogate batch
/// prediction, the obs work counters, and the tracing overhead over
/// `overhead_pairs` alternating untraced/traced ExplainForest runs.
/// Returns the fitted spline explanation (nullptr on a failed fit).
std::unique_ptr<gef::GefExplanation> MeasurePipelineLayers(
    const gef::Forest& forest, const gef::GefConfig& config,
    int overhead_pairs, MetricSet* out);

/// Replays the workload's request bytes single-threaded through the
/// serving functions (parser, predict-body scan, JSON parse, forest
/// kernel, local explanation, response serialization). `bodies_*` are
/// response bodies the server sent, serialized again in request order.
/// Returns false when a replayed request does not parse.
bool MeasureReplay(const gef::Forest& forest,
                   const gef::GefExplanation& explanation,
                   const std::vector<Request>& requests, const RowPool& pool,
                   const std::vector<std::string>& predict_bodies,
                   const std::vector<std::string>& explain_bodies,
                   MetricSet* out);

}  // namespace gefbench

#endif  // GEFBENCH_LAYERS_H_
