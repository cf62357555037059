// Reference checks, computed apart from the program, and their self-test.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "bench.h"
#include "core/rng.h"
#include "datasets/registry.h"
#include "eval/metrics.h"
#include "graph/graph_ops.h"
#include "stream/delta_graph.h"
#include "stream/online_scorer.h"

namespace perfbench {

using vgod::stream::EventBatch;
using vgod::stream::EventType;
using vgod::stream::GraphEvent;

double RankAuc(const std::vector<double>& scores,
               const std::vector<uint8_t>& labels) {
  const size_t n = scores.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  // Average 1-based ranks over runs of tied scores.
  double positive_rank_sum = 0.0;
  double positives = 0.0;
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double rank = 0.5 * static_cast<double>(i + j) + 1.0;
    for (size_t k = i; k <= j; ++k) {
      if (labels[order[k]] != 0) {
        positive_rank_sum += rank;
        positives += 1.0;
      }
    }
    i = j + 1;
  }
  const double negatives = static_cast<double>(n) - positives;
  if (positives == 0.0 || negatives == 0.0) return 0.5;
  return (positive_rank_sum - positives * (positives + 1.0) / 2.0) /
         (positives * negatives);
}

namespace {

std::vector<double> ZScore(const std::vector<double>& x) {
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(x.size());
  double var = 0.0;
  for (double v : x) var += (v - mean) * (v - mean);
  const double sd = std::sqrt(var / static_cast<double>(x.size()));
  std::vector<double> out(x.size(), 0.0);
  if (sd <= 0.0) return out;
  for (size_t i = 0; i < x.size(); ++i) out[i] = (x[i] - mean) / sd;
  return out;
}

}  // namespace

std::vector<double> RecombineMeanStd(const std::vector<double>& structural,
                                     const std::vector<double>& contextual) {
  const std::vector<double> s = ZScore(structural);
  const std::vector<double> c = ZScore(contextual);
  std::vector<double> out(s.size());
  for (size_t i = 0; i < s.size(); ++i) out[i] = s[i] + c[i];
  return out;
}

std::vector<double> NeighborVariance(const AttributedGraph& graph,
                                     const Tensor& h) {
  const int n = graph.num_nodes();
  const int k = h.cols();
  std::vector<double> out(n, 0.0);
  std::vector<double> mean(k);
  for (int i = 0; i < n; ++i) {
    const auto neighbors = graph.Neighbors(i);
    if (neighbors.empty()) continue;
    std::fill(mean.begin(), mean.end(), 0.0);
    for (int32_t j : neighbors) {
      for (int c = 0; c < k; ++c) mean[c] += h.At(j, c);
    }
    for (double& m : mean) m /= static_cast<double>(neighbors.size());
    double acc = 0.0;
    for (int32_t j : neighbors) {
      for (int c = 0; c < k; ++c) {
        const double d = h.At(j, c) - mean[c];
        acc += d * d;
      }
    }
    out[i] = acc / static_cast<double>(neighbors.size());
  }
  return out;
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(a[i] - b[i]);
    if (!std::isfinite(d)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, d);
  }
  return worst;
}

int64_t FirstBitDifference(const std::vector<double>& a,
                           const std::vector<double>& b) {
  if (a.size() != b.size()) return 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

bool AucAgrees(double bench_auc, double program_auc) {
  return std::fabs(bench_auc - program_auc) <= 1e-12;
}

bool RecombinationAgrees(const std::vector<double>& structural,
                         const std::vector<double>& contextual,
                         const std::vector<double>& combined) {
  return MaxAbsDiff(RecombineMeanStd(structural, contextual), combined) <= 1e-9;
}

bool NeighborVarianceAgrees(const AttributedGraph& graph, const Tensor& h,
                            const std::vector<double>& structural) {
  return MaxAbsDiff(NeighborVariance(graph, h), structural) <= 1e-5;
}

bool ServedScoresAgree(const std::string& body, const std::vector<int>& nodes,
                       const std::vector<double>& want) {
  Result<vgod::obs::JsonValue> json = vgod::obs::ParseJson(body);
  if (!json.ok() || !json.value().Has("nodes") ||
      !json.value().Has("scores")) {
    return false;
  }
  std::vector<int> served_nodes;
  std::vector<double> scores;
  for (const vgod::obs::JsonValue& v : json.value().at("nodes").array()) {
    served_nodes.push_back(static_cast<int>(v.number()));
  }
  for (const vgod::obs::JsonValue& v : json.value().at("scores").array()) {
    scores.push_back(v.number());
  }
  return served_nodes == nodes && FirstBitDifference(scores, want) < 0;
}

bool IngestReplyAgrees(const std::string& body, size_t events, int touched) {
  Result<vgod::obs::JsonValue> json = vgod::obs::ParseJson(body);
  return json.ok() && json.value().Has("events_applied") &&
         json.value().Has("touched_nodes") &&
         json.value().at("events_applied").number() ==
             static_cast<double>(events) &&
         json.value().at("touched_nodes").number() ==
             static_cast<double>(touched);
}

bool WatchlistAgrees(const std::string& body,
                     const std::vector<double>& reference, int k) {
  Result<vgod::obs::JsonValue> json = vgod::obs::ParseJson(body);
  if (!json.ok() || !json.value().Has("watchlist") || k < 1 ||
      static_cast<int>(reference.size()) < k) {
    return false;
  }
  std::vector<double> sorted = reference;
  std::sort(sorted.rbegin(), sorted.rend());
  const double kth = sorted[k - 1];
  const auto& rows = json.value().at("watchlist").array();
  if (static_cast<int>(rows.size()) != k) return false;
  for (const vgod::obs::JsonValue& row : rows) {
    const int node = static_cast<int>(row.at("node").number());
    if (node < 0 || node >= static_cast<int>(reference.size())) return false;
    if (std::fabs(row.at("score").number() - reference[node]) > 1e-5 ||
        reference[node] < kth - 1e-5) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------ graph model

GraphModel::GraphModel(const AttributedGraph& graph)
    : adjacency_(graph.num_nodes()), rows_(graph.num_nodes()) {
  const int d = graph.attribute_dim();
  for (int i = 0; i < graph.num_nodes(); ++i) {
    const auto neighbors = graph.Neighbors(i);
    adjacency_[i].assign(neighbors.begin(), neighbors.end());
    rows_[i].resize(d);
    for (int c = 0; c < d; ++c) rows_[i][c] = graph.attributes().At(i, c);
  }
}

bool GraphModel::HasEdge(int u, int v) const {
  return std::binary_search(adjacency_[u].begin(), adjacency_[u].end(), v);
}

int GraphModel::Apply(const GraphEvent& event) {
  auto insert = [&](int a, int b) {
    auto& row = adjacency_[a];
    row.insert(std::lower_bound(row.begin(), row.end(), b), b);
  };
  auto erase = [&](int a, int b) {
    auto& row = adjacency_[a];
    row.erase(std::lower_bound(row.begin(), row.end(), b));
  };
  switch (event.type) {
    case EventType::kAddEdge:
      insert(event.u, event.v);
      insert(event.v, event.u);
      return 2;
    case EventType::kRemoveEdge:
      erase(event.u, event.v);
      erase(event.v, event.u);
      return 2;
    case EventType::kUpdateAttributes:
      rows_[event.node] = event.attributes;
      return Degree(event.node) + 1;
    case EventType::kAddNode:
      adjacency_.emplace_back();
      rows_.push_back(event.attributes);
      return 1;
  }
  return 0;
}

Result<AttributedGraph> GraphModel::Rebuild() const {
  const int n = num_nodes();
  const int d = rows_.empty() ? 0 : static_cast<int>(rows_[0].size());
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < n; ++u) {
    for (int32_t v : adjacency_[u]) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  Tensor attributes(n, d);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < d; ++c) attributes.SetAt(i, c, rows_[i][c]);
  }
  return AttributedGraph::FromEdgeList(n, edges, std::move(attributes), true);
}

std::vector<EventBatch> MakeEventBatches(const AttributedGraph& graph,
                                         uint64_t seed, int batches,
                                         int per_batch) {
  GraphModel model(graph);
  vgod::Rng rng(seed ^ 0xe7e27ULL);
  const int n = model.num_nodes();
  std::vector<EventBatch> out(batches);
  const int d = graph.attribute_dim();
  for (EventBatch& batch : out) {
    for (int e = 0; e < per_batch; ++e) {
      GraphEvent event;
      if (rng.Uniform() < kToggleShare) {
        // Edge toggle: a random pair, removed when present, else added.
        const int u = static_cast<int>(rng.UniformInt(n));
        int v = static_cast<int>(rng.UniformInt(n));
        if (u == v) v = (v + 1) % n;
        event = model.HasEdge(u, v) ? GraphEvent::RemoveEdge(u, v)
                                    : GraphEvent::AddEdge(u, v);
      } else {
        std::vector<float> row(d);
        for (float& x : row) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
        event = GraphEvent::UpdateAttributes(
            static_cast<int>(rng.UniformInt(n)), std::move(row));
      }
      model.Apply(event);
      batch.events.push_back(std::move(event));
    }
  }
  return out;
}


std::string EventBatchJson(const EventBatch& batch) {
  std::string out = "{\"events\":[";
  char buffer[48];
  for (size_t i = 0; i < batch.events.size(); ++i) {
    const GraphEvent& event = batch.events[i];
    if (i > 0) out.push_back(',');
    out += "{\"op\":\"";
    out += vgod::stream::EventTypeName(event.type);
    out += "\"";
    if (event.type == EventType::kAddEdge ||
        event.type == EventType::kRemoveEdge) {
      out += ",\"u\":" + std::to_string(event.u) +
             ",\"v\":" + std::to_string(event.v);
    } else {
      out += ",\"node\":" + std::to_string(event.node) + ",\"attributes\":[";
      for (size_t c = 0; c < event.attributes.size(); ++c) {
        if (c > 0) out.push_back(',');
        // %.9g round-trips a float through the server's double parse.
        std::snprintf(buffer, sizeof(buffer), "%.9g", event.attributes[c]);
        out += buffer;
      }
      out += "]";
    }
    out += "}";
  }
  out += "],\"compact\":";
  out += batch.compact ? "true" : "false";
  out += "}";
  return out;
}

namespace {

bool SameGraph(const AttributedGraph& a, const AttributedGraph& b) {
  if (a.num_nodes() != b.num_nodes() || a.row_ptr() != b.row_ptr() ||
      a.col_idx() != b.col_idx() ||
      a.attribute_dim() != b.attribute_dim()) {
    return false;
  }
  const size_t bytes = static_cast<size_t>(a.num_nodes()) *
                       static_cast<size_t>(a.attribute_dim()) * sizeof(float);
  return std::memcmp(a.attributes().data(), b.attributes().data(), bytes) == 0;
}

/// Unit-length rows, the form VBM's embeddings take (Eq. 6).
Tensor UnitRows(const Tensor& x) {
  Tensor out = x.Clone();
  for (int i = 0; i < out.rows(); ++i) {
    double norm = 0.0;
    for (int c = 0; c < out.cols(); ++c) norm += out.At(i, c) * out.At(i, c);
    if (norm <= 0.0) continue;
    const double inv = 1.0 / std::sqrt(norm);
    for (int c = 0; c < out.cols(); ++c) {
      out.SetAt(i, c, static_cast<float>(out.At(i, c) * inv));
    }
  }
  return out;
}

std::string ScoresBody(const std::vector<int>& nodes,
                       const std::vector<double>& scores) {
  std::string out = "{\"nodes\":[";
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(nodes[i]);
  }
  out += "],\"scores\":[";
  for (size_t i = 0; i < scores.size(); ++i) {
    if (i > 0) out.push_back(',');
    vgod::obs::AppendJsonNumber(&out, scores[i]);
  }
  out += "]}";
  return out;
}

std::string WatchlistBody(const std::vector<std::pair<int, double>>& rows) {
  std::string out = "{\"watchlist\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "{\"node\":" + std::to_string(rows[i].first) + ",\"score\":";
    vgod::obs::AppendJsonNumber(&out, rows[i].second);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace

int RunSelfTest(Report* report) {
  int missed = 0;
  // Each check must accept the true value and reject a perturbed one.
  auto expect = [&](const std::string& name, bool accepts_true,
                    bool accepts_perturbed) {
    const bool ok = accepts_true && !accepts_perturbed;
    if (!ok) ++missed;
    report->Check(ok, "selftest." + name,
                  accepts_true ? "(perturbation not detected)"
                               : "(rejects the true value)");
  };

  Result<vgod::datasets::Dataset> dataset =
      vgod::datasets::MakeDataset("cora", 0.1, 3);
  if (!dataset.ok()) {
    report->Check(false, "selftest.dataset", dataset.status().ToString());
    return 1;
  }
  const AttributedGraph& graph = dataset.value().graph;
  const int n = graph.num_nodes();
  vgod::Rng rng(11);

  // AUC: the benchmark's rank statistic against the program's.
  std::vector<double> scores(n);
  std::vector<uint8_t> labels(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = std::floor(rng.Uniform() * 20.0);  // ties on purpose
    labels[i] = rng.Uniform() < 0.2 ? 1 : 0;
  }
  const double program_auc = vgod::eval::Auc(scores, labels);
  const double bench_auc = RankAuc(scores, labels);
  expect("auc", AucAgrees(bench_auc, program_auc),
         AucAgrees(bench_auc, program_auc + 1e-6));

  // Eq. 19 recombination against the program's normalize + combine.
  std::vector<double> structural(n);
  std::vector<double> contextual(n);
  for (int i = 0; i < n; ++i) {
    structural[i] = rng.Uniform();
    contextual[i] = rng.Uniform() * 5.0;
  }
  const std::vector<double> combined = vgod::eval::CombineScores(
      vgod::eval::MeanStdNormalize(structural),
      vgod::eval::MeanStdNormalize(contextual));
  std::vector<double> perturbed = combined;
  perturbed[n / 2] += 1e-6;
  expect("eq19_recombination",
         RecombinationAgrees(structural, contextual, combined),
         RecombinationAgrees(structural, contextual, perturbed));

  // Eq. 7-9 neighbor variance against the program's kernel, on unit rows
  // as VBM produces them.
  const Tensor h = UnitRows(Tensor::RandomNormal(n, 16, 0.0f, 1.0f, &rng));
  const Tensor kernel = vgod::graph_ops::NeighborVarianceScore(graph, h);
  std::vector<double> program_nv(n);
  for (int i = 0; i < n; ++i) program_nv[i] = kernel.At(i, 0);
  std::vector<double> nv_perturbed = program_nv;
  nv_perturbed[n / 3] += 1e-3;
  expect("neighbor_variance", NeighborVarianceAgrees(graph, h, program_nv),
         NeighborVarianceAgrees(graph, h, nv_perturbed));

  // Served scores, bit for bit, through the program's JSON number writer.
  const std::vector<int> nodes = {3, 1, 4, 1, 5};
  std::vector<double> want;
  for (int node : nodes) want.push_back(combined[node]);
  std::vector<double> served = want;
  served[2] = std::nextafter(served[2], 1e9);
  expect("served_scores_bit_identical",
         ServedScoresAgree(ScoresBody(nodes, want), nodes, want),
         ServedScoresAgree(ScoresBody(nodes, served), nodes, want));

  // Replay an event schedule through the program's stream store and online
  // scorer (embedding to unit rows): /ingest replies against the
  // benchmark's graph model, the rebuild from the event log against the
  // store, and the scorer's top 10 against recomputed neighbor variance.
  const std::vector<EventBatch> batches =
      MakeEventBatches(graph, 5, 12, kEventsPerBatch);
  vgod::stream::DeltaGraphStore store{AttributedGraph(graph)};
  vgod::stream::OnlineScorerConfig scorer_config;
  scorer_config.embed = [](const Tensor& rows) -> Result<Tensor> {
    return UnitRows(rows);
  };
  Result<vgod::stream::OnlineScorer> scorer =
      vgod::stream::OnlineScorer::Create(&store, scorer_config);
  if (!scorer.ok()) {
    report->Check(false, "selftest.event_log", scorer.status().ToString());
    return missed + 1;
  }
  GraphModel model(graph);
  GraphModel dropped(graph);
  bool replies_agree = true;
  bool perturbed_replies_agree = true;
  const GraphEvent* last = &batches.back().events.back();
  for (const EventBatch& batch : batches) {
    if (!store.ValidateBatch(batch.events).ok()) {
      report->Check(false, "selftest.event_log", "store rejected a batch");
      return missed + 1;
    }
    int reported = 0;
    int expected = 0;
    for (const GraphEvent& event : batch.events) {
      store.ApplyOne(event);
      const Result<int> touched = scorer.value().ApplyOne(event);
      reported += touched.ok() ? touched.value() : -1;
      expected += model.Apply(event);
      // The perturbed log loses its last event, whose effect no later
      // event can overwrite.
      if (&event != last) dropped.Apply(event);
    }
    const std::string reply =
        "{\"events_applied\":" + std::to_string(batch.events.size()) +
        ",\"touched_nodes\":" + std::to_string(reported) + "}";
    replies_agree = replies_agree &&
                    IngestReplyAgrees(reply, batch.events.size(), expected);
    // The perturbed expectation is one node off on the first batch only.
    perturbed_replies_agree =
        perturbed_replies_agree &&
        IngestReplyAgrees(reply, batch.events.size(),
                          expected + (&batch == &batches.front() ? 1 : 0));
  }
  expect("ingest_touched_nodes", replies_agree, perturbed_replies_agree);

  store.Compact();
  const auto snapshot = store.Snapshot();
  Result<AttributedGraph> rebuilt = model.Rebuild();
  Result<AttributedGraph> rebuilt_dropped = dropped.Rebuild();
  expect("graph_rebuild", rebuilt.ok() && SameGraph(*snapshot, rebuilt.value()),
         rebuilt_dropped.ok() && SameGraph(*snapshot, rebuilt_dropped.value()));
  if (!rebuilt.ok()) return missed + 1;

  constexpr int kTop = 10;
  const std::vector<double> reference =
      NeighborVariance(rebuilt.value(), UnitRows(rebuilt.value().attributes()));
  const std::vector<std::pair<int, double>> top = scorer.value().TopK(kTop);
  std::vector<std::pair<int, double>> off_score = top;
  off_score[kTop / 2].second += 1e-3;
  // Swap the last row for the 11th-ranked node, with its true score.
  std::vector<int> ranked(reference.size());
  std::iota(ranked.begin(), ranked.end(), 0);
  std::sort(ranked.begin(), ranked.end(), [&](int a, int b) {
    return reference[a] > reference[b];
  });
  std::vector<std::pair<int, double>> outside = top;
  outside.back() = {ranked[kTop], reference[ranked[kTop]]};
  const bool top_ok = WatchlistAgrees(WatchlistBody(top), reference, kTop);
  expect("watchlist_score", top_ok,
         WatchlistAgrees(WatchlistBody(off_score), reference, kTop));
  expect("watchlist_top_k", top_ok,
         WatchlistAgrees(WatchlistBody(outside), reference, kTop));
  return missed;
}

}  // namespace perfbench
