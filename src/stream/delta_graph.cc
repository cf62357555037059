#include "stream/delta_graph.h"

#include <algorithm>
#include <map>
#include <utility>

#include "core/check.h"
#include "obs/profile.h"

namespace vgod::stream {
namespace {

/// Canonical undirected key for the batch-validation edge-state map.
std::pair<int, int> EdgeKey(int u, int v) {
  return u < v ? std::make_pair(u, v) : std::make_pair(v, u);
}

Status EventError(size_t index, const std::string& message) {
  return Status::InvalidArgument("event " + std::to_string(index) + ": " +
                                 message);
}

}  // namespace

DeltaGraphStore::DeltaGraphStore(AttributedGraph base) {
  VGOD_CHECK(base.has_attributes())
      << "DeltaGraphStore requires an attributed base graph";
  base_ = std::make_shared<const AttributedGraph>(std::move(base));
  cached_ = base_;
}

bool DeltaGraphStore::HasEdge(int u, int v) const {
  if (u < 0 || v < 0 || u >= num_nodes() || v >= num_nodes()) return false;
  if (auto it = delta_.find(u); it != delta_.end()) {
    const NodeDelta& nd = it->second;
    if (std::binary_search(nd.added.begin(), nd.added.end(), v)) return true;
    if (std::binary_search(nd.removed.begin(), nd.removed.end(), v)) {
      return false;
    }
  }
  return u < base_->num_nodes() && v < base_->num_nodes() &&
         base_->HasEdge(u, v);
}

int DeltaGraphStore::Degree(int node) const {
  int degree =
      node < base_->num_nodes() ? base_->Degree(node) : 0;
  if (auto it = delta_.find(node); it != delta_.end()) {
    degree += static_cast<int>(it->second.added.size()) -
              static_cast<int>(it->second.removed.size());
  }
  return degree;
}

void DeltaGraphStore::AppendCurrentNeighbors(int node,
                                             std::vector<int32_t>* out) const {
  std::span<const int32_t> base_row;
  if (node < base_->num_nodes()) base_row = base_->Neighbors(node);
  const auto it = delta_.find(node);
  if (it == delta_.end()) {
    out->insert(out->end(), base_row.begin(), base_row.end());
    return;
  }
  // Sorted merge: base row minus removed (a subset, walked in lockstep)
  // interleaved with added (disjoint from the base row).
  const NodeDelta& nd = it->second;
  size_t ai = 0;
  size_t ri = 0;
  for (int32_t v : base_row) {
    if (ri < nd.removed.size() && nd.removed[ri] == v) {
      ++ri;
      continue;
    }
    while (ai < nd.added.size() && nd.added[ai] < v) {
      out->push_back(nd.added[ai++]);
    }
    out->push_back(v);
  }
  while (ai < nd.added.size()) out->push_back(nd.added[ai++]);
}

std::vector<int32_t> DeltaGraphStore::CurrentNeighbors(int node) const {
  VGOD_CHECK(node >= 0 && node < num_nodes()) << "node out of range";
  std::vector<int32_t> out;
  out.reserve(static_cast<size_t>(std::max(Degree(node), 0)));
  AppendCurrentNeighbors(node, &out);
  return out;
}

std::vector<float> DeltaGraphStore::AttributeRow(int node) const {
  VGOD_CHECK(node >= 0 && node < num_nodes()) << "node out of range";
  const int base_nodes = base_->num_nodes();
  if (node >= base_nodes) return new_rows_[node - base_nodes];
  if (auto it = attr_override_.find(node); it != attr_override_.end()) {
    return it->second;
  }
  return base_->attributes().RowToVector(node);
}

Status DeltaGraphStore::ValidateBatch(
    const std::vector<GraphEvent>& events) const {
  const int dim = attribute_dim();
  int nodes = num_nodes();
  // Net in-batch edge state on top of the store: absent keys defer to
  // HasEdge. Tracks the sequence's own inserts/removes so e.g.
  // [add(1,2), remove(1,2), add(1,2)] validates.
  std::map<std::pair<int, int>, bool> pending;
  const auto edge_exists = [&](int u, int v) {
    if (auto it = pending.find(EdgeKey(u, v)); it != pending.end()) {
      return it->second;
    }
    return HasEdge(u, v);
  };

  for (size_t i = 0; i < events.size(); ++i) {
    const GraphEvent& event = events[i];
    switch (event.type) {
      case EventType::kAddEdge:
      case EventType::kRemoveEdge: {
        const bool insert = event.type == EventType::kAddEdge;
        if (event.u < 0 || event.u >= nodes || event.v < 0 ||
            event.v >= nodes) {
          return EventError(i, "endpoint (" + std::to_string(event.u) + "," +
                                   std::to_string(event.v) +
                                   ") outside graph of " +
                                   std::to_string(nodes) + " nodes");
        }
        if (event.u == event.v) {
          return EventError(i,
                            "self loops are managed by the detector's "
                            "self-loop technique, not ingest");
        }
        if (insert && edge_exists(event.u, event.v)) {
          return EventError(i, "edge (" + std::to_string(event.u) + "," +
                                   std::to_string(event.v) +
                                   ") already exists");
        }
        if (!insert && !edge_exists(event.u, event.v)) {
          return EventError(i, "edge (" + std::to_string(event.u) + "," +
                                   std::to_string(event.v) +
                                   ") does not exist");
        }
        pending[EdgeKey(event.u, event.v)] = insert;
        break;
      }
      case EventType::kAddNode: {
        if (static_cast<int>(event.attributes.size()) != dim) {
          return EventError(
              i, "attribute row has " +
                     std::to_string(event.attributes.size()) +
                     " values, graph attribute_dim is " +
                     std::to_string(dim));
        }
        ++nodes;
        break;
      }
      case EventType::kUpdateAttributes: {
        if (event.node < 0 || event.node >= nodes) {
          return EventError(i, "node " + std::to_string(event.node) +
                                   " outside graph of " +
                                   std::to_string(nodes) + " nodes");
        }
        if (static_cast<int>(event.attributes.size()) != dim) {
          return EventError(
              i, "attribute row has " +
                     std::to_string(event.attributes.size()) +
                     " values, graph attribute_dim is " +
                     std::to_string(dim));
        }
        break;
      }
    }
  }
  return Status::Ok();
}

void DeltaGraphStore::ToggleHalfEdge(int u, int v, bool insert) {
  NodeDelta& nd = delta_[u];
  // An insert of a base edge that was overlay-removed (or a remove of an
  // overlay-added edge) cancels the overlay entry instead of growing the
  // opposite list, so the overlay stays minimal.
  std::vector<int32_t>& cancel = insert ? nd.removed : nd.added;
  const auto it = std::lower_bound(cancel.begin(), cancel.end(), v);
  if (it != cancel.end() && *it == v) {
    cancel.erase(it);
    --overlay_edges_;
  } else {
    std::vector<int32_t>& grow = insert ? nd.added : nd.removed;
    grow.insert(std::lower_bound(grow.begin(), grow.end(), v), v);
    ++overlay_edges_;
  }
  if (nd.added.empty() && nd.removed.empty()) delta_.erase(u);
}

void DeltaGraphStore::ApplyOne(const GraphEvent& event) {
  switch (event.type) {
    case EventType::kAddEdge:
    case EventType::kRemoveEdge: {
      const bool insert = event.type == EventType::kAddEdge;
      VGOD_CHECK(event.u != event.v && event.u >= 0 && event.v >= 0 &&
                 event.u < num_nodes() && event.v < num_nodes())
          << "ApplyOne on an unvalidated edge event";
      VGOD_CHECK(HasEdge(event.u, event.v) != insert)
          << "ApplyOne on an unvalidated edge event";
      ToggleHalfEdge(event.u, event.v, insert);
      ToggleHalfEdge(event.v, event.u, insert);
      break;
    }
    case EventType::kAddNode: {
      VGOD_CHECK_EQ(static_cast<int>(event.attributes.size()),
                    attribute_dim());
      new_rows_.push_back(event.attributes);
      break;
    }
    case EventType::kUpdateAttributes: {
      VGOD_CHECK(event.node >= 0 && event.node < num_nodes());
      VGOD_CHECK_EQ(static_cast<int>(event.attributes.size()),
                    attribute_dim());
      const int base_nodes = base_->num_nodes();
      if (event.node >= base_nodes) {
        new_rows_[event.node - base_nodes] = event.attributes;
      } else {
        attr_override_[event.node] = event.attributes;
      }
      break;
    }
  }
  ++delta_ops_;
  dirty_ = true;
}

AttributedGraph DeltaGraphStore::Materialize() const {
  VGOD_SCOPE("stream/materialize");
  const int nodes = num_nodes();
  const int dim = attribute_dim();

  std::vector<int64_t> row_ptr(nodes + 1, 0);
  std::vector<int32_t> col_idx;
  col_idx.reserve(static_cast<size_t>(base_->num_directed_edges()) +
                  static_cast<size_t>(overlay_edges_));
  for (int i = 0; i < nodes; ++i) {
    AppendCurrentNeighbors(i, &col_idx);
    row_ptr[i + 1] = static_cast<int64_t>(col_idx.size());
  }

  Tensor attributes(nodes, dim);
  const int base_nodes = base_->num_nodes();
  const float* src = base_->attributes().data();
  float* dst = attributes.data();
  std::copy(src, src + static_cast<size_t>(base_nodes) * dim, dst);
  for (const auto& [node, row] : attr_override_) {
    std::copy(row.begin(), row.end(),
              dst + static_cast<size_t>(node) * dim);
  }
  for (size_t i = 0; i < new_rows_.size(); ++i) {
    std::copy(new_rows_[i].begin(), new_rows_[i].end(),
              dst + (static_cast<size_t>(base_nodes) + i) * dim);
  }

  Result<AttributedGraph> built = AttributedGraph::FromCsr(
      nodes, std::move(row_ptr), std::move(col_idx), std::move(attributes));
  VGOD_CHECK(built.ok()) << "materialized overlay is not a valid CSR: "
                         << built.status().ToString();
  return std::move(built).value();
}

std::shared_ptr<const AttributedGraph> DeltaGraphStore::Snapshot() {
  if (dirty_) {
    cached_ = std::make_shared<const AttributedGraph>(Materialize());
    dirty_ = false;
  }
  return cached_;
}

void DeltaGraphStore::Compact() {
  VGOD_SCOPE("stream/compact");
  base_ = Snapshot();
  delta_.clear();
  attr_override_.clear();
  new_rows_.clear();
  delta_ops_ = 0;
  overlay_edges_ = 0;
  ++compactions_;
}

}  // namespace vgod::stream
