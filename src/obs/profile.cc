#include "obs/profile.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "obs/trace.h"

namespace vgod::obs {

namespace profile_internal {

/// One node of a per-thread call tree. Accumulators are relaxed atomics
/// (owner thread adds, snapshotters read). `children` is only grown by
/// the owning thread and only under the owning ThreadProfile's mutex,
/// which snapshotters also take for traversal — owner-side reads between
/// insertions are lock-free because nobody else ever writes.
struct LiveNode {
  explicit LiveNode(const char* node_name, LiveNode* parent_node)
      : name(node_name), parent(parent_node) {}

  const char* name;  // string literal; stored by pointer
  LiveNode* parent;
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> inclusive_ns{0};
  std::atomic<int64_t> bytes{0};
  std::atomic<int64_t> peak_bytes{0};
  std::vector<std::unique_ptr<LiveNode>> children;
};

std::atomic<uint32_t> g_sinks{0};

void SetSink(uint32_t sink, bool enabled) {
  if (enabled) {
    g_sinks.fetch_or(sink, std::memory_order_relaxed);
  } else {
    g_sinks.fetch_and(~sink, std::memory_order_relaxed);
  }
}

namespace {

struct ThreadProfile {
  std::mutex mu;  // guards `children` growth against snapshot traversal
  LiveNode root{"", nullptr};
  LiveNode* current = &root;  // owner-thread only
};

struct ThreadRegistry {
  std::mutex mu;
  // shared_ptr keeps trees of exited threads alive for later snapshots.
  std::vector<std::shared_ptr<ThreadProfile>> threads;
};

ThreadRegistry& Registry() {
  static ThreadRegistry* registry = new ThreadRegistry();
  return *registry;
}

ThreadProfile& LocalThreadProfile() {
  thread_local std::shared_ptr<ThreadProfile> profile = [] {
    auto created = std::make_shared<ThreadProfile>();
    ThreadRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.threads.push_back(created);
    return created;
  }();
  return *profile;
}

void ZeroTree(LiveNode* node) {
  node->calls.store(0, std::memory_order_relaxed);
  node->inclusive_ns.store(0, std::memory_order_relaxed);
  node->bytes.store(0, std::memory_order_relaxed);
  node->peak_bytes.store(0, std::memory_order_relaxed);
  for (const std::unique_ptr<LiveNode>& child : node->children) {
    ZeroTree(child.get());
  }
}

void MergeTree(const LiveNode* live, ProfileNode* out) {
  out->calls += live->calls.load(std::memory_order_relaxed);
  out->inclusive_ns += live->inclusive_ns.load(std::memory_order_relaxed);
  out->bytes += live->bytes.load(std::memory_order_relaxed);
  out->peak_bytes = std::max(
      out->peak_bytes, live->peak_bytes.load(std::memory_order_relaxed));
  for (const std::unique_ptr<LiveNode>& child : live->children) {
    ProfileNode* slot = nullptr;
    for (ProfileNode& existing : out->children) {
      if (existing.name == child->name) {
        slot = &existing;
        break;
      }
    }
    if (slot == nullptr) {
      out->children.emplace_back();
      slot = &out->children.back();
      slot->name = child->name;
    }
    MergeTree(child.get(), slot);
  }
}

/// Sorts children by name, raises inclusive to cover children still open
/// when the window closed, and derives exclusive time.
void FinalizeTree(ProfileNode* node) {
  std::sort(node->children.begin(), node->children.end(),
            [](const ProfileNode& a, const ProfileNode& b) {
              return a.name < b.name;
            });
  int64_t child_sum = 0;
  for (ProfileNode& child : node->children) {
    FinalizeTree(&child);
    child_sum += child.inclusive_ns;
  }
  node->inclusive_ns = std::max(node->inclusive_ns, child_sum);
  node->exclusive_ns = node->inclusive_ns - child_sum;
}

void AppendFolded(const ProfileNode& node, const std::string& prefix,
                  std::vector<std::string>* lines) {
  for (const ProfileNode& child : node.children) {
    const std::string path =
        prefix.empty() ? child.name : prefix + ";" + child.name;
    if (child.exclusive_ns > 0 || child.children.empty()) {
      lines->push_back(path + " " + std::to_string(child.exclusive_ns));
    }
    AppendFolded(child, path, lines);
  }
}

void AppendJson(const ProfileNode& node, std::ostringstream* out) {
  *out << "{\"name\":\"" << node.name << "\",\"calls\":" << node.calls
       << ",\"inclusive_ns\":" << node.inclusive_ns
       << ",\"exclusive_ns\":" << node.exclusive_ns
       << ",\"bytes\":" << node.bytes
       << ",\"peak_bytes\":" << node.peak_bytes << ",\"children\":[";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) *out << ",";
    AppendJson(node.children[i], out);
  }
  *out << "]}";
}

}  // namespace

int64_t ProfileNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LiveNode* EnterScope(const char* name) {
  ThreadProfile& profile = LocalThreadProfile();
  LiveNode* parent = profile.current;
  for (const std::unique_ptr<LiveNode>& child : parent->children) {
    // Scope names are literals, so pointer equality catches the common
    // case; strcmp handles the same name reaching a path from two TUs.
    if (child->name == name || std::strcmp(child->name, name) == 0) {
      profile.current = child.get();
      return child.get();
    }
  }
  auto created = std::make_unique<LiveNode>(name, parent);
  LiveNode* node = created.get();
  {
    std::lock_guard<std::mutex> lock(profile.mu);
    parent->children.push_back(std::move(created));
  }
  profile.current = node;
  return node;
}

void LeaveScope(LiveNode* node, int64_t elapsed_ns) {
  node->calls.fetch_add(1, std::memory_order_relaxed);
  node->inclusive_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  LocalThreadProfile().current = node->parent;
}

}  // namespace profile_internal

void Scope::Enter(const char* name, uint32_t sinks) {
  sinks_ = sinks;
  name_ = name;
  start_ns_ = profile_internal::ProfileNowNs();
  if (profiling()) node_ = profile_internal::EnterScope(name);
}

void Scope::Leave() {
  const int64_t end_ns = profile_internal::ProfileNowNs();
  if (profiling()) profile_internal::LeaveScope(node_, end_ns - start_ns_);
  if ((sinks_ & profile_internal::kTraceSink) != 0) {
    const int64_t start_us = TraceMicrosAt(start_ns_);
    RecordCompleteEvent(name_, start_us, TraceMicrosAt(end_ns) - start_us);
  }
}

void Scope::MergePeakBytes(int64_t peak_bytes) {
  int64_t seen = node_->peak_bytes.load(std::memory_order_relaxed);
  while (peak_bytes > seen && !node_->peak_bytes.compare_exchange_weak(
                                  seen, peak_bytes,
                                  std::memory_order_relaxed)) {
  }
}

bool ProfileEnabled() {
  return (profile_internal::g_sinks.load(std::memory_order_relaxed) &
          profile_internal::kProfileSink) != 0;
}

void SetProfileEnabled(bool enabled) {
  profile_internal::SetSink(profile_internal::kProfileSink, enabled);
}

namespace {

std::string& ProfileEnvPathStorage() {
  static std::string* path = new std::string();
  return *path;
}

}  // namespace

void InitProfileFromEnv() {
  const char* value = std::getenv("VGOD_PROFILE");
  if (value == nullptr || value[0] == '\0' ||
      std::strcmp(value, "0") == 0) {
    return;
  }
  // Like VGOD_TRACE: a path-looking value ("out/profile.json",
  // "score.folded") doubles as the export destination.
  const std::string text(value);
  if (text.find('/') != std::string::npos ||
      text.find('.') != std::string::npos) {
    ProfileEnvPathStorage() = text;
  }
  SetProfileEnabled(true);
}

std::string ProfileEnvPath() { return ProfileEnvPathStorage(); }

void ClearProfile() {
  using profile_internal::Registry;
  using profile_internal::ThreadRegistry;
  std::vector<std::shared_ptr<profile_internal::ThreadProfile>> threads;
  {
    ThreadRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    threads = registry.threads;
  }
  for (const auto& profile : threads) {
    std::lock_guard<std::mutex> lock(profile->mu);
    profile_internal::ZeroTree(&profile->root);
  }
}

ProfileNode SnapshotProfile() {
  using profile_internal::Registry;
  using profile_internal::ThreadRegistry;
  std::vector<std::shared_ptr<profile_internal::ThreadProfile>> threads;
  {
    ThreadRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    threads = registry.threads;
  }
  ProfileNode root;
  for (const auto& profile : threads) {
    std::lock_guard<std::mutex> lock(profile->mu);
    profile_internal::MergeTree(&profile->root, &root);
  }
  // The per-thread roots carry no time of their own; the aggregate root
  // reports the sum of its children (FinalizeTree raises it).
  root.calls = 0;
  root.inclusive_ns = 0;
  root.bytes = 0;
  profile_internal::FinalizeTree(&root);
  return root;
}

std::string ProfileToJson(const ProfileNode& root) {
  std::ostringstream out;
  profile_internal::AppendJson(root, &out);
  return out.str();
}

std::string ProfileToJson() { return ProfileToJson(SnapshotProfile()); }

std::string ProfileToFolded(const ProfileNode& root) {
  std::vector<std::string> lines;
  profile_internal::AppendFolded(root, "", &lines);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += "\n";
  }
  return out;
}

std::string ProfileToFolded() { return ProfileToFolded(SnapshotProfile()); }

Status WriteProfile(const std::string& path) {
  std::ofstream file(path);
  if (!file) return Status::IoError("cannot write profile to " + path);
  const bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
  if (json) {
    file << ProfileToJson() << "\n";
  } else {
    file << ProfileToFolded();
  }
  if (!file) return Status::IoError("failed writing profile to " + path);
  return Status::Ok();
}

void ProfileAddBytes(int64_t bytes) {
  if (!ProfileEnabled()) return;
  profile_internal::LiveNode* node =
      profile_internal::LocalThreadProfile().current;
  if (node->parent == nullptr) return;  // no open scope on this thread
  node->bytes.fetch_add(bytes, std::memory_order_relaxed);
}

}  // namespace vgod::obs
