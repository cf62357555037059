#ifndef VGOD_OBS_PROFILE_H_
#define VGOD_OBS_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "obs/memory.h"

namespace vgod::obs {

/// Hierarchical compute profiler, one of the two sinks of VGOD_SCOPE (the
/// other is the trace ring, obs/trace.h). Scoped regions maintain a
/// thread-local call stack; each distinct stack path becomes a node in a
/// per-thread call tree holding relaxed-atomic accumulators (inclusive
/// ns, call count, bytes touched, peak tensor bytes). SnapshotProfile()
/// merges the per-thread trees by path into one aggregate tree with
/// deterministic (name-sorted) child order, from which ProfileToJson() /
/// ProfileToFolded() derive the exports.
///
/// Cost model: with both sinks off, a scope is one relaxed atomic load
/// and a branch. Profiling adds a thread-local lookup, a child search by
/// pointer/strcmp over a handful of siblings, and two steady-clock reads
/// — no locks on the hot path. Tree-structure mutation (first visit of a
/// path) takes a per-thread mutex shared only with snapshotters, so the
/// profiler stays TSan-clean, and it never reorders or partitions work,
/// so profiled runs produce bit-identical numeric output.
///
/// Scope names must be string literals (or otherwise outlive the
/// process); they are stored by pointer on the hot path.

/// Aggregated snapshot node. `exclusive_ns` is inclusive minus the sum of
/// child inclusive time (clamped at zero); the snapshot also raises each
/// parent's inclusive time to at least the sum of its children so the
/// tree invariant (sum of child inclusive <= parent inclusive) holds even
/// when a window closes while scopes are still open.
struct ProfileNode {
  std::string name;
  int64_t calls = 0;
  int64_t inclusive_ns = 0;
  int64_t exclusive_ns = 0;
  int64_t bytes = 0;
  int64_t peak_bytes = 0;
  std::vector<ProfileNode> children;  // sorted by name
};

/// Global on/off switch of the profile sink.
bool ProfileEnabled();
void SetProfileEnabled(bool enabled);

/// Applies the VGOD_PROFILE environment variable: unset, "" or "0"
/// leaves profiling off; anything else turns it on. A value containing a
/// '/' or '.' (e.g. "out/profile.json") additionally becomes the export
/// path reported by ProfileEnvPath().
void InitProfileFromEnv();

/// Export path parsed from VGOD_PROFILE by InitProfileFromEnv(), or "".
std::string ProfileEnvPath();

/// Zeroes every accumulator on every thread's tree. Node structure (and
/// any pointers held by live scopes) stays valid, so this is safe to call
/// while scopes are open — their time lands in the fresh window.
void ClearProfile();

/// Merges all per-thread trees into one aggregate tree. The root has an
/// empty name and zero counters of its own; its children are the
/// top-level regions. Safe to call from any thread at any time.
ProfileNode SnapshotProfile();

/// Deterministic JSON tree:
///   {"name":"","calls":N,"inclusive_ns":N,"exclusive_ns":N,
///    "bytes":N,"peak_bytes":N,"children":[...]}
/// The zero-arg form snapshots first.
std::string ProfileToJson(const ProfileNode& root);
std::string ProfileToJson();

/// Folded-stack export ("frame;frame;frame <exclusive_ns>" per line,
/// sorted), directly consumable by flamegraph.pl or speedscope. The
/// zero-arg form snapshots first.
std::string ProfileToFolded(const ProfileNode& root);
std::string ProfileToFolded();

/// Writes ProfileToJson() when `path` ends in ".json", else the folded
/// stacks.
Status WriteProfile(const std::string& path);

/// Attributes `bytes` of memory traffic to the innermost open scope on
/// this thread. No-op when profiling is off or no scope is open.
void ProfileAddBytes(int64_t bytes);

namespace profile_internal {

/// ProfileEnabled() and TraceEnabled() are bits of one word, so a scope
/// with both sinks off costs a single relaxed load and a branch.
inline constexpr uint32_t kProfileSink = 1;
inline constexpr uint32_t kTraceSink = 2;
extern std::atomic<uint32_t> g_sinks;

void SetSink(uint32_t sink, bool enabled);

struct LiveNode;  // one call-tree node; defined in profile.cc

int64_t ProfileNowNs();  // steady clock, ns since its epoch

}  // namespace profile_internal

/// RAII region; prefer the VGOD_SCOPE macro. Feeds the profile tree and
/// the trace ring (one complete event) from one clock read at entry and
/// one at exit. The sinks are sampled at entry and kept until exit.
class Scope {
 public:
  explicit Scope(const char* name) {
    const uint32_t sinks =
        profile_internal::g_sinks.load(std::memory_order_relaxed);
    if (sinks != 0) Enter(name, sinks);
  }
  ~Scope() {
    if (sinks_ != 0) Leave();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// True when this region entered the profile tree.
  bool profiling() const {
    return (sinks_ & profile_internal::kProfileSink) != 0;
  }

  /// Max-merges a tensor-memory peak into the tree node; needs profiling().
  void MergePeakBytes(int64_t peak_bytes);

 private:
  void Enter(const char* name, uint32_t sinks);
  void Leave();

  uint32_t sinks_ = 0;  // the rest is set by Enter() alone
  const char* name_;
  profile_internal::LiveNode* node_;
  int64_t start_ns_;
};

/// Scope that additionally windows the global tensor
/// high-water mark (ResetPeakTensorBytes on entry, RaisePeakTensorBytes
/// on exit) and attributes the phase peak to the scope's tree node. The
/// enclosing peak is restored on exit, so outer accounting — e.g.
/// TrainingRun's per-epoch peaks — still reads the true maximum. The
/// global mark is only touched while profiling is enabled; phase peaks
/// are meaningful for single-flow phases (training), not for concurrent
/// scoring, which uses per-thread windows instead.
class MemoryPhase {
 public:
  explicit MemoryPhase(const char* name) : scope_(name) {
    if (scope_.profiling()) {
      outer_peak_ = PeakTensorBytes();
      ResetPeakTensorBytes();
    }
  }
  ~MemoryPhase() {
    if (scope_.profiling()) {
      scope_.MergePeakBytes(PeakTensorBytes());
      RaisePeakTensorBytes(outer_peak_);
    }
  }
  MemoryPhase(const MemoryPhase&) = delete;
  MemoryPhase& operator=(const MemoryPhase&) = delete;

 private:
  Scope scope_;
  int64_t outer_peak_ = 0;
};

}  // namespace vgod::obs

#define VGOD_OBS_CONCAT_INNER(a, b) a##b
#define VGOD_OBS_CONCAT(a, b) VGOD_OBS_CONCAT_INNER(a, b)
#define VGOD_SCOPE(name) \
  ::vgod::obs::Scope VGOD_OBS_CONCAT(vgod_scope_, __LINE__)(name)
#define VGOD_MEMORY_PHASE(name)             \
  ::vgod::obs::MemoryPhase VGOD_OBS_CONCAT( \
      vgod_memory_phase_, __LINE__)(name)

#endif  // VGOD_OBS_PROFILE_H_
