#ifndef VGOD_DETECTORS_BUNDLE_H_
#define VGOD_DETECTORS_BUNDLE_H_

#include <string>
#include <vector>

#include "core/status.h"
#include "obs/json.h"
#include "tensor/autograd.h"
#include "tensor/tensor.h"

namespace vgod::detectors {

// Versioned binary checkpoint ("model bundle") for trained detectors — the
// one model file format: `vgod_cli detect --save-bundle` writes it and
// vgod_serve loads it, so a model trained once scores fresh graphs in
// another process (the paper's inductive setting). A bundle is
// self-describing: it names the detector, carries the architecture config
// as JSON, and checksums the parameter payload, so a load against the
// wrong model fails loudly instead of silently mis-assigning weights.
//
// On-disk layout (all integers little-endian):
//   8 bytes   magic "VGODBNDL"
//   u32       format version (kBundleFormatVersion)
//   u32       detector name length, then that many bytes
//   u32       config JSON length, then that many bytes
//   u32       parameter tensor count
//   per tensor: i32 rows, i32 cols, rows*cols float32 values
//   u64       FNV-1a checksum over everything after the version field

inline constexpr char kBundleMagic[9] = "VGODBNDL";  // 8 chars + NUL.
inline constexpr uint32_t kBundleFormatVersion = 1;

/// A detector checkpoint in memory: which detector, its architecture
/// config (detector-specific JSON object), and the trained parameter
/// tensors in the detector's canonical Parameters() order.
struct ModelBundle {
  std::string detector;
  obs::JsonValue config;
  std::vector<Tensor> params;
};

/// Writes `bundle` to `path` in the binary format above.
Status SaveBundle(const ModelBundle& bundle, const std::string& path);

/// Typed lookups into a bundle's config object, with fallbacks for keys a
/// (possibly older) bundle does not carry.
double ConfigNumber(const obs::JsonValue& config, const std::string& key,
                    double fallback);
bool ConfigBool(const obs::JsonValue& config, const std::string& key,
                bool fallback);
std::string ConfigString(const obs::JsonValue& config, const std::string& key,
                         const std::string& fallback);

/// Reads a bundle written by SaveBundle. Rejects bad magic, unknown
/// format versions, truncated payloads, and checksum mismatches.
Result<ModelBundle> LoadBundle(const std::string& path);

/// Copies a bundle's `values` into a rebuilt module's `params` in order
/// (the detectors' RestoreFromBundle). Fails on count or shape mismatch,
/// i.e. the bundle was written by a model with a different architecture.
Status AssignParameters(const std::vector<Tensor>& values,
                        std::vector<Variable>* params);

}  // namespace vgod::detectors

#endif  // VGOD_DETECTORS_BUNDLE_H_
