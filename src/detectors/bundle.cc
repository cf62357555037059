#include "detectors/bundle.h"

#include <cstring>
#include <fstream>

#include "core/faultinject.h"

namespace vgod::detectors {
namespace {

// Streaming FNV-1a over the serialized payload. Cheap, dependency-free,
// and enough to catch truncation and bit rot; this is an integrity check,
// not a cryptographic one.
class Fnv1a {
 public:
  void Update(const void* data, size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t Digest() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void WriteRaw(std::ofstream* out, Fnv1a* sum, const void* data, size_t len) {
  out->write(static_cast<const char*>(data),
             static_cast<std::streamsize>(len));
  if (sum != nullptr) sum->Update(data, len);
}

template <typename T>
void WriteScalar(std::ofstream* out, Fnv1a* sum, T value) {
  WriteRaw(out, sum, &value, sizeof(value));
}

bool ReadRaw(std::ifstream* in, Fnv1a* sum, void* data, size_t len) {
  // "bundle.read=fail[@N]" (faultinject.h) forces the Nth read to come up
  // short, exercising every truncation branch of LoadBundle on demand.
  if (faults::ShouldFail("bundle.read")) return false;
  in->read(static_cast<char*>(data), static_cast<std::streamsize>(len));
  if (in->gcount() != static_cast<std::streamsize>(len)) return false;
  if (sum != nullptr) sum->Update(data, len);
  return true;
}

template <typename T>
bool ReadScalar(std::ifstream* in, Fnv1a* sum, T* value) {
  return ReadRaw(in, sum, value, sizeof(*value));
}

// Caps that a well-formed bundle never hits; reads beyond them mean a
// corrupt or hostile file and fail instead of allocating wildly.
constexpr uint32_t kMaxStringLen = 1 << 20;       // 1 MiB of name/config.
constexpr uint32_t kMaxParamCount = 1 << 16;
constexpr int64_t kMaxTensorElems = int64_t{1} << 31;

}  // namespace

double ConfigNumber(const obs::JsonValue& config, const std::string& key,
                    double fallback) {
  const obs::JsonValue& value = config.at(key);
  return value.is_number() ? value.number() : fallback;
}

bool ConfigBool(const obs::JsonValue& config, const std::string& key,
                bool fallback) {
  const obs::JsonValue& value = config.at(key);
  return value.is_bool() ? value.boolean() : fallback;
}

std::string ConfigString(const obs::JsonValue& config, const std::string& key,
                         const std::string& fallback) {
  const obs::JsonValue& value = config.at(key);
  return value.is_string() ? value.string_value() : fallback;
}

Status SaveBundle(const ModelBundle& bundle, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for writing: " + path);

  out.write(kBundleMagic, 8);
  WriteScalar<uint32_t>(&out, nullptr, kBundleFormatVersion);

  Fnv1a sum;
  const std::string config_json =
      bundle.config.is_null() ? std::string("{}") : bundle.config.Dump();
  WriteScalar<uint32_t>(&out, &sum,
                        static_cast<uint32_t>(bundle.detector.size()));
  WriteRaw(&out, &sum, bundle.detector.data(), bundle.detector.size());
  WriteScalar<uint32_t>(&out, &sum, static_cast<uint32_t>(config_json.size()));
  WriteRaw(&out, &sum, config_json.data(), config_json.size());
  WriteScalar<uint32_t>(&out, &sum,
                        static_cast<uint32_t>(bundle.params.size()));
  for (const Tensor& tensor : bundle.params) {
    WriteScalar<int32_t>(&out, &sum, tensor.rows());
    WriteScalar<int32_t>(&out, &sum, tensor.cols());
    WriteRaw(&out, &sum, tensor.data(), sizeof(float) * tensor.size());
  }
  WriteScalar<uint64_t>(&out, nullptr, sum.Digest());

  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<ModelBundle> LoadBundle(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);

  char magic[8];
  if (!ReadRaw(&in, nullptr, magic, sizeof(magic))) {
    return Status::InvalidArgument("not a vgod bundle (too short): " + path);
  }
  if (std::memcmp(magic, kBundleMagic, 8) != 0) {
    return Status::InvalidArgument("not a vgod bundle (bad magic): " + path);
  }
  uint32_t version = 0;
  if (!ReadScalar(&in, nullptr, &version)) {
    return Status::InvalidArgument("truncated bundle header: " + path);
  }
  if (version != kBundleFormatVersion) {
    return Status::InvalidArgument(
        "unsupported bundle format version " + std::to_string(version) +
        " (expected " + std::to_string(kBundleFormatVersion) + "): " + path);
  }

  Fnv1a sum;
  auto read_string = [&](std::string* value) -> Status {
    uint32_t len = 0;
    if (!ReadScalar(&in, &sum, &len)) {
      return Status::InvalidArgument("truncated bundle: " + path);
    }
    if (len > kMaxStringLen) {
      return Status::InvalidArgument("corrupt bundle (oversized field): " +
                                     path);
    }
    value->resize(len);
    if (len > 0 && !ReadRaw(&in, &sum, value->data(), len)) {
      return Status::InvalidArgument("truncated bundle: " + path);
    }
    return Status::Ok();
  };

  ModelBundle bundle;
  std::string config_json;
  VGOD_RETURN_IF_ERROR(read_string(&bundle.detector));
  VGOD_RETURN_IF_ERROR(read_string(&config_json));
  Result<obs::JsonValue> config = obs::ParseJson(config_json);
  if (!config.ok()) {
    return Status::InvalidArgument("corrupt bundle config JSON in " + path +
                                   ": " + config.status().message());
  }
  bundle.config = std::move(config).value();

  uint32_t count = 0;
  if (!ReadScalar(&in, &sum, &count)) {
    return Status::InvalidArgument("truncated bundle: " + path);
  }
  if (count > kMaxParamCount) {
    return Status::InvalidArgument("corrupt bundle (parameter count " +
                                   std::to_string(count) + "): " + path);
  }
  bundle.params.reserve(count);
  for (uint32_t p = 0; p < count; ++p) {
    int32_t rows = 0, cols = 0;
    if (!ReadScalar(&in, &sum, &rows) || !ReadScalar(&in, &sum, &cols)) {
      return Status::InvalidArgument("truncated tensor header in " + path);
    }
    if (rows < 0 || cols < 0 ||
        static_cast<int64_t>(rows) * cols > kMaxTensorElems) {
      return Status::InvalidArgument("corrupt tensor shape in " + path);
    }
    Tensor tensor(rows, cols);
    if (!ReadRaw(&in, &sum, tensor.data(), sizeof(float) * tensor.size())) {
      return Status::InvalidArgument("truncated tensor data in " + path);
    }
    bundle.params.push_back(std::move(tensor));
  }

  uint64_t stored_sum = 0;
  if (!ReadScalar(&in, nullptr, &stored_sum)) {
    return Status::InvalidArgument("truncated bundle checksum: " + path);
  }
  if (stored_sum != sum.Digest()) {
    return Status::InvalidArgument("bundle checksum mismatch: " + path);
  }
  return bundle;
}

Status AssignParameters(const std::vector<Tensor>& values,
                        std::vector<Variable>* params) {
  if (values.size() != params->size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: bundle has " +
        std::to_string(values.size()) + ", model expects " +
        std::to_string(params->size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (!values[i].SameShape((*params)[i].value())) {
      return Status::InvalidArgument(
          "parameter " + std::to_string(i) + " shape mismatch: bundle " +
          values[i].ShapeString() + ", model " +
          (*params)[i].value().ShapeString());
    }
    (*params)[i].SetValue(values[i]);
  }
  return Status::Ok();
}

}  // namespace vgod::detectors
