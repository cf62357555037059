#include "core/args.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace vgod {

Result<ArgParser> ArgParser::Parse(int argc, const char* const* argv) {
  ArgParser parser;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      parser.positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    const std::string key = eq == std::string::npos ? body : body.substr(0, eq);
    if (key.empty()) {
      return Status::InvalidArgument("malformed option: " + arg);
    }
    parser.options_[key] =
        eq == std::string::npos ? "" : body.substr(eq + 1);
  }
  return parser;
}

std::string ArgParser::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

double ArgParser::GetDouble(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end() || it->second.empty()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    return Invalid(key, fallback);
  }
  return value;
}

int64_t ArgParser::GetInt(const std::string& key, int64_t fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end() || it->second.empty()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    return Invalid(key, fallback);
  }
  return value;
}

template <typename T>
T ArgParser::Invalid(const std::string& key, T fallback) const {
  if (status_.ok()) {
    status_ = Status::InvalidArgument("invalid value for --" + key + ": " +
                                      options_.at(key));
  }
  return fallback;
}

bool ArgParser::GetBool(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return false;
  return it->second.empty() || it->second == "true" || it->second == "1";
}

Status ArgParser::Validate(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : options_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      return Status::InvalidArgument("unknown option: --" + key);
    }
  }
  return Status::Ok();
}

}  // namespace vgod
