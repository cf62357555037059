#ifndef VGOD_CORE_ARGS_H_
#define VGOD_CORE_ARGS_H_

#include <map>
#include <string>
#include <vector>

#include "core/status.h"

namespace vgod {

/// Minimal command-line parser for the repository's tools:
/// positional arguments plus "--key=value" and boolean "--flag" options.
/// Unknown options are rejected at Validate() time so typos fail loudly.
class ArgParser {
 public:
  /// Parses argv (argv[0] is skipped). Malformed options ("--=x") fail.
  static Result<ArgParser> Parse(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

  bool HasOption(const std::string& key) const {
    return options_.count(key) > 0;
  }

  /// String option or `fallback` when absent.
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;

  /// Numeric options, `fallback` when absent. A given value must be a
  /// whole number (GetInt) or a finite number (GetDouble) with nothing
  /// after it. A malformed one ("--port=eighty", "--top=10x") also yields
  /// `fallback` and records "invalid value for --key: value" in status(),
  /// which a tool checks once it has read its options. Range checks stay
  /// with the tools.
  double GetDouble(const std::string& key, double fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;

  /// Ok, or the first malformed numeric option read so far.
  const Status& status() const { return status_; }

  /// True if "--key" or "--key=true" was passed.
  bool GetBool(const std::string& key) const;

  /// Errors unless every provided option is in `known`.
  Status Validate(const std::vector<std::string>& known) const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;  // flag -> "" for bare flags.
  /// Records the malformed value of `key` (first one wins); returns
  /// `fallback`.
  template <typename T>
  T Invalid(const std::string& key, T fallback) const;

  mutable Status status_;
};

}  // namespace vgod

#endif  // VGOD_CORE_ARGS_H_
