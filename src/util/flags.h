// Minimal command-line flag parsing for the CLI tools.
//
// Supports `--key value`, `--key=value`, boolean `--flag`, and
// positional arguments. Unknown flags are errors so typos fail loudly.

#ifndef MULTICAST_UTIL_FLAGS_H_
#define MULTICAST_UTIL_FLAGS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/status.h"

namespace multicast {

/// Parsed command line: positionals in order plus key -> value flags.
/// Boolean flags (present without a value) map to "true".
class FlagSet {
 public:
  /// Parses `args` (excluding argv[0]). `known_flags` lists every
  /// accepted flag name (without the leading dashes); `bool_flags` is
  /// the subset that takes no value.
  static Result<FlagSet> Parse(const std::vector<std::string>& args,
                               const std::set<std::string>& known_flags,
                               const std::set<std::string>& bool_flags = {});

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& name) const;

  /// String flag with default.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;

  /// Integer flag with default; errors on non-numeric values and on
  /// values outside int64.
  Result<int64_t> GetInt(const std::string& name, int64_t fallback) const;

  /// Double flag with default; errors on non-numeric values and on NaN
  /// or ±inf, spelled out or reached by overflow.
  Result<double> GetDouble(const std::string& name, double fallback) const;

  /// True when the boolean flag was passed.
  bool GetBool(const std::string& name) const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> values_;
};

}  // namespace multicast

#endif  // MULTICAST_UTIL_FLAGS_H_
