#include "util/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/strings.h"

namespace multicast {

Result<FlagSet> FlagSet::Parse(const std::vector<std::string>& args,
                               const std::set<std::string>& known_flags,
                               const std::set<std::string>& bool_flags) {
  FlagSet flags;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    std::string name, value;
    size_t eq = body.find('=');
    bool has_inline_value = eq != std::string::npos;
    name = has_inline_value ? body.substr(0, eq) : body;
    if (known_flags.find(name) == known_flags.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    bool is_bool = bool_flags.find(name) != bool_flags.end();
    if (has_inline_value) {
      value = body.substr(eq + 1);
      // GetBool reads only "true"; any other spelling would silently
      // turn the flag off.
      if (is_bool && value != "true" && value != "false") {
        return Status::InvalidArgument("flag --" + name +
                                       " takes true or false, got '" +
                                       value + "'");
      }
    } else if (is_bool) {
      value = "true";
    } else {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects a value");
      }
      value = args[++i];
    }
    if (flags.values_.count(name) != 0) {
      return Status::InvalidArgument("flag --" + name + " given twice");
    }
    flags.values_[name] = value;
  }
  return flags;
}

bool FlagSet::Has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string FlagSet::GetString(const std::string& name,
                               const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

Result<int64_t> FlagSet::GetInt(const std::string& name,
                                int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end != it->second.c_str() + it->second.size() || it->second.empty()) {
    return Status::InvalidArgument("flag --" + name +
                                   " expects an integer, got '" +
                                   it->second + "'");
  }
  // strtoll clamps an out-of-range value to the nearest bound.
  if (errno == ERANGE) {
    return Status::InvalidArgument("flag --" + name +
                                   " is outside the int64 range, got '" +
                                   it->second + "'");
  }
  return static_cast<int64_t>(v);
}

Result<double> FlagSet::GetDouble(const std::string& name,
                                  double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end != it->second.c_str() + it->second.size() || it->second.empty()) {
    return Status::InvalidArgument("flag --" + name +
                                   " expects a number, got '" +
                                   it->second + "'");
  }
  // Spelled "nan"/"inf", or overflowed to inf: no flag takes either.
  if (!std::isfinite(v)) {
    return Status::InvalidArgument("flag --" + name +
                                   " expects a finite number, got '" +
                                   it->second + "'");
  }
  return v;
}

bool FlagSet::GetBool(const std::string& name) const {
  auto it = values_.find(name);
  return it != values_.end() && it->second == "true";
}

}  // namespace multicast
