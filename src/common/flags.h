// Minimal command-line flag parsing for the tools: --key=value and --key
// boolean forms. No global registry; call sites query by name, and the
// set remembers every name queried so a tool can reject the flags it never
// asked for (Unqueried).
#pragma once

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace mtm {

class FlagSet {
 public:
  FlagSet(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        continue;
      }
      arg = arg.substr(2);
      std::size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        flags_.emplace_back(arg, "true");
      } else {
        flags_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
      }
    }
  }

  std::optional<std::string> Get(const std::string& name) const {
    queried_.insert(name);
    for (const auto& [key, value] : flags_) {
      if (key == name) {
        return value;
      }
    }
    return std::nullopt;
  }

  std::string GetString(const std::string& name, const std::string& fallback) const {
    return Get(name).value_or(fallback);
  }

  u64 GetU64(const std::string& name, u64 fallback) const {
    auto v = Get(name);
    return v ? std::strtoull(v->c_str(), nullptr, 10) : fallback;
  }

  double GetDouble(const std::string& name, double fallback) const {
    auto v = Get(name);
    return v ? std::strtod(v->c_str(), nullptr) : fallback;
  }

  // Unrecognised values read as false; ParseBool tells them apart.
  bool GetBool(const std::string& name, bool fallback) const {
    auto v = Get(name);
    if (!v) {
      return fallback;
    }
    return ParseBool(*v).value_or(false);
  }

  // The boolean spellings: true|1|yes and false|0|no (a bare --name is
  // "true"). Anything else is nullopt.
  static std::optional<bool> ParseBool(const std::string& text) {
    if (text == "true" || text == "1" || text == "yes") {
      return true;
    }
    if (text == "false" || text == "0" || text == "no") {
      return false;
    }
    return std::nullopt;
  }

  const std::vector<std::string>& positional() const { return positional_; }

  // Names given more than once on the command line, in order of first
  // appearance. The getters read only the first occurrence.
  std::vector<std::string> Repeated() const {
    std::vector<std::string> names;
    std::set<std::string> seen;
    for (const auto& [key, value] : flags_) {
      if (!seen.insert(key).second && std::find(names.begin(), names.end(), key) == names.end()) {
        names.push_back(key);
      }
    }
    return names;
  }

  // Names of the flags given on the command line that no getter has asked
  // for, in command-line order.
  std::vector<std::string> Unqueried() const {
    std::vector<std::string> names;
    for (const auto& [key, value] : flags_) {
      if (queried_.count(key) == 0) {
        names.push_back(key);
      }
    }
    return names;
  }

 private:
  std::vector<std::pair<std::string, std::string>> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> queried_;
};

}  // namespace mtm
