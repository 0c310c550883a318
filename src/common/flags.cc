#include "src/common/flags.h"

#include <algorithm>
#include <cstdlib>

#include "src/common/check.h"

namespace hawk {
namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // Bare boolean flag.
    }
  }
}

bool Flags::Has(const std::string& name) const { return values_.count(name) > 0; }

std::string Flags::GetString(const std::string& name, const std::string& default_value) const {
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  char* end = nullptr;
  const int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  HAWK_CHECK(end != nullptr && *end == '\0') << "flag --" << name << " is not an integer: "
                                             << it->second;
  return v;
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  HAWK_CHECK(end != nullptr && *end == '\0') << "flag --" << name << " is not a number: "
                                             << it->second;
  return v;
}

std::vector<std::string> Flags::UnknownNames(const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      unknown.push_back(name);
    }
  }
  return unknown;
}

}  // namespace hawk
