// Minimal command-line flag parsing for example and bench binaries.
//
// Accepts "--name=value", "--name value", and bare "--name" (value "true").
// Every name is kept; a binary that wants misspelt flags rejected rather
// than silently running its default configuration checks UnknownNames().
// Malformed values abort via HAWK_CHECK at the Get* call that reads them.
#ifndef HAWK_COMMON_FLAGS_H_
#define HAWK_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hawk {

class Flags {
 public:
  // Parses argv. Aborts with a message on malformed input.
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name, const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;

  // The parsed flag names that are not in `known`, sorted.
  std::vector<std::string> UnknownNames(const std::vector<std::string>& known) const;

  // Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace hawk

#endif  // HAWK_COMMON_FLAGS_H_
