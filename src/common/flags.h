// Minimal command-line flag parsing for bench and example binaries.
//
// Supports --name=value and --name value forms plus boolean --name. Every
// binary declares its flags up front so --help can print them.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace lht::common {

/// Declared-flag parser. Typical use:
///   Flags flags("fig8_lookup", "Reproduces Fig. 8");
///   flags.define("repeats", "5", "datasets averaged per point");
///   if (!flags.parse(argc, argv)) return 1;   // printed --help or an error
///   int repeats = flags.getInt("repeats");
class Flags {
 public:
  Flags(std::string program, std::string description);

  /// Declares a flag with a default value and help text.
  void define(const std::string& name, const std::string& defaultValue,
              const std::string& help);

  /// Parses argv. Returns false if --help was requested or an unknown or
  /// malformed flag was seen (a message is printed to stderr/stdout).
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string getString(const std::string& name) const;
  [[nodiscard]] i64 getInt(const std::string& name) const;
  [[nodiscard]] double getDouble(const std::string& name) const;
  [[nodiscard]] bool getBool(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  void printHelp() const;

 private:
  struct Entry {
    std::string value;
    std::string defaultValue;
    std::string help;
  };
  std::string program_;
  std::string description_;
  std::map<std::string, Entry> entries_;
  std::vector<std::string> positional_;
};

/// Parses a port-valued flag: a decimal integer in [0, 65535] and nothing
/// else (no sign, no spaces). nullopt for anything else.
[[nodiscard]] std::optional<std::uint16_t> parsePort(std::string_view text);

/// Parses a comma-separated list of ports; "" is the empty list. nullopt
/// when any entry is not a port, an empty entry included.
[[nodiscard]] std::optional<std::vector<std::uint16_t>> parsePortList(
    std::string_view text);

}  // namespace lht::common
