#include "common/flags.h"

#include <charconv>
#include <cstdlib>
#include <iostream>

namespace lht::common {

Flags::Flags(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void Flags::define(const std::string& name, const std::string& defaultValue,
                   const std::string& help) {
  entries_[name] = Entry{defaultValue, defaultValue, help};
}

bool Flags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      printHelp();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool haveValue = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      haveValue = true;
    }
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::cerr << program_ << ": unknown flag --" << name << "\n";
      return false;
    }
    if (!haveValue) {
      // Flags declared with a true/false default are boolean: a bare
      // "--flag" sets them without consuming the next token. Other flags
      // take the next token as their value ("--name value").
      const std::string& def = it->second.defaultValue;
      const bool isBoolean = def == "true" || def == "false";
      if (!isBoolean && i + 1 < argc &&
          std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    it->second.value = value;
  }
  return true;
}

std::string Flags::getString(const std::string& name) const {
  auto it = entries_.find(name);
  checkInvariant(it != entries_.end(), "Flags: undeclared flag queried");
  return it->second.value;
}

i64 Flags::getInt(const std::string& name) const {
  return std::strtoll(getString(name).c_str(), nullptr, 10);
}

double Flags::getDouble(const std::string& name) const {
  return std::strtod(getString(name).c_str(), nullptr);
}

bool Flags::getBool(const std::string& name) const {
  const std::string v = getString(name);
  return v == "true" || v == "1" || v == "yes";
}

void Flags::printHelp() const {
  std::cout << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& [name, e] : entries_) {
    std::cout << "  --" << name << " (default: " << e.defaultValue << ")\n"
              << "      " << e.help << "\n";
  }
}

std::optional<std::uint16_t> parsePort(std::string_view text) {
  std::uint16_t port = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, port);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return port;
}

std::optional<std::vector<std::uint16_t>> parsePortList(std::string_view text) {
  std::vector<std::uint16_t> ports;
  if (text.empty()) return ports;
  while (true) {
    const size_t comma = text.find(',');
    const auto port = parsePort(text.substr(0, comma));
    if (!port) return std::nullopt;
    ports.push_back(*port);
    if (comma == std::string_view::npos) return ports;
    text.remove_prefix(comma + 1);
  }
}

}  // namespace lht::common
