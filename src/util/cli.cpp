#include "util/cli.hpp"

#include <cstdio>
#include <exception>
#include <sstream>
#include <stdexcept>

#include "util/contracts.hpp"
#include "util/keyval.hpp"

namespace cldpc {

ArgParser::ArgParser(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

std::optional<std::string> ArgParser::Find(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

bool ArgParser::Has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string ArgParser::GetString(const std::string& name,
                                 const std::string& fallback) const {
  return Find(name).value_or(fallback);
}

// The numeric and boolean getters share the spec grammar's strict
// parsers (util/keyval.hpp): the whole value must parse, or they throw
// ContractViolation (a std::invalid_argument) naming the flag.

std::int64_t ArgParser::GetInt(const std::string& name,
                               std::int64_t fallback) const {
  const auto v = Find(name);
  if (!v) return fallback;
  return keyval::GetInt({{name, *v}}, name, fallback, "flag --" + name);
}

std::uint64_t ArgParser::GetUint(const std::string& name,
                                 std::uint64_t fallback) const {
  const auto v = Find(name);
  if (!v) return fallback;
  // Digits only, full range: loud rejection instead of wrap/clamp.
  return keyval::GetUint({{name, *v}}, name, fallback, "flag --" + name);
}

double ArgParser::GetDouble(const std::string& name, double fallback) const {
  const auto v = Find(name);
  if (!v) return fallback;
  return keyval::GetDouble({{name, *v}}, name, fallback, "flag --" + name);
}

bool ArgParser::GetBool(const std::string& name, bool fallback) const {
  const auto v = Find(name);
  if (!v) return fallback;
  return keyval::GetBool({{name, *v}}, name, fallback, "flag --" + name);
}

std::vector<std::string> ArgParser::GetStringList(
    const std::string& name, std::vector<std::string> fallback,
    char sep) const {
  const auto v = Find(name);
  if (!v) return fallback;
  std::vector<std::string> out;
  std::stringstream ss(*v);
  std::string item;
  while (std::getline(ss, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<double> ArgParser::GetDoubleList(
    const std::string& name, std::vector<double> fallback) const {
  const auto v = Find(name);
  if (!v) return fallback;
  std::vector<double> out;
  std::stringstream ss(*v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty())
      out.push_back(
          keyval::GetDouble({{name, item}}, name, 0.0, "flag --" + name));
  }
  return out;
}

int GuardedMain(int argc, char** argv, int (*run)(int, char**)) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
}

}  // namespace cldpc
