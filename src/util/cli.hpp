// Minimal command-line parser for examples and bench binaries.
//
// Supports --name=value, --name value and boolean --flag forms.
// Values are checked when read: GetInt/GetUint/GetDouble/GetBool and
// GetDoubleList throw ContractViolation (a std::invalid_argument)
// naming the flag unless the whole value parses, so `--frames=12x` or
// `--snrs=abc` fails loudly instead of running 12 frames or 0 dB.
// Flags nobody reads are not checked: a typo'd flag name is ignored.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cldpc {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  std::int64_t GetInt(const std::string& name, std::int64_t fallback) const;
  /// Full-range u64 (seeds): negative or signed input throws too,
  /// instead of wrapping or clamping.
  std::uint64_t GetUint(const std::string& name, std::uint64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  /// true/1/yes/on or false/0/no/off; a bare --flag reads as true.
  bool GetBool(const std::string& name, bool fallback = false) const;

  /// Comma-separated list of doubles, e.g. --snrs=3.2,3.6,4.0 (empty
  /// items are skipped; any other item must be a whole number).
  std::vector<double> GetDoubleList(const std::string& name,
                                    std::vector<double> fallback) const;

  /// Separator-split list of strings. The default separator is ';'
  /// (not ',') so values may themselves contain commas — decoder
  /// specs do: --decoder="layered-nms:alpha=1.25,iters=20;fixed-nms".
  std::vector<std::string> GetStringList(const std::string& name,
                                         std::vector<std::string> fallback,
                                         char sep = ';') const;

  /// Positional (non --flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::optional<std::string> Find(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The body of a binary's main() behind the one usage-error guard:
/// run(argc, argv)'s return code passes through, and an exception
/// escaping it becomes an exit code instead of an abort.
/// std::invalid_argument (a malformed flag, --code or --decoder value;
/// ContractViolation is one) prints "error: <what>" to stderr and
/// returns 2; any other std::exception prints "fatal: <what>" and
/// returns 1.
int GuardedMain(int argc, char** argv, int (*run)(int, char**));

}  // namespace cldpc
