#pragma once
// Minimal `--key value` command-line parser shared by the CLI and the
// benches. Parsing is strict where silence used to lose input: a
// trailing flag with no value (e.g. `--samples` at the end of the
// line) and a flag the command does not take (a typo like `--sampels`,
// or a retired flag) are UsageErrors instead of silently running with
// defaults, and numeric values reject negatives and trailing junk.

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace sparsenn {

/// Malformed command-line input. Callers report it and exit 2, the
/// conventional usage-error status.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class CliArgs {
 public:
  /// Parses `--key value` pairs from argv[first..). `accepted` lists
  /// the keys (without the leading `--`) the command takes. A token
  /// that is not a `--key`, a key outside `accepted`, or a key without
  /// a following value throws UsageError.
  CliArgs(int argc, const char* const* argv, int first,
          const std::vector<std::string>& accepted);

  /// The raw value of --key, or `dflt` when absent.
  std::string get(const std::string& key, const std::string& dflt) const;

  /// --key as a non-negative integer; UsageError on empty, negative or
  /// non-numeric values (std::stoul alone would wrap or truncate).
  std::size_t get_size(const std::string& key, std::size_t dflt) const;

  /// --key as a finite real number; UsageError on empty, non-numeric or
  /// non-finite values and on trailing junk (std::atof reads "0.5abc"
  /// as 0.5 and "junk" as 0).
  double get_double(const std::string& key, double dflt) const;

  bool has(const std::string& key) const {
    return values_.find(key) != values_.end();
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace sparsenn
