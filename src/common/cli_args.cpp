#include "common/cli_args.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace sparsenn {

CliArgs::CliArgs(int argc, const char* const* argv, int first,
                 const std::vector<std::string>& accepted) {
  for (int i = first; i < argc; i += 2) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw UsageError("expected a --flag, got '" + token + "'");
    }
    std::string key = token.substr(2);
    if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
      throw UsageError("unknown flag " + token);
    }
    if (i + 1 >= argc) {
      throw UsageError(token + " expects a value");
    }
    values_[std::move(key)] = argv[i + 1];
  }
}

std::string CliArgs::get(const std::string& key,
                         const std::string& dflt) const {
  const auto it = values_.find(key);
  return it == values_.end() ? dflt : it->second;
}

std::size_t CliArgs::get_size(const std::string& key,
                              std::size_t dflt) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  // std::stoul alone silently wraps negatives to SIZE_MAX and accepts
  // trailing junk; reject both with a usable message.
  std::size_t consumed = 0;
  unsigned long value = 0;
  try {
    value = std::stoul(it->second, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (it->second.empty() || consumed != it->second.size() ||
      it->second.find('-') != std::string::npos) {
    throw UsageError("--" + key + " expects a non-negative integer, got '" +
                     it->second + "'");
  }
  return static_cast<std::size_t>(value);
}

double CliArgs::get_double(const std::string& key, double dflt) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  const std::string& text = it->second;
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end ||
      !std::isfinite(value)) {
    throw UsageError("--" + key + " expects a finite number, got '" + text +
                     "'");
  }
  return value;
}

}  // namespace sparsenn
