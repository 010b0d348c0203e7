// Tests for src/common/cli_args: the strict `--key value` parser the
// CLI and benches share. The regressions pinned here: a trailing flag
// with no value used to be silently dropped (`--samples` at the end of
// the line fell back to the default), an unknown flag was ignored, and
// a real-valued flag read "0.5abc" as 0.5; all three are now
// UsageErrors.

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "common/cli_args.hpp"

namespace sparsenn {
namespace {

/// The flags every case below may use.
const std::vector<std::string> kAccepted = {"samples", "uv", "model",
                                            "threads", "rate"};

CliArgs parse(std::initializer_list<const char*> argv, int first = 0) {
  std::vector<const char*> v(argv);
  return CliArgs(static_cast<int>(v.size()), v.data(), first, kAccepted);
}

TEST(CliArgs, ParsesKeyValuePairs) {
  const CliArgs args =
      parse({"--samples", "12", "--uv", "off", "--model", "m.bin"});
  EXPECT_EQ(args.get_size("samples", 3), 12u);
  EXPECT_EQ(args.get("uv", "on"), "off");
  EXPECT_EQ(args.get("model", ""), "m.bin");
  EXPECT_TRUE(args.has("samples"));
  EXPECT_FALSE(args.has("threads"));
}

TEST(CliArgs, MissingKeysFallBackToDefaults) {
  const CliArgs args = parse({"--uv", "on"});
  EXPECT_EQ(args.get_size("samples", 7), 7u);
  EXPECT_EQ(args.get("model", "default.bin"), "default.bin");
}

TEST(CliArgs, SkipsLeadingPositionals) {
  // The CLI passes first=2 to skip "prog subcommand".
  const CliArgs args = parse({"prog", "batch", "--threads", "4"},
                             /*first=*/2);
  EXPECT_EQ(args.get_size("threads", 0), 4u);
}

TEST(CliArgs, TrailingFlagWithoutValueIsUsageError) {
  // Regression: this used to silently fall back to the default.
  EXPECT_THROW(parse({"--model", "m.bin", "--samples"}), UsageError);
  EXPECT_THROW(parse({"--samples"}), UsageError);
}

TEST(CliArgs, RejectsMalformedIntegers) {
  EXPECT_THROW(parse({"--samples", "-3"}).get_size("samples", 0),
               UsageError);
  EXPECT_THROW(parse({"--samples", "12x"}).get_size("samples", 0),
               UsageError);
  EXPECT_THROW(parse({"--samples", ""}).get_size("samples", 0),
               UsageError);
  EXPECT_THROW(parse({"--samples", "many"}).get_size("samples", 0),
               UsageError);
}

TEST(CliArgs, UnknownFlagIsUsageError) {
  // Regression: a typo or a retired flag used to be ignored, so the
  // run went ahead on defaults.
  EXPECT_THROW(parse({"--sampels", "12"}), UsageError);
  EXPECT_THROW(parse({"--samples", "12", "--retired-flag", "200"}),
               UsageError);
  // A bare token is not a flag, even when it names an accepted key.
  EXPECT_THROW(parse({"samples", "12"}), UsageError);
  try {
    parse({"--uv", "on", "--sampels", "12"});
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--sampels"), std::string::npos);
  }
}

TEST(CliArgs, ParsesAndRejectsRealNumbers) {
  EXPECT_EQ(parse({"--rate", "0.25"}).get_double("rate", 1.0), 0.25);
  EXPECT_EQ(parse({"--rate", "2"}).get_double("rate", 1.0), 2.0);
  EXPECT_EQ(parse({"--rate", "-1.5"}).get_double("rate", 1.0), -1.5);
  EXPECT_EQ(parse({}).get_double("rate", 1.0), 1.0);
  // Regression: std::atof read the first as 0.5 and the rest as 0.
  for (const char* junk : {"0.5abc", "junk", "", "1e", "nan", "inf"}) {
    EXPECT_THROW(parse({"--rate", junk}).get_double("rate", 1.0),
                 UsageError)
        << "'" << junk << "'";
  }
}

TEST(CliArgs, UsageErrorIsARuntimeError) {
  // main() catches UsageError before std::exception to exit 2.
  try {
    parse({"--samples"});
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--samples"), std::string::npos);
  }
}

}  // namespace
}  // namespace sparsenn
