#include "util/cli.hpp"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace cldpc {
namespace {

ArgParser Parse(std::vector<const char*> argv) {
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, EqualsForm) {
  const auto args = Parse({"prog", "--iters=18", "--snr=4.0"});
  EXPECT_EQ(args.GetInt("iters", 0), 18);
  EXPECT_DOUBLE_EQ(args.GetDouble("snr", 0.0), 4.0);
}

TEST(ArgParser, SpaceForm) {
  const auto args = Parse({"prog", "--iters", "50"});
  EXPECT_EQ(args.GetInt("iters", 0), 50);
}

TEST(ArgParser, BareBooleanFlag) {
  const auto args = Parse({"prog", "--verbose"});
  EXPECT_TRUE(args.GetBool("verbose"));
  EXPECT_FALSE(args.GetBool("quiet"));
}

TEST(ArgParser, BooleanSpellings) {
  const auto args =
      Parse({"prog", "--a=true", "--b=1", "--c=yes", "--d=on", "--e=false"});
  EXPECT_TRUE(args.GetBool("a"));
  EXPECT_TRUE(args.GetBool("b"));
  EXPECT_TRUE(args.GetBool("c"));
  EXPECT_TRUE(args.GetBool("d"));
  EXPECT_FALSE(args.GetBool("e", true));
}

TEST(ArgParser, Defaults) {
  const auto args = Parse({"prog"});
  EXPECT_EQ(args.GetInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.GetDouble("missing", 1.5), 1.5);
  EXPECT_EQ(args.GetString("missing", "x"), "x");
}

TEST(ArgParser, UintIsFullRangeAndRejectsSigns) {
  // Seeds are u64: the whole range must parse, and a negative value
  // must throw instead of wrapping (GetInt would wrap/clamp).
  const auto args = Parse({"prog", "--seed=18446744073709551615"});
  EXPECT_EQ(args.GetUint("seed", 0), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(args.GetUint("missing", 9), 9u);
  EXPECT_ANY_THROW(Parse({"prog", "--seed=-1"}).GetUint("seed", 0));
  EXPECT_ANY_THROW(Parse({"prog", "--seed=+1"}).GetUint("seed", 0));
  EXPECT_ANY_THROW(
      Parse({"prog", "--seed=18446744073709551616"}).GetUint("seed", 0));
}

/// The message of the std::invalid_argument `read` throws ("" if it
/// returns normally or throws anything else).
template <class Read>
std::string InvalidArgumentMessage(Read read) {
  try {
    read();
  } catch (const std::invalid_argument& e) {
    return e.what();
  } catch (...) {
  }
  return "";
}

TEST(ArgParser, IntRequiresWholeValue) {
  // A partial parse is an error: "12x" is not 12, "abc" is not 0.
  for (const char* bad : {"--frames=12x", "--frames=abc", "--frames=",
                          "--frames=1.5", "--frames=99999999999999999999"}) {
    const auto msg = InvalidArgumentMessage(
        [&] { Parse({"prog", bad}).GetInt("frames", 7); });
    EXPECT_NE(msg.find("--frames"), std::string::npos) << bad << ": " << msg;
  }
  EXPECT_EQ(Parse({"prog", "--frames=-12"}).GetInt("frames", 7), -12);
}

TEST(ArgParser, DoubleRequiresWholeValue) {
  for (const char* bad :
       {"--ebn0=4.0dB", "--ebn0=abc", "--ebn0=", "--ebn0=1e999"}) {
    const auto msg = InvalidArgumentMessage(
        [&] { Parse({"prog", bad}).GetDouble("ebn0", 1.0); });
    EXPECT_NE(msg.find("--ebn0"), std::string::npos) << bad << ": " << msg;
  }
  EXPECT_DOUBLE_EQ(Parse({"prog", "--ebn0=-1.5e-1"}).GetDouble("ebn0", 0.0),
                   -0.15);
}

TEST(ArgParser, DoubleListRequiresWholeItems) {
  // --snrs=abc must not sweep 0 dB.
  for (const char* bad : {"--snrs=abc", "--snrs=3.0,x", "--snrs=3.0;4.0"}) {
    const auto msg = InvalidArgumentMessage(
        [&] { Parse({"prog", bad}).GetDoubleList("snrs", {}); });
    EXPECT_NE(msg.find("--snrs"), std::string::npos) << bad << ": " << msg;
  }
  // Empty items are still skipped.
  EXPECT_EQ(Parse({"prog", "--snrs=3.0,,4.0,"}).GetDoubleList("snrs", {}),
            (std::vector<double>{3.0, 4.0}));
}

TEST(ArgParser, BoolRejectsUnknownSpellings) {
  // An unknown spelling is an error, not false.
  for (const char* bad : {"--live=maybe", "--live=TRUE", "--live=2"}) {
    const auto msg = InvalidArgumentMessage(
        [&] { Parse({"prog", bad}).GetBool("live", true); });
    EXPECT_NE(msg.find("--live"), std::string::npos) << bad << ": " << msg;
  }
  for (const char* off :
       {"--live=false", "--live=0", "--live=no", "--live=off"})
    EXPECT_FALSE(Parse({"prog", off}).GetBool("live", true)) << off;
}

TEST(ArgParser, DoubleList) {
  const auto args = Parse({"prog", "--snrs=3.2,3.6,4.0"});
  const auto list = args.GetDoubleList("snrs", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list[0], 3.2);
  EXPECT_DOUBLE_EQ(list[2], 4.0);
}

TEST(ArgParser, DoubleListFallback) {
  const auto args = Parse({"prog"});
  const auto list = args.GetDoubleList("snrs", {1.0, 2.0});
  ASSERT_EQ(list.size(), 2u);
}

TEST(ArgParser, StringList) {
  // ';' separates entries so values may contain commas (decoder specs).
  const auto args =
      Parse({"prog", "--decoder=layered-nms:alpha=1.25,iters=20;fixed-nms"});
  const auto list = args.GetStringList("decoder", {});
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0], "layered-nms:alpha=1.25,iters=20");
  EXPECT_EQ(list[1], "fixed-nms");
}

TEST(ArgParser, StringListFallbackAndCustomSep) {
  const auto args = Parse({"prog", "--names=a|b|c"});
  EXPECT_EQ(args.GetStringList("missing", {"x"}).size(), 1u);
  const auto list = args.GetStringList("names", {}, '|');
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[1], "b");
}

TEST(ArgParser, Positional) {
  const auto args = Parse({"prog", "input.bin", "--flag", "output.bin"});
  // "--flag output.bin" consumes output.bin as the flag value.
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.bin");
  EXPECT_EQ(args.GetString("flag", ""), "output.bin");
}

TEST(ArgParser, HasDetectsPresence) {
  const auto args = Parse({"prog", "--x=1"});
  EXPECT_TRUE(args.Has("x"));
  EXPECT_FALSE(args.Has("y"));
}

TEST(GuardedMain, PassesTheReturnCodeThrough) {
  EXPECT_EQ(GuardedMain(0, nullptr, [](int, char**) { return 0; }), 0);
  EXPECT_EQ(GuardedMain(0, nullptr, [](int, char**) { return 7; }), 7);
}

TEST(GuardedMain, InvalidArgumentExitsTwo) {
  EXPECT_EQ(GuardedMain(0, nullptr,
                        [](int, char**) -> int {
                          throw std::invalid_argument("bad value");
                        }),
            2);
  // The real path: a malformed flag value read through ArgParser.
  char prog[] = "prog";
  char snrs[] = "--snrs=abc";
  char* argv[] = {prog, snrs};
  EXPECT_EQ(GuardedMain(2, argv,
                        [](int argc, char** argv) {
                          const ArgParser args(argc, argv);
                          return static_cast<int>(
                              args.GetDoubleList("snrs", {}).size());
                        }),
            2);
}

TEST(GuardedMain, OtherExceptionsExitOne) {
  EXPECT_EQ(GuardedMain(0, nullptr,
                        [](int, char**) -> int {
                          throw std::runtime_error("disk full");
                        }),
            1);
}

}  // namespace
}  // namespace cldpc
