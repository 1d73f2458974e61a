// runner::ArgParser: strict shared flag parsing for the benches.
#include "runner/arg_parser.h"

#include <gtest/gtest.h>

#include <vector>

namespace abrr::runner {
namespace {

/// argv builder (argv[0] is the program name, as in main()).
std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), args.begin(), args.end());
  return v;
}

TEST(ArgParser, ParsesEveryDestinationType) {
  std::string text;
  double f = 0;
  std::size_t n = 0;
  std::uint32_t u32 = 0;
  std::vector<std::uint64_t> seeds;
  bool flag = false;

  ArgParser p{"prog"};
  p.add("text", "", &text);
  p.add("f", "", &f);
  p.add("n", "", &n);
  p.add("u32", "", &u32);
  p.add("seeds", "", &seeds);
  p.add("flag", "", &flag);

  const auto argv = argv_of({"--text=hi", "--f=2.5", "--n=123",
                             "--u32=7", "--seeds=1,2,3", "--flag"});
  std::string error;
  ASSERT_TRUE(p.try_parse(static_cast<int>(argv.size()),
                          const_cast<char* const*>(argv.data()), &error))
      << error;
  EXPECT_EQ(text, "hi");
  EXPECT_DOUBLE_EQ(f, 2.5);
  EXPECT_EQ(n, 123u);
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(flag);
}

TEST(ArgParser, UnknownFlagFails) {
  ArgParser p{"prog"};
  std::size_t n = 0;
  p.add("n", "", &n);
  const auto argv = argv_of({"--bogus=1"});
  std::string error;
  EXPECT_FALSE(p.try_parse(static_cast<int>(argv.size()),
                           const_cast<char* const*>(argv.data()), &error));
  EXPECT_NE(error.find("--bogus"), std::string::npos);
}

TEST(ArgParser, MalformedValueFails) {
  ArgParser p{"prog"};
  std::size_t n = 0;
  p.add("n", "", &n);
  for (const char* bad : {"--n=abc", "--n=", "--n=12x", "--n"}) {
    const auto argv = argv_of({bad});
    std::string error;
    EXPECT_FALSE(p.try_parse(static_cast<int>(argv.size()),
                             const_cast<char* const*>(argv.data()), &error))
        << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(ArgParser, PositionalArgumentFails) {
  ArgParser p{"prog"};
  const auto argv = argv_of({"stray"});
  std::string error;
  EXPECT_FALSE(p.try_parse(static_cast<int>(argv.size()),
                           const_cast<char* const*>(argv.data()), &error));
  EXPECT_NE(error.find("stray"), std::string::npos);
}

TEST(ArgParser, PassthroughPrefixIsIgnored) {
  ArgParser p{"prog"};
  p.allow_prefix("--benchmark_");
  const auto argv = argv_of({"--benchmark_filter=Decision"});
  std::string error;
  EXPECT_TRUE(p.try_parse(static_cast<int>(argv.size()),
                          const_cast<char* const*>(argv.data()), &error))
      << error;
}

TEST(ArgParser, HelpIsReported) {
  ArgParser p{"prog"};
  std::size_t n = 7;
  p.add("n", "the n flag", &n);
  const auto argv = argv_of({"--help"});
  std::string error;
  EXPECT_FALSE(p.try_parse(static_cast<int>(argv.size()),
                           const_cast<char* const*>(argv.data()), &error));
  EXPECT_TRUE(p.help_requested());
  EXPECT_TRUE(error.empty());
  EXPECT_NE(p.usage().find("--n=VALUE"), std::string::npos);
  EXPECT_NE(p.usage().find("the n flag (default 7)"), std::string::npos);
}

TEST(ArgParser, AbsentFlagKeepsDefault) {
  ArgParser p{"prog"};
  std::size_t n = 42;
  bool b = false;
  p.add("n", "", &n);
  p.add("b", "", &b);
  const auto argv = argv_of({});
  std::string error;
  ASSERT_TRUE(p.try_parse(static_cast<int>(argv.size()),
                          const_cast<char* const*>(argv.data()), &error));
  EXPECT_EQ(n, 42u);
  EXPECT_FALSE(b);
}

TEST(ArgParser, ExplicitBoolValues) {
  ArgParser p{"prog"};
  bool b = true;
  p.add("b", "", &b);
  const auto argv = argv_of({"--b=false"});
  std::string error;
  ASSERT_TRUE(p.try_parse(static_cast<int>(argv.size()),
                          const_cast<char* const*>(argv.data()), &error));
  EXPECT_FALSE(b);
}

}  // namespace
}  // namespace abrr::runner
