// Tests for tables, CLI parsing, time units, parallel_for and error macros.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "ckpt/io/backend.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/executor.hpp"
#include "common/table.hpp"
#include "common/time_units.hpp"

namespace {

using namespace abftc::common;

TEST(TimeUnits, Conversions) {
  EXPECT_DOUBLE_EQ(minutes(10), 600.0);
  EXPECT_DOUBLE_EQ(hours(2), 7200.0);
  EXPECT_DOUBLE_EQ(days(1), 86400.0);
  EXPECT_DOUBLE_EQ(weeks(1), 604800.0);
}

TEST(TimeUnits, FormatAdaptsUnits) {
  EXPECT_EQ(format_duration(0.0005), "500us");
  EXPECT_EQ(format_duration(0.25), "250ms");
  EXPECT_EQ(format_duration(90.0), "90s");
  EXPECT_EQ(format_duration(600.0), "10min");
  EXPECT_EQ(format_duration(7200.0), "2h");
  EXPECT_EQ(format_duration(604800.0), "7d");
  EXPECT_EQ(format_duration(2 * 604800.0), "2w");
}

TEST(Table, AlignsAndCounts) {
  Table t({"a", "long-header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row_values({1.5, 2.25, 1e6});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
}

TEST(Table, CsvRoundTrip) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(Table, RejectsBadRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), precondition_error);
  EXPECT_THROW(Table({}), precondition_error);
}

TEST(Table, GridPrintsAxes) {
  std::ostringstream os;
  print_grid(os, "demo", "x", {1.0, 2.0}, "y", {0.5, 0.7},
             {{0.1, 0.2}, {0.3, 0.4}});
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("0.300"), std::string::npos);
}

TEST(Table, GridValidatesShape) {
  std::ostringstream os;
  EXPECT_THROW(
      print_grid(os, "demo", "x", {1.0, 2.0}, "y", {0.5}, {{0.1}}),
      precondition_error);
}

TEST(Fmt, Helpers) {
  EXPECT_EQ(fmt_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_percent(0.1234, 1), "12.3%");
}

TEST(Cli, ParsesAllForms) {
  // NB: a bare switch followed by a positional token would swallow it as a
  // value, so bare switches go last (documented parser behaviour).
  const char* argv[] = {"prog",       "--alpha=0.5", "--reps", "100",
                        "positional", "--switch",    nullptr};
  ArgParser args(6, argv);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 0.5);
  EXPECT_EQ(args.get_int("reps", 0), 100);
  EXPECT_TRUE(args.get_bool("switch", false));
  EXPECT_FALSE(args.get_bool("absent", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=off", nullptr};
  ArgParser args(4, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_FALSE(args.get_bool("c", true));
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--x=abc", nullptr};
  ArgParser args(2, argv);
  EXPECT_THROW((void)args.get_double("x", 0.0), precondition_error);
  EXPECT_THROW((void)args.get_int("x", 0), precondition_error);
}

TEST(Cli, ParsesListValues) {
  const char* argv[] = {"prog", "--alpha=0.0,0.45,0.8", "--name=a,b",
                        "--solo=1.5", nullptr};
  ArgParser args(4, argv);
  const auto alphas = args.get_double_list("alpha", {});
  ASSERT_EQ(alphas.size(), 3u);
  EXPECT_DOUBLE_EQ(alphas[0], 0.0);
  EXPECT_DOUBLE_EQ(alphas[1], 0.45);
  EXPECT_DOUBLE_EQ(alphas[2], 0.8);
  EXPECT_EQ(args.get_list("name", {}),
            (std::vector<std::string>{"a", "b"}));
  // A single value (no comma) is a one-element list.
  const auto solo = args.get_double_list("solo", {});
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_DOUBLE_EQ(solo[0], 1.5);
  // Absent flag -> default.
  const auto def = args.get_double_list("absent", {1.0, 2.0});
  ASSERT_EQ(def.size(), 2u);
  EXPECT_DOUBLE_EQ(def[1], 2.0);
}

TEST(Cli, RejectsMalformedLists) {
  const char* argv[] = {"prog", "--a=1,,2", "--b=1,x", "--c=", nullptr};
  ArgParser args(4, argv);
  EXPECT_THROW((void)args.get_list("a"), precondition_error);
  EXPECT_THROW((void)args.get_double_list("b"), precondition_error);
  EXPECT_THROW((void)args.get_list("c"), precondition_error);
}

TEST(KeyValues, ParsesStructuredSpecs) {
  const auto items = parse_key_values("steps:0-12,ranks:0-3,direct");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].key, "steps");
  EXPECT_EQ(items[0].value, "0-12");
  EXPECT_EQ(items[1].key, "ranks");
  EXPECT_EQ(items[1].value, "0-3");
  EXPECT_EQ(items[2].key, "direct");  // bare switch: empty value
  EXPECT_EQ(items[2].value, "");

  // Custom separators (the --storage option syntax).
  const auto opts = parse_key_values("mb=16&sync=1", '&', '=');
  ASSERT_EQ(opts.size(), 2u);
  EXPECT_EQ(opts[0].key, "mb");
  EXPECT_EQ(opts[0].value, "16");

  // Duplicates are kept in order; find_key_value returns the first.
  const auto dup = parse_key_values("k:1,k:2");
  ASSERT_EQ(dup.size(), 2u);
  EXPECT_EQ(find_key_value(dup, "k"), "1");
  EXPECT_EQ(find_key_value(dup, "absent"), std::nullopt);
}

TEST(KeyValues, RejectsEmptyItemsAndKeys) {
  EXPECT_THROW((void)parse_key_values(""), precondition_error);
  EXPECT_THROW((void)parse_key_values("a:1,,b:2"), precondition_error);
  EXPECT_THROW((void)parse_key_values(":1"), precondition_error);
}

TEST(Cli, ParsesKeyValueFlags) {
  const char* argv[] = {"prog", "--campaign=steps:0-5,kinds:kill", "--bad=",
                        nullptr};
  ArgParser args(3, argv);
  const auto items = args.get_key_values("campaign");
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].key, "steps");
  EXPECT_EQ(items[0].value, "0-5");
  EXPECT_EQ(items[1].key, "kinds");
  EXPECT_EQ(items[1].value, "kill");

  // Absent flag -> default; present-but-empty flag is malformed.
  const auto def = args.get_key_values("absent", {{"k", "v"}});
  ASSERT_EQ(def.size(), 1u);
  EXPECT_EQ(def[0].key, "k");
  EXPECT_THROW((void)args.get_key_values("bad"), precondition_error);
}

TEST(Cli, WarnsOnUnknownFlags) {
  const char* argv[] = {"prog", "--reps=3", "--typo-flag=1", "--other",
                        nullptr};
  ArgParser args(4, argv);
  EXPECT_EQ(args.get_int("reps", 0), 3);
  const auto unknown = args.unknown();
  ASSERT_EQ(unknown.size(), 2u);  // typo-flag and other were never read
  EXPECT_EQ(unknown[0], "other");
  EXPECT_EQ(unknown[1], "typo-flag");
  std::ostringstream os;
  EXPECT_EQ(args.warn_unknown(os), 2u);
  EXPECT_NE(os.str().find("warning: unknown flag --typo-flag (ignored)"),
            std::string::npos);
  // Reading a flag (even via has()) marks it known.
  EXPECT_TRUE(args.has("other"));
  EXPECT_EQ(args.unknown(), std::vector<std::string>{"typo-flag"});
}

TEST(ParallelFor, ComputesAllIndices) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(257, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SerialAndParallelAgree) {
  std::atomic<long long> sum{0};
  parallel_for(1000, [&](std::size_t i) { sum += static_cast<long long>(i); },
               1);
  const long long serial = sum.exchange(0);
  parallel_for(1000, [&](std::size_t i) { sum += static_cast<long long>(i); },
               8);
  EXPECT_EQ(serial, sum.load());
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(
          100,
          [](std::size_t i) {
            if (i == 37) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelFor, ZeroItemsIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; }, 4);
}

std::atomic<int> g_free_fn_hits{0};
void free_fn_body(std::size_t) { g_free_fn_hits.fetch_add(1); }

TEST(ParallelFor, AcceptsPlainFunctions) {
  g_free_fn_hits = 0;
  parallel_for(64, free_fn_body, 4);
  EXPECT_EQ(g_free_fn_hits.load(), 64);
}

// Contract since the persistent executor: the first exception stops the
// loop — remaining chunks are abandoned, not attempted. Serially that means
// nothing past the throwing index runs; in parallel some in-flight chunks
// may still finish, but never the full index space.
TEST(ParallelFor, ShortCircuitsAfterFirstException) {
  std::atomic<int> hits{0};
  EXPECT_THROW(
      parallel_for(
          100,
          [&](std::size_t i) {
            if (i == 37) throw std::runtime_error("boom");
            hits.fetch_add(1);
          },
          1),
      std::runtime_error);
  EXPECT_EQ(hits.load(), 37) << "serial: indices past the throw must not run";

  // Index 0 lives in the first chunk claimed, so the stop flag is raised
  // almost immediately; the index space is far too large for the other
  // participants to drain it inside that window.
  constexpr int kBig = 100000;
  hits = 0;
  EXPECT_THROW(
      parallel_for(
          kBig,
          [&](std::size_t i) {
            if (i == 0) throw std::runtime_error("boom");
            hits.fetch_add(1);
          },
          4),
      std::runtime_error);
  EXPECT_LT(hits.load(), kBig - 1) << "parallel: loop must short-circuit";
}

TEST(ErrorMacros, CarryContext) {
  try {
    ABFTC_REQUIRE(1 == 2, "custom message");
    FAIL() << "should have thrown";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom message"), std::string::npos);
    EXPECT_EQ(what.find("test_common_util"), std::string::npos)
        << "user-facing messages carry no source location: " << what;
  }
  try {
    ABFTC_REQUIRE(false, "m");
    FAIL() << "should have thrown";
  } catch (const precondition_error& e) {
    EXPECT_STREQ(e.what(), "precondition failed: m");
  }
  try {
    (void)abftc::ckpt::io::make_backend("file:/x");
    FAIL() << "an unknown storage scheme must be rejected";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown storage backend scheme 'file'"),
              std::string::npos) << what;
    EXPECT_EQ(what.find("false"), std::string::npos) << what;
    EXPECT_EQ(what.find("backend.cpp"), std::string::npos) << what;
  }
  try {
    ABFTC_CHECK(1 == 2, "invariant");
    FAIL() << "should have thrown";
  } catch (const invariant_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_common_util.cpp:"), std::string::npos)
        << "invariant messages keep file:line: " << what;
  }
}

}  // namespace
