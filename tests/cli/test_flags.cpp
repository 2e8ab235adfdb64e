// Tests for the declarative flag table: both value forms on every kind,
// missing values, undeclared-family rejection, destination-type overflow,
// the was-set bits and generated help, plus a seeded fuzz over every row.
#include "cli/flags.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "obs/hub.h"
#include "sched/stealing/stealing.h"

namespace tmc::cli {
namespace {

enum class Color { kRed, kBlue };

/// Every shared family's rows plus one own row of each kind, with the
/// destinations owned here.
struct Fixture {
  bool on = false;
  int count = 5;
  std::uint64_t big = 0;
  double level = 1.0;
  Color color = Color::kRed;
  std::string name;
  bool dump = false;
  std::string dump_path;
  int threads = 1;
  obs::Options obs;
  fault::FaultConfig faults;
  sched::stealing::StealParams stealing;

  Table table(Families accepted) {
    Table t("prog", accepted);
    t.add({toggle("--on", on, "a switch"),
           integer("--count", "N", count, "an int in [0, 100]", 0, 100),
           integer("--big", "N", big, "any uint64"),
           real("--level", "X", level, "a real in (0, 10]",
                {0.0, 10.0, true, false}),
           choice("--color", color,
                  {{"red", Color::kRed}, {"blue", Color::kBlue}}, "a choice"),
           text("--name", "S", name, "a text"),
           inline_path("--dump", dump, dump_path, "an inline-only path"),
           cli::threads(threads)})
        .add(obs::cli_flags(obs))
        .add(fault::cli_flags(faults))
        .add(sched::stealing::cli_flags(stealing));
    return t;
  }
};

constexpr Families kEverything{Family::kThreads, Family::kFigure,
                               Family::kObs,     Family::kSlo,
                               Family::kFault,   Family::kSteal};

Table::Result parse(Table& table, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return table.parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagTable, BothValueFormsOnEveryKind) {
  for (const bool inline_form : {false, true}) {
    Fixture f;
    Table table = f.table(kEverything);
    const std::vector<std::pair<const char*, const char*>> pairs{
        {"--count", "42"}, {"--big", "18446744073709551615"},
        {"--level", "2.5"}, {"--color", "blue"},
        {"--name", "x y"},  {"--threads", "3"}};
    std::vector<std::string> storage;
    for (const auto& [flag, value] : pairs) {
      if (inline_form) {
        storage.push_back(std::string(flag) + "=" + value);
      } else {
        storage.emplace_back(flag);
        storage.emplace_back(value);
      }
    }
    std::vector<const char*> args;
    for (const std::string& s : storage) args.push_back(s.c_str());
    args.push_back("--on");
    const auto result = parse(table, args);
    ASSERT_EQ(result.status, Table::Status::kOk) << result.error;
    EXPECT_EQ(f.count, 42);
    EXPECT_EQ(f.big, UINT64_MAX);
    EXPECT_DOUBLE_EQ(f.level, 2.5);
    EXPECT_EQ(f.color, Color::kBlue);
    EXPECT_EQ(f.name, "x y");
    EXPECT_EQ(f.threads, 3);
    EXPECT_TRUE(f.on);
  }
}

TEST(FlagTable, SwitchesTakeNoValueAndInlinePathsNeverTakeTheNextToken) {
  Fixture f;
  Table table = f.table(kEverything);
  EXPECT_EQ(parse(table, {"--on=1"}).error, "--on takes no value");

  EXPECT_EQ(parse(table, {"--dump", "out.json"}).error,
            "unknown flag 'out.json'");
  EXPECT_TRUE(f.dump);
  EXPECT_TRUE(f.dump_path.empty());
  EXPECT_EQ(parse(table, {"--dump=out.json"}).status, Table::Status::kOk);
  EXPECT_EQ(f.dump_path, "out.json");
}

TEST(FlagTable, MissingTrailingValueIsAnError) {
  for (const char* flag : {"--count", "--big", "--level", "--color", "--name",
                           "--threads", "--timeline", "--slo", "--fault-seed",
                           "--steal-victim"}) {
    Fixture f;
    Table table = f.table(kEverything);
    const auto result = parse(table, {"--on", flag});
    EXPECT_EQ(result.status, Table::Status::kError) << flag;
    EXPECT_EQ(result.error, std::string(flag) + " requires a value");
  }
}

TEST(FlagTable, MalformedAndOutOfRangeValuesAreErrors) {
  using Argv = std::vector<const char*>;
  for (const Argv& bad : std::vector<Argv>{
           {"--count", "abc"},  {"--count", "101"},  {"--count", "-1"},
           {"--count", "4x"},   {"--count", " 4"},   {"--count", ""},
           {"--big", "-5"},     {"--level", "0"},    {"--level", "nan"},
           {"--level", "inf"},  {"--level", "1e999"}, {"--color", "green"},
           {"--name", ""},      {"--threads", "4097"}, {"--threads", "x"},
           {"--timeline="},     {"--timeline-chunk", "0"},
           {"--sample-interval", "0"}, {"--slo", "nope"}}) {
    Fixture f;
    Table table = f.table(kEverything);
    const auto result = parse(table, bad);
    EXPECT_EQ(result.status, Table::Status::kError) << bad[0];
    EXPECT_FALSE(table.was_set(bad[0])) << bad[0];
  }
}

TEST(FlagTable, UndeclaredFamiliesAreRejectedWithTheirMessage) {
  Fixture f;
  Table table = f.table({Family::kThreads, Family::kObs});
  // --slo outside the serving harness.
  const auto slo = parse(table, {"--slo", "interactive=50ms"});
  EXPECT_EQ(slo.status, Table::Status::kError);
  EXPECT_NE(slo.error.find("only apply to the serving harness"),
            std::string::npos)
      << slo.error;
  EXPECT_TRUE(f.obs.slo.empty());

  const auto fault = parse(table, {"--fault-rate=0"});
  EXPECT_NE(fault.error.find("fault-injection flags only apply"),
            std::string::npos)
      << fault.error;
  const auto steal = parse(table, {"--steal-rate", "1"});
  EXPECT_NE(steal.error.find("work-stealing flags only apply"),
            std::string::npos)
      << steal.error;
  EXPECT_DOUBLE_EQ(f.stealing.steal_rate, 0.0);

  // Own rows and accepted families still parse.
  EXPECT_EQ(parse(table, {"--count", "7", "--metrics"}).status,
            Table::Status::kOk);
}

TEST(FlagTable, IntegerOverflowOfTheDestinationTypeIsAnError) {
  Fixture f;
  Table table = f.table(kEverything);
  // int destinations: 2^32 + 1 must not wrap to 1.
  EXPECT_EQ(parse(table, {"--retry-budget", "4294967297"}).status,
            Table::Status::kError);
  EXPECT_EQ(f.faults.retry_budget, 8);
  EXPECT_EQ(parse(table, {"--retry-budget=2147483647"}).status,
            Table::Status::kOk);
  EXPECT_EQ(f.faults.retry_budget, 2147483647);
  EXPECT_EQ(parse(table, {"--steal-chunks", "2147483648"}).status,
            Table::Status::kError);

  // uint64 destinations take their whole range, exactly, and nothing past it.
  EXPECT_EQ(parse(table, {"--fault-seed", "9223372036854775808"}).status,
            Table::Status::kOk);
  EXPECT_EQ(f.faults.seed, 9223372036854775808ULL);
  EXPECT_EQ(parse(table, {"--fault-seed", "18446744073709551616"}).status,
            Table::Status::kError);
  EXPECT_EQ(parse(table, {"--fault-seed", "-1"}).status,
            Table::Status::kError);
  EXPECT_EQ(f.faults.seed, 9223372036854775808ULL);
  EXPECT_EQ(parse(table, {"--steal-seed=18446744073709551615"}).status,
            Table::Status::kOk);
  EXPECT_EQ(f.stealing.seed, UINT64_MAX);
  EXPECT_EQ(parse(table, {"--timeline-chunk", "1073741825"}).status,
            Table::Status::kError);
}

TEST(FlagTable, WasSetBitsTrackTheLastParse) {
  Fixture f;
  Table table = f.table(kEverything);
  ASSERT_EQ(parse(table, {"--steal-rate", "0", "--count=3"}).status,
            Table::Status::kOk);
  EXPECT_TRUE(table.was_set("--steal-rate"));
  EXPECT_TRUE(table.was_set("--count"));
  EXPECT_FALSE(table.was_set("--big"));
  EXPECT_TRUE(table.any_set(Family::kSteal));
  EXPECT_FALSE(table.any_set(Family::kFault));

  ASSERT_EQ(parse(table, {}).status, Table::Status::kOk);
  EXPECT_FALSE(table.was_set("--steal-rate"));
  EXPECT_FALSE(table.any_set(Family::kSteal));
}

TEST(FlagTable, HelpIsGeneratedFromTheAcceptedRows) {
  Fixture f;
  Table table = f.table({Family::kObs});
  EXPECT_EQ(parse(table, {"--count", "1", "--help", "--bogus"}).status,
            Table::Status::kHelp);
  EXPECT_EQ(parse(table, {"-h"}).status, Table::Status::kHelp);
  const std::string help = table.help();
  EXPECT_EQ(help.rfind("usage: prog [flags]\n", 0), 0u);
  EXPECT_NE(help.find("--count N"), std::string::npos);
  EXPECT_NE(help.find("--color red|blue"), std::string::npos);
  EXPECT_NE(help.find("--metrics[=PATH]"), std::string::npos);
  EXPECT_NE(help.find("--help, -h"), std::string::npos);
  EXPECT_EQ(help.find("--fault-rate"), std::string::npos);
  EXPECT_EQ(help.find("--slo"), std::string::npos);
  EXPECT_EQ(help.find("--threads"), std::string::npos);
}

// A successful parse must leave every destination inside its declared range.
void expect_in_range(const Fixture& f) {
  EXPECT_GE(f.count, 0);
  EXPECT_LE(f.count, 100);
  EXPECT_TRUE(f.level > 0.0 && f.level <= 10.0);
  EXPECT_GE(f.threads, 0);
  EXPECT_LE(f.threads, 4096);
  EXPECT_LE(f.obs.timeline_chunk, std::size_t{1} << 30);
  EXPECT_GT(f.obs.sample_interval.ns(), 0);
  EXPECT_TRUE(std::isfinite(f.faults.node_rate) && f.faults.node_rate >= 0.0);
  EXPECT_GT(f.faults.node_mttr_s, 0.0);
  EXPECT_TRUE(f.faults.drop_prob >= 0.0 && f.faults.drop_prob < 1.0);
  EXPECT_GE(f.faults.retry_budget, 0);
  EXPECT_GE(f.faults.restart_budget, 0);
  EXPECT_GE(f.stealing.steal_rate, 0.0);
  EXPECT_GE(f.stealing.chunks_per_worker, 1);
}

TEST(FlagTable, SeededFuzzNeverThrowsAndKeepsDestinationsInRange) {
  const std::vector<std::string> values{
      "",     "0",     "1",     "-1",    "-5",   "7",    "100",  "101",
      "2.5",  "1e4",   "1e999", "nan",   "inf",  "-inf", "0x10", "abc",
      "16x",  " 4",    "4 ",    "+3",    "=",    "--",   "-",    "red",
      "blue", "poisson", "weibull", "nearest", "half", "guided",
      "interactive=50ms", "batch=2s@95", "x=1s", "4294967297",
      "2147483648", "9223372036854775808", "18446744073709551616",
      "99999999999999999999999", "out.json", "\x01\x7f"};
  const std::vector<Families> masks{
      kEverything, {}, {Family::kObs}, {Family::kThreads, Family::kFault},
      {Family::kSlo, Family::kSteal}};
  std::mt19937_64 rng(20261017);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (int iter = 0; iter < 20'000; ++iter) {
    Fixture f;
    Table table = f.table(masks[pick(masks.size())]);
    const std::vector<Flag>& rows = table.rows();
    std::vector<std::string> tokens;
    const std::size_t length = pick(7);
    for (std::size_t t = 0; t < length; ++t) {
      const std::string name(rows[pick(rows.size())].name);
      switch (pick(5)) {
        case 0: tokens.push_back(name); break;
        case 1: tokens.push_back(name + "=" + values[pick(values.size())]);
          break;
        case 2: tokens.push_back(values[pick(values.size())]); break;
        case 3: tokens.push_back(name.substr(0, pick(name.size() + 1))); break;
        default:
          tokens.push_back(name);
          tokens.push_back(values[pick(values.size())]);
      }
    }
    std::vector<const char*> args{"prog"};
    for (const std::string& token : tokens) args.push_back(token.c_str());
    Table::Result result;
    ASSERT_NO_THROW(result = table.parse(static_cast<int>(args.size()),
                                         args.data()));
    EXPECT_EQ(result.status == Table::Status::kError, !result.error.empty());
    if (result.status == Table::Status::kOk) expect_in_range(f);
  }
}

}  // namespace
}  // namespace tmc::cli
