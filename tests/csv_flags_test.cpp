#include <gtest/gtest.h>

#include <sstream>

#include "common/csv.h"
#include "common/flags.h"

namespace lht::common {
namespace {

TEST(Table, PrettyAndCsvOutput) {
  Table t({"n", "lht", "pht"});
  t.row().add(i64{1024}).add(3.5).add(std::string("x"));
  t.addRow({i64{2048}, 4.25, std::string("y")});
  EXPECT_EQ(t.rowCount(), 2u);

  std::ostringstream csv;
  t.printCsv(csv);
  EXPECT_EQ(csv.str(), "n,lht,pht\n1024,3.5000,x\n2048,4.2500,y\n");

  std::ostringstream pretty;
  t.printPretty(pretty, "demo");
  EXPECT_NE(pretty.str().find("== demo =="), std::string::npos);
  EXPECT_NE(pretty.str().find("1024"), std::string::npos);
}

TEST(Table, ArityEnforced) {
  Table t({"a", "b"});
  t.row().add(i64{1}).add(i64{2});
  EXPECT_THROW(t.add(i64{3}), InvariantError);
  EXPECT_THROW(t.addRow({i64{1}}), InvariantError);
}

TEST(Flags, ParsesAllForms) {
  Flags f("prog", "test");
  f.define("n", "10", "count");
  f.define("dist", "uniform", "distribution");
  f.define("verbose", "false", "chatty");
  const char* argv[] = {"prog", "--n=32", "--dist", "gaussian", "--verbose", "pos1"};
  ASSERT_TRUE(f.parse(6, argv));
  EXPECT_EQ(f.getInt("n"), 32);
  EXPECT_EQ(f.getString("dist"), "gaussian");
  EXPECT_TRUE(f.getBool("verbose"));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "pos1");
}

TEST(Flags, DefaultsApply) {
  Flags f("prog", "test");
  f.define("span", "0.25", "range span");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.parse(1, argv));
  EXPECT_DOUBLE_EQ(f.getDouble("span"), 0.25);
}

TEST(Flags, UnknownFlagFails) {
  Flags f("prog", "test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_FALSE(f.parse(2, argv));
}

TEST(Flags, HelpReturnsFalse) {
  Flags f("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(f.parse(2, argv));
}

TEST(Flags, PortsAreDecimalsInRange) {
  EXPECT_EQ(parsePort("0"), 0);
  EXPECT_EQ(parsePort("9301"), 9301);
  EXPECT_EQ(parsePort("65535"), 65535);
  for (const char* bad : {"", "abc", "70000", "65536", "-1", "+5", " 80",
                          "80 ", "9301x", "0x10"}) {
    EXPECT_FALSE(parsePort(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_EQ(parsePortList(""), std::vector<std::uint16_t>{});
  EXPECT_EQ(parsePortList("9301,9302"),
            (std::vector<std::uint16_t>{9301, 9302}));
  for (const char* bad : {"abc", "9301,,9302", "9301,", ",9301", "70000",
                          "9301,70000"}) {
    EXPECT_FALSE(parsePortList(bad).has_value()) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace lht::common
