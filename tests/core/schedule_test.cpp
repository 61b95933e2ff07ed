#include "core/schedule.h"

#include <gtest/gtest.h>

#include "graph/digraph.h"
#include "testing/util.h"

namespace ssco::core {
namespace {

using testing::R;

PeriodicSchedule sample_schedule() {
  PeriodicSchedule s;
  s.period = R("2");
  s.comms.push_back(CommActivity{0, 0, R("0"), R("1"), R("3/2")});
  s.comms.push_back(CommActivity{1, 1, R("1"), R("2"), R("1")});
  s.comps.push_back(CompActivity{0, 0, R("0"), R("1/2"), R("1")});
  return s;
}

TEST(Schedule, ScaleMultipliesEverything) {
  PeriodicSchedule s = sample_schedule();
  s.scale(R("4"));
  EXPECT_EQ(s.period, R("8"));
  EXPECT_EQ(s.comms[0].end, R("4"));
  EXPECT_EQ(s.comms[0].messages, R("6"));
  EXPECT_EQ(s.comps[0].end, R("2"));
  EXPECT_EQ(s.comps[0].count, R("4"));
}

TEST(Schedule, ScaleRejectsNonPositive) {
  PeriodicSchedule s = sample_schedule();
  EXPECT_THROW(s.scale(R("0")), std::invalid_argument);
  EXPECT_THROW(s.scale(R("-2")), std::invalid_argument);
}

TEST(Schedule, IntegralMessageDetection) {
  PeriodicSchedule s = sample_schedule();
  EXPECT_FALSE(s.has_integral_messages());  // 3/2 is split
  s.scale(R("2"));
  EXPECT_TRUE(s.has_integral_messages());
}

TEST(Schedule, DeliveredPerPeriodSumsInboundOfType) {
  graph::Digraph g(3);
  graph::EdgeId e01 = g.add_edge(0, 1);
  graph::EdgeId e21 = g.add_edge(2, 1);
  PeriodicSchedule s;
  s.period = R("1");
  // Types 7 and 8 are absorbed at node 1; type 6 has no sink.
  s.supplier_of_type.assign(9, graph::kInvalidId);
  s.sink_of_type.assign(9, graph::kInvalidId);
  s.sink_of_type[7] = 1;
  s.sink_of_type[8] = 1;
  s.comms.push_back(CommActivity{e01, 7, R("0"), R("1/2"), R("2")});
  s.comms.push_back(CommActivity{e21, 7, R("1/2"), R("1"), R("1/3")});
  s.comms.push_back(CommActivity{e01, 8, R("1/2"), R("1"), R("5")});
  s.comms.push_back(CommActivity{e21, 6, R("0"), R("1/2"), R("4")});
  // A merge at the sink producing type 7 delivers too; one at node 2 does
  // not, and neither do its operand types.
  s.comps.push_back(CompActivity{1, 0, R("0"), R("1/4"), R("1/4"), 6, 8, 7});
  s.comps.push_back(CompActivity{2, 0, R("0"), R("1/4"), R("9"), 6, 8, 7});
  EXPECT_EQ(s.delivered_per_period(7, g), R("31/12"));
  EXPECT_EQ(s.delivered_per_period(8, g), R("5"));
  EXPECT_EQ(s.delivered_per_period(6, g), R("0"));
  const std::vector<Rational> all = s.delivered_per_period(g);
  ASSERT_EQ(all.size(), 9u);
  EXPECT_EQ(all[7], R("31/12"));
  EXPECT_EQ(all[8], R("5"));
  EXPECT_EQ(all[6], R("0"));
}

TEST(Schedule, ToStringSortsByStart) {
  PeriodicSchedule s = sample_schedule();
  std::string text = s.to_string();
  EXPECT_NE(text.find("period = 2"), std::string::npos);
  auto comm0 = text.find("edge#0");
  auto comp = text.find("comp node#0");
  auto comm1 = text.find("edge#1");
  EXPECT_NE(comm0, std::string::npos);
  EXPECT_NE(comp, std::string::npos);
  EXPECT_NE(comm1, std::string::npos);
  EXPECT_LT(comp, comm1);  // comp starts at 0, comm1 at 1
}

}  // namespace
}  // namespace ssco::core
