#include "core/pdistance.h"

#include <gtest/gtest.h>

namespace p4p::core {
namespace {

TEST(PDistanceMatrix, InitialValue) {
  PDistanceMatrix m(3, 5.0);
  EXPECT_EQ(m.size(), 3);
  for (Pid i = 0; i < 3; ++i) {
    for (Pid j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(m.at(i, j), 5.0);
    }
  }
}

TEST(PDistanceMatrix, SetGet) {
  PDistanceMatrix m(4);
  m.set(1, 2, 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 3.5);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 0.0);  // asymmetric by design
}

TEST(PDistanceMatrix, BoundsChecked) {
  PDistanceMatrix m(2);
  EXPECT_THROW(m.at(-1, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
  EXPECT_THROW(m.set(2, 0, 1.0), std::out_of_range);
}

TEST(PDistanceMatrix, RowViewsOneSourcePid) {
  PDistanceMatrix m(3);
  for (Pid j = 0; j < 3; ++j) m.set(1, j, 10.0 + j);
  const auto row = m.row(1);
  ASSERT_EQ(row.size(), 3u);
  for (Pid j = 0; j < 3; ++j) EXPECT_EQ(row[static_cast<std::size_t>(j)], m.at(1, j));
  EXPECT_THROW(m.row(-1), std::out_of_range);
  EXPECT_THROW(m.row(3), std::out_of_range);
}

TEST(PDistanceMatrix, RejectsNegativeSize) {
  EXPECT_THROW(PDistanceMatrix(-1), std::invalid_argument);
}

TEST(PDistanceMatrix, AdoptsRowMajorValues) {
  const PDistanceMatrix m(2, std::vector<double>{0.0, 1.5, 2.5, 0.0});
  EXPECT_EQ(m.size(), 2);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 2.5);
  EXPECT_EQ(PDistanceMatrix(0, std::vector<double>{}).size(), 0);
}

TEST(PDistanceMatrix, ValuesConstructorRejectsSizeMismatch) {
  EXPECT_THROW(PDistanceMatrix(2, std::vector<double>(3)), std::invalid_argument);
  EXPECT_THROW(PDistanceMatrix(2, std::vector<double>(5)), std::invalid_argument);
  EXPECT_THROW(PDistanceMatrix(0, std::vector<double>(1)), std::invalid_argument);
  EXPECT_THROW(PDistanceMatrix(-1, std::vector<double>(1)), std::invalid_argument);
}

TEST(PDistanceMatrix, RankFromOrdersByDistance) {
  PDistanceMatrix m(4);
  m.set(0, 0, 0.0);
  m.set(0, 1, 9.0);
  m.set(0, 2, 1.0);
  m.set(0, 3, 4.0);
  const auto ranks = m.RankFrom(0);
  EXPECT_EQ(ranks, (std::vector<Pid>{0, 2, 3, 1}));
}

TEST(PDistanceMatrix, RankFromStableOnTies) {
  PDistanceMatrix m(3, 1.0);
  const auto ranks = m.RankFrom(1);
  EXPECT_EQ(ranks, (std::vector<Pid>{0, 1, 2}));
}

TEST(PDistanceMatrix, NormalizeScalesMaxToOne) {
  PDistanceMatrix m(2);
  m.set(0, 1, 10.0);
  m.set(1, 0, 5.0);
  m.Normalize();
  EXPECT_DOUBLE_EQ(m.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.5);
}

TEST(PDistanceMatrix, NormalizeNoOpOnZeroMatrix) {
  PDistanceMatrix m(2);
  m.Normalize();
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(PDistanceMatrix, ZeroSizeMatrixIsUsable) {
  PDistanceMatrix m(0);
  EXPECT_EQ(m.size(), 0);
  m.Normalize();
}

}  // namespace
}  // namespace p4p::core
