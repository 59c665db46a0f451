// Unit tests for the tl_common foundation library: strings, config decks,
// CLI parsing, tables, RNG, spans and buffers.
#include <gtest/gtest.h>

#include "common/aligned_buffer.hpp"
#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/span2d.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace {

// --- string_util ----------------------------------------------------------

TEST(StringUtil, TrimStripsBothEnds) {
  EXPECT_EQ(tl::trim("  hello \t\n"), "hello");
  EXPECT_EQ(tl::trim(""), "");
  EXPECT_EQ(tl::trim(" \t "), "");
  EXPECT_EQ(tl::trim("x"), "x");
}

TEST(StringUtil, ToLower) {
  EXPECT_EQ(tl::to_lower("TeaLeaf MPI"), "tealeaf mpi");
}

TEST(StringUtil, SplitDropsEmptyTokensByDefault) {
  EXPECT_EQ(tl::split("a,,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(tl::split("a,,b", ',', true),
            (std::vector<std::string>{"a", "", "b"}));
}

TEST(StringUtil, SplitWhitespaceRuns) {
  EXPECT_EQ(tl::split_ws("  a \t b\nc "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(tl::split_ws("   ").empty());
}

TEST(StringUtil, IequalsAndStartsWith) {
  EXPECT_TRUE(tl::iequals("TeaLeaf", "tealeaf"));
  EXPECT_FALSE(tl::iequals("tea", "teal"));
  EXPECT_TRUE(tl::starts_with("--threads", "--"));
  EXPECT_FALSE(tl::starts_with("-", "--"));
}

TEST(StringUtil, ParseDoubleAcceptsScientific) {
  EXPECT_DOUBLE_EQ(tl::parse_double("1.5e-3"), 1.5e-3);
  EXPECT_DOUBLE_EQ(tl::parse_double("  -2.25 "), -2.25);
  EXPECT_THROW(tl::parse_double("12abc"), tl::ConfigError);
  EXPECT_THROW(tl::parse_double(""), tl::ConfigError);
}

TEST(StringUtil, ParseLongRejectsTrailingGarbage) {
  EXPECT_EQ(tl::parse_long("1234"), 1234);
  EXPECT_EQ(tl::parse_long("-7"), -7);
  EXPECT_THROW(tl::parse_long("1.5"), tl::ConfigError);
}

TEST(StringUtil, ParseBoolForms) {
  EXPECT_TRUE(tl::parse_bool("true"));
  EXPECT_TRUE(tl::parse_bool("ON"));
  EXPECT_FALSE(tl::parse_bool("0"));
  EXPECT_THROW(tl::parse_bool("maybe"), tl::ConfigError);
}

// --- config ----------------------------------------------------------------

TEST(Config, DefaultConfigIsValid) {
  const tl::Config cfg = tl::Config::default_config();
  EXPECT_EQ(cfg.problem().x_cells, 10);
  EXPECT_EQ(cfg.problem().end_step, 10);
  EXPECT_EQ(cfg.problem().solver, tl::SolverKind::kCg);
  ASSERT_EQ(cfg.problem().states.size(), 2u);
  EXPECT_DOUBLE_EQ(cfg.problem().states[0].density, 100.0);
}

TEST(Config, ParsesFortranStyleExponents) {
  const auto cfg = tl::Config::parse(R"(*tea
state 1 density=1.0 energy=1.0
tl_eps=1.0d-12
x_cells=4
y_cells=4
*endtea)");
  EXPECT_DOUBLE_EQ(cfg.problem().eps, 1e-12);
}

TEST(Config, ParsesSolverSelectionFlags) {
  for (const auto& [flag, kind] :
       {std::pair{"tl_use_jacobi", tl::SolverKind::kJacobi},
        std::pair{"tl_use_cg", tl::SolverKind::kCg},
        std::pair{"tl_use_chebyshev", tl::SolverKind::kCheby},
        std::pair{"tl_use_ppcg", tl::SolverKind::kPpcg}}) {
    const auto cfg = tl::Config::parse(std::string("*tea\n") +
                                       "state 1 density=1 energy=1\n" + flag +
                                       "\n*endtea\n");
    EXPECT_EQ(cfg.problem().solver, kind) << flag;
  }
}

TEST(Config, ParsesCircleAndPointStates) {
  const auto cfg = tl::Config::parse(R"(*tea
state 1 density=1.0 energy=1.0
state 2 density=2.0 energy=3.0 geometry=circle xcentre=5.0 ycentre=5.0 radius=2.0
state 3 density=4.0 energy=5.0 geometry=point xcentre=1.0 ycentre=1.0
*endtea)");
  ASSERT_EQ(cfg.problem().states.size(), 3u);
  EXPECT_EQ(cfg.problem().states[1].geometry, tl::Geometry::kCircle);
  EXPECT_DOUBLE_EQ(cfg.problem().states[1].radius, 2.0);
  EXPECT_EQ(cfg.problem().states[2].geometry, tl::Geometry::kPoint);
}

TEST(Config, CommentsAndBlankLinesIgnored) {
  const auto cfg = tl::Config::parse(R"(*tea
! full line comment
state 1 density=1.0 energy=1.0  ! trailing comment
# hash comment

x_cells=7
*endtea)");
  EXPECT_EQ(cfg.problem().x_cells, 7);
}

TEST(Config, RejectsMissingBlock) {
  EXPECT_THROW(tl::Config::parse("x_cells=4"), tl::ConfigError);
}

TEST(Config, RejectsUnknownDirective) {
  EXPECT_THROW(tl::Config::parse("*tea\nstate 1 density=1 energy=1\n"
                                 "bogus_key=3\n*endtea"),
               tl::ConfigError);
}

TEST(Config, RejectsNonPositiveDensity) {
  EXPECT_THROW(tl::Config::parse("*tea\nstate 1 density=0 energy=1\n*endtea"),
               tl::ConfigError);
}

TEST(Config, RejectsInvertedExtents) {
  EXPECT_THROW(tl::Config::parse("*tea\nstate 1 density=1 energy=1\n"
                                 "xmin=5 xmax=1\n*endtea"),
               tl::ConfigError);
}

TEST(Config, RejectsMissingState) {
  EXPECT_THROW(tl::Config::parse("*tea\nx_cells=4\n*endtea"), tl::ConfigError);
}

TEST(Config, DeckRoundTrips) {
  const tl::Config original = tl::Config::default_config();
  const std::string deck = tl::to_deck(original.problem());
  const tl::Config reparsed = tl::Config::parse(deck);
  EXPECT_EQ(reparsed.problem().x_cells, original.problem().x_cells);
  EXPECT_EQ(reparsed.problem().solver, original.problem().solver);
  EXPECT_DOUBLE_EQ(reparsed.problem().eps, original.problem().eps);
  EXPECT_EQ(reparsed.problem().states.size(), original.problem().states.size());
}

TEST(Config, RawKeyAccess) {
  const auto cfg = tl::Config::parse(
      "*tea\nstate 1 density=1 energy=1\ntest_problem=5\n*endtea");
  ASSERT_TRUE(cfg.raw("test_problem").has_value());
  EXPECT_EQ(*cfg.raw("test_problem"), "5");
  EXPECT_FALSE(cfg.raw("nonexistent").has_value());
}

// --- cli --------------------------------------------------------------------

TEST(Cli, ParsesFlagsValuesAndPositionals) {
  // Note `--verbose` is last-or-followed-by-an-option: a bare token right
  // after an option is consumed as its value (documented `--key value` form).
  const char* argv[] = {"prog", "deck.in", "--nx", "128",
                        "--verbose", "--eps=1e-9"};
  const tl::Cli cli(6, argv);
  EXPECT_EQ(cli.get_long("nx", 0), 128);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), 1e-9);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "deck.in");
  EXPECT_EQ(cli.get_or("missing", "fallback"), "fallback");
}

// --- table ------------------------------------------------------------------

TEST(Table, AsciiAlignsColumns) {
  tl::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "123456"});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("| alpha |"), std::string::npos);
  EXPECT_NE(ascii.find("123456"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  tl::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), tl::Error);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  tl::Table t({"k"});
  t.add_row({"a,b"});
  t.add_row({"say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(tl::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(tl::Table::num(2.0, 0), "2");
}

// --- rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  tl::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  tl::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  tl::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  tl::Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const long v = rng.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// --- span2d / aligned buffer -------------------------------------------------

TEST(Span2D, RowMajorIndexing) {
  double data[6] = {0, 1, 2, 3, 4, 5};
  tl::Span2D<double> s(data, 3, 2);
  EXPECT_DOUBLE_EQ(s(0, 0), 0);
  EXPECT_DOUBLE_EQ(s(2, 0), 2);
  EXPECT_DOUBLE_EQ(s(0, 1), 3);
  EXPECT_DOUBLE_EQ(s(2, 1), 5);
}

TEST(Span2D, AtBoundsChecks) {
  double data[4] = {};
  tl::Span2D<double> s(data, 2, 2);
  EXPECT_NO_THROW(s.at(1, 1));
  EXPECT_THROW(s.at(2, 0), tl::Error);
  EXPECT_THROW(s.at(0, -1), tl::Error);
}

TEST(AlignedBuffer, SixtyFourByteAligned) {
  tl::AlignedBuffer<double> buf(37);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
  EXPECT_EQ(buf.size(), 37u);
}

TEST(AlignedBuffer, FillAndCopySemantics) {
  tl::AlignedBuffer<double> buf(8, 2.5);
  for (const double v : buf) EXPECT_DOUBLE_EQ(v, 2.5);
  tl::AlignedBuffer<double> copy = buf;
  copy[0] = -1.0;
  EXPECT_DOUBLE_EQ(buf[0], 2.5);
  tl::AlignedBuffer<double> moved = std::move(copy);
  EXPECT_DOUBLE_EQ(moved[0], -1.0);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(AlignedBuffer, Span2DViewChecksBounds) {
  tl::AlignedBuffer<double> buf(12);
  EXPECT_NO_THROW(buf.span2d(4, 3));
  EXPECT_THROW(buf.span2d(5, 3), tl::Error);
}

// --- timer ------------------------------------------------------------------

TEST(Timer, StopWatchMonotonic) {
  tl::StopWatch w;
  const double a = w.seconds();
  const double b = w.seconds();
  EXPECT_GE(b, a);
  w.reset();
  EXPECT_GE(w.seconds(), 0.0);
}

}  // namespace
