// Unit tests for the util library: PRNG determinism and distribution sanity,
// timers, running stats, CLI parsing, table rendering, and the CRC32 kernel
// (known answers plus a differential check against a bytewise reference).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace du = dlouvain::util;

TEST(Prng, SplitmixIsDeterministic) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(du::splitmix64(s1), du::splitmix64(s2));
}

TEST(Prng, MixSeparatesNearbyKeys) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t k = 0; k < 1000; ++k) seen.insert(du::mix64(k));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Prng, HashRandUnitInRange) {
  for (std::uint64_t k = 0; k < 10000; ++k) {
    const double x = du::hash_rand_unit(k);
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Prng, HashRandUnitIsUniformish) {
  // Mean of U(0,1) over 100k keyed draws should be close to 0.5.
  double sum = 0;
  const int n = 100000;
  for (int k = 0; k < n; ++k) sum += du::hash_rand_unit(7, k, 3, 5);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Prng, KeyedDrawIndependentOfCallOrder) {
  const double a = du::hash_rand_unit(1, 2, 3, 4);
  (void)du::hash_rand_unit(9, 9, 9, 9);
  EXPECT_EQ(a, du::hash_rand_unit(1, 2, 3, 4));
}

TEST(Prng, XoshiroSequenceDeterministic) {
  du::Xoshiro256StarStar g1(123);
  du::Xoshiro256StarStar g2(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(g1(), g2());
}

TEST(Prng, XoshiroNextBelowRespectsBound) {
  du::Xoshiro256StarStar gen(5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(gen.next_below(17), 17u);
}

TEST(Prng, XoshiroNextBelowCoversRange) {
  du::Xoshiro256StarStar gen(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(gen.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Prng, XoshiroUnitInRange) {
  du::Xoshiro256StarStar gen(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = gen.next_unit();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Timer, MeasuresElapsedTime) {
  du::WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.millis(), 15.0);
}

TEST(Timer, AccumSumsWindows) {
  du::AccumTimer acc;
  for (int i = 0; i < 3; ++i) {
    acc.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    acc.stop();
  }
  EXPECT_EQ(acc.count(), 3);
  EXPECT_GE(acc.seconds(), 0.010);
}

TEST(Timer, ScopedAccumStopsOnDestruction) {
  du::AccumTimer acc;
  {
    du::ScopedAccum scope(acc);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(acc.count(), 1);
  EXPECT_GT(acc.seconds(), 0.0);
}

TEST(Stats, RunningStatsBasics) {
  du::RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(du::percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(du::percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(du::percentile(xs, 50), 25);
}

TEST(Cli, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--n", "32", "--alpha=0.25", "--verbose"};
  du::Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 1), 32);
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 0.25);
  EXPECT_TRUE(cli.get_flag("verbose"));
  EXPECT_TRUE(cli.finish());
}

TEST(Cli, DefaultsApplyWhenMissing) {
  const char* argv[] = {"prog"};
  du::Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_EQ(cli.get_string("name", "abc"), "abc");
  EXPECT_FALSE(cli.get_flag("x"));
  EXPECT_TRUE(cli.finish());
}

TEST(Cli, UnknownFlagFailsFinish) {
  const char* argv[] = {"prog", "--oops", "1"};
  du::Cli cli(3, argv);
  (void)cli.get_int("n", 7);
  EXPECT_FALSE(cli.finish());
}

TEST(Cli, ParsesIntAndDoubleLists) {
  const char* argv[] = {"prog", "--ranks", "2,4,8", "--alpha", "0.25,0.75"};
  du::Cli cli(5, argv);
  EXPECT_EQ(cli.get_int_list("ranks", {}), (std::vector<std::int64_t>{2, 4, 8}));
  EXPECT_EQ(cli.get_double_list("alpha", {}), (std::vector<double>{0.25, 0.75}));
  EXPECT_TRUE(cli.finish());
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(du::Cli(2, argv), std::invalid_argument);
}

TEST(Table, AlignsColumnsAndCountsRows) {
  du::TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2.5"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
}

TEST(Table, MarkdownHasSeparatorRow) {
  du::TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_markdown(os);
  EXPECT_NE(os.str().find("|---|---|"), std::string::npos);
}

TEST(Table, FmtFormatsNumbers) {
  EXPECT_EQ(du::TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(du::TextTable::fmt(static_cast<long long>(42)), "42");
}

// ---- CRC32: the slice-by-8 kernel must equal the plain IEEE definition ----

namespace {

/// The textbook reflected IEEE CRC32, one bit at a time: the reference the
/// sliced kernel is checked against (deliberately table-free).
std::uint32_t reference_crc32(const unsigned char* data, std::size_t size) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  du::Xoshiro256StarStar rng(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng() >> 56);
  return bytes;
}

}  // namespace

TEST(Crc32, KnownAnswers) {
  const char check[] = "123456789";
  EXPECT_EQ(du::crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(du::crc32(nullptr, 0), 0u);
  EXPECT_EQ(du::crc32(std::span<const std::byte>{}), 0u);
  const char fox[] = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(du::crc32(fox, sizeof(fox) - 1), 0x414FA339u);
}

TEST(Crc32, EveryLengthAndOffsetMatchesBytewiseReference) {
  // Lengths 0..256 cover the empty input, every tail length (0..7) after
  // 0..32 full 8-byte steps; offsets 0..7 cover every misalignment.
  const auto buf = random_bytes(256 + 8, 0xc0ffee);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(du::crc32(p, len), reference_crc32(p, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(Crc32, IncrementalUpdateOverRandomSplitsMatchesOneShot) {
  const auto buf = random_bytes(5000, 17);
  const std::uint32_t want = reference_crc32(buf.data(), buf.size());
  ASSERT_EQ(du::crc32(buf.data(), buf.size()), want);
  du::Xoshiro256StarStar rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    du::Crc32 crc;
    std::size_t at = 0;
    while (at < buf.size()) {
      // Mostly short chunks (tail paths, odd boundaries), sometimes long.
      const std::size_t cap = rng.next_below(4) == 0 ? 600 : 13;
      const std::size_t n = std::min<std::size_t>(rng.next_below(cap + 1), buf.size() - at);
      crc.update(buf.data() + at, n);
      at += n;
    }
    ASSERT_EQ(crc.value(), want) << "trial " << trial;
  }
}
