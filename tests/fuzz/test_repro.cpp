// remo-repro-1 serialisation: canonical round trips and strict rejection
// of malformed input (a repro that parses wrong is worse than one that
// does not parse).
#include <gtest/gtest.h>

#include <string>

#include "fuzz/fuzz.hpp"
#include "fuzz/repro.hpp"

namespace remo::test {
namespace {

using fuzz::FuzzCase;

std::string replace_first(std::string text, const std::string& from,
                          const std::string& to) {
  const auto pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "fixture line missing: " << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

TEST(Repro, CaseRoundTripsExactly) {
  const FuzzCase fc = fuzz::make_case(123456789);
  const std::string text = fuzz::repro_to_text(fc);
  FuzzCase back;
  std::string err;
  ASSERT_TRUE(fuzz::repro_from_text(text, back, &err)) << err;
  EXPECT_EQ(back, fc);
  // Canonical: re-serialising the parse is byte-identical.
  EXPECT_EQ(fuzz::repro_to_text(back), text);
}

TEST(Repro, DeleteHeavyCaseRoundTrips) {
  // Find a seed whose case actually carries delete events, so the `d` line
  // form is covered.
  fuzz::GenOptions opts;
  opts.delete_permille = 600;
  FuzzCase fc;
  bool has_delete = false;
  for (std::uint64_t seed = 1; seed < 64 && !has_delete; ++seed) {
    fc = fuzz::make_case(seed, opts);
    for (const EdgeEvent& e : fc.events)
      has_delete |= e.op == EdgeOp::kDelete;
  }
  ASSERT_TRUE(has_delete) << "no seed in [1,64) produced a delete stream";
  const std::string text = fuzz::repro_to_text(fc);
  FuzzCase back;
  ASSERT_TRUE(fuzz::repro_from_text(text, back));
  EXPECT_EQ(back, fc);
}

TEST(Repro, FileRoundTrip) {
  const FuzzCase fc = fuzz::make_case(7);
  const std::string path = ::testing::TempDir() + "remo_repro_test.repro";
  std::string err;
  ASSERT_TRUE(fuzz::write_repro(path, fc, &err)) << err;
  FuzzCase back;
  ASSERT_TRUE(fuzz::read_repro(path, back, &err)) << err;
  EXPECT_EQ(back, fc);
}

TEST(Repro, QueryObserverIsRecordedAndReplayed) {
  // Served answers are part of the verdict in query-observer mode, so a
  // case found that way must replay that way.
  const FuzzCase fc = fuzz::make_case(11);
  const std::string plain = fuzz::repro_to_text(fc);
  const std::string observed = fuzz::repro_to_text(fc, {.query_observer = true});
  EXPECT_EQ(plain.find("query_observer"), std::string::npos)
      << "the optional line appears only when the observer was on";
  EXPECT_NE(observed.find("\nquery_observer 1\n"), std::string::npos);

  FuzzCase back;
  fuzz::RunOptions run;
  std::string err;
  ASSERT_TRUE(fuzz::repro_from_text(observed, back, &err, &run)) << err;
  EXPECT_EQ(back, fc);
  EXPECT_TRUE(run.query_observer);
  EXPECT_EQ(fuzz::repro_to_text(back, run), observed);

  ASSERT_TRUE(fuzz::repro_from_text(plain, back, &err, &run)) << err;
  EXPECT_FALSE(run.query_observer);

  const std::string path = ::testing::TempDir() + "remo_repro_observer.repro";
  ASSERT_TRUE(fuzz::write_repro(path, fc, &err, {.query_observer = true})) << err;
  run = {};
  ASSERT_TRUE(fuzz::read_repro(path, back, &err, &run)) << err;
  EXPECT_TRUE(run.query_observer);
}

TEST(Repro, ReadMissingFileFails) {
  FuzzCase out;
  std::string err;
  EXPECT_FALSE(fuzz::read_repro("/nonexistent/dir/x.repro", out, &err));
  EXPECT_FALSE(err.empty());
}

TEST(Repro, RejectsMalformedInput) {
  const FuzzCase fc = fuzz::make_case(5);
  const std::string good = fuzz::repro_to_text(fc);
  FuzzCase out;
  std::string err;
  ASSERT_TRUE(fuzz::repro_from_text(good, out, &err)) << err;

  struct Mutation {
    const char* name;
    std::string text;
  };
  const Mutation bad[] = {
      {"wrong magic", replace_first(good, "remo-repro-1", "remo-repro-9")},
      {"empty input", ""},
      {"missing key", replace_first(good, "\nranks ", "\nwrong_key ")},
      {"garbage number", replace_first(good, "\nranks ", "\nranks x")},
      {"zero ranks", replace_first(good, "\nranks ", "\nranks 0\nranks ")},
      {"bad algo", replace_first(good, "\nalgo ", "\nalgo katz\nalgo ")},
      {"bad op", replace_first(good, "\na ", "\nz ")},
      {"extra token", replace_first(good, "\na ", "\na 1 2 3 4\na ")},
      {"count too high", replace_first(good, "\nevents ", "\nevents 99999\nx ")},
      {"truncated", good.substr(0, good.size() / 2)},
  };
  for (const Mutation& m : bad) {
    err.clear();
    EXPECT_FALSE(fuzz::repro_from_text(m.text, out, &err)) << m.name;
    EXPECT_FALSE(err.empty()) << m.name << ": rejection must explain itself";
  }
}

}  // namespace
}  // namespace remo::test
