// Golden-weights regression for the learned warm-start artifact.
//
// The checked-in artifact (tests/golden/learn_warm_v1.txt) is the model the
// serve layer arms in production configs.  This suite pins:
//  - the artifact loads, hash-verifies, and meets a quality floor on a
//    freshly sampled serving workload;
//  - every way the file can be bad (missing, truncated, corrupted value,
//    wrong hash, wrong header, oversized shape) comes back as a clean
//    failed Status -- never a throw;
//  - save/load round-trips bit-exactly;
//  - the artifact is frozen: its value hash equals a constant written here,
//    so an edit that also rewrites the file's own hash line still fails.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "rcr/learn/artifact.hpp"
#include "rcr/serve/workload.hpp"

namespace rcr::learn {
namespace {

const char* kGoldenPath = RCR_GOLDEN_DIR "/learn_warm_v1.txt";

/// FNV-1a value hash of the checked-in artifact.  Nothing regenerates the
/// file, so this constant only changes together with a deliberate,
/// reviewed replacement of the weights.
constexpr std::uint64_t kPinnedHash = 0x2ff999b553a46fabull;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::trunc);
  f << content;
}

TEST(GoldenWeights, ArtifactLoadsVerifiesAndMeetsQualityFloor) {
  const robust::Result<WarmStartPredictor> loaded =
      load_predictor(kGoldenPath);
  ASSERT_TRUE(loaded.status.ok()) << loaded.status.to_string();
  EXPECT_TRUE(loaded.value.shape_ok());
  EXPECT_EQ(loaded.value.version, kArtifactVersion);

  // Quality floor on an out-of-training workload slice: the learned start
  // must leave well under half of the cold start's projected-gradient
  // residual on average.
  serve::WorkloadConfig eval;  // defaults: 8 cells x 12 RBs
  eval.seed = 1234;  // the artifact was trained on the default seed, 42
  const std::vector<PowerQpData> dataset = serve::sample_power_qps(eval, 8);
  const double resid = mean_pg_residual(dataset, loaded.value, 1.0);
  EXPECT_LT(resid, 0.5) << "learned head quality regressed";
}

TEST(GoldenWeights, ArtifactIsPinned) {
  const robust::Result<WarmStartPredictor> loaded =
      load_predictor(kGoldenPath);
  ASSERT_TRUE(loaded.status.ok()) << loaded.status.to_string();
  EXPECT_EQ(predictor_hash(loaded.value), kPinnedHash)
      << "learn_warm_v1.txt changed";
}

TEST(GoldenWeights, SaveLoadRoundTripsBitExactly) {
  const WarmStartPredictor p = random_predictor(12, 3, 1.0, 2718);
  const std::string path = temp_path("roundtrip.txt");
  save_predictor(p, path);
  const robust::Result<WarmStartPredictor> r = load_predictor(path);
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_EQ(predictor_hash(r.value), predictor_hash(p));
  ASSERT_EQ(r.value.mlp.w1.size(), p.mlp.w1.size());
  for (std::size_t i = 0; i < p.mlp.w1.size(); ++i)
    EXPECT_EQ(r.value.mlp.w1[i], p.mlp.w1[i]);
  for (std::size_t i = 0; i < p.unrolled.log_rho.size(); ++i)
    EXPECT_EQ(r.value.unrolled.log_rho[i], p.unrolled.log_rho[i]);
  std::remove(path.c_str());
}

TEST(GoldenWeights, EveryCorruptionIsACleanStatusNotAThrow) {
  const WarmStartPredictor p = random_predictor(4, 2, 1.0, 99);
  const std::string base = temp_path("artifact.txt");
  save_predictor(p, base);
  const std::string good = slurp(base);
  ASSERT_FALSE(good.empty());

  const auto expect_load_fails = [&](const std::string& label,
                                     const std::string& content) {
    const std::string path = temp_path("corrupt.txt");
    spit(path, content);
    robust::Result<WarmStartPredictor> r;
    ASSERT_NO_THROW(r = load_predictor(path)) << label;
    EXPECT_FALSE(r.status.ok()) << label;
    EXPECT_EQ(r.status.code, robust::StatusCode::kNumericalFailure) << label;
    std::remove(path.c_str());
  };

  // Missing file.
  {
    robust::Result<WarmStartPredictor> r;
    ASSERT_NO_THROW(r = load_predictor(temp_path("no_such_file.txt")));
    EXPECT_FALSE(r.status.ok());
  }
  // Wrong header / version.
  expect_load_fails("bad header", "RCRLEARN v9\nmeta 4 2\n");
  expect_load_fails("garbage", "not an artifact at all\n");
  // Truncation (drop the last 5 lines: hash + tail of the alpha block).
  {
    std::istringstream in(good);
    std::vector<std::string> lines;
    for (std::string l; std::getline(in, l);) lines.push_back(l);
    ASSERT_GT(lines.size(), 5u);
    std::ostringstream out;
    for (std::size_t i = 0; i + 5 < lines.size(); ++i)
      out << lines[i] << "\n";
    expect_load_fails("truncated", out.str());
  }
  // A flipped value: hash must catch it.
  {
    std::string flipped = good;
    const std::size_t pos = flipped.find("\n0.");
    if (pos != std::string::npos) flipped[pos + 1] = '9';
    expect_load_fails("flipped value", flipped);
  }
  // An edited hash line.
  {
    std::string bad_hash = good;
    const std::size_t pos = bad_hash.find("hash ");
    ASSERT_NE(pos, std::string::npos);
    bad_hash[pos + 5] = bad_hash[pos + 5] == 'f' ? '0' : 'f';
    expect_load_fails("edited hash", bad_hash);
  }
  // A non-finite value (finite check runs before the hash check).
  {
    std::istringstream in(good);
    std::vector<std::string> lines;
    for (std::string l; std::getline(in, l);) lines.push_back(l);
    lines[3] = "nan";
    std::ostringstream out;
    for (const std::string& l : lines) out << l << "\n";
    expect_load_fails("non-finite value", out.str());
  }
  // Hidden width beyond the inference ceiling.
  expect_load_fails("oversized hidden",
                    "RCRLEARN v1\nmeta 100000 2\nblock w1 0\n");
  std::remove(base.c_str());
}

}  // namespace
}  // namespace rcr::learn
