// Structure-aware fuzz driver for the rcr::learn box projection.
//
// A byte buffer decodes into a box case (bounds + point), with the point's
// *raw u64 bit patterns* reinterpreted as doubles so NaN payloads,
// infinities, denormals, and huge magnitudes all reach the projection
// unsanitized -- the projection promises totality on exactly that input
// space.  Invariants re-checked per input: the projected point is feasible,
// projection is bitwise idempotent, and no exception escapes for
// in-contract bounds.
//
// Default build: standalone smoke binary (deterministic corpus + SplitMix64
// mutation loop under RCR_FUZZ_BUDGET_S, ctest label `fuzz-smoke`).  With
// -DRCR_LIBFUZZER=1 the same check exports LLVMFuzzerTestOneInput.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "rcr/learn/project.hpp"
#include "rcr/testkit/env.hpp"
#include "rcr/testkit/fuzz.hpp"

namespace tk = rcr::testkit;

namespace {

/// Raw bit-pattern double: unlike ByteReader::sample this is deliberately
/// NOT sanitized -- the projection must survive any of the 2^64 patterns.
double raw_double(tk::ByteReader& reader) {
  const std::uint64_t bits = reader.u64();
  double x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

std::string fuzz_projection_one(const std::uint8_t* data, std::size_t size) {
  tk::ByteReader reader(data, size);

  // Contract-valid bounds (finite, lo <= hi), raw point.
  const std::size_t n = reader.size_in(1, 48);
  rcr::learn::Vec lo(n), hi(n), v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = reader.sample(100.0);
    const double width = std::abs(reader.sample(100.0));
    lo[i] = a;
    hi[i] = a + width;
    v[i] = raw_double(reader);
  }
  rcr::learn::Vec once, twice;
  try {
    once = rcr::learn::project_box(v, lo, hi);
    twice = rcr::learn::project_box(once, lo, hi);
  } catch (const std::exception& e) {
    return std::string("project_box threw on in-contract bounds: ") +
           e.what();
  }
  if (!rcr::learn::box_feasible(once, lo, hi))
    return "box projection not feasible";
  for (std::size_t i = 0; i < n; ++i)
    if (std::memcmp(&once[i], &twice[i], sizeof(double)) != 0)
      return "box projection not bitwise idempotent at " + std::to_string(i);
  return std::string();
}

/// Seed corpus: hand-picked buffers hitting the corners -- empty input
/// (ByteReader zero-fills: n=1, zero box), all-0xff (NaN bit patterns,
/// max sizes), alternating bytes (denormal-ish patterns), and a long
/// mixed buffer at full width.
std::vector<std::vector<std::uint8_t>> projection_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;
  corpus.push_back({});
  corpus.push_back(std::vector<std::uint8_t>(64, 0x00));
  corpus.push_back(std::vector<std::uint8_t>(256, 0xff));
  std::vector<std::uint8_t> alt(512);
  for (std::size_t i = 0; i < alt.size(); ++i)
    alt[i] = (i % 2) ? 0x7f : 0xf0;  // builds inf/NaN-exponent patterns
  corpus.push_back(alt);
  std::vector<std::uint8_t> mixed(1024);
  std::uint64_t s = 0x243f6a8885a308d3ull;
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    s = tk::splitmix64(s);
    mixed[i] = static_cast<std::uint8_t>(s);
  }
  corpus.push_back(mixed);
  return corpus;
}

}  // namespace

#if defined(RCR_LIBFUZZER)

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string diag = fuzz_projection_one(data, size);
  if (!diag.empty()) {
    std::fprintf(stderr, "invariant violated: %s\n", diag.c_str());
    __builtin_trap();
  }
  return 0;
}

#else  // standalone smoke driver

namespace {

std::string hex_dump(const std::vector<std::uint8_t>& buf) {
  std::ostringstream os;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    char b[4];
    std::snprintf(b, sizeof(b), "%02x", buf[i]);
    os << b;
  }
  return os.str();
}

int report_failure(const std::vector<std::uint8_t>& input,
                   const std::string& diag, std::uint64_t mutation_seed,
                   std::size_t iteration) {
  std::ostringstream os;
  os << "fuzz_projection FAILED\n"
     << "  diagnostic:    " << diag << "\n"
     << "  iteration:     " << iteration << "\n"
     << "  mutation seed: " << mutation_seed << "\n"
     << "  input (" << input.size() << " bytes): " << hex_dump(input) << "\n";
  std::fprintf(stderr, "%s", os.str().c_str());
  const std::string artifact =
      tk::write_artifact("fuzz_projection.crash.txt", os.str());
  if (!artifact.empty())
    std::fprintf(stderr, "  artifact:      %s\n", artifact.c_str());
  return 1;
}

}  // namespace

int main() {
  const double budget = tk::env_fuzz_budget_seconds(2.0);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(budget);

  const auto corpus = projection_corpus();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string diag =
        fuzz_projection_one(corpus[i].data(), corpus[i].size());
    if (!diag.empty()) return report_failure(corpus[i], diag, 0, i);
  }

  std::size_t iterations = 0;
  std::uint64_t seed = 0x5eedb0c5ull;
  while (std::chrono::steady_clock::now() < deadline) {
    for (const auto& base : corpus) {
      std::vector<std::uint8_t> input = base;
      seed = tk::splitmix64(seed);
      tk::mutate(input, seed, 6);
      const std::string diag =
          fuzz_projection_one(input.data(), input.size());
      if (!diag.empty()) return report_failure(input, diag, seed, iterations);
      ++iterations;
    }
  }

  std::printf("fuzz_projection: %zu corpus + %zu mutated inputs clean "
              "(budget %.1fs)\n",
              corpus.size(), iterations, budget);
  return 0;
}

#endif  // RCR_LIBFUZZER
