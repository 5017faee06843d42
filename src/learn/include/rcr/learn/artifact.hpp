// Versioned golden-weights artifact for the learned warm-start predictor.
//
// Text format (line-oriented, locale-free %.17g doubles so values round-trip
// bit-exactly):
//
//   RCRLEARN v1
//   meta <hidden> <unrolled_steps>
//   block <name> <count>
//   <count values, one per line>
//   ... (blocks: w1 b1 w2 b2 w3 b3 log_rho alpha, in that order)
//   hash <16 hex digits>
//
// The trailing hash is FNV-1a over the IEEE-754 bit patterns of every value
// in block order -- any corruption (bit flip, truncation, edited value)
// fails the check.  load_predictor NEVER throws on bad input: a missing
// file, malformed line, shape violation, non-finite value, or hash mismatch
// all come back as a clean robust::Status, because a serving process must
// degrade to the exact solver, not crash, when its model file is bad.
//
// The checked-in tests/golden/learn_warm_v1.txt is a frozen artifact: no
// code in the repository retrains or rewrites it, and
// GoldenWeights.ArtifactIsPinned fails on any edit, even one that also
// rewrites the hash line.
#pragma once

#include <string>

#include "rcr/learn/predictor.hpp"
#include "rcr/robust/status.hpp"

namespace rcr::learn {

/// Current artifact format version.
inline constexpr std::uint32_t kArtifactVersion = 1;

/// FNV-1a over the IEEE-754 bit patterns of the predictor's values in
/// serialization order (the artifact's integrity hash).
std::uint64_t predictor_hash(const WarmStartPredictor& p);

/// Serialize to `path`.  Throws std::runtime_error on I/O failure (only
/// tests write artifacts; serving never does).
void save_predictor(const WarmStartPredictor& p, const std::string& path);

/// Deserialize from `path`.  Returns kOk with a shape-valid, all-finite,
/// hash-verified predictor, or a failed Status (kNumericalFailure with a
/// detail naming the first problem) -- never throws on bad input.
robust::Result<WarmStartPredictor> load_predictor(const std::string& path);

}  // namespace rcr::learn
