#include "data/dataset.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <string>
#include <string_view>
#include <unordered_set>

#include "data/distinct_draws.h"
#include "util/assert.h"
#include "util/fan_out.h"

namespace lsbench {

std::vector<double> Dataset::NormalizedKeys() const {
  std::vector<double> out;
  out.reserve(keys.size());
  const double scale =
      domain_max > 0 ? 1.0 / static_cast<double>(domain_max) : 1.0;
  for (uint64_t k : keys) out.push_back(static_cast<double>(k) * scale);
  return out;
}

namespace {

/// Writes `count` draws of `dist` from `*rng`, scaled by `scale`, to `out`
/// on up to `parts` threads, and leaves `*rng` where drawing them one at a
/// time would: the keys and the end state do not depend on `parts`.
///
/// A call of BlockCount(count, parts) > 1 blocks first walks a copy of
/// `*rng` over the draws with Skip and records the state at each block's
/// start, moved forward past any draw that would leave a Box–Muller value
/// pending (Skip does not compute it). The blocks then Sample from their
/// recorded states on ForEachBlock's threads. A block that ends elsewhere
/// than the next block's recorded start means a Skip that does not move
/// the generator as its Sample does, and aborts the generation.
void DrawKeys(const UnitDistribution& dist, double scale, size_t parts,
              Rng* rng, uint64_t* out, size_t count) {
  const auto draw = [&dist, scale](Rng* from, uint64_t* first,
                                   uint64_t* last) {
    // The unit sample is < 1 so the scaled key is < domain_max.
    for (; first != last; ++first) {
      *first = static_cast<uint64_t>(dist.Sample(from) * scale);
    }
  };
  const size_t blocks = BlockCount(count, parts);
  if (blocks == 1) {
    draw(rng, out, out + count);
    return;
  }
  std::vector<size_t> begin = {0};  // begin[b]: block b's first draw.
  std::vector<Rng> start = {*rng};  // start[b]: the Rng at that draw.
  Rng walk = *rng;
  size_t drawn = 0;  // Draws `walk` has skipped.
  for (size_t b = 1; b < blocks; ++b) {
    const size_t nominal = b * (count / blocks);
    while (drawn < count && (drawn < nominal || walk.GaussianPending())) {
      dist.Skip(&walk);
      ++drawn;
    }
    if (drawn == count) break;
    if (drawn > begin.back()) {
      begin.push_back(drawn);
      start.push_back(walk);
    }
  }
  begin.push_back(count);
  std::vector<Rng> end(start.size());
  ForEachBlock(start.size(), [&](size_t b) {
    Rng block_rng = start[b];
    draw(&block_rng, out + begin[b], out + begin[b + 1]);
    end[b] = block_rng;
  });
  for (size_t b = 0; b + 1 < start.size(); ++b) {
    const bool continuous = end[b].SamePosition(start[b + 1]);
    if (continuous) continue;
    const std::string where =
        dist.name() + ": block " + std::to_string(b) + " (draws " +
        std::to_string(begin[b]) + " to " + std::to_string(begin[b + 1]) +
        " of " + std::to_string(count) +
        ") ends elsewhere than Skip put the next block's start";
    LSBENCH_ASSERT_MSG(continuous, where.c_str());
  }
  *rng = end.back();
}

}  // namespace

Dataset GenerateDataset(const UnitDistribution& dist,
                        const DatasetOptions& options) {
  return GenerateDataset(dist, options, HardwareParts());
}

Dataset GenerateDataset(const UnitDistribution& dist,
                        const DatasetOptions& options, size_t parts) {
  LSBENCH_ASSERT(options.num_keys > 0);
  LSBENCH_ASSERT(options.domain_max >= 2 * options.num_keys);
  Dataset ds;
  ds.name = dist.name();
  ds.domain_max = options.domain_max;
  ds.seed = options.seed;

  Rng rng(options.seed);
  const double scale = static_cast<double>(options.domain_max);
  ds.keys = DistinctSortedDraws(
      options.num_keys, 64 * options.num_keys + 1024,
      [&dist, &rng, scale, parts](uint64_t* out, size_t count) {
        DrawKeys(dist, scale, parts, &rng, out, count);
      });
  return ds;
}

std::vector<Dataset> GenerateDriftSequence(const UnitDistribution& from,
                                           const UnitDistribution& to,
                                           int steps,
                                           const DatasetOptions& options) {
  LSBENCH_ASSERT(steps >= 2);
  std::vector<Dataset> out;
  out.reserve(steps);
  for (int i = 0; i < steps; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(steps - 1);
    BlendUnit blend(&from, &to, t);
    DatasetOptions step_options = options;
    step_options.seed = options.seed + static_cast<uint64_t>(i) * 7919;
    out.push_back(GenerateDataset(blend, step_options));
  }
  return out;
}

namespace {

constexpr std::string_view kFirstNames[] = {
    "maria", "james", "wei", "fatima", "ivan",  "sofia", "liam",  "aisha",
    "yuki",  "pedro", "anna", "omar",   "chloe", "raj",   "elena", "noah",
    "mia",   "juan",  "lena", "kofi"};

constexpr std::string_view kLastNames[] = {
    "chen",   "smith",  "garcia",  "mueller", "tanaka", "okafor", "silva",
    "kumar",  "ivanov", "dubois",  "rossi",   "kim",    "haddad", "nguyen",
    "brown",  "santos", "johnson", "lopez",   "wang",   "novak"};

// Popularity-ordered synthetic provider domains (Zipf-like usage).
constexpr std::string_view kDomains[] = {
    "mailhub.example",   "inbox.example",   "postbox.example",
    "corp-mail.example", "uni.example",     "startup.example",
    "letters.example",   "rapid.example",   "cloudmsg.example",
    "relay.example"};

/// Appends the decimal digits of `value` to `out`.
void AppendDecimal(uint64_t value, std::string* out) {
  char digits[20];  // Enough for any uint64_t.
  const std::to_chars_result written =
      std::to_chars(digits, digits + sizeof(digits), value);
  out->append(digits, written.ptr);
}

}  // namespace

EmailGenerator::EmailGenerator(uint64_t seed) : rng_(seed) {
  const size_t n = std::size(kDomains);
  // Zipf(1.0) popularity over domains.
  double total = 0.0;
  std::vector<double> weights;
  for (size_t i = 0; i < n; ++i) {
    const double w = 1.0 / static_cast<double>(i + 1);
    weights.push_back(w);
    total += w;
  }
  double acc = 0.0;
  for (double w : weights) {
    acc += w / total;
    domain_cdf_.push_back(acc);
  }
  domain_cdf_.back() = 1.0;
}

const std::string& EmailGenerator::Next() {
  const std::string_view first =
      kFirstNames[rng_.NextBounded(std::size(kFirstNames))];
  const std::string_view last =
      kLastNames[rng_.NextBounded(std::size(kLastNames))];
  address_.assign(first);
  switch (rng_.NextBounded(4)) {
    case 0:
      address_ += '.';
      address_ += last;
      break;
    case 1:
      address_ += last.front();
      break;
    case 2:
      address_ += '.';
      address_ += last;
      AppendDecimal(rng_.NextBounded(100), &address_);
      break;
    default:
      AppendDecimal(1950 + rng_.NextBounded(60), &address_);
      break;
  }
  const double u = rng_.NextDouble();
  const auto it =
      std::lower_bound(domain_cdf_.begin(), domain_cdf_.end(), u);
  const size_t idx =
      std::min<size_t>(it - domain_cdf_.begin(), std::size(kDomains) - 1);
  address_ += '@';
  address_ += kDomains[idx];
  return address_;
}

uint64_t EmailGenerator::ToKey(const std::string& email) {
  uint64_t key = 0;
  for (size_t i = 0; i < 8; ++i) {
    key <<= 8;
    if (i < email.size()) key |= static_cast<uint8_t>(email[i]);
  }
  return key;
}

Dataset GenerateEmailDataset(size_t num_keys, uint64_t seed) {
  EmailGenerator gen(seed);
  // Not reserved for num_keys: keys are 8-byte address prefixes, which
  // collide often, and the generator yields only about 4k distinct ones,
  // so the set never outgrows that space.
  std::unordered_set<uint64_t> seen;
  // Stop once the generator stagnates — a long run of attempts with no new
  // key — rather than burning a num_keys-proportional attempt budget: with
  // a saturated space that budget is O(num_keys * 1000) wasted string
  // builds, slow enough to stall spec parsing.
  constexpr size_t kStagnationWindow = 10000;
  size_t attempts = 0;
  size_t last_growth = 0;
  while (seen.size() < num_keys) {
    const size_t before = seen.size();
    seen.insert(EmailGenerator::ToKey(gen.Next()));
    ++attempts;
    if (seen.size() > before) {
      last_growth = attempts;
    } else if (attempts - last_growth >= kStagnationWindow) {
      break;
    }
  }
  Dataset ds;
  ds.name = "emails";
  ds.domain_max = ~uint64_t{0};
  ds.seed = seed;
  ds.keys.assign(seen.begin(), seen.end());
  // One part: the few thousand distinct keys fit in one block.
  ParallelSortKeys(ds.keys.data(), ds.keys.size(), 1);
  return ds;
}

}  // namespace lsbench
