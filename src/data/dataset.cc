#include "data/dataset.h"

#include <algorithm>
#include <unordered_set>

#include "data/distinct_draws.h"
#include "util/assert.h"

namespace lsbench {

std::vector<double> Dataset::NormalizedKeys() const {
  std::vector<double> out;
  out.reserve(keys.size());
  const double scale =
      domain_max > 0 ? 1.0 / static_cast<double>(domain_max) : 1.0;
  for (uint64_t k : keys) out.push_back(static_cast<double>(k) * scale);
  return out;
}

Dataset GenerateDataset(const UnitDistribution& dist,
                        const DatasetOptions& options) {
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
      [&dist, &rng, scale](uint64_t* out, size_t count) {
        // The unit sample is < 1 so the scaled key is < domain_max.
        for (size_t i = 0; i < count; ++i) {
          out[i] = static_cast<uint64_t>(dist.Sample(&rng) * scale);
        }
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

const char* const kFirstNames[] = {
    "maria", "james", "wei", "fatima", "ivan",  "sofia", "liam",  "aisha",
    "yuki",  "pedro", "anna", "omar",   "chloe", "raj",   "elena", "noah",
    "mia",   "juan",  "lena", "kofi"};

const char* const kLastNames[] = {
    "chen",   "smith",  "garcia",  "mueller", "tanaka", "okafor", "silva",
    "kumar",  "ivanov", "dubois",  "rossi",   "kim",    "haddad", "nguyen",
    "brown",  "santos", "johnson", "lopez",   "wang",   "novak"};

// Popularity-ordered synthetic provider domains (Zipf-like usage).
const char* const kDomains[] = {
    "mailhub.example",   "inbox.example",   "postbox.example",
    "corp-mail.example", "uni.example",     "startup.example",
    "letters.example",   "rapid.example",   "cloudmsg.example",
    "relay.example"};

}  // namespace

EmailGenerator::EmailGenerator(uint64_t seed) : rng_(seed) {
  const size_t n = sizeof(kDomains) / sizeof(kDomains[0]);
  domains_.assign(kDomains, kDomains + n);
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

std::string EmailGenerator::Next() {
  const size_t nf = sizeof(kFirstNames) / sizeof(kFirstNames[0]);
  const size_t nl = sizeof(kLastNames) / sizeof(kLastNames[0]);
  const std::string first = kFirstNames[rng_.NextBounded(nf)];
  const std::string last = kLastNames[rng_.NextBounded(nl)];
  std::string local = first;
  switch (rng_.NextBounded(4)) {
    case 0:
      local = first + "." + last;
      break;
    case 1:
      local = first + last.substr(0, 1);
      break;
    case 2:
      local = first + "." + last + std::to_string(rng_.NextBounded(100));
      break;
    default:
      local = first + std::to_string(1950 + rng_.NextBounded(60));
      break;
  }
  const double u = rng_.NextDouble();
  const auto it =
      std::lower_bound(domain_cdf_.begin(), domain_cdf_.end(), u);
  const size_t idx =
      std::min<size_t>(it - domain_cdf_.begin(), domains_.size() - 1);
  return local + "@" + domains_[idx];
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
  std::sort(ds.keys.begin(), ds.keys.end());
  return ds;
}

}  // namespace lsbench
