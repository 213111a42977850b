// Pins the serial engine's results to digests recorded from an earlier
// build, so a change to the shared TEGUS pipeline cannot silently change
// what it produces.
//
// The serial == parallel == served == cluster identity tests cannot catch
// such a change: every side of them runs the same pipeline. This test
// compares against fixed numbers instead. Each digest covers, for one
// (circuit, configuration) run, every FaultOutcome field except the
// wall-clock solve_seconds, every test pattern, and every counter of the
// AtpgResult. The runs are deterministic and use no floating point that an
// optimization level could change, so the digests hold in every build type.
//
// A deliberate change to the engine's results updates the tables below;
// the failure message prints each new digest.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fault/tegus.hpp"
#include "gen/suites.hpp"
#include "gen/trees.hpp"

namespace cwatpg::fault {
namespace {

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest_of(const AtpgResult& r) {
  Digest d;
  d.add(r.outcomes.size());
  for (const FaultOutcome& o : r.outcomes) {
    d.add(o.fault.node);
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(o.fault.pin)));
    d.add(o.fault.stuck_value);
    d.add(static_cast<std::uint64_t>(o.status));
    d.add(static_cast<std::uint64_t>(o.engine));
    d.add(o.attempts);
    d.add(static_cast<std::uint64_t>(o.test_index));
    d.add(o.sat_vars);
    d.add(o.sat_clauses);
    const sat::SolverStats& s = o.solver_stats;
    d.add(s.decisions);
    d.add(s.propagations);
    d.add(s.conflicts);
    d.add(s.learnt_clauses);
    d.add(s.learnt_literals);
    d.add(s.restarts);
    d.add(s.reused_implications);
    d.add(static_cast<std::uint64_t>(s.stop_reason));
  }
  d.add(r.tests.size());
  for (const Pattern& p : r.tests) {
    d.add(p.size());
    for (const bool bit : p) d.add(bit);
  }
  d.add(r.num_detected);
  d.add(r.num_untestable);
  d.add(r.num_aborted);
  d.add(r.num_unreachable);
  d.add(r.num_undetermined);
  d.add(r.num_escalated);
  d.add(r.interrupted);
  return d.value();
}

/// c17, the ISCAS85-like suite and every sixth MCNC91-like member, both
/// at scale 0.1.
const std::vector<net::Network>& circuits() {
  static const std::vector<net::Network> all = [] {
    std::vector<net::Network> v{gen::c17()};
    gen::SuiteOptions opts;
    opts.scale = 0.1;
    for (net::Network& n : gen::iscas85_like_suite(opts))
      v.push_back(std::move(n));
    std::vector<net::Network> mcnc = gen::mcnc_like_suite(opts);
    for (std::size_t i = 0; i < mcnc.size(); i += 6)
      v.push_back(std::move(mcnc[i]));
    return v;
  }();
  return all;
}

constexpr std::size_t kCircuits = 1 + 9 + 8;

struct PinCase {
  const char* name;
  AtpgOptions options;
  std::array<std::uint64_t, kCircuits> digests;
};

AtpgOptions defaults() { return {}; }

AtpgOptions no_random_no_drop() {
  AtpgOptions o;
  o.random_blocks = 0;
  o.drop_by_simulation = false;
  return o;
}

AtpgOptions no_random() {
  AtpgOptions o;
  o.random_blocks = 0;
  return o;
}

/// Aborts every instance that needs a second conflict: runs the SAT
/// retries and the drops of tests the escalation ladder found.
AtpgOptions one_conflict() {
  AtpgOptions o;
  o.solver.max_conflicts = 1;
  return o;
}

/// No SAT rounds: every abort goes straight to PODEM, whose tests drop
/// later aborts too.
AtpgOptions podem_only() {
  AtpgOptions o;
  o.solver.max_conflicts = 2;
  o.escalation_rounds = 0;
  return o;
}

AtpgOptions incremental() {
  AtpgOptions o;
  o.engine = AtpgEngine::kIncremental;
  return o;
}

AtpgOptions incremental_one_conflict() {
  AtpgOptions o = incremental();
  o.solver.max_conflicts = 1;
  return o;
}

const std::vector<PinCase>& pin_cases() {
  static const std::vector<PinCase> cases = {
      {"defaults",
       defaults(),
       {
        0xa57c8647c58f9effULL, 0xf7f2eb73a5729e0dULL, 0x83db9067d48a8e21ULL,
        0xe2986c1d15e31da1ULL, 0x83db9067d48a8e21ULL, 0x83db9067d48a8e21ULL,
        0xe2986c1d15e31da1ULL, 0x4e9d44a51d74ff85ULL, 0xe7b789769540da0bULL,
        0x8476a0c7f62877deULL, 0x878555f3777c21aeULL, 0x8283bbc8df4b255dULL,
        0x3e8117120ec4d5d7ULL, 0x533a3e6766de5092ULL, 0xab13018687834d38ULL,
        0xc5bb057db04b233cULL, 0x562a1d2af7328c6eULL, 0xb8b17103f8d4f1a8ULL,
       }},
      {"no_random_no_drop",
       no_random_no_drop(),
       {
        0xadd2941e877a93f1ULL, 0x2f53fbf6624fd358ULL, 0x0ccb95b05894e9d1ULL,
        0x8cabdb2cfa8523f4ULL, 0x0ccb95b05894e9d1ULL, 0x0ccb95b05894e9d1ULL,
        0x8cabdb2cfa8523f4ULL, 0x79ab178d70fcacaaULL, 0x3181c57f43c735e5ULL,
        0xc18f9f38c2054e0dULL, 0xfeb66557254a5d74ULL, 0xa6c6f23a10f4ecb9ULL,
        0xd16ff5382db9b8cbULL, 0xa87d4558ae38adc4ULL, 0xbae0c7976e011c8aULL,
        0xf204bd2a24f307dcULL, 0x00ea2ce77b923b2eULL, 0xc9da492df1bbca7dULL,
       }},
      {"no_random",
       no_random(),
       {
        0xc73437e33a30a404ULL, 0x24b0da575e6ba40cULL, 0xf7cdd6de41d3fd50ULL,
        0xcc1120be2a00fd09ULL, 0xf7cdd6de41d3fd50ULL, 0xf7cdd6de41d3fd50ULL,
        0xcc1120be2a00fd09ULL, 0x2d46c17229051d98ULL, 0x63d79640453c780aULL,
        0xbf6dc9b642f69eadULL, 0xfaf83e42b0ed5023ULL, 0x434b1c2b93154cabULL,
        0x324aa1aa63104922ULL, 0x9f0921d7d6d23b31ULL, 0x25d0c778c8d7f3c2ULL,
        0x15a3844b0dd1a95bULL, 0xd4da57013ff450aeULL, 0xd3f5cc3c981ae42cULL,
       }},
      {"one_conflict",
       one_conflict(),
       {
        0xa57c8647c58f9effULL, 0x558e2295db938638ULL, 0x83db9067d48a8e21ULL,
        0x613297a9864b91e3ULL, 0x83db9067d48a8e21ULL, 0x83db9067d48a8e21ULL,
        0x613297a9864b91e3ULL, 0xbb7393f54bddf5b8ULL, 0xab4c1717f84ce9b4ULL,
        0xbdf41599d979e032ULL, 0x878555f3777c21aeULL, 0x8283bbc8df4b255dULL,
        0x3e8117120ec4d5d7ULL, 0x533a3e6766de5092ULL, 0xab13018687834d38ULL,
        0xc5bb057db04b233cULL, 0x562a1d2af7328c6eULL, 0x5577882d126f3239ULL,
       }},
      {"podem_only",
       podem_only(),
       {
        0xa57c8647c58f9effULL, 0xe7a356f90c4c44c8ULL, 0x83db9067d48a8e21ULL,
        0xe2986c1d15e31da1ULL, 0x83db9067d48a8e21ULL, 0x83db9067d48a8e21ULL,
        0xe2986c1d15e31da1ULL, 0xe123fc64d5a47cb4ULL, 0x839108911f59c875ULL,
        0x673592b36b8ea729ULL, 0x878555f3777c21aeULL, 0x8283bbc8df4b255dULL,
        0x3e8117120ec4d5d7ULL, 0x533a3e6766de5092ULL, 0xab13018687834d38ULL,
        0xc5bb057db04b233cULL, 0x562a1d2af7328c6eULL, 0x3403744e5cbd88caULL,
       }},
      {"incremental",
       incremental(),
       {
        0xa57c8647c58f9effULL, 0x70b716d7aef859a6ULL, 0x83db9067d48a8e21ULL,
        0x03d5881bfa717b67ULL, 0x83db9067d48a8e21ULL, 0x83db9067d48a8e21ULL,
        0x03d5881bfa717b67ULL, 0xc80f50b3655a9f5eULL, 0xded9d0ed491472c8ULL,
        0xeec93b0768869da0ULL, 0x878555f3777c21aeULL, 0x94d3213c538be015ULL,
        0x3e8117120ec4d5d7ULL, 0x533a3e6766de5092ULL, 0xab13018687834d38ULL,
        0xc5bb057db04b233cULL, 0x93e146732396859dULL, 0xbd7863795eab7f76ULL,
       }},
      {"incremental_one_conflict",
       incremental_one_conflict(),
       {
        0xa57c8647c58f9effULL, 0x63066db9fa230c8fULL, 0x83db9067d48a8e21ULL,
        0xd7b9c92efb5601afULL, 0x83db9067d48a8e21ULL, 0x83db9067d48a8e21ULL,
        0xd7b9c92efb5601afULL, 0xa3883826e73dcab3ULL, 0x3a210a319c78eee3ULL,
        0x9b58cb5688202c28ULL, 0x878555f3777c21aeULL, 0xc4f9fb8490a39749ULL,
        0x3e8117120ec4d5d7ULL, 0x533a3e6766de5092ULL, 0xab13018687834d38ULL,
        0xc5bb057db04b233cULL, 0xcca51f47f21df6e9ULL, 0xa5f84e60ed9cd171ULL,
       }},
  };
  return cases;
}

class EnginePin : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EnginePin, SerialResultsMatchRecordedDigests) {
  const PinCase& pin = pin_cases()[GetParam()];
  const std::vector<net::Network>& nets = circuits();
  ASSERT_EQ(nets.size(), kCircuits);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const std::uint64_t got = digest_of(run_atpg(nets[i], pin.options));
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxULL",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, pin.digests[i])
        << pin.name << " on " << nets[i].name() << ": digest is now " << hex;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EnginePin, ::testing::Range<std::size_t>(0, pin_cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(pin_cases()[info.param].name);
    });

}  // namespace
}  // namespace cwatpg::fault
