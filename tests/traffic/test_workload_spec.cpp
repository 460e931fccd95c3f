/// WorkloadSpec: the declarative workload grammar. parse(name())
/// round-trips for every reachable value, malformed input is diagnosed
/// with the canonical one-line errors (never an exit), and
/// appendKeyWords() separates every distinct spec so the sweep seed mix
/// and the cell cache never collide two workloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "mutants.h"
#include "traffic/workload_spec.h"

namespace taqos {
namespace {

std::vector<std::uint64_t>
keyWords(const WorkloadSpec &spec)
{
    std::vector<std::uint64_t> words;
    spec.appendKeyWords(words);
    return words;
}

TEST(WorkloadSpec, KindNamesRoundTripWithAliases)
{
    for (auto kind :
         {WorkloadKind::Steady, WorkloadKind::Bursty, WorkloadKind::Ramp,
          WorkloadKind::Trace, WorkloadKind::Churn}) {
        const auto back = parseWorkloadKind(workloadKindName(kind));
        ASSERT_TRUE(back.has_value()) << workloadKindName(kind);
        EXPECT_EQ(*back, kind);
    }
    EXPECT_EQ(parseWorkloadKind("onoff"), WorkloadKind::Bursty);
    EXPECT_EQ(parseWorkloadKind("diurnal"), WorkloadKind::Ramp);
    EXPECT_EQ(parseWorkloadKind("replay"), WorkloadKind::Trace);
    EXPECT_FALSE(parseWorkloadKind("bursty2").has_value());
}

TEST(WorkloadSpec, DefaultIsSteady)
{
    const WorkloadSpec spec;
    EXPECT_TRUE(spec.isSteady());
    EXPECT_FALSE(spec.modulated());
    EXPECT_EQ(spec.name(), "steady");
}

TEST(WorkloadSpec, NameParseRoundTripsEveryKind)
{
    WorkloadSpec bursty;
    bursty.kind = WorkloadKind::Bursty;
    bursty.burstOn = 0.0035;
    bursty.burstOff = 0.02;
    bursty.burstGain = 7.5;

    WorkloadSpec ramp;
    ramp.kind = WorkloadKind::Ramp;
    ramp.rampLow = 0.1;
    ramp.rampHigh = 2.25;
    ramp.rampPeriod = 12345;

    WorkloadSpec trace;
    trace.kind = WorkloadKind::Trace;
    trace.tracePath = "runs/web.csv";
    trace.inflate = 0.5;
    trace.windowBegin = 1000;
    trace.windowEnd = 51000;
    trace.traceLoop = true;

    WorkloadSpec churn;
    churn.kind = WorkloadKind::Churn;
    churn.churnFrames = 3;
    churn.churnMaxVms = 8;
    churn.churnAttack = true;

    for (const auto &spec :
         {WorkloadSpec{}, bursty, ramp, trace, churn}) {
        const auto back = WorkloadSpec::parse(spec.name());
        ASSERT_TRUE(back.has_value()) << spec.name();
        EXPECT_EQ(back->name(), spec.name());
        EXPECT_EQ(*back, spec);
    }
}

TEST(WorkloadSpec, CanonicalNamesArePinned)
{
    EXPECT_EQ(WorkloadSpec{}.name(), "steady");
    WorkloadSpec b;
    b.kind = WorkloadKind::Bursty;
    EXPECT_EQ(b.name(), "bursty:on=0.002,off=0.01,gain=4");
    WorkloadSpec r;
    r.kind = WorkloadKind::Ramp;
    EXPECT_EQ(r.name(), "ramp:low=0.25,high=1.75,period=20000");
    WorkloadSpec c;
    c.kind = WorkloadKind::Churn;
    EXPECT_EQ(c.name(), "churn:frames=1,maxvms=5,attack=0");
}

TEST(WorkloadSpec, BareKindTakesDefaults)
{
    const auto spec = WorkloadSpec::parse("bursty");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->kind, WorkloadKind::Bursty);
    EXPECT_DOUBLE_EQ(spec->burstOn, 0.002);
    EXPECT_DOUBLE_EQ(spec->burstOff, 0.01);
    EXPECT_DOUBLE_EQ(spec->burstGain, 4.0);

    const auto partial = WorkloadSpec::parse("bursty:gain=8");
    ASSERT_TRUE(partial.has_value());
    EXPECT_DOUBLE_EQ(partial->burstGain, 8.0);
    EXPECT_DOUBLE_EQ(partial->burstOn, 0.002);
}

TEST(WorkloadSpec, MalformedInputIsDiagnosedNotFatal)
{
    std::string err;
    EXPECT_FALSE(WorkloadSpec::parse("", &err).has_value());
    EXPECT_EQ(err, "bad workload '': want kind or kind:k=v[,k=v...]");

    EXPECT_FALSE(WorkloadSpec::parse("spiky:x=1", &err).has_value());
    EXPECT_EQ(err,
              "unknown workload kind 'spiky'; valid: steady bursty ramp "
              "trace churn");

    EXPECT_FALSE(WorkloadSpec::parse("bursty:period=5", &err).has_value());
    EXPECT_EQ(err, "unknown workload parameter 'period' for kind 'bursty'");

    EXPECT_FALSE(WorkloadSpec::parse("bursty:on=zap", &err).has_value());
    EXPECT_EQ(err, "bad workload parameter 'on=zap'");

    EXPECT_FALSE(WorkloadSpec::parse("steady:x=1", &err).has_value());
    EXPECT_EQ(err, "unknown workload parameter 'x' for kind 'steady'");
}

TEST(WorkloadSpec, SemanticBoundsAreEnforced)
{
    std::string err;
    EXPECT_FALSE(WorkloadSpec::parse("bursty:on=0", &err).has_value());
    EXPECT_EQ(err, "bad workload 'bursty:on=0': on must be in (0, 1]");

    EXPECT_FALSE(WorkloadSpec::parse("bursty:gain=-1", &err).has_value());
    EXPECT_EQ(err, "bad workload 'bursty:gain=-1': gain must be > 0");

    EXPECT_FALSE(
        WorkloadSpec::parse("ramp:low=2,high=1", &err).has_value());
    EXPECT_EQ(err, "bad workload 'ramp:low=2,high=1': high must be >= low");

    EXPECT_FALSE(WorkloadSpec::parse("ramp:period=1", &err).has_value());
    EXPECT_EQ(err, "bad workload 'ramp:period=1': period must be >= 2");

    EXPECT_FALSE(WorkloadSpec::parse("trace:inflate=0.5", &err).has_value());
    EXPECT_EQ(err, "bad workload 'trace:inflate=0.5': path is required");

    EXPECT_FALSE(
        WorkloadSpec::parse("trace:path=a,inflate=1.5", &err).has_value());
    EXPECT_EQ(err, "bad workload 'trace:path=a,inflate=1.5': inflate must "
                   "be in (0, 1]");

    EXPECT_FALSE(WorkloadSpec::parse("trace:path=a,begin=9,end=4", &err)
                     .has_value());
    EXPECT_EQ(err, "bad workload 'trace:path=a,begin=9,end=4': end must "
                   "be > begin");

    EXPECT_FALSE(
        WorkloadSpec::parse("trace:path=a,loop=1", &err).has_value());
    EXPECT_EQ(err,
              "bad workload 'trace:path=a,loop=1': loop=1 needs a finite "
              "end=");

    EXPECT_FALSE(WorkloadSpec::parse("churn:frames=0", &err).has_value());
    EXPECT_EQ(err, "bad workload parameter 'frames=0'");
}

TEST(WorkloadSpec, ChurnCountsPastIntAreRejectedNotWrapped)
{
    // 2^31, 2^32 and 2^64 - 1 wrapped to INT_MIN, 0 and -1, recording a
    // name that does not parse back (frames=0 also froze the epoch loop).
    for (const std::string key : {"frames", "maxvms"}) {
        for (const std::string v :
             {"2147483648", "4294967296", "18446744073709551615"}) {
            std::string err;
            EXPECT_FALSE(WorkloadSpec::parse("churn:" + key + "=" + v, &err)
                             .has_value())
                << key << "=" << v;
            EXPECT_EQ(err, "bad workload parameter '" + key + "=" + v + "'");
        }
        const auto max = WorkloadSpec::parse("churn:" + key + "=2147483647");
        ASSERT_TRUE(max.has_value()) << key;
        EXPECT_EQ(WorkloadSpec::parse(max->name())->name(), max->name());
    }
}

TEST(WorkloadSpec, ModulatedPredicateMatchesKinds)
{
    WorkloadSpec spec;
    for (auto kind :
         {WorkloadKind::Bursty, WorkloadKind::Ramp}) {
        spec.kind = kind;
        EXPECT_TRUE(spec.modulated()) << workloadKindName(kind);
    }
    for (auto kind : {WorkloadKind::Steady, WorkloadKind::Trace,
                      WorkloadKind::Churn}) {
        spec.kind = kind;
        EXPECT_FALSE(spec.modulated()) << workloadKindName(kind);
    }
}

TEST(WorkloadSpec, KeyWordsSeparateKindsAndParameters)
{
    // Steady contributes exactly one tag word (the seed-mix contract:
    // steady cells skip the mix entirely, see SweepSpec::cellSeed).
    EXPECT_EQ(keyWords(WorkloadSpec{}).size(), 1u);

    WorkloadSpec a;
    a.kind = WorkloadKind::Bursty;
    WorkloadSpec b = a;
    b.burstGain = 5.0;
    EXPECT_NE(keyWords(a), keyWords(b));

    WorkloadSpec t1;
    t1.kind = WorkloadKind::Trace;
    t1.tracePath = "a.csv";
    WorkloadSpec t2 = t1;
    t2.tracePath = "b.csv";
    EXPECT_NE(keyWords(t1), keyWords(t2));
    WorkloadSpec t3 = t1;
    t3.inflate = 0.5;
    EXPECT_NE(keyWords(t1), keyWords(t3));

    // Same spec -> same words, and distinct kinds never share a prefix
    // tag.
    EXPECT_EQ(keyWords(a), keyWords(WorkloadSpec{a}));
    WorkloadSpec ramp;
    ramp.kind = WorkloadKind::Ramp;
    EXPECT_NE(keyWords(a).front(), keyWords(ramp).front());
}

/// One input's verdict under the reader's contract: parse(s) yields a
/// spec whose name parses back to the same name and key words, or
/// nullopt with one non-empty line of diagnosis. Folds the verdict into
/// `verdicts` and returns whether the input parsed.
bool
foldVerdict(const std::string &s, mutants::Fnv &verdicts)
{
    std::string err;
    const auto spec = WorkloadSpec::parse(s, &err);
    verdicts.u64(spec.has_value());
    if (!spec.has_value()) {
        EXPECT_FALSE(err.empty()) << s;
        EXPECT_EQ(err.find_first_of("\n\r"), std::string::npos) << err;
        verdicts.str(err);
        return false;
    }
    const std::string name = spec->name();
    const auto back = WorkloadSpec::parse(name);
    EXPECT_TRUE(back.has_value()) << s << " -> " << name;
    if (back.has_value()) {
        EXPECT_EQ(back->name(), name) << s;
        EXPECT_EQ(keyWords(*back), keyWords(*spec)) << s;
    }
    verdicts.str(name);
    for (std::uint64_t w : keyWords(*spec))
        verdicts.u64(w);
    return true;
}

TEST(WorkloadSpecParse, MutantSpecsParseOrFailWithOneLine)
{
    // The five grammar examples of workload_spec.h, and each kind's keys.
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        bases = {
            {"steady", {"x"}},
            {"bursty:on=0.002,off=0.01,gain=4", {"on", "off", "gain"}},
            {"ramp:low=0.25,high=1.75,period=20000",
             {"low", "high", "period"}},
            {"trace:path=w.csv,inflate=0.5,begin=0,end=50000,loop=1",
             {"path", "inflate", "begin", "end", "loop"}},
            {"churn:frames=1,maxvms=5,attack=0",
             {"frames", "maxvms", "attack"}},
        };

    // Values the writer never emits, as a repeated key after each
    // example (the last one wins), plus unknown keys, a trailing comma,
    // empty parts, a lone ':' and control characters (a newline a
    // diagnosis would echo, a NUL that would end a C string early).
    std::vector<std::string> inputs = {
        ":", "", " ", ",", "steady:", "steady:,", ":steady", "bursty::on=1",
        "bursty:on", "bursty:=1", "BURSTY:ON=1", "churn:frames=1,,maxvms=2",
        "steady\n", "bursty:\non=0.1", std::string("trace:path=w\0.csv", 17)};
    for (const auto &[base, keys] : bases) {
        const std::string sep =
            base.find(':') == std::string::npos ? ":" : ",";
        inputs.push_back(base + ",");
        inputs.push_back(base + sep + "bogus=1");
        for (const std::string &key : keys) {
            for (const std::string v :
                 {"2147483647", "2147483648", "4294967296",
                  "18446744073709551615", "18446744073709551616", "-1",
                  "1e309", "-1e309", "nan", "inf", "", "0", "1", "0.5",
                  "1e-300", "+3", "0x10", " 7 "}) {
                inputs.push_back(base + sep + key + "=" + v);
            }
        }
    }
    mutants::Fnv verdicts;
    std::size_t parsed = 0;
    for (const std::string &s : inputs)
        parsed += foldVerdict(s, verdicts);
    EXPECT_EQ(inputs.size(), 295u);
    // 83: churn's frames=+3 and maxvms=+3 fail like every other '+N'.
    EXPECT_EQ(parsed, 83u);

    Rng rng(0x5bec5bec);
    std::size_t parsedMutants = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::string &base = bases[i % bases.size()].first;
        parsedMutants += foldVerdict(mutants::mutate(base, rng), verdicts);
    }
    EXPECT_EQ(parsedMutants, 319u);
    EXPECT_EQ(verdicts.h, 16895888998638316073ull);
}

} // namespace
} // namespace taqos
