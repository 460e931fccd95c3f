/// Sec. 5.2 (text): packet replay rates in saturation on uniform random
/// and tornado traffic. The paper reports (uniform random): mesh_x1 ~7%,
/// mesh_x2 ~5%, mesh_x4 ~0.1%, MECS ~0.04%, DPS ~2%, with fewer
/// preemptions under tornado; topologies with more channel resources are
/// more immune.
///
/// Options: fast=1, rate=0.15
#include <cstdio>

#include "bench_util.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/experiments.h"

using namespace taqos;

int
main(int argc, char **argv)
{
    const OptionMap opts(argc, argv);
    opts.rejectUnknown({"fast", "rate"});
    benchutil::header("Preemption (replay) rates in saturation",
                      "Sec. 5.2, text (preemption discussion)");

    RunPhases phases;
    if (opts.getBool("fast", false))
        phases = RunPhases{5000, 15000, 10000};
    const double rate = opts.getDouble("rate", 0.15);

    for (auto pattern :
         {TrafficPattern::UniformRandom, TrafficPattern::Tornado}) {
        std::printf("--- %s @ %.0f%%/injector ---\n", patternName(pattern),
                    100.0 * rate);
        TextTable t;
        t.setHeader({"topology", "packets preempted", "hops replayed"});
        for (const auto &row :
             runSaturationPreemption(pattern, rate, phases)) {
            t.addRow({topologyName(row.topology),
                      benchutil::pct(100.0 * row.packetRate),
                      benchutil::pct(100.0 * row.hopRate)});
        }
        std::printf("%s\n", t.render().c_str());
    }
    return 0;
}
