/// Figure 7: router energy per flit by hop type (source / intermediate /
/// destination) and for a 3-hop route, split into buffers, crossbar and
/// flow-state components.
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "core/experiments.h"

using namespace taqos;

namespace {

void
addRows(TextTable &t, const EnergyRow &row)
{
    const auto line = [&](const char *hop, const double c[3]) {
        t.addRow({topologyName(row.topology), hop, benchutil::num(c[0]),
                  benchutil::num(c[1]), benchutil::num(c[2]),
                  benchutil::num(EnergyRow::total(c))});
    };
    line("src", row.srcPj);
    line("intermediate", row.intPj);
    line("dest", row.dstPj);
    line("3 hops", row.threeHopPj);
}

} // namespace

int
main(int argc, char **argv)
{
    // Reads no options: any key fails instead of being ignored.
    OptionMap(argc, argv).rejectUnknown({});
    benchutil::header("Router energy per flit (pJ, 32 nm, 0.9 V)",
                      "Figure 7 (Sec. 5.4)");

    TextTable t;
    t.setHeader({"topology", "hop", "buffers", "xbar", "flow table",
                 "total"});
    const auto rows = runFig7Energy();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        addRows(t, rows[i]);
        if (i + 1 < rows.size())
            t.addRule();
    }
    std::printf("%s\n", t.render().c_str());

    // The paper's headline ratios.
    const auto find = [&](TopologyKind k) -> const EnergyRow & {
        for (const auto &r : rows)
            if (r.topology == k)
                return r;
        return rows.front();
    };
    const double dps = EnergyRow::total(find(TopologyKind::Dps).threeHopPj);
    const double m1 = EnergyRow::total(find(TopologyKind::MeshX1).threeHopPj);
    const double m4 = EnergyRow::total(find(TopologyKind::MeshX4).threeHopPj);
    const double mecs = EnergyRow::total(find(TopologyKind::Mecs).threeHopPj);
    std::printf("3-hop savings of DPS vs mesh_x1: %.1f%% (paper: ~17%%)\n",
                100.0 * (1.0 - dps / m1));
    std::printf("3-hop savings of DPS vs mesh_x4: %.1f%% (paper: ~33%%)\n",
                100.0 * (1.0 - dps / m4));
    std::printf("MECS / DPS 3-hop ratio: %.2f (paper: ~1.0)\n\nCSV:\n%s",
                mecs / dps, t.renderCsv().c_str());
    return 0;
}
