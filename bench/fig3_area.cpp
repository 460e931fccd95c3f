/// Figure 3: router area overhead of the shared-region topologies, split
/// into input buffers, crossbar, and PVC flow state. The row-input buffer
/// capacity (identical across topologies) is the paper's dotted line.
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "core/experiments.h"

using namespace taqos;

int
main(int argc, char **argv)
{
    // Reads no options: any key fails instead of being ignored.
    OptionMap(argc, argv).rejectUnknown({});
    benchutil::header("Router area overhead (mm^2, 32 nm)",
                      "Figure 3 (Sec. 5.1)");

    TextTable t;
    t.setHeader({"topology", "row buffers", "col buffers", "crossbar",
                 "flow state", "total"});
    for (const auto &row : runFig3Area()) {
        t.addRow({topologyName(row.topology),
                  benchutil::num(row.area.rowBuffersMm2, 4),
                  benchutil::num(row.area.columnBuffersMm2, 4),
                  benchutil::num(row.area.xbarMm2, 4),
                  benchutil::num(row.area.flowStateMm2, 4),
                  benchutil::num(row.area.totalMm2(), 4)});
    }
    std::printf("%s\n", t.render().c_str());

    std::printf("Paper expectations: mesh_x1 smallest; mesh_x4 largest "
                "(crossbar-dominated,\n~4x the baseline switch); MECS "
                "buffer-dominated; DPS comparable to MECS with a\nlarger "
                "crossbar; mesh_x2 similar footprint to MECS/DPS at half "
                "the bisection\nbandwidth; flow state insignificant "
                "everywhere.\n\nCSV:\n%s", t.renderCsv().c_str());
    return 0;
}
