#include "topo/column_wiring.h"

#include "common/assert.h"

namespace taqos {

void
wireColumnInjection(const ColumnWiring &w)
{
    const ColumnConfig &cfg = w.cfg;
    const int n = cfg.numNodes;
    const int depth = pipelineDepth(cfg.topology);

    TAQOS_ASSERT(w.net.injectors().size() >=
                     static_cast<std::size_t>(w.flowBase + cfg.numFlows()),
                 "injector store not sized for the block's flows");

    for (int i = 0; i < n; ++i) {
        Router *r = w.addRouter(i);

        // Ejection buffer at the terminal (memory controller).
        w.addTermPort(i, cfg.ejectionVcs);

        // Injection: terminal port + shared east/west row ports. Up to
        // four row MECS inputs share a crossbar port (Sec. 4).
        struct Group {
            const char *name;
            int first;
            int count;
        };
        const int east = cfg.eastRowInjectors;
        const int west = cfg.injectorsPerNode - 1 - east;
        const Group groups[] = {
            {"inj_term_", 0, 1},
            {"inj_east_", 1, east},
            {"inj_west_", 1 + east, west},
        };
        for (const auto &g : groups) {
            if (g.count <= 0)
                continue;
            auto port = std::make_unique<InputPort>();
            port->name = w.name(g.name + std::to_string(i));
            port->node = w.node(i);
            port->kind = InputPort::Kind::Injection;
            port->pipelineDelay = depth;
            port->group = r->addXbarGroup();
            for (int k = 0; k < g.count; ++k) {
                const FlowId flow = w.flow(i, g.first + k);
                InjectorQueue &inj =
                    w.net.injectors()[static_cast<std::size_t>(flow)];
                inj.flow = flow;
                inj.node = w.node(i);
                inj.windowLimit = cfg.pvc.windowLimit;
                port->injectors.push_back(&inj);
            }
            r->addInputPort(std::move(port));
        }
    }
}

void
wireColumnTopology(const ColumnWiring &w)
{
    switch (w.cfg.topology) {
      case TopologyKind::MeshX1:
      case TopologyKind::MeshX2:
      case TopologyKind::MeshX4:
        buildMeshColumn(w);
        break;
      case TopologyKind::Mecs:
        buildMecsColumn(w);
        break;
      case TopologyKind::Dps:
        buildDpsColumn(w);
        break;
      case TopologyKind::FlatButterfly:
        buildFlatButterflyColumn(w);
        break;
    }
}

} // namespace taqos
