#include "sim/column_sim.h"

#include "common/assert.h"
#include "traffic/dynamic.h"

namespace taqos {

ColumnSim::ColumnSim(std::unique_ptr<ColumnNetwork> net)
    : NetSim(std::move(net))
{
}

ColumnSim::ColumnSim(const ColumnConfig &col, const TrafficConfig &traffic,
                     const WorkloadSpec &workload)
    : ColumnSim(ColumnNetwork::build(col))
{
    std::string err;
    auto src = makeTrafficSource(workload, network().cfg(), traffic, &err);
    TAQOS_ASSERT(src != nullptr, "workload '%s' failed: %s",
                 workload.name().c_str(), err.c_str());
    gen_ = dynamic_cast<TrafficGenerator *>(src.get());
    setTrafficSource(std::move(src));
}

ColumnSim::ColumnSim(const ColumnConfig &col, TrafficTrace trace)
    : ColumnSim(ColumnNetwork::build(col))
{
    setTrafficSource(
        std::make_unique<TraceReplayer>(network().cfg(), std::move(trace)));
}

ColumnSim::~ColumnSim() = default;

} // namespace taqos
