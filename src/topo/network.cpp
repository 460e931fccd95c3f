#include "topo/network.h"

#include "common/assert.h"
#include "noc/trace_sink.h"

namespace taqos {

Network::Network(QosMode mode, PvcParams pvc)
    : mode_(mode), pvc_(std::move(pvc)), traits_(makeQosPolicy(mode, pvc_))
{
}

Network::~Network() = default;

int
Network::reservedIdx() const
{
    return traits_->usesReservedVc() ? 0 : -1;
}

bool
Network::unbounded() const
{
    return traits_->unboundedVcs();
}

Router *
Network::addRouter(NodeId node, QosMode mode)
{
    return addRouter(node, mode, 0, pvc_.numFlows);
}

Router *
Network::addRouter(NodeId node, QosMode mode, FlowId flowBase, int flowCount)
{
    routers_.push_back(
        std::make_unique<Router>(node, mode, pvc_, flowBase, flowCount));
    return routers_.back().get();
}

InputPort *
Network::addTermPort(NodeId node, int vcs)
{
    auto term = std::make_unique<InputPort>();
    term->name = "term_in_" + std::to_string(node);
    term->node = node;
    term->kind = InputPort::Kind::Network;
    term->creditDelay = 1;
    term->reservedVc = -1;
    term->unboundedVcs = unbounded();
    term->vcs.resize(static_cast<std::size_t>(vcs));
    termPorts_.push_back(std::move(term));
    termOutIdx_.push_back(-1);
    return termPorts_.back().get();
}

InputPort *
Network::makeNetInput(Router *r, std::string name, NodeId node, int vcs,
                      int creditDelay, int pipeDelay, bool passThrough,
                      XbarGroup *group)
{
    auto port = std::make_unique<InputPort>();
    port->name = std::move(name);
    port->node = node;
    port->kind = InputPort::Kind::Network;
    port->pipelineDelay = pipeDelay;
    port->creditDelay = creditDelay;
    port->reservedVc = reservedIdx();
    port->unboundedVcs = unbounded();
    port->usesCarriedPrio = passThrough;
    port->group = group;
    port->vcs.resize(static_cast<std::size_t>(vcs));
    return r->addInputPort(std::move(port));
}

int
Network::nextTableIdx(Router *r)
{
    int next = 0;
    for (const auto &out : r->outputs())
        next = std::max(next, out->tableIdx + 1);
    return next;
}

void
Network::addTerminalOutput(NodeId n)
{
    Router *r = router(n);
    auto out = std::make_unique<OutputPort>();
    out->name = "term_out_" + std::to_string(n);
    out->node = n;
    out->tableIdx = nextTableIdx(r);
    out->drops.push_back(OutputPort::Drop{termPort(n), /*wireDelay=*/0,
                                          /*meshHops=*/1.0});
    const int idx = static_cast<int>(r->outputs().size());
    r->addOutputPort(std::move(out));
    termOutIdx_[static_cast<std::size_t>(n)] = idx;
    r->setRoute(n, RouteEntry{idx, 1, 0});
}

void
Network::finalizeRouters()
{
    for (auto &r : routers_)
        r->finalize();

    // Wire the activity tracking. Port owners were set at addInput/
    // OutputPort time; here every VC learns its port (occupancy counts),
    // every injector queue learns its injection port (enqueue arming),
    // and every router joins the worklist — conservatively armed, so the
    // engine's first sweep observes real state before skipping anything.
    for (auto &r : routers_) {
        for (const auto &in : r->inputs()) {
            in->attachVcs();
            for (InjectorQueue *inj : in->injectors)
                inj->port = in.get();
        }
        r->setWorklist(&worklist_);
    }
    for (auto &term : termPorts_)
        term->attachVcs();
    for (InputPort *port : auxPorts_)
        port->attachVcs();
}

void
Network::invalidateArbitration()
{
    for (auto &r : routers_)
        r->markArbDirty();
}

void
Network::reprogramFlowWeights(std::vector<std::uint32_t> weights)
{
    TAQOS_ASSERT(weights.empty() ||
                     static_cast<int>(weights.size()) == pvc_.numFlows,
                 "flow-register reprogram wants %d weights, got %zu",
                 pvc_.numFlows, weights.size());
    pvc_.setWeights(std::move(weights));
    // Flow tables compute priorities from counts x weights on the fly,
    // so the rewrite is visible immediately; only the routers' cached
    // candidate orderings need rescanning.
    invalidateArbitration();
}

void
Network::setTraceSink(TraceSink *sink)
{
    for (auto &r : routers_)
        r->setTraceSink(sink);
    for (auto &term : termPorts_) {
        if (sink != nullptr)
            sink->registerPort(*term, /*terminal=*/true);
        term->trace = sink;
    }
    for (InputPort *port : auxPorts_) {
        if (sink != nullptr)
            sink->registerPort(*port, /*terminal=*/false);
        port->trace = sink;
    }
}

} // namespace taqos
