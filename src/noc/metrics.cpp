#include "noc/metrics.h"

#include "common/rng.h"
#include "common/strings.h"

namespace taqos {

std::string
SimMetrics::summary() const
{
    std::string out;
    out += strFormat("generated : %llu packets (%llu flits)\n",
                     static_cast<unsigned long long>(generatedPackets),
                     static_cast<unsigned long long>(generatedFlits));
    out += strFormat("delivered : %llu packets (%llu flits)\n",
                     static_cast<unsigned long long>(deliveredPackets),
                     static_cast<unsigned long long>(deliveredFlits));
    out += strFormat("latency   : avg %.1f, min %.0f, max %.0f cycles "
                     "(%llu measured)\n",
                     latency.mean(), latency.min(), latency.max(),
                     static_cast<unsigned long long>(latency.count()));
    out += strFormat("preemption: %llu events, %.2f%% packets, "
                     "%.2f%% hops replayed\n",
                     static_cast<unsigned long long>(preemptionEvents),
                     100.0 * preemptionPacketRate(),
                     100.0 * preemptionHopRate());
    return out;
}

std::uint64_t
metricsDigest(const SimMetrics &m, bool extended)
{
    std::uint64_t h = 0x5eedu;
    if (extended) {
        h = hashCombine(h, m.generatedPackets);
        h = hashCombine(h, m.injectedAttempts);
    }
    h = hashCombine(h, m.deliveredPackets);
    h = hashCombine(h, m.deliveredFlits);
    h = hashCombine(h, m.preemptionEvents);
    h = hashCombine(h, static_cast<std::uint64_t>(m.latency.count()));
    h = hashCombine(h, static_cast<std::uint64_t>(m.latency.mean() * 1e6));
    if (extended) {
        h = hashCombine(h, static_cast<std::uint64_t>(m.usefulHops * 1e3));
        h = hashCombine(h, static_cast<std::uint64_t>(m.wastedHops * 1e3));
    }
    for (auto f : m.flowFlits)
        h = hashCombine(h, f);
    return h;
}

} // namespace taqos
