/// The look-ahead TrafficGenerator against the per-cycle generator it
/// replaced (traffic/reference_generator.h): over every pattern, per-flow
/// rates at 0 and past 1, genUntil, queue-depth suppression, flows
/// toggled inside look-ahead windows, ticks that skip or go back, and
/// bursty and ramp modulation at their edges, both sources enqueue the
/// same packets (cycle, flow, destination, size, id, in order) and agree
/// on suppressed(), onState() and packState() at every cycle; and a fresh
/// source restored from packState() inside look-ahead windows continues
/// exactly as the uninterrupted one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "traffic/dynamic.h"
#include "traffic/generator.h"
#include "traffic/reference_generator.h"

namespace taqos {
namespace {

using Sent = std::tuple<Cycle, FlowId, NodeId, int, PacketId>;

ColumnConfig
column()
{
    ColumnConfig col;
    col.canonicalize();
    return col;
}

/// One source feeding its own injector queues. Every `drainEvery`
/// cycles one packet leaves each non-empty queue, so the queues both
/// fill (suppression) and empty.
template <typename Gen>
struct Feed {
    explicit Feed(std::unique_ptr<Gen> g)
        : gen(std::move(g)), metrics(column().numFlows())
    {
        injectors.resize(static_cast<std::size_t>(column().numFlows()));
        for (FlowId f = 0; f < column().numFlows(); ++f)
            injectors[static_cast<std::size_t>(f)].flow = f;
    }

    /// Tick cycle `c`; the packets it enqueued, in allocation order.
    std::vector<Sent> tick(Cycle c, int drainEvery)
    {
        const PacketId first = pool.nextId();
        gen->tick(c, pool, injectors, metrics);
        std::vector<Sent> sent;
        for (const InjectorQueue &inj : injectors) {
            if (!inj.queue().empty() && inj.queue().back()->id >= first) {
                const NetPacket *p = inj.queue().back();
                sent.emplace_back(p->genCycle, p->flow, p->dst, p->sizeFlits,
                                  p->id);
            }
        }
        std::sort(sent.begin(), sent.end(), [](const Sent &a, const Sent &b) {
            return std::get<4>(a) < std::get<4>(b);
        });
        if (c % static_cast<Cycle>(drainEvery) == 0) {
            for (InjectorQueue &inj : injectors) {
                if (!inj.queue().empty()) {
                    NetPacket *p = inj.dequeue();
                    p->state = PacketState::Queued;
                    pool.release(p);
                }
            }
        }
        return sent;
    }

    std::unique_ptr<Gen> gen;
    PacketPool pool;
    std::vector<InjectorQueue> injectors;
    SimMetrics metrics;
};

struct Case {
    std::string name;
    TrafficConfig traffic;
    WorkloadSpec workload;
    /// Tick segments [begin, end), run in order.
    std::vector<std::pair<Cycle, Cycle>> ticks{{0, 3000}};
    bool toggles = false; ///< flip flows active/inactive mid-run
    int drainEvery = 2;
};

/// The churn-like toggle schedule: before cycle c (c % 97 == 0), two
/// flows flip. Applied identically to every source under test.
template <typename Gen>
void
applyToggles(Gen &gen, std::vector<bool> &active, Cycle c)
{
    if (c == 0 || c % 97 != 0)
        return;
    const auto k = static_cast<std::size_t>(c / 97);
    for (const std::size_t f : {k % 64, (k * 7 + 3) % 64}) {
        active[f] = !active[f];
        gen.setFlowActive(static_cast<FlowId>(f), active[f]);
    }
}

std::vector<Case>
cases()
{
    std::vector<Case> out;
    const auto add = [&out](std::string name, auto edit) {
        Case c;
        c.name = std::move(name);
        c.traffic.injectionRate = 0.02;
        c.traffic.seed = 4242;
        edit(c);
        out.push_back(std::move(c));
    };
    add("uniform", [](Case &) {});
    add("tornado", [](Case &c) {
        c.traffic.pattern = TrafficPattern::Tornado;
        c.traffic.injectionRate = 0.05;
    });
    add("hotspot", [](Case &c) {
        c.traffic.pattern = TrafficPattern::Hotspot;
        c.traffic.hotspotNode = 5;
        c.traffic.injectionRate = 0.1;
    });
    add("flow_rates", [](Case &c) {
        c.traffic.flowRates.assign(64, -1.0);
        c.traffic.flowRates[3] = 0.0;    // never generates
        c.traffic.flowRates[5] = 3.0;    // p = 1.2: every cycle
        c.traffic.flowRates[6] = 2.5;    // p = 1 exactly
        c.traffic.flowRates[9] = 1e-9;   // past every look-ahead cap
        c.traffic.flowRates[10] = 0.4;   // p = 0.16
    });
    add("gen_until_restart", [](Case &c) {
        c.traffic.genUntil = 1500;
        c.ticks = {{0, 2500}, {0, 2500}};
    });
    add("ticks_skip_and_go_back", [](Case &c) {
        c.ticks = {{0, 1000}, {1200, 2000}, {1500, 2600}, {2600, 3200}};
    });
    add("suppression", [](Case &c) {
        c.traffic.injectionRate = 0.5;
        c.traffic.maxQueueDepth = 3;
        c.drainEvery = 5;
    });
    add("toggles", [](Case &c) { c.toggles = true; });
    add("bursty_flip_every_cycle", [](Case &c) {
        c.workload.kind = WorkloadKind::Bursty;
        c.workload.burstOn = 1.0;
        c.workload.burstOff = 1.0;
        c.workload.burstGain = 2.0;
    });
    add("bursty_gain_past_one", [](Case &c) {
        c.workload.kind = WorkloadKind::Bursty;
        c.workload.burstOn = 0.01;
        c.workload.burstOff = 0.05;
        c.workload.burstGain = 80.0; // ON: p = 0.008 x 80 = 0.64
        c.traffic.flowRates.assign(64, -1.0);
        c.traffic.flowRates[1] = 0.5; // ON: min(1, 0.2 x 80) = 1
        c.toggles = true;
    });
    add("bursty_default", [](Case &c) {
        c.workload.kind = WorkloadKind::Bursty;
        c.traffic.genUntil = 2000;
        c.ticks = {{0, 2500}, {100, 900}};
    });
    add("ramp_low_zero", [](Case &c) {
        c.workload.kind = WorkloadKind::Ramp;
        c.workload.rampLow = 0.0;
        c.workload.rampHigh = 2.0;
        c.workload.rampPeriod = 100;
        c.toggles = true;
    });
    add("ramp_past_one", [](Case &c) {
        c.workload.kind = WorkloadKind::Ramp;
        c.workload.rampLow = 0.5;
        c.workload.rampHigh = 200.0;
        c.workload.rampPeriod = 1001;
    });
    return out;
}

std::unique_ptr<TrafficGenerator>
lookahead(const Case &c)
{
    return std::make_unique<TrafficGenerator>(column(), c.traffic,
                                              c.workload);
}

const OnOffModulator *
chains(const TrafficGenerator &gen)
{
    return dynamic_cast<const OnOffModulator *>(gen.modulator());
}

TEST(LookaheadScan, TakesThePerCycleDrawsAndStopsAtTheCap)
{
    // Every trial kind against Rng::bernoulli-style per-cycle stepping:
    // the same success cycle, or a stop at the cap (drawing trials) or
    // the limit (the others), with the stream left in the same state.
    const double nan = std::nan("");
    const Cycle from = 100;
    const Cycle limit = from + 3 * kLookaheadCap;
    for (const bool packet : {true, false}) {
        for (const double p : {0.0, 1e-300, 0.001, 0.3, 1.0, 2.0, nan}) {
            SCOPED_TRACE(p);
            const Trial t = packet ? Trial::packet(p) : Trial::bernoulli(p);
            Rng lookahead(5);
            const Event e = scanTrial(lookahead, t, from, limit);

            Rng perCycle(5);
            // Rng::bernoulli draws at NaN (and never succeeds); the
            // generator's trial does not (and always succeeds).
            const bool draws = packet ? p > 0.0 && p < 1.0
                                      : !(p <= 0.0) && !(p >= 1.0);
            const Cycle stop = draws ? from + kLookaheadCap : limit;
            Event want{stop, false};
            for (Cycle c = from; c < stop; ++c) {
                const bool success = draws
                    ? perCycle.nextDouble() < p
                    : !(p <= 0.0) && (packet || p >= 1.0);
                if (success) {
                    want = {c, true};
                    break;
                }
            }
            EXPECT_EQ(e.at, want.at);
            EXPECT_EQ(e.hit, want.hit);
            EXPECT_EQ(lookahead.state(), perCycle.state());
        }
    }
}

TEST(LookaheadGenerator, MatchesThePerCycleReferenceEveryCycle)
{
    for (const Case &c : cases()) {
        SCOPED_TRACE(c.name);
        Feed<TrafficGenerator> live(lookahead(c));
        Feed<reference::PerCycleGenerator> ref(
            std::make_unique<reference::PerCycleGenerator>(
                column(), c.traffic, c.workload));
        std::vector<bool> liveActive(64, true), refActive(64, true);
        std::uint64_t packets = 0;
        for (const auto &[begin, end] : c.ticks) {
            for (Cycle cyc = begin; cyc < end; ++cyc) {
                if (c.toggles) {
                    applyToggles(*live.gen, liveActive, cyc);
                    applyToggles(*ref.gen, refActive, cyc);
                }
                const auto got = live.tick(cyc, c.drainEvery);
                const auto want = ref.tick(cyc, c.drainEvery);
                ASSERT_EQ(got, want) << "cycle " << cyc;
                packets += got.size();
                ASSERT_EQ(live.gen->suppressed(), ref.gen->suppressed())
                    << "cycle " << cyc;
                ASSERT_EQ(live.gen->packState(), ref.gen->packState())
                    << "cycle " << cyc;
                if (const OnOffModulator *mod = chains(*live.gen)) {
                    for (FlowId f = 0; f < 64; ++f) {
                        ASSERT_EQ(mod->onState(f), ref.gen->onState(f))
                            << "cycle " << cyc << " flow " << f;
                    }
                }
            }
        }
        EXPECT_GT(packets, 0u);
        EXPECT_EQ(live.metrics.generatedFlits, ref.metrics.generatedFlits);
    }
}

TEST(LookaheadGenerator, RestoredSourceContinuesInsideLookaheadWindows)
{
    // 50 restore points per case, none on a multiple of the toggle or
    // drain period, so every one falls inside the windows of flows whose
    // next packet lies ahead.
    for (const Case &c : cases()) {
        if (c.ticks.size() != 1 || c.name == "suppression")
            continue; // one straight run; queues never reach the cap
        SCOPED_TRACE(c.name);
        for (int k = 0; k < 50; ++k) {
            const Cycle at = 31 + static_cast<Cycle>(k) * 53;
            Feed<TrafficGenerator> live(lookahead(c));
            std::vector<bool> active(64, true);
            for (Cycle cyc = 0; cyc < at; ++cyc) {
                if (c.toggles)
                    applyToggles(*live.gen, active, cyc);
                live.tick(cyc, c.drainEvery);
            }
            // The churn recipe: configure flow activity on the fresh
            // source, then restore its streams.
            Feed<TrafficGenerator> resumed(lookahead(c));
            for (FlowId f = 0; f < 64; ++f) {
                if (!active[static_cast<std::size_t>(f)])
                    resumed.gen->setFlowActive(f, false);
            }
            resumed.gen->unpackState(live.gen->packState());
            ASSERT_EQ(resumed.gen->packState(), live.gen->packState())
                << "restored at " << at;
            std::vector<bool> resumedActive = active;
            for (Cycle cyc = at; cyc < at + 200; ++cyc) {
                if (c.toggles) {
                    applyToggles(*live.gen, active, cyc);
                    applyToggles(*resumed.gen, resumedActive, cyc);
                }
                auto got = resumed.tick(cyc, c.drainEvery);
                auto want = live.tick(cyc, c.drainEvery);
                // The resumed pool starts its ids afresh.
                for (auto *v : {&got, &want}) {
                    for (Sent &s : *v)
                        std::get<4>(s) = 0;
                }
                ASSERT_EQ(got, want)
                    << "restored at " << at << ", cycle " << cyc;
                if (cyc % 16 == 0 || cyc + 1 == at + 200) {
                    ASSERT_EQ(resumed.gen->packState(),
                              live.gen->packState())
                        << "restored at " << at << ", cycle " << cyc;
                }
            }
        }
    }
}

} // namespace
} // namespace taqos
