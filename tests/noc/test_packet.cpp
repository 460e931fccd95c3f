#include <gtest/gtest.h>

#include "noc/packet.h"
#include "noc/ports.h"

namespace taqos {
namespace {

TEST(Packet, LocationTracking)
{
    NetPacket pkt;
    InputPort a, b;
    pkt.addLoc(&a, 2);
    pkt.addLoc(&b, 0);
    EXPECT_EQ(pkt.numLocs, 2);
    pkt.removeLoc(&a, 2);
    EXPECT_EQ(pkt.numLocs, 1);
    EXPECT_EQ(pkt.locs[0].port, &b);
    pkt.removeLoc(&b, 0);
    EXPECT_EQ(pkt.numLocs, 0);
}

TEST(Packet, TransferTracking)
{
    NetPacket pkt;
    OutputPort x, y;
    pkt.addXfer(&x);
    pkt.addXfer(&y);
    EXPECT_EQ(pkt.numXfers, 2);
    pkt.removeXfer(&x);
    EXPECT_EQ(pkt.numXfers, 1);
    EXPECT_EQ(pkt.xfers[0], &y);
}

TEST(Packet, BeginAttemptResetsPerAttemptState)
{
    NetPacket pkt;
    InputPort a;
    pkt.addLoc(&a, 0);
    pkt.hopsThisAttempt = 3.0;
    pkt.blockedSince = 55;
    pkt.beginAttempt();
    EXPECT_EQ(pkt.state, PacketState::InFlight);
    EXPECT_EQ(pkt.attempt, 1);
    EXPECT_EQ(pkt.numLocs, 0);
    EXPECT_DOUBLE_EQ(pkt.hopsThisAttempt, 0.0);
    EXPECT_EQ(pkt.blockedSince, kNoCycle);
}

TEST(PacketPool, AllocAssignsUniqueIds)
{
    PacketPool pool;
    NetPacket *a = pool.alloc();
    NetPacket *b = pool.alloc();
    EXPECT_NE(a->id, b->id);
    EXPECT_EQ(pool.liveCount(), 2u);
}

TEST(PacketPool, RecyclesReleasedPackets)
{
    PacketPool pool;
    NetPacket *a = pool.alloc();
    const PacketId firstId = a->id;
    a->state = PacketState::Delivered;
    pool.release(a);
    EXPECT_EQ(pool.liveCount(), 0u);

    NetPacket *b = pool.alloc();
    EXPECT_EQ(b, a); // same storage reused
    EXPECT_NE(b->id, firstId);
    EXPECT_EQ(b->state, PacketState::Queued);
    EXPECT_EQ(b->numLocs, 0);
    EXPECT_EQ(pool.allocatedCount(), 1u);
}

TEST(PacketPool, ARecycledPacketReadsAsFresh)
{
    PacketPool pool;
    NetPacket *p = pool.alloc();
    InputPort a, b;
    OutputPort x, y;
    int table = 0;

    // Generate, inject and win hops: locations, transfers and charges
    // all logged.
    p->flow = 3;
    p->src = 1;
    p->dst = 6;
    p->finalDst = 9;
    p->sizeFlits = 4;
    p->genCycle = 100;
    p->queuedCycle = 100;
    p->measured = true;
    p->rateCompliant = true;
    p->carriedPrio = 77;
    p->frameTag = 5;
    p->inWindow = true;
    p->beginAttempt();
    p->addLoc(&a, 1);
    p->addLoc(&b, 2);
    p->addXfer(&x);
    p->addXfer(&y);
    for (int i = 0; i < 3; ++i)
        p->logCharge(&table, i);
    p->hopsThisAttempt = 2.5;
    p->blockedSince = 140;

    // A preemption kills it and its NACK requeues it.
    p->clearLocs();
    p->removeXfer(&x);
    p->removeXfer(&y);
    p->numCharges = 0;
    p->state = PacketState::Dropped;
    p->state = PacketState::Queued;
    p->queuedCycle = 150;

    // The retransmission delivers, its charge still logged.
    p->beginAttempt();
    p->addLoc(&a, 0);
    p->addXfer(&x);
    p->logCharge(&table, 4);
    p->removeXfer(&x);
    p->removeLoc(&a, 0);
    p->state = PacketState::Delivered;
    p->deliverCycle = 180;
    pool.release(p);

    NetPacket *q = pool.alloc();
    ASSERT_EQ(q, p);
    const NetPacket fresh;
    EXPECT_EQ(q->flow, fresh.flow);
    EXPECT_EQ(q->src, fresh.src);
    EXPECT_EQ(q->dst, fresh.dst);
    EXPECT_EQ(q->finalDst, fresh.finalDst);
    EXPECT_EQ(q->sizeFlits, fresh.sizeFlits);
    EXPECT_EQ(q->genCycle, fresh.genCycle);
    EXPECT_EQ(q->queuedCycle, fresh.queuedCycle);
    EXPECT_EQ(q->deliverCycle, fresh.deliverCycle);
    EXPECT_EQ(q->state, fresh.state);
    EXPECT_EQ(q->measured, fresh.measured);
    EXPECT_EQ(q->rateCompliant, fresh.rateCompliant);
    EXPECT_EQ(q->attempt, fresh.attempt);
    EXPECT_EQ(q->carriedPrio, fresh.carriedPrio);
    EXPECT_EQ(q->frameTag, fresh.frameTag);
    EXPECT_EQ(q->blockedSince, fresh.blockedSince);
    EXPECT_EQ(q->hopsThisAttempt, fresh.hopsThisAttempt);
    EXPECT_EQ(q->numLocs, fresh.numLocs);
    EXPECT_EQ(q->numXfers, fresh.numXfers);
    EXPECT_EQ(q->inWindow, fresh.inWindow);
    EXPECT_EQ(q->numCharges, fresh.numCharges);
    EXPECT_NE(q->id, fresh.id);
}

TEST(PacketPool, ManyAllocations)
{
    PacketPool pool;
    std::vector<NetPacket *> pkts;
    for (int i = 0; i < 1000; ++i)
        pkts.push_back(pool.alloc());
    EXPECT_EQ(pool.liveCount(), 1000u);
    for (auto *p : pkts) {
        p->state = PacketState::Delivered;
        pool.release(p);
    }
    EXPECT_EQ(pool.liveCount(), 0u);
    // Reallocation drains the free list before growing.
    for (int i = 0; i < 500; ++i)
        pool.alloc();
    EXPECT_EQ(pool.allocatedCount(), 1000u);
}

} // namespace
} // namespace taqos
