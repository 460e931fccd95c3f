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
