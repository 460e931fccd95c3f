#include <gtest/gtest.h>

#include <vector>

#include "noc/ports.h"

namespace taqos {
namespace {

InputPort
makePort(int vcs, int reserved)
{
    InputPort p;
    p.name = "in";
    p.vcs.resize(static_cast<std::size_t>(vcs));
    p.reservedVc = reserved;
    return p;
}

TEST(InputPort, ReservedVcPolicy)
{
    InputPort p = makePort(3, 0);
    // Non-compliant traffic may not take VC 0.
    NetPacket a, b, c;
    int v = p.findFreeVc(0, false);
    EXPECT_NE(v, 0);
    p.vcs[static_cast<std::size_t>(v)].reserve(&a, 1, 1);
    v = p.findFreeVc(0, false);
    EXPECT_NE(v, 0);
    p.vcs[static_cast<std::size_t>(v)].reserve(&b, 1, 1);
    // Regular VCs exhausted: non-compliant fails, compliant gets VC 0.
    EXPECT_EQ(p.findFreeVc(0, false), -1);
    EXPECT_EQ(p.findFreeVc(0, true), 0);
    p.vcs[0].reserve(&c, 1, 1);
    EXPECT_EQ(p.findFreeVc(0, true), -1);
}

TEST(InputPort, CompliantPrefersRegularVcs)
{
    InputPort p = makePort(3, 0);
    // With everything free, compliant traffic leaves the escape VC alone.
    EXPECT_NE(p.findFreeVc(0, true), 0);
}

TEST(InputPort, UnboundedVcsGrow)
{
    InputPort p = makePort(1, -1);
    p.unboundedVcs = true;
    NetPacket a;
    p.vcs[0].reserve(&a, 1, 1);
    const int v = p.findFreeVc(0, false);
    EXPECT_EQ(v, 1);
    EXPECT_EQ(p.vcs.size(), 2u);

    // Grow an attached port through several reallocations: every VC
    // reserved before a move keeps its packet, arrival cycles and port
    // back-pointer.
    InputPort q = makePort(1, -1);
    q.unboundedVcs = true;
    q.attachVcs();
    std::vector<NetPacket> pkts(40);
    int moves = 0;
    for (int i = 0; i < static_cast<int>(pkts.size()); ++i) {
        const VirtualChannel *before = q.vcs.data();
        const int idx = q.findFreeVc(0, false);
        ASSERT_EQ(idx, i);
        moves += q.vcs.data() != before;
        const Cycle head = 10 + static_cast<Cycle>(i);
        q.vcs[static_cast<std::size_t>(idx)].reserve(
            &pkts[static_cast<std::size_t>(i)], head, head + 3);
        ASSERT_EQ(q.occupiedVcs(), i + 1);
    }
    EXPECT_GE(moves, 3);
    ASSERT_EQ(q.vcs.size(), pkts.size());
    for (std::size_t i = 0; i < pkts.size(); ++i) {
        const VirtualChannel &vc = q.vcs[i];
        EXPECT_EQ(vc.state(), VirtualChannel::State::Reserved);
        EXPECT_EQ(vc.packet(), &pkts[i]);
        EXPECT_EQ(vc.headArrival(), 10 + static_cast<Cycle>(i));
        EXPECT_EQ(vc.tailArrival(), 13 + static_cast<Cycle>(i));
        EXPECT_EQ(vc.port(), &q);
    }
    EXPECT_EQ(q.occupiedVcs(), static_cast<int>(pkts.size()));
}

TEST(InputPort, OccupiedCount)
{
    InputPort p = makePort(4, -1);
    NetPacket a;
    EXPECT_EQ(p.occupiedVcs(), 0);
    p.vcs[1].reserve(&a, 1, 1);
    EXPECT_EQ(p.occupiedVcs(), 1);
}

TEST(XbarGroup, Occupancy)
{
    XbarGroup g;
    EXPECT_TRUE(g.freeAt(0));
    g.occupy(10, 4);
    EXPECT_FALSE(g.freeAt(13));
    EXPECT_TRUE(g.freeAt(14));
}

class TransferTest : public ::testing::Test {
  protected:
    void SetUp() override
    {
        src_.name = "src";
        src_.creditDelay = 2;
        src_.vcs.resize(2);
        down_.name = "down";
        down_.vcs.resize(2);
        out_.name = "out";
        out_.drops.push_back(OutputPort::Drop{&down_, 1, 1.0});
        pkt_.sizeFlits = 4;
        pkt_.state = PacketState::InFlight;
    }

    InputPort src_, down_;
    OutputPort out_;
    NetPacket pkt_;
};

TEST_F(TransferTest, FullLifecycle)
{
    // Packet resident in src VC 0, granted at cycle 10 into down VC 1.
    src_.vcs[0].reserve(&pkt_, 5, 8);
    pkt_.addLoc(&src_, 0);
    down_.vcs[1].reserve(&pkt_, 12, 15); // now+1+wire .. +size-1
    pkt_.addLoc(&down_, 1);

    out_.startTransfer(&pkt_, 0, VcRef{&src_, 0}, 10);
    EXPECT_EQ(pkt_.numXfers, 1);
    EXPECT_EQ(src_.vcs[0].state(), VirtualChannel::State::Draining);
    EXPECT_FALSE(out_.linkFree(13));
    EXPECT_TRUE(out_.linkFree(14)); // tail on wire at 14

    // Too early: nothing happens.
    out_.tickCompletion(13);
    EXPECT_TRUE(out_.transfer().active);

    out_.tickCompletion(14);
    EXPECT_FALSE(out_.transfer().active);
    EXPECT_EQ(pkt_.numXfers, 0);
    EXPECT_DOUBLE_EQ(pkt_.hopsThisAttempt, 1.0);
    // Source VC freed with the credit delay applied.
    EXPECT_EQ(src_.vcs[0].state(), VirtualChannel::State::Free);
    EXPECT_FALSE(src_.vcs[0].allocatable(15));
    EXPECT_TRUE(src_.vcs[0].allocatable(16));
    // Source loc removed; downstream loc still owned by the packet.
    EXPECT_EQ(pkt_.numLocs, 1);
    EXPECT_EQ(pkt_.locs[0].port, &down_);
}

TEST_F(TransferTest, CancelComputesPartialWaste)
{
    down_.vcs[0].reserve(&pkt_, 12, 15);
    pkt_.addLoc(&down_, 0);
    out_.startTransfer(&pkt_, 0, VcRef{nullptr, -1}, 10);

    // At cycle 12, flits on wire were cycles 11 and 12: half the packet.
    const double wasted = out_.cancelTransfer(12);
    EXPECT_DOUBLE_EQ(wasted, 0.5);
    EXPECT_FALSE(out_.transfer().active);
    EXPECT_EQ(pkt_.numXfers, 0);
    // The channel frees for the preemptor next cycle.
    EXPECT_TRUE(out_.linkFree(13));
}

TEST_F(TransferTest, CancelBeforeFirstFlitWastesNothing)
{
    down_.vcs[0].reserve(&pkt_, 12, 15);
    pkt_.addLoc(&down_, 0);
    out_.startTransfer(&pkt_, 0, VcRef{nullptr, -1}, 10);
    EXPECT_DOUBLE_EQ(out_.cancelTransfer(10), 0.0);
}

TEST_F(TransferTest, CancelIdleIsNoop)
{
    EXPECT_DOUBLE_EQ(out_.cancelTransfer(10), 0.0);
}

TEST_F(TransferTest, MeshHopsWeighting)
{
    // An express drop spanning 3 nodes counts as 3 mesh-equivalent hops.
    out_.drops[0].meshHops = 3.0;
    down_.vcs[0].reserve(&pkt_, 14, 17);
    pkt_.addLoc(&down_, 0);
    out_.startTransfer(&pkt_, 0, VcRef{nullptr, -1}, 10);
    out_.tickCompletion(14);
    EXPECT_DOUBLE_EQ(pkt_.hopsThisAttempt, 3.0);
}

} // namespace
} // namespace taqos
