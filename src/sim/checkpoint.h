/// \file checkpoint.h
/// Versioned binary snapshots of a live simulation.
///
/// A checkpoint captures the complete *structural* state of a NetSim run
/// at a cycle boundary — every packet record, VC, injector queue,
/// in-flight transfer, policy register, RNG stream and metric counter —
/// and none of the *derived* state (hot counters, cached winner sets,
/// activity worklists). Restore rebuilds the derived state from the
/// structural state (Router::rebuildFromRestore), which is equivalent to
/// the frame-boundary invalidation the engines are already proven
/// bit-identical under. A checkpoint is therefore engine-neutral: a run
/// saved under either engine (activity-driven or always-tick) restores
/// bit-identically under the other.
///
/// Wire format: a fixed header (magic, format version, engine salt,
/// topology fingerprint, cycle, saving engine flag) followed by tagged
/// sections in a fixed order. Integers are host-endian (checkpoints are
/// a same-machine warm-start mechanism, not an interchange format).
/// Cross-references use canonical indices: packets by packet-pool slot,
/// input ports by a global save-order enumeration (each node's router
/// inputs, then its terminal; then aux ports), outputs by (node, output
/// index), flow tables by owning router node. Readers validate every
/// count and tag and throw CheckpointError with the failing section and
/// byte offset, so a truncated or corrupted stream is rejected with a
/// diagnosable error instead of undefined behaviour.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/sim_config.h"

namespace taqos {

class Network;
class PacketPool;
class InputPort;
class OutputPort;
struct NetPacket;
struct InjectorQueue;

inline constexpr char kCheckpointMagic[8] = {'T', 'A', 'Q', 'O',
                                             'S', 'C', 'K', 'P'};

/// Bump on any change to the header, the section layout or the record
/// encodings below; kEngineSalt stays (it versions dynamics, not bytes).
/// Version 2: whole-chip runs save the fabric's traffic-source and
/// "extra" records (ChipSim became the one-chip FabricSim).
/// Version 3: the header's engine echo shrinks to the saving engine's
/// activity-driven flag.
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// A checkpoint could not be read: wrong magic/version/salt, topology
/// mismatch, truncation, or a corrupted record. The message names the
/// section and byte offset where the stream became unreadable.
class CheckpointError : public std::runtime_error {
  public:
    using std::runtime_error::runtime_error;
};

/// The checkpoint header, readable without a simulation (cache tooling,
/// CLI validation). `engine.activityDriven` is the engine the run was
/// saved under — informational only; restore is engine-neutral.
struct CheckpointInfo {
    std::uint32_t version = 0;
    std::uint64_t salt = 0;        ///< kEngineSalt of the saving build
    std::uint64_t fingerprint = 0; ///< topologyFingerprint of the fabric
    Cycle now = 0;                 ///< cycle the run was saved at
    EngineConfig engine;
};

/// Read and validate the fixed header (magic and format version; salt
/// and fingerprint are returned for the caller to check against its own
/// build/fabric). Leaves the stream positioned at the first section.
/// Throws CheckpointError.
CheckpointInfo readCheckpointInfo(std::istream &is);

/// Structural hash of a fabric: node/flow counts, QOS mode, and the full
/// port/VC/group/table shape in node order. A checkpoint only restores
/// onto a fabric with the identical fingerprint. Ports with unbounded
/// VCs contribute a zero VC count (their arrays grow with the traffic,
/// which is state, not structure).
std::uint64_t topologyFingerprint(const Network &net);

/// Serializes primitive fields and canonical cross-references onto an
/// output stream. Constructed once per save; builds the pointer-to-index
/// maps for the fabric's packets, ports, outputs and flow tables.
class CheckpointWriter {
  public:
    CheckpointWriter(std::ostream &os, Network &net, const PacketPool &pool);

    void raw(const void *data, std::size_t n);
    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void i32(std::int32_t v);
    void u64(std::uint64_t v);
    void f64(double v); ///< bit-exact (raw IEEE-754 image)
    /// Length-prefixed word vector (opaque policy/gate/source state).
    void words(const std::vector<std::uint64_t> &w);
    /// Section delimiter: u8 length + tag bytes.
    void section(const char *tag);

    /// Packet reference: pool index + 1, 0 = null.
    void pkt(const NetPacket *p);
    std::uint64_t pktIndex(const NetPacket *p) const;
    /// Input-port reference: global enumeration + 1, 0 = null.
    void port(const InputPort *p);
    /// Output-port reference: (node, output index).
    void output(const OutputPort *o);
    /// Flow-table reference (an opaque FlowTable*): owning router node.
    void table(const void *t);

  private:
    std::ostream &os_;
    std::unordered_map<const NetPacket *, std::uint64_t> pktIdx_;
    std::unordered_map<const InputPort *, std::uint32_t> portIdx_;
    std::unordered_map<const OutputPort *, std::pair<NodeId, int>> outIdx_;
    std::unordered_map<const void *, NodeId> tableNode_;
};

/// Mirror of CheckpointWriter: decodes the same encodings, tracks the
/// byte offset, and throws CheckpointError (via fail()) on truncation,
/// tag mismatch or an out-of-range reference.
class CheckpointReader {
  public:
    /// `startOffset` accounts for bytes already consumed (the header).
    CheckpointReader(std::istream &is, Network &net, PacketPool &pool,
                     std::uint64_t startOffset);

    std::uint8_t u8();
    std::uint32_t u32();
    std::int32_t i32();
    std::uint64_t u64();
    double f64();
    std::vector<std::uint64_t> words();
    void expectSection(const char *tag);

    NetPacket *pkt();
    InputPort *port();
    OutputPort *output();
    void *table();

    /// Throw CheckpointError annotated with the current section and
    /// byte offset.
    [[noreturn]] void fail(const std::string &what) const;

  private:
    void bytes(void *data, std::size_t n);

    std::istream &is_;
    Network &net_;
    PacketPool &pool_;
    std::vector<InputPort *> ports_; ///< global save-order enumeration
    std::uint64_t offset_;
    std::string section_ = "header";
};

/// Serialize / restore a vector of engine-external injector queues
/// (compute-node source queues in the chip and fabric sims), as
/// length-prefixed packet-reference lists plus the window counters.
/// Restore validates counts and packet references via the reader.
void saveInjectorQueues(CheckpointWriter &w,
                        const std::vector<InjectorQueue> &queues);
void restoreInjectorQueues(CheckpointReader &r,
                           std::vector<InjectorQueue> &queues);

} // namespace taqos
