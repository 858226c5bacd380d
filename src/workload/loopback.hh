/**
 * @file
 * Loopback traffic generator and measurement harness.
 *
 * Reproduces the paper's loopback methodology (§5.1): each application
 * thread owns a private TX/RX queue pair, allocates TX buffers, writes
 * full timestamped payloads per burst, polls its RX queue, accesses
 * every RX payload, and frees buffers. Offered load is varied from a
 * single in-flight packet (closed loop) up to the maximum sustainable
 * rate (open loop with exponential arrivals), measuring median
 * roundtrip latency and RX data throughput.
 */

#ifndef CCN_WORKLOAD_LOOPBACK_HH
#define CCN_WORKLOAD_LOOPBACK_HH

#include <cstdint>
#include <vector>

#include "driver/nic_iface.hh"
#include "mem/coherence.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "stats/histogram.hh"

namespace ccn::workload {

/** One loopback measurement point. */
struct LoopbackConfig
{
    int threads = 1;              ///< Host threads (= queue pairs).
    std::uint32_t pktSize = 64;   ///< Payload bytes.
    double offeredPps = 1e6;      ///< Total open-loop offered load.
    int closedWindow = 0;         ///< >0: closed loop, this many inflight.
    int txBatch = 32;
    int rxBatch = 32;
    sim::Tick warmup = sim::fromUs(40.0);
    sim::Tick window = sim::fromUs(150.0);
    std::uint64_t seed = 42;
};

/** Measured results for one point. */
struct LoopbackResult
{
    double offeredMpps = 0;
    double achievedMpps = 0;
    double gbps = 0;
    double minNs = 0;
    double medianNs = 0;
    double p99Ns = 0;
    std::uint64_t rxPackets = 0;
    std::uint64_t txDrops = 0;
};

/**
 * Run one loopback measurement point against an already-started NIC.
 * The simulator is advanced to warmup + window plus drain time.
 */
LoopbackResult runLoopback(sim::Simulator &sim,
                           mem::CoherentSystem &mem_system,
                           driver::NicInterface &nic,
                           const LoopbackConfig &cfg);

} // namespace ccn::workload

#endif // CCN_WORKLOAD_LOOPBACK_HH
