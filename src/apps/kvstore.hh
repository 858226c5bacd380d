/**
 * @file
 * CliqueMap-style key-value store server (§5.7).
 *
 * Server threads poll NIC RX queues and handle GET/SET RPCs against a
 * hash index in simulated memory. GETs are zero-copy: the response is
 * a header buffer with the object payload attached as a second
 * segment (the DPDK extbuf pattern), so each TX descriptor carries two
 * buffer addresses. Clients live on the far side of a rate-capped wire
 * model standing in for the CX6's 2x100GbE ports.
 */

#ifndef CCN_APPS_KVSTORE_HH
#define CCN_APPS_KVSTORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/overlay.hh"
#include "ccnic/ccnic.hh"
#include "mem/coherence.hh"
#include "transport/transport.hh"
#include "workload/dists.hh"

namespace ccn::apps {

/// Zipf coefficient of key popularity (§5.7).
inline constexpr double kZipfSkew = 0.75;

/** KV store configuration. */
struct KvConfig
{
    std::uint64_t numObjects = 1u << 20;
    double getFraction = 0.95;
    workload::SizeDist sizes = workload::SizeDist::ads();
    int serverThreads = 8;
    double offeredOps = 100e6; ///< Client offered load (beyond peak).
    sim::Tick window = sim::fromUs(200.0);
    std::uint64_t seed = 11;
};

/// @name KV request format
/// A request travels in the frame's `userData`: bits 0..31 the key,
/// bits 32..62 the client's request id (the server echoes the word,
/// so a client can deduplicate responses on it), bit 63 set for a
/// PUT.
/// @{
constexpr std::uint64_t
packKvRequest(std::uint64_t key, bool get, std::uint64_t req_id = 0)
{
    return (key & 0xffffffffULL) | ((req_id & 0x7fffffffULL) << 32) |
           (get ? 0ULL : 1ULL << 63);
}

/** The key and GET/PUT a packed request carries. */
struct KvRequestKey
{
    std::uint32_t key;
    bool get;
};

constexpr KvRequestKey
unpackKvRequest(std::uint64_t user_data)
{
    return {static_cast<std::uint32_t>(user_data),
            (user_data >> 63) == 0};
}
/// @}

/// The KV harness's name for its result, as perfbench spells it.
using KvResult = OverlayResult;

/**
 * Reusable KV server: owns the hash index and object store in
 * simulated memory and spawns polling server threads against any
 * NicInterface. Responses are addressed back to the requester
 * (dst = request src), so the same server runs unchanged behind the
 * overlay harness (runKvStore) and a network fabric
 * (workload/clientserver).
 */
class KvServer
{
  public:
    KvServer(mem::CoherentSystem &m, const KvConfig &cfg, sim::Rng &rng);
    ~KvServer();

    /**
     * Spawn cfg.serverThreads polling threads on queues
     * [0, serverThreads); they exit once @p run_until passes.
     */
    void start(sim::Simulator &sim, mem::CoherentSystem &m,
               driver::NicInterface &nic, sim::Tick run_until);

    /**
     * Serve GET/SET RPCs over the reliable transport instead of raw
     * bursts: every accepted connection gets a serving process that
     * loops recv → parse → index lookup → object access → send. The
     * response echoes the request's userData and original txTime (for
     * end-to-end RTT at the client); a GET response carries the
     * 32-byte header + object size, a SET response just the header.
     * Install before the endpoint sees its first SYN; @p ep must
     * outlive the run.
     */
    void startOverTransport(sim::Simulator &sim,
                            mem::CoherentSystem &m,
                            transport::Endpoint &ep,
                            sim::Tick run_until);

    struct State;

  private:
    std::shared_ptr<State> st_;
    KvConfig cfg_;
};

/**
 * Run the KV server on @p nic (already started, loopback off) behind
 * the overlay harness (runOverlay) and measure peak served throughput.
 * Two clients, from Rng(cfg.seed * 31 + c), each offer half of
 * cfg.offeredOps of 64-byte requests with Zipf keys; request n goes
 * to queue n % queues.
 *
 * @param inject Injects a request into server queue q (the NIC's RX
 *               path).
 * @param set_tx_sink Installs the NIC's TX sink.
 */
KvResult runKvStore(sim::Simulator &sim, mem::CoherentSystem &mem_system,
                    driver::NicInterface &nic, FrameFn inject,
                    std::function<void(FrameFn)> set_tx_sink,
                    WireModel &wire, const KvConfig &cfg);

} // namespace ccn::apps

#endif // CCN_APPS_KVSTORE_HH
