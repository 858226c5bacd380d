#include "driver/mempool.hh"

#include <algorithm>
#include <numeric>
#include <cassert>

#include "obs/trace.hh"

namespace ccn::driver {

namespace {

/** Key for the per-agent, per-class recycle stack map. */
std::uint64_t
recycleKey(mem::AgentId agent, BufClass cls)
{
    return (static_cast<std::uint64_t>(agent) << 1) |
           static_cast<std::uint64_t>(cls);
}

} // namespace

Mempool::Mempool(mem::CoherentSystem &mem_system,
                 const MempoolConfig &config, sim::Rng &rng)
    : mem_(mem_system), cfg_(config)
{
    // Large buffers: contiguous MTU-sized chunks.
    const mem::Addr large_base =
        mem_.alloc(cfg_.homeSocket,
                   static_cast<std::uint64_t>(cfg_.largeCount) *
                       cfg_.largeBufBytes,
                   cfg_.largeBufBytes);
    profRegions_.push_back(mem_.profiler().registerRegion(
        "pool.bufs_large", large_base,
        static_cast<std::uint64_t>(cfg_.largeCount) *
            cfg_.largeBufBytes,
        obs::RegionIntent::Owned));
    largeBufs_.resize(cfg_.largeCount);
    for (std::uint32_t i = 0; i < cfg_.largeCount; ++i) {
        PacketBuf &b = largeBufs_[i];
        b.addr = large_base +
                 static_cast<std::uint64_t>(i) * cfg_.largeBufBytes;
        b.capacity = cfg_.largeBufBytes;
        b.cls = BufClass::Large;
        b.poolIndex = i;
    }

    // Small buffers: 4KB chunks subdivided (32x128B per chunk, §3.3).
    if (cfg_.smallBuffers && cfg_.smallCount > 0) {
        const mem::Addr small_base =
            mem_.alloc(cfg_.homeSocket,
                       static_cast<std::uint64_t>(cfg_.smallCount) *
                           kSmallBufBytes,
                       cfg_.largeBufBytes);
        profRegions_.push_back(mem_.profiler().registerRegion(
            "pool.bufs_small", small_base,
            static_cast<std::uint64_t>(cfg_.smallCount) * kSmallBufBytes,
            obs::RegionIntent::Owned));
        smallBufs_.resize(cfg_.smallCount);
        for (std::uint32_t i = 0; i < cfg_.smallCount; ++i) {
            PacketBuf &b = smallBufs_[i];
            b.addr = small_base +
                     static_cast<std::uint64_t>(i) * kSmallBufBytes;
            b.capacity = kSmallBufBytes;
            b.cls = BufClass::Small;
            b.poolIndex = i;
        }
    }

    // Build initial free order. Nonsequential fill interleaves with a
    // large co-prime stride so that consecutive allocations land in
    // different buffer neighbourhoods (§3.3); otherwise natural order.
    const int nstripes = std::max(1, cfg_.stripes);
    auto fill = [&](ClassState &cs, std::uint32_t count) {
        cs.stripes.resize(static_cast<std::size_t>(nstripes));
        std::vector<std::uint32_t> order;
        order.reserve(count);
        if (cfg_.nonSequentialFill && count > 1) {
            std::uint32_t stride = count / 2 - 1;
            while (stride > 1 && std::gcd(stride, count) != 1)
                --stride;
            if (stride <= 1)
                stride = 1;
            std::uint32_t pos =
                static_cast<std::uint32_t>(rng.below(count));
            for (std::uint32_t i = 0; i < count; ++i) {
                order.push_back(pos);
                pos = (pos + stride) % count;
            }
        } else {
            for (std::uint32_t i = 0; i < count; ++i)
                order.push_back(i);
        }
        // Distribute round-robin across stripes; back each stripe's
        // free ring and index line with simulated memory.
        for (std::uint32_t i = 0; i < count; ++i)
            cs.stripes[i % nstripes].freeStack.push_back(order[i]);
        for (std::size_t si = 0; si < cs.stripes.size(); ++si) {
            Stripe &st = cs.stripes[si];
            const std::uint64_t stack_bytes =
                static_cast<std::uint64_t>(count / nstripes + 1) * 8;
            st.stackMem = mem_.alloc(cfg_.homeSocket, stack_bytes,
                                     mem::kLineBytes);
            st.indexLine = mem_.alloc(cfg_.homeSocket, mem::kLineBytes,
                                      mem::kLineBytes);
            // The free-ring storage is producer/consumer bulk data;
            // the shared head-index line is an intended contention
            // point when host and NIC share the pool (§3.4).
            const std::string stripe_name =
                "pool.stripe" + std::to_string(si);
            profRegions_.push_back(mem_.profiler().registerRegion(
                stripe_name, st.stackMem, stack_bytes,
                obs::RegionIntent::Owned));
            profRegions_.push_back(mem_.profiler().registerRegion(
                stripe_name, st.indexLine, mem::kLineBytes,
                cfg_.sharedAccess ? obs::RegionIntent::TwoWay
                                  : obs::RegionIntent::Owned));
        }
    };
    fill(largeState_, cfg_.largeCount);
    if (cfg_.smallBuffers)
        fill(smallState_, cfg_.smallCount);
}

Mempool::~Mempool()
{
    for (obs::RegionId id : profRegions_)
        mem_.profiler().unregisterRegion(id);
}

BufClass
Mempool::classFor(std::uint32_t size_hint) const
{
    if (cfg_.smallBuffers && size_hint <= kSmallBufBytes &&
        !smallBufs_.empty()) {
        return BufClass::Small;
    }
    return BufClass::Large;
}

std::vector<PacketBuf> &
Mempool::bufsOf(BufClass cls)
{
    return cls == BufClass::Small ? smallBufs_ : largeBufs_;
}

Mempool::ClassState &
Mempool::stateOf(BufClass cls)
{
    return cls == BufClass::Small ? smallState_ : largeState_;
}

Mempool::RecycleState &
Mempool::recycleFor(mem::AgentId agent, BufClass cls)
{
    RecycleState &rc = recycle_[recycleKey(agent, cls)];
    if (rc.localMem == 0) {
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(kRecycleDepth) * 8;
        rc.localMem = mem_.alloc(mem_.agentSocket(agent), bytes,
                                 mem::kLineBytes);
        rc.stack.reserve(kRecycleDepth);
        profRegions_.push_back(mem_.profiler().registerRegion(
            "pool.recycle", rc.localMem, bytes,
            obs::RegionIntent::Owned));
    }
    return rc;
}

sim::Coro<void>
Mempool::chargeGlobalOp(mem::AgentId agent, BufClass cls, int stripe,
                        std::uint32_t slot)
{
    ClassState &cs = stateOf(cls);
    Stripe &st = cs.stripes[static_cast<std::size_t>(stripe) %
                            cs.stripes.size()];
    // Index update: an atomic RMW when host and NIC share the pool
    // (§3.4), a plain store otherwise.
    if (cfg_.sharedAccess)
        co_await mem_.atomicRmw(agent, st.indexLine);
    else
        co_await mem_.store(agent, st.indexLine, 8);
    // Pointer slot access (8B within the stack's backing memory).
    co_await mem_.load(agent, st.stackMem + slot * 8ULL, 8);
    co_return;
}

sim::Coro<PacketBuf *>
Mempool::alloc(mem::AgentId agent, std::uint32_t size_hint)
{
    PacketBuf *buf = nullptr;
    co_await allocBurst(agent, size_hint, &buf, 1);
    co_return buf;
}

sim::Coro<int>
Mempool::allocBurst(mem::AgentId agent, std::uint32_t size_hint,
                    PacketBuf **out, int count, int stripe)
{
    const BufClass cls = classFor(size_hint);
    auto &bufs = bufsOf(cls);
    ClassState &cs = stateOf(cls);
    Stripe &st = cs.stripes[static_cast<std::size_t>(stripe) %
                            cs.stripes.size()];
    int got = 0;

    if (cfg_.recycleCache) {
        RecycleState &rc = recycleFor(agent, cls);
        const std::size_t top0 = rc.stack.size();
        while (got < count && !rc.stack.empty()) {
            out[got++] = &bufs[rc.stack.back()];
            rc.stack.pop_back();
        }
        telem_.recycleHits += static_cast<std::uint64_t>(got);
        if (got > 0) {
            // Core-local bookkeeping: touch the stack's top line(s);
            // these stay resident in the agent's own L2.
            co_await mem_.load(agent, rc.localMem + (top0 / 8) * 64, 8);
        }
    }

    // Refill the remainder from the shared/global stack.
    int from_global = 0;
    while (got < count && !st.freeStack.empty()) {
        // FIFO: cycle through the whole pool (DPDK ring semantics);
        // temporal reuse only comes from the recycle caches.
        const std::uint32_t idx = st.freeStack.front();
        st.freeStack.pop_front();
        out[got++] = &bufs[idx];
        from_global++;
    }
    if (from_global > 0) {
        // One index update plus one pointer-slot line per 8 pointers.
        const std::uint32_t top =
            static_cast<std::uint32_t>(st.freeStack.size());
        co_await chargeGlobalOp(agent, cls, stripe, top);
        for (int k = 8; k < from_global; k += 8) {
            co_await mem_.load(agent, st.stackMem + (top + k) * 8ULL,
                               8);
        }
    }

    telem_.allocs += static_cast<std::uint64_t>(got);
    if (got > 0) {
        telem_.allocsByStripe.at(static_cast<std::uint64_t>(
            static_cast<std::size_t>(stripe) % cs.stripes.size())) +=
            static_cast<std::uint64_t>(got);
    }
    if (got < count) {
        telem_.exhausted++;
        obs::tracepoint(obs::EventKind::PoolExhausted, "alloc.short",
                        mem_.simulator().now(),
                        static_cast<std::uint64_t>(count - got));
    }
    for (int i = 0; i < got; ++i) {
        out[i]->len = 0;
        out[i]->nextSeg = nullptr;
        out[i]->segLen = 0;
    }
    co_return got;
}

sim::Coro<void>
Mempool::free(mem::AgentId agent, PacketBuf *buf)
{
    co_await freeBurst(agent, &buf, 1);
    co_return;
}

sim::Coro<void>
Mempool::freeBurst(mem::AgentId agent, PacketBuf **bufs, int count,
                   int stripe)
{
    telem_.frees += static_cast<std::uint64_t>(count);
    int to_global = 0;
    std::uint32_t any_slot = 0;
    bool any_recycled = false;
    for (int i = 0; i < count; ++i) {
        PacketBuf *b = bufs[i];
        assert(b != nullptr);
        const BufClass cls = b->cls;
        Stripe &st = stateOf(cls).stripes[
            static_cast<std::size_t>(stripe) %
            stateOf(cls).stripes.size()];
        if (cfg_.recycleCache) {
            RecycleState &rc = recycleFor(agent, cls);
            if (rc.stack.size() < kRecycleDepth) {
                rc.stack.push_back(b->poolIndex);
                any_recycled = true;
                continue;
            }
        }
        st.freeStack.push_back(b->poolIndex);
        any_slot = static_cast<std::uint32_t>(st.freeStack.size() - 1);
        to_global++;
    }
    if (to_global > 0) {
        // Charge the shared-stripe traffic (amortized over the burst).
        co_await chargeGlobalOp(agent, bufs[0]->cls, stripe, any_slot);
        Stripe &st0 = stateOf(bufs[0]->cls).stripes[
            static_cast<std::size_t>(stripe) %
            stateOf(bufs[0]->cls).stripes.size()];
        for (int k = 8; k < to_global; k += 8)
            co_await mem_.load(agent,
                               st0.stackMem + (any_slot + k) * 8ULL,
                               8);
    } else if (any_recycled) {
        RecycleState &rc = recycleFor(agent, bufs[0]->cls);
        co_await mem_.store(agent, rc.localMem, 8);
    }
    co_return;
}

std::size_t
Mempool::freeCount(BufClass cls) const
{
    const ClassState &cs =
        cls == BufClass::Small ? smallState_ : largeState_;
    std::size_t n = 0;
    for (const Stripe &st : cs.stripes)
        n += st.freeStack.size();
    return n;
}

std::size_t
Mempool::recycledCount(BufClass cls) const
{
    std::size_t n = 0;
    for (const auto &[key, rc] : recycle_) {
        if (static_cast<BufClass>(key & 1) == cls)
            n += rc.stack.size();
    }
    return n;
}

std::size_t
Mempool::outstandingCount(BufClass cls) const
{
    const std::size_t total = cls == BufClass::Small ? smallBufs_.size()
                                                     : largeBufs_.size();
    const std::size_t held = freeCount(cls) + recycledCount(cls);
    return held >= total ? 0 : total - held;
}

std::size_t
Mempool::auditLeaks()
{
    const std::size_t leaked = outstandingCount(BufClass::Large) +
                               outstandingCount(BufClass::Small);
    telem_.leaked.observe(static_cast<std::uint64_t>(leaked));
    return leaked;
}

} // namespace ccn::driver
