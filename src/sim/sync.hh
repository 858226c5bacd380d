/**
 * @file
 * Synchronization primitives for simulation processes.
 *
 * All primitives are cooperative (single-threaded kernel): waiters are
 * coroutines suspended on the primitive, and notification schedules
 * their resumption through the event queue at the current tick, which
 * keeps wake-ups ordered and avoids re-entrant resumption.
 */

#ifndef CCN_SIM_SYNC_HH
#define CCN_SIM_SYNC_HH

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/simulator.hh"

namespace ccn::sim {

/**
 * Broadcast gate. Waiters suspend until notifyAll() releases every
 * waiter currently suspended. Used for cache-line invalidation wakeups
 * (the hardware analogue of a polling loop observing a coherence
 * invalidation).
 */
class Gate
{
  public:
    explicit Gate(Simulator &sim) : sim_(sim) {}

    /** State block shared between a timed waiter and its timeout. */
    struct TimedWaiter
    {
        std::coroutine_handle<> handle;
        bool done = false;
        bool notified = false;
    };

    /** Awaitable: suspend until the next notifyAll(). */
    auto
    wait()
    {
        struct Awaiter
        {
            Gate &gate;

            bool await_ready() const { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                gate.waiters_.push_back(h);
            }

            void await_resume() {}
        };
        return Awaiter{*this};
    }

    /**
     * Awaitable: suspend until notifyAll() or @p deadline, whichever
     * comes first. The co_await result is true when notified, false on
     * timeout.
     */
    auto
    waitUntil(Tick deadline)
    {
        struct Awaiter
        {
            Gate &gate;
            Tick deadline;
            std::shared_ptr<TimedWaiter> w;

            bool await_ready() const { return deadline <= gate.sim_.now(); }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                w = std::make_shared<TimedWaiter>();
                w->handle = h;
                gate.timedWaiters_.push_back(w);
                auto token = w;
                auto *g = &gate;
                gate.sim_.scheduleCallback(deadline, [token, g] {
                    if (!token->done) {
                        token->done = true;
                        g->sim_.scheduleResume(g->sim_.now(),
                                               token->handle);
                    }
                });
            }

            bool await_resume() const { return w ? w->notified : false; }
        };
        return Awaiter{*this, deadline, nullptr};
    }

    /** Release all current waiters (scheduled at the current tick). */
    void
    notifyAll()
    {
        for (auto h : waiters_)
            sim_.scheduleResume(sim_.now(), h);
        waiters_.clear();
        for (auto &w : timedWaiters_) {
            if (!w->done) {
                w->done = true;
                w->notified = true;
                sim_.scheduleResume(sim_.now(), w->handle);
            }
        }
        timedWaiters_.clear();
    }

    bool
    hasWaiters() const
    {
        if (!waiters_.empty())
            return true;
        for (const auto &w : timedWaiters_) {
            if (!w->done)
                return true;
        }
        return false;
    }

  private:
    Simulator &sim_;
    std::vector<std::coroutine_handle<>> waiters_;
    std::vector<std::shared_ptr<TimedWaiter>> timedWaiters_;
};

/**
 * Counting semaphore. Models finite concurrency resources such as
 * per-core miss status handling registers (MSHRs) or DMA engine tags.
 */
class Semaphore
{
  public:
    Semaphore(Simulator &sim, std::uint32_t count)
        : sim_(sim), count_(count)
    {}

    /** Awaitable: acquire one unit, suspending while none are free. */
    auto
    acquire()
    {
        struct Awaiter
        {
            Semaphore &sem;

            bool
            await_ready()
            {
                if (sem.count_ > 0) {
                    // Claim eagerly so same-tick racers queue up.
                    sem.count_--;
                    return true;
                }
                return false;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                sem.waiters_.push_back(h);
            }

            void await_resume() {}
        };
        return Awaiter{*this};
    }

    /** Release one unit, waking the oldest waiter if any. */
    void
    release()
    {
        if (!waiters_.empty()) {
            // Hand the unit directly to the oldest waiter.
            auto h = waiters_.front();
            waiters_.pop_front();
            sim_.scheduleResume(sim_.now(), h);
        } else {
            count_++;
        }
    }

    std::uint32_t available() const { return count_; }

  private:
    Simulator &sim_;
    std::uint32_t count_;
    std::deque<std::coroutine_handle<>> waiters_;
};

/**
 * Unbounded message queue between processes. put() never blocks; get()
 * suspends until an item is available. Used for device-internal
 * hand-offs (e.g., doorbell notifications to a NIC engine).
 */
template <typename T>
class Mailbox
{
  public:
    explicit Mailbox(Simulator &sim) : sim_(sim) {}

    /** Enqueue an item, waking the oldest blocked getter. */
    void
    put(T item)
    {
        items_.push_back(std::move(item));
        if (!waiters_.empty()) {
            auto h = waiters_.front();
            waiters_.pop_front();
            sim_.scheduleResume(sim_.now(), h);
        }
    }

    /** Awaitable: dequeue the oldest item, suspending while empty. */
    auto
    get()
    {
        struct Awaiter
        {
            Mailbox &box;

            bool await_ready() const { return !box.items_.empty(); }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                box.waiters_.push_back(h);
            }

            T
            await_resume()
            {
                T item = std::move(box.items_.front());
                box.items_.pop_front();
                return item;
            }
        };
        return Awaiter{*this};
    }

    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }

    /** Drop every queued item. */
    void clear() { items_.clear(); }

  private:
    Simulator &sim_;
    std::deque<T> items_;
    std::deque<std::coroutine_handle<>> waiters_;
};

/**
 * Serialized bandwidth resource (a link direction, a DRAM channel, a
 * device pipeline stage). Transactions reserve occupancy in FIFO order;
 * the caller is told when its transfer completes and should delay until
 * then. This gives M/D/1-style queueing behaviour under load.
 */
class BandwidthResource
{
  public:
    /**
     * @param sim             Owning simulator (for now()).
     * @param bytes_per_second Service rate.
     */
    BandwidthResource(Simulator &sim, double bytes_per_second)
        : sim_(sim), bytesPerSecond_(bytes_per_second)
    {}

    /**
     * Reserve occupancy for @p bytes starting no earlier than now.
     * Returns the absolute completion tick. Does not suspend; callers
     * co_await sim.delayUntil(result) if they need the data in hand.
     */
    Tick
    reserve(std::uint64_t bytes)
    {
        const Tick start = std::max(sim_.now(), nextFree_);
        const Tick duration = serializationTime(bytes, bytesPerSecond_);
        nextFree_ = start + duration;
        busyTicks_ += duration;
        bytesServed_ += bytes;
        return nextFree_;
    }

    /**
     * Reserve occupancy for @p bytes starting no earlier than
     * @p earliest (which may be in the simulated future, for composing
     * multi-hop transactions). Returns the absolute completion tick.
     */
    Tick
    reserveAt(Tick earliest, std::uint64_t bytes)
    {
        const Tick start = std::max(earliest, nextFree_);
        const Tick duration = serializationTime(bytes, bytesPerSecond_);
        nextFree_ = start + duration;
        busyTicks_ += duration;
        bytesServed_ += bytes;
        return nextFree_;
    }

    /** Reserve a fixed duration (for non-byte-denominated stages). */
    Tick
    reserveTime(Tick duration)
    {
        const Tick start = std::max(sim_.now(), nextFree_);
        nextFree_ = start + duration;
        busyTicks_ += duration;
        return nextFree_;
    }

    /** Earliest tick at which the resource is free. */
    Tick nextFree() const { return nextFree_; }

    /** Change the service rate (used by sensitivity sweeps). */
    void setRate(double bytes_per_second) { bytesPerSecond_ = bytes_per_second; }

    double rate() const { return bytesPerSecond_; }
    std::uint64_t bytesServed() const { return bytesServed_; }
    Tick busyTicks() const { return busyTicks_; }

    /** Reset accounting (not the schedule). */
    void
    resetStats()
    {
        bytesServed_ = 0;
        busyTicks_ = 0;
    }

  private:
    Simulator &sim_;
    double bytesPerSecond_;
    Tick nextFree_ = 0;
    Tick busyTicks_ = 0;
    std::uint64_t bytesServed_ = 0;
};

/**
 * Calendar-based bandwidth resource. Unlike BandwidthResource, which
 * serializes reservations in call order, the calendar admits
 * reservations at any future time into quantized capacity buckets, so
 * many agents composing multi-hop transactions do not head-of-line
 * block each other. Used for shared interconnect links and DRAM
 * channels.
 */
class CalendarResource
{
  public:
    CalendarResource(Simulator &sim, double bytes_per_second,
                     Tick bucket_width = 64 * kNanosecond)
        : sim_(sim), bytesPerSecond_(bytes_per_second),
          bucketWidth_(bucket_width)
    {}

    /**
     * Reserve capacity for @p bytes starting no earlier than
     * @p earliest; returns the completion tick.
     */
    Tick
    reserveAt(Tick earliest, std::uint64_t bytes)
    {
        bytesServed_ += bytes;
        if (earliest < sim_.now())
            earliest = sim_.now();
        prune();
        const double cap =
            bytesPerSecond_ * toSeconds(bucketWidth_);
        std::size_t idx = bucketIndex(earliest);
        double remaining = static_cast<double>(bytes);
        Tick completion = earliest;
        while (remaining > 0) {
            idx = firstOpen(idx);
            while (idx >= buckets_.size())
                buckets_.push_back({});
            Bucket &b = buckets_[idx];
            const double space = cap - b.used;
            if (space <= 0.0) {
                b.skip = 1;
                ++idx;
                continue;
            }
            const double take = std::min(space, remaining);
            b.used += take;
            remaining -= take;
            completion = base_ + static_cast<Tick>(idx) * bucketWidth_ +
                         static_cast<Tick>(
                             b.used / cap *
                             static_cast<double>(bucketWidth_));
            ++idx;
        }
        const Tick min_done =
            earliest + serializationTime(bytes, bytesPerSecond_);
        return std::max(completion, min_done);
    }

    Tick reserve(std::uint64_t bytes)
    {
        return reserveAt(sim_.now(), bytes);
    }

    /** Change the service rate. A higher rate can reopen a full
     *  bucket, so every skip offset is dropped. */
    void setRate(double bytes_per_second)
    {
        bytesPerSecond_ = bytes_per_second;
        for (Bucket &b : buckets_)
            b.skip = 0;
    }

    double rate() const { return bytesPerSecond_; }
    std::uint64_t bytesServed() const { return bytesServed_; }

    void resetStats() { bytesServed_ = 0; }

  private:
    /**
     * One capacity bucket. skip == 0: the bucket may still have
     * space. skip == k > 0: buckets [i, i + k) all failed the
     * `cap - used <= 0.0` test at the current rate, so the scan may
     * jump to i + k. At a fixed rate a full bucket never reopens.
     */
    struct Bucket
    {
        double used = 0.0;
        std::size_t skip = 0;
    };

    std::size_t
    bucketIndex(Tick t)
    {
        if (buckets_.empty())
            base_ = (t / bucketWidth_) * bucketWidth_;
        if (t < base_)
            t = base_;
        return static_cast<std::size_t>((t - base_) / bucketWidth_);
    }

    /**
     * First bucket at or after @p idx that may still have space
     * (possibly one past the end). Points every offset on the path at
     * the result, so later scans from the same start jump straight
     * to the backlog's frontier.
     */
    std::size_t
    firstOpen(std::size_t idx)
    {
        std::size_t open = idx;
        while (open < buckets_.size() && buckets_[open].skip)
            open += buckets_[open].skip;
        while (idx < open) {
            const std::size_t next = idx + buckets_[idx].skip;
            buckets_[idx].skip = open - idx;
            idx = next;
        }
        return open;
    }

    void
    prune()
    {
        const Tick now = sim_.now();
        while (!buckets_.empty() && base_ + bucketWidth_ <= now) {
            buckets_.pop_front();
            base_ += bucketWidth_;
        }
    }

    Simulator &sim_;
    double bytesPerSecond_;
    Tick bucketWidth_;
    Tick base_ = 0;
    std::deque<Bucket> buckets_;
    std::uint64_t bytesServed_ = 0;
};

} // namespace ccn::sim

#endif // CCN_SIM_SYNC_HH
