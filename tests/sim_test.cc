/**
 * @file
 * Unit tests for the discrete-event simulation kernel: event ordering,
 * coroutine tasks, awaitables, synchronization primitives, bandwidth
 * resources, and deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace {

using namespace ccn::sim;

TEST(Time, Conversions)
{
    EXPECT_EQ(fromNs(1.0), kNanosecond);
    EXPECT_EQ(fromUs(2.0), 2 * kMicrosecond);
    EXPECT_DOUBLE_EQ(toNs(1500), 1.5);
    EXPECT_DOUBLE_EQ(toUs(2 * kMicrosecond), 2.0);
    // 64B at 64GB/s is 1ns.
    EXPECT_EQ(serializationTime(64, 64e9), kNanosecond);
    EXPECT_DOUBLE_EQ(gbpsToBytesPerSec(8.0), 1e9);
}

TEST(EventQueue, CallbacksRunInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.scheduleCallback(300, [&] { order.push_back(3); });
    sim.scheduleCallback(100, [&] { order.push_back(1); });
    sim.scheduleCallback(200, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 300u);
}

TEST(EventQueue, SameTickFifo)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        sim.scheduleCallback(42, [&order, i] { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunLimitStopsTime)
{
    Simulator sim;
    bool ran = false;
    sim.scheduleCallback(1000, [&] { ran = true; });
    sim.run(500);
    EXPECT_FALSE(ran);
    EXPECT_EQ(sim.now(), 500u);
    sim.run();
    EXPECT_TRUE(ran);
}

/**
 * Drives a Simulator with a seeded mix of resumptions and callbacks and
 * records every event it schedules: its tick, and its place in the
 * order of scheduling calls, which the kernel's same-tick tiebreak
 * follows. Events schedule more events from inside callbacks and
 * coroutines until the budget of scheduling calls is spent.
 */
class QueueDriver
{
  public:
    QueueDriver(std::uint64_t seed, std::size_t budget)
        : rng(seed), budget_(budget)
    {}

    Simulator sim;
    Rng rng;
    std::vector<Tick> when;              ///< Tick of each event, by seq.
    std::vector<std::uint64_t> executed; ///< Seqs in execution order.
    std::size_t resumes = 0;
    std::size_t wrongTick = 0; ///< Events run at a tick not their own.
    bool stopped = false;      ///< An event called stop().

    bool spent() const { return when.size() >= budget_; }

    /** Record an event about to be scheduled at @p t; returns its seq. */
    std::uint64_t
    record(Tick t)
    {
        when.push_back(t);
        return when.size() - 1;
    }

    /** Called by every event as it runs. */
    void
    ran(std::uint64_t seq)
    {
        if (sim.now() != when[seq])
            ++wrongTick;
        executed.push_back(seq);
    }

    /** Ticks from now: same tick, adjacent ticks, near or far. */
    Tick
    gap()
    {
        switch (rng.below(4)) {
        case 0: return 0;
        case 1: return 1 + rng.below(3);
        case 2: return rng.below(100);
        default: return rng.below(5000);
        }
    }

    void
    callback(Tick t)
    {
        const std::uint64_t seq = record(t);
        sim.scheduleCallback(t, [this, seq] {
            ran(seq);
            react();
        });
    }

    /** A same-tick burst of callbacks at @p t. */
    void
    burst(Tick t)
    {
        for (std::uint64_t i = 0, n = 2 + rng.below(4); i < n; ++i)
            callback(t);
    }

    void spawnWorker();

    /** What a running event does: schedule more, or stop the run. */
    void
    react()
    {
        if (spent())
            return;
        switch (rng.below(16)) {
        case 0: case 1: case 2: callback(sim.now()); break;
        case 3: case 4: case 5: callback(sim.now() + gap()); break;
        case 6: burst(sim.now()); break;
        case 7: burst(sim.now() + gap()); break;
        case 8:
            if (rng.below(64) == 0) {
                stopped = true;
                sim.stop();
            }
            break;
        case 9:
            if (rng.below(4) == 0)
                spawnWorker();
            break;
        default: break;
        }
    }

    /** Awaitable: resume the calling worker at @p t, yielding its seq. */
    auto
    resumeAt(Tick t)
    {
        struct Awaiter
        {
            QueueDriver &d;
            Tick t;
            std::uint64_t seq = 0;

            bool await_ready() const { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                seq = d.record(t);
                ++d.resumes;
                d.sim.scheduleResume(t, h);
            }

            std::uint64_t await_resume() const { return seq; }
        };
        return Awaiter{*this, t};
    }

  private:
    std::size_t budget_;
};

/** A process that reacts each time it runs, then sleeps again. */
Task
queueWorker(QueueDriver &d, std::uint64_t seq)
{
    for (;;) {
        d.ran(seq);
        d.react();
        if (d.spent())
            co_return;
        seq = co_await d.resumeAt(d.sim.now() + d.gap());
    }
}

void
QueueDriver::spawnWorker()
{
    // spawn() schedules the first resumption at now with the next seq.
    const std::uint64_t seq = record(sim.now());
    ++resumes;
    sim.spawn(queueWorker(*this, seq));
}

TEST(EventQueue, MatchesSortedReference)
{
    QueueDriver d(0x5eed, 60000);
    for (int i = 0; i < 32; ++i)
        d.spawnWorker();
    d.burst(0);
    std::size_t slices = 0, stops = 0;
    while (d.executed.size() < d.when.size()) {
        const Tick limit = d.sim.now() + d.rng.below(300);
        d.sim.run(limit);
        ++slices;
        ASSERT_EQ(d.sim.eventsExecuted(), d.executed.size());
        if (d.stopped) {
            // stop() returns right after the event that called it.
            ASSERT_EQ(d.sim.now(), d.when[d.executed.back()]);
            d.stopped = false;
            ++stops;
        } else {
            const auto due = std::count_if(
                d.when.begin(), d.when.end(),
                [limit](Tick t) { return t <= limit; });
            ASSERT_EQ(d.executed.size(), static_cast<std::size_t>(due))
                << "slice " << slices << " left events due by " << limit;
            if (d.executed.size() < d.when.size()) {
                ASSERT_EQ(d.sim.now(), limit);
            }
        }
        // Between slices, schedule at the current tick and later.
        if (!d.spent() && d.rng.below(4) == 0)
            d.burst(d.sim.now() + d.rng.below(2) * d.gap());
    }
    d.sim.run();

    EXPECT_GE(d.when.size(), 50000u);
    EXPECT_GE(d.resumes, 10000u);
    EXPECT_GE(slices, 150u);
    EXPECT_GE(stops, 20u);
    EXPECT_EQ(d.wrongTick, 0u);
    EXPECT_EQ(d.sim.eventsExecuted(), d.when.size());
    std::vector<std::uint64_t> ref(d.when.size());
    for (std::uint64_t i = 0; i < ref.size(); ++i)
        ref[i] = i;
    std::stable_sort(ref.begin(), ref.end(),
                     [&](std::uint64_t a, std::uint64_t b) {
                         return d.when[a] < d.when[b];
                     });
    ASSERT_EQ(d.executed.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(d.executed[i], ref[i]) << "event " << i;
}

/** Counts its copies; larger than std::function's 16-byte local buffer. */
struct CopyProbe
{
    int *copies;
    std::array<std::uint64_t, 4> payload{};

    explicit CopyProbe(int *c) : copies(c) {}
    CopyProbe(const CopyProbe &o) : copies(o.copies), payload(o.payload)
    {
        ++*copies;
    }
    CopyProbe(CopyProbe &&) noexcept = default;
    CopyProbe &operator=(const CopyProbe &) = delete;
};

TEST(EventQueue, CallbackRunsWithoutCopy)
{
    Simulator sim;
    int copies = 0;
    std::vector<int> ran;
    for (int i = 0; i < 100; ++i) {
        sim.scheduleCallback(i % 7, [probe = CopyProbe(&copies), &ran, i] {
            ran.push_back(i + static_cast<int>(probe.payload[0]));
        });
    }
    sim.run();
    std::sort(ran.begin(), ran.end());
    ASSERT_EQ(ran.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(ran[i], i); // each callback ran once
    EXPECT_EQ(copies, 0);
}

/** Whether each callback's capture is released, and when. */
struct Teardown
{
    std::vector<int> released;           ///< Releases per callback id.
    std::vector<bool> afterFrame;        ///< Released after the frame.
    bool frameGone = false;
};

/** A capture that records its release; a moved-from one records none. */
struct ReleaseProbe
{
    Teardown *t;
    int id;
    bool owns = true;

    ReleaseProbe(Teardown *t_, int id_) : t(t_), id(id_) {}
    ReleaseProbe(const ReleaseProbe &) = default;
    ReleaseProbe(ReleaseProbe &&o) noexcept
        : t(o.t), id(o.id), owns(std::exchange(o.owns, false))
    {}
    ReleaseProbe &operator=(const ReleaseProbe &) = delete;

    ~ReleaseProbe()
    {
        if (owns) {
            ++t->released[id];
            t->afterFrame[id] = t->frameGone;
        }
    }
};

struct FrameLocal
{
    bool *gone;
    ~FrameLocal() { *gone = true; }
};

Task
parkedTask(Simulator &sim, bool &gone)
{
    FrameLocal local{&gone};
    co_await sim.delay(kTickMax / 2);
}

TEST(EventQueue, PendingCallbacksReleasedAtTeardown)
{
    constexpr int kBatch = 64;
    Teardown t;
    t.released.assign(4 * kBatch, 0);
    t.afterFrame.assign(4 * kBatch, false);
    std::vector<int> ran;
    {
        Simulator sim;
        sim.spawn(parkedTask(sim, t.frameGone));
        auto schedule = [&](Tick when, int id) {
            sim.scheduleCallback(when, [p = ReleaseProbe(&t, id), &ran] {
                ran.push_back(p.id);
            });
        };
        // Batches 0 and 2 run; 1 and 3 stay queued. Batches 2 and 3 are
        // scheduled after batch 0 ran, into the callbacks' freed room.
        for (int i = 0; i < kBatch; ++i) {
            schedule(1 + i, i);
            schedule(100000 + i, kBatch + i);
        }
        sim.run(1000);
        for (int i = 0; i < kBatch; ++i) {
            schedule(2000 + i / 4, 2 * kBatch + i);
            schedule(200000 + i, 3 * kBatch + i);
        }
        sim.run(9000);
        ASSERT_EQ(ran.size(), 2u * kBatch);
        for (int i = 0; i < kBatch; ++i) {
            EXPECT_EQ(ran[i], i);
            EXPECT_EQ(ran[kBatch + i], 2 * kBatch + i);
        }
        for (int b : {1, 3}) {
            for (int i = 0; i < kBatch; ++i)
                ASSERT_EQ(t.released[b * kBatch + i], 0) << "id " << b * kBatch + i;
        }
    }
    EXPECT_TRUE(t.frameGone);
    for (int b : {1, 3}) {
        for (int i = 0; i < kBatch; ++i) {
            const int id = b * kBatch + i;
            EXPECT_EQ(t.released[id], 1) << "id " << id;
            // ~Simulator destroys suspended frames before queued events.
            EXPECT_TRUE(t.afterFrame[id]) << "id " << id;
        }
    }
}

Task
delayTask(Simulator &sim, std::vector<Tick> &marks)
{
    marks.push_back(sim.now());
    co_await sim.delay(100);
    marks.push_back(sim.now());
    co_await sim.delay(0);
    marks.push_back(sim.now());
    co_await sim.delayUntil(5000);
    marks.push_back(sim.now());
}

TEST(Task, DelaysAdvanceTime)
{
    Simulator sim;
    std::vector<Tick> marks;
    sim.spawn(delayTask(sim, marks));
    sim.run();
    ASSERT_EQ(marks.size(), 4u);
    EXPECT_EQ(marks[0], 0u);
    EXPECT_EQ(marks[1], 100u);
    EXPECT_EQ(marks[2], 100u);
    EXPECT_EQ(marks[3], 5000u);
}

Coro<int>
addLater(Simulator &sim, int a, int b)
{
    co_await sim.delay(10);
    co_return a + b;
}

Coro<int>
nested(Simulator &sim)
{
    int x = co_await addLater(sim, 1, 2);
    int y = co_await addLater(sim, x, 10);
    co_return y;
}

Task
coroDriver(Simulator &sim, int &out)
{
    out = co_await nested(sim);
}

TEST(Coro, NestedAwaitsReturnValues)
{
    Simulator sim;
    int out = 0;
    sim.spawn(coroDriver(sim, out));
    sim.run();
    EXPECT_EQ(out, 13);
    EXPECT_EQ(sim.now(), 20u);
}

Task
producer(Simulator &sim, Mailbox<int> &box)
{
    for (int i = 0; i < 3; ++i) {
        co_await sim.delay(100);
        box.put(i);
    }
}

Task
consumer(Simulator &sim, Mailbox<int> &box, std::vector<std::pair<Tick, int>> &got)
{
    for (int i = 0; i < 3; ++i) {
        int v = co_await box.get();
        got.emplace_back(sim.now(), v);
    }
}

TEST(Mailbox, BlocksUntilPut)
{
    Simulator sim;
    Mailbox<int> box(sim);
    std::vector<std::pair<Tick, int>> got;
    sim.spawn(consumer(sim, box, got));
    sim.spawn(producer(sim, box));
    sim.run();
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], (std::pair<Tick, int>{100, 0}));
    EXPECT_EQ(got[1], (std::pair<Tick, int>{200, 1}));
    EXPECT_EQ(got[2], (std::pair<Tick, int>{300, 2}));
}

Task
semUser(Simulator &sim, Semaphore &sem, int &active, int &peak)
{
    co_await sem.acquire();
    active++;
    peak = std::max(peak, active);
    co_await sim.delay(50);
    active--;
    sem.release();
}

TEST(Semaphore, LimitsConcurrency)
{
    Simulator sim;
    Semaphore sem(sim, 2);
    int active = 0, peak = 0;
    for (int i = 0; i < 6; ++i)
        sim.spawn(semUser(sim, sem, active, peak));
    sim.run();
    EXPECT_EQ(peak, 2);
    EXPECT_EQ(active, 0);
    // 6 users, 2 at a time, 50 ticks each = 150 ticks.
    EXPECT_EQ(sim.now(), 150u);
}

Task
gateWaiter(Simulator &sim, Gate &gate, int &wakeups)
{
    co_await gate.wait();
    (void)sim;
    wakeups++;
}

TEST(Gate, NotifyAllWakesEveryWaiter)
{
    Simulator sim;
    Gate gate(sim);
    int wakeups = 0;
    for (int i = 0; i < 4; ++i)
        sim.spawn(gateWaiter(sim, gate, wakeups));
    sim.scheduleCallback(500, [&] { gate.notifyAll(); });
    sim.run();
    EXPECT_EQ(wakeups, 4);
    EXPECT_EQ(sim.now(), 500u);
}

struct TimedWake
{
    int id;
    Tick at;
    bool notified;

    bool operator==(const TimedWake &) const = default;
};

/**
 * Waits on @p gate until @p deadline, then sleeps long enough that a
 * stray resumption (a second notify or a left-over timeout) would show
 * as an early second entry.
 */
Task
timedGateWaiter(Simulator &sim, Gate &gate, int id, Tick deadline,
                std::vector<TimedWake> &log)
{
    const bool notified = co_await gate.waitUntil(deadline);
    log.push_back({id, sim.now(), notified});
    co_await sim.delay(100000);
    log.push_back({id, sim.now(), notified});
}

TEST(Gate, WaitUntilNotifiedBeforeDeadline)
{
    Simulator sim;
    Gate gate(sim);
    std::vector<TimedWake> log;
    std::vector<bool> waiting;
    sim.spawn(timedGateWaiter(sim, gate, 0, 1000, log));
    sim.scheduleCallback(200, [&] {
        waiting.push_back(gate.hasWaiters());
        gate.notifyAll();
        waiting.push_back(gate.hasWaiters());
    });
    sim.run();
    EXPECT_EQ(waiting, (std::vector<bool>{true, false}));
    // The timeout left at 1000 resumes nothing.
    EXPECT_EQ(log, (std::vector<TimedWake>{{0, 200, true},
                                           {0, 100200, true}}));
}

TEST(Gate, WaitUntilTimesOut)
{
    Simulator sim;
    Gate gate(sim);
    std::vector<TimedWake> log;
    std::vector<bool> waiting;
    auto probe = [&] { waiting.push_back(gate.hasWaiters()); };
    // Waiter 1 times out at 300 between 0 and 2, which a notify at 500
    // then resumes in their order.
    sim.spawn(timedGateWaiter(sim, gate, 0, 1000, log));
    sim.spawn(timedGateWaiter(sim, gate, 1, 300, log));
    sim.spawn(timedGateWaiter(sim, gate, 2, 1000, log));
    sim.scheduleCallback(400, [&] {
        probe();
        gate.notifyAll();
        probe();
    });
    // Waiter 3 times out alone; a later notify does not resume it.
    sim.scheduleCallback(2000, [&] {
        sim.spawn(timedGateWaiter(sim, gate, 3, 3000, log));
    });
    sim.scheduleCallback(2500, probe);
    sim.scheduleCallback(3500, [&] {
        probe();
        gate.notifyAll();
    });
    sim.run();
    EXPECT_EQ(waiting, (std::vector<bool>{true, false, true, false}));
    EXPECT_EQ(log, (std::vector<TimedWake>{{1, 300, false},
                                           {0, 400, true},
                                           {2, 400, true},
                                           {3, 3000, false},
                                           {1, 100300, false},
                                           {0, 100400, true},
                                           {2, 100400, true},
                                           {3, 103000, false}}));
}

/**
 * The calendar's linear scan over full buckets, kept as the reference
 * that CalendarResource's skip offsets must match tick for tick.
 */
class LinearScanCalendar
{
  public:
    LinearScanCalendar(Simulator &sim, double bytes_per_second)
        : sim_(sim), bytesPerSecond_(bytes_per_second)
    {}

    Tick
    reserveAt(Tick earliest, std::uint64_t bytes)
    {
        if (earliest < sim_.now())
            earliest = sim_.now();
        const Tick now = sim_.now();
        while (!used_.empty() && base_ + bucketWidth_ <= now) {
            used_.pop_front();
            base_ += bucketWidth_;
        }
        const double cap = bytesPerSecond_ * toSeconds(bucketWidth_);
        if (used_.empty())
            base_ = (earliest / bucketWidth_) * bucketWidth_;
        std::size_t idx = static_cast<std::size_t>(
            (std::max(earliest, base_) - base_) / bucketWidth_);
        double remaining = static_cast<double>(bytes);
        Tick completion = earliest;
        while (remaining > 0) {
            while (idx >= used_.size())
                used_.push_back(0.0);
            const double space = cap - used_[idx];
            if (space <= 0.0) {
                ++idx;
                continue;
            }
            const double take = std::min(space, remaining);
            used_[idx] += take;
            remaining -= take;
            completion = base_ + static_cast<Tick>(idx) * bucketWidth_ +
                         static_cast<Tick>(
                             used_[idx] / cap *
                             static_cast<double>(bucketWidth_));
            ++idx;
        }
        return std::max(completion,
                        earliest + serializationTime(bytes, bytesPerSecond_));
    }

    Tick reserve(std::uint64_t bytes) { return reserveAt(sim_.now(), bytes); }
    void setRate(double rate) { bytesPerSecond_ = rate; }

  private:
    Simulator &sim_;
    double bytesPerSecond_;
    const Tick bucketWidth_ = 64 * kNanosecond; ///< The calendar's default.
    Tick base_ = 0;
    std::deque<double> used_;
};

void
advanceTo(Simulator &sim, Tick when)
{
    sim.scheduleCallback(when, [] {});
    sim.run();
}

TEST(CalendarResource, MatchesLinearScanReference)
{
    constexpr Tick kBucket = 64 * kNanosecond;
    constexpr double kRate = 25e9; // 1600 B per bucket.
    constexpr std::uint64_t kBucketBytes = 1600;
    constexpr int kCalls = 60000;
    Simulator sim;
    CalendarResource cal(sim, kRate);
    LinearScanCalendar ref(sim, kRate);
    Rng rng(0xca1e);
    for (int i = 0; i < kCalls; ++i) {
        // Rate raised mid-backlog (reopens full buckets), then lowered.
        if (i == kCalls / 3 || i == 2 * kCalls / 3) {
            const double rate = i == kCalls / 3 ? 2.5 * kRate : 0.4 * kRate;
            cal.setRate(rate);
            ref.setRate(rate);
        }
        // Phases of 5000 calls: build a backlog, hold it near steady
        // state, then drain it with jumps that prune many buckets.
        const int phase = (i / 5000) % 3;
        if (phase == 1 && rng.below(2) == 0)
            advanceTo(sim, sim.now() + rng.below(2 * kBucket));
        else if (phase == 2 && rng.below(4) == 0)
            advanceTo(sim, sim.now() + rng.below(64 * kBucket));

        std::uint64_t bytes = 0;
        switch (rng.below(4)) {
        case 0: bytes = 1 + rng.below(64); break;
        case 1: bytes = 1 + rng.below(kBucketBytes); break;
        case 2: bytes = 1 + rng.below(4 * kBucketBytes); break;
        default: bytes = kBucketBytes / (1 + rng.below(3)); break;
        }
        const Tick now = sim.now();
        Tick got = 0, want = 0;
        switch (rng.below(4)) {
        case 0:
            got = cal.reserve(bytes);
            want = ref.reserve(bytes);
            break;
        case 1: {
            const Tick past = now - std::min<Tick>(now, rng.below(8 * kBucket));
            got = cal.reserveAt(past, bytes);
            want = ref.reserveAt(past, bytes);
            break;
        }
        case 2:
            got = cal.reserveAt(now, bytes);
            want = ref.reserveAt(now, bytes);
            break;
        default: {
            const Tick future = now + rng.below(32 * kBucket);
            got = cal.reserveAt(future, bytes);
            want = ref.reserveAt(future, bytes);
            break;
        }
        }
        ASSERT_EQ(got, want) << "call " << i << ", " << bytes << " B";
    }
}

TEST(CalendarResource, BacklogAtOneTickCompletesInOrder)
{
    constexpr double kRate = 25e9;
    constexpr std::uint64_t kBytes = 100;
    constexpr int kCalls = 10000;
    Simulator sim;
    CalendarResource cal(sim, kRate);
    Tick last = 0;
    for (int i = 0; i < kCalls; ++i) {
        const Tick done = cal.reserve(kBytes);
        ASSERT_GE(done, last) << "call " << i;
        last = done;
    }
    const Tick ser = serializationTime(kBytes, kRate);
    EXPECT_NEAR(static_cast<double>(last),
                static_cast<double>(kCalls * ser), static_cast<double>(ser));
}

TEST(CalendarResource, SerializesReservations)
{
    Simulator sim;
    CalendarResource link(sim, 64e9); // 64 B/ns.
    // Two back-to-back 64 B transfers: the second queues behind the
    // first.
    EXPECT_EQ(link.reserve(64), kNanosecond);
    EXPECT_EQ(link.reserve(64), 2 * kNanosecond);
    // A reservation in the future starts there.
    EXPECT_EQ(link.reserveAt(10 * kNanosecond, 64), 11 * kNanosecond);
    // It holds back no later call that starts earlier: admission is
    // by bucket capacity, not call order.
    EXPECT_EQ(link.reserve(64), 4 * kNanosecond);
    EXPECT_EQ(link.bytesServed(), 256u);
    link.resetStats();
    EXPECT_EQ(link.bytesServed(), 0u);
}

TEST(CalendarResource, RateChangeAffectsNewReservations)
{
    Simulator sim;
    CalendarResource link(sim, 64e9);
    link.setRate(32e9);
    EXPECT_EQ(link.rate(), 32e9);
    EXPECT_EQ(link.reserve(64), 2 * kNanosecond);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_LT(r.below(10), 10u);
    }
}

TEST(Rng, ExponentialMeanConverges)
{
    Rng r(99);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(250.0);
    EXPECT_NEAR(sum / n, 250.0, 5.0);
}

Task
spawnMany(Simulator &sim, int depth, int &count)
{
    count++;
    if (depth > 0)
        sim.spawn(spawnMany(sim, depth - 1, count));
    co_return;
}

TEST(Simulator, TaskSpawningFromTasks)
{
    Simulator sim;
    int count = 0;
    sim.spawn(spawnMany(sim, 100, count));
    sim.run();
    EXPECT_EQ(count, 101);
}

TEST(Simulator, StopRequestHaltsRun)
{
    Simulator sim;
    int ran = 0;
    sim.scheduleCallback(10, [&] {
        ran++;
        sim.stop();
    });
    sim.scheduleCallback(20, [&] { ran++; });
    sim.run();
    EXPECT_EQ(ran, 1);
    sim.run();
    EXPECT_EQ(ran, 2);
}

} // namespace
