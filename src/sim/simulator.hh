/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A Simulator owns a time-ordered event queue of coroutine resumptions
 * and callbacks, plus the frames of all spawned top-level Tasks. All
 * model state advances by running the queue; the kernel is
 * single-threaded and fully deterministic.
 */

#ifndef CCN_SIM_SIMULATOR_HH
#define CCN_SIM_SIMULATOR_HH

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

#include "sim/task.hh"
#include "sim/time.hh"

namespace ccn::sim {

/**
 * Discrete-event simulator kernel.
 */
class Simulator
{
  public:
    Simulator() = default;
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Spawn a top-level process; it starts running at the current time
     * (after the caller yields to the kernel). The simulator takes
     * ownership of the coroutine frame.
     */
    void spawn(Task task);

    /** Schedule a coroutine resumption at absolute time @p when. */
    void
    scheduleResume(Tick when, std::coroutine_handle<> h)
    {
        events_.push(Event{when, nextSeq_++, h, 0});
    }

    /** Schedule a plain callback at absolute time @p when. */
    void scheduleCallback(Tick when, std::function<void()> fn);

    /**
     * Run until the event queue is exhausted or simulated time would
     * exceed @p limit. Returns the final simulated time.
     */
    Tick run(Tick limit = kTickMax);

    /**
     * Request that run() return after the event currently executing.
     * Pending events remain queued; suspended tasks are reaped by the
     * destructor.
     */
    void stop() { stopRequested_ = true; }

    /** Awaitable: suspend the calling coroutine for @p d ticks. */
    auto
    delay(Tick d)
    {
        struct Awaiter
        {
            Simulator &sim;
            Tick until;

            bool await_ready() const { return until <= sim.now(); }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                sim.scheduleResume(until, h);
            }

            void await_resume() {}
        };
        return Awaiter{*this, now_ + d};
    }

    /** Awaitable: suspend the calling coroutine until absolute @p when. */
    auto
    delayUntil(Tick when)
    {
        struct Awaiter
        {
            Simulator &sim;
            Tick until;

            bool await_ready() const { return until <= sim.now(); }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                sim.scheduleResume(until, h);
            }

            void await_resume() {}
        };
        return Awaiter{*this, when};
    }

    /** Number of events executed since construction. */
    std::uint64_t eventsExecuted() const { return eventsExecuted_; }

  private:
    /**
     * One queued event, 32 bytes and trivially copyable, so that heap
     * sifts and pops copy plain words. A callback event has a null
     * handle and names the slot of callbacks_ holding its function.
     */
    struct Event
    {
        Tick when;
        std::uint64_t seq; // FIFO tiebreak for same-tick events.
        std::coroutine_handle<> handle;
        std::uint32_t slot;

        bool
        operator>(const Event &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };
    static_assert(std::is_trivially_copyable_v<Event>);

    void reapFinishedTasks();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t eventsExecuted_ = 0;
    bool stopRequested_ = false;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
    // Functions of pending callbacks, each moved in once and moved out
    // once to run; freed slots are reused last-freed first.
    std::vector<std::function<void()>> callbacks_;
    std::vector<std::uint32_t> freeSlots_;
    std::vector<Task::Handle> tasks_;
};

} // namespace ccn::sim

#endif // CCN_SIM_SIMULATOR_HH
