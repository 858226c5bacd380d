#include "sim/simulator.hh"

#include <utility>

namespace ccn::sim {

Simulator::~Simulator()
{
    // Destroy all spawned frames, finished or still suspended.
    for (auto h : tasks_) {
        if (h)
            h.destroy();
    }
}

void
Simulator::scheduleCallback(Tick when, std::function<void()> fn)
{
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(callbacks_.size());
        callbacks_.push_back(std::move(fn));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        callbacks_[slot] = std::move(fn);
    }
    events_.push(Event{when, nextSeq_++, nullptr, slot});
}

void
Simulator::spawn(Task task)
{
    Task::Handle h = task.release();
    tasks_.push_back(h);
    scheduleResume(now_, h);
    // Reap opportunistically so long-running simulations that spawn many
    // short-lived processes do not accumulate dead frames.
    if (tasks_.size() % 1024 == 0)
        reapFinishedTasks();
}

void
Simulator::reapFinishedTasks()
{
    std::size_t out = 0;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        if (tasks_[i].done()) {
            tasks_[i].destroy();
        } else {
            tasks_[out++] = tasks_[i];
        }
    }
    tasks_.resize(out);
}

Tick
Simulator::run(Tick limit)
{
    stopRequested_ = false;
    while (!events_.empty() && !stopRequested_) {
        const Event &top = events_.top();
        if (top.when > limit) {
            now_ = limit;
            return now_;
        }
        // Copy out before pop: executing the event may push new events
        // and invalidate the reference.
        const Event ev = top;
        events_.pop();
        now_ = ev.when;
        ++eventsExecuted_;
        if (ev.handle) {
            if (!ev.handle.done())
                ev.handle.resume();
        } else {
            // Take the function and free its slot before the call: the
            // callback may schedule others, which can reuse the slot or
            // grow the table.
            auto fn = std::exchange(callbacks_[ev.slot], nullptr);
            freeSlots_.push_back(ev.slot);
            if (fn)
                fn();
        }
    }
    return now_;
}

} // namespace ccn::sim
