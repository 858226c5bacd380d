/**
 * @file
 * Coroutine types for simulation processes.
 *
 * Two coroutine flavours are used throughout the simulator:
 *
 *  - Task: a top-level, detached simulation process (a host core's
 *    polling loop, a NIC engine, a traffic generator). Tasks are spawned
 *    onto a Simulator, which owns their frames and reaps them at
 *    teardown, so a simulation can be stopped while processes are still
 *    suspended without leaking frames.
 *
 *  - Coro<T>: a lazily-started awaitable subroutine used for composable
 *    async operations (a memory access that must wait on interconnect
 *    resources, a driver call that performs several accesses). Awaiting
 *    a Coro starts it via symmetric transfer and resumes the awaiter
 *    when it returns.
 */

#ifndef CCN_SIM_TASK_HH
#define CCN_SIM_TASK_HH

#include <coroutine>
#include <cstdlib>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

namespace ccn::sim {

/**
 * Detached top-level simulation process.
 *
 * A function returning Task is a simulation process. Creating it does
 * not run any code (initial_suspend is suspend_always); pass the Task to
 * Simulator::spawn() to schedule it. The Simulator takes ownership of
 * the coroutine frame.
 */
class Task
{
  public:
    struct promise_type
    {
        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        // Suspend at the end so the Simulator can observe done() and
        // destroy the frame; the frame is never self-destroying.
        std::suspend_always final_suspend() noexcept { return {}; }

        void return_void() {}

        void unhandled_exception() { std::terminate(); }
    };

    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    Task(Task &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            if (handle_)
                handle_.destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    ~Task()
    {
        // Only destroyed if never spawned; Simulator::spawn releases.
        if (handle_)
            handle_.destroy();
    }

    /** Release ownership of the frame (used by Simulator::spawn). */
    Handle
    release()
    {
        return std::exchange(handle_, nullptr);
    }

    bool valid() const { return static_cast<bool>(handle_); }

  private:
    Handle handle_;
};

namespace detail {

/** Where a Coro<T>'s promise keeps its result. */
template <typename T>
struct CoroResult
{
    std::optional<T> value;

    template <typename U>
    void
    return_value(U &&v)
    {
        value.emplace(std::forward<U>(v));
    }
};

/** Coro<void> has no result. */
template <>
struct CoroResult<void>
{
    void return_void() {}
};

} // namespace detail

/**
 * Lazily-started awaitable coroutine returning T (or nothing, for
 * Coro<void>: an awaitable async procedure).
 *
 * The frame is owned by the Coro object (RAII); the typical pattern is
 * `T v = co_await someAsyncFn(...);` where the temporary Coro lives for
 * the duration of the await. Completion resumes the awaiting coroutine
 * via symmetric transfer, so arbitrarily deep await chains do not grow
 * the native stack.
 */
template <typename T>
class [[nodiscard]] Coro
{
  public:
    struct promise_type : detail::CoroResult<T>
    {
        std::coroutine_handle<> continuation;

        Coro
        get_return_object()
        {
            return Coro(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<promise_type> h) noexcept
            {
                auto cont = h.promise().continuation;
                return cont ? cont : std::noop_coroutine();
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }

        void unhandled_exception() { std::terminate(); }
    };

    using Handle = std::coroutine_handle<promise_type>;

    explicit Coro(Handle h) : handle_(h) {}

    Coro(const Coro &) = delete;
    Coro &operator=(const Coro &) = delete;

    Coro(Coro &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {}

    ~Coro()
    {
        if (handle_)
            handle_.destroy();
    }

    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        handle_.promise().continuation = cont;
        return handle_;
    }

    T
    await_resume()
    {
        if constexpr (!std::is_void_v<T>)
            return std::move(*handle_.promise().value);
    }

  private:
    Handle handle_;
};

} // namespace ccn::sim

#endif // CCN_SIM_TASK_HH
