/**
 * @file
 * Set-associative cache tag model.
 *
 * Tracks presence, local MESI-style state, dirtiness, LRU age, and the
 * fill-complete time (readyAt) of 64B lines. Used for per-core private
 * L2 caches and per-socket shared LLCs. Only tags and states are
 * modeled; data contents live in the access-accurate layer above.
 */

#ifndef CCN_MEM_CACHE_HH
#define CCN_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/addr.hh"
#include "sim/time.hh"

namespace ccn::mem {

/** Local state of a line within one cache. */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,    ///< Read-only copy (S or F).
    Exclusive, ///< Sole clean copy (E).
    Modified,  ///< Sole dirty copy (M).
};

/**
 * The state of one valid cache way. Its tag and LRU stamp live apart,
 * and the tag alone says whether the way is valid.
 */
struct CacheEntry
{
    LineState state = LineState::Invalid;
    bool dirty = false;
    bool wasPrefetch = false; ///< Installed by the prefetcher.
    sim::Tick readyAt = 0;    ///< Fill completion (for prefetch hits).
};

/** Victim description returned by insert(). */
struct Eviction
{
    bool valid = false;
    Addr line = 0;
    LineState state = LineState::Invalid;
    bool dirty = false;
};

/**
 * Set-associative LRU cache of 64B line tags.
 *
 * Laid out for the host's cache: each set's tags are contiguous, with
 * kNoLine in an invalid way, so a lookup compares at most `ways`
 * addresses (160 B for a 20-way set) and reads nothing else. Way
 * state and LRU stamps sit in two parallel arrays; erase() and clear()
 * write only tags.
 */
class SetAssocCache
{
  public:
    /**
     * @param total_lines Configured capacity in lines. The set count
     *                    is the largest power of two not above
     *                    total_lines / ways (at least one), so the
     *                    modeled capacity is sets x ways, which can be
     *                    well under this (DESIGN §6, item 8).
     * @param ways        Associativity.
     */
    SetAssocCache(std::uint32_t total_lines, std::uint32_t ways);

    /** Find the entry for @p line, or nullptr. Does not touch LRU. */
    CacheEntry *find(Addr line);
    const CacheEntry *find(Addr line) const;

    /** Find and mark most-recently-used. */
    CacheEntry *touch(Addr line);

    /**
     * Insert @p line (which must not be present), evicting the LRU way
     * of its set if necessary. Returns the inserted entry; the evicted
     * victim, if any, is described through @p evicted.
     */
    CacheEntry *insert(Addr line, LineState state, bool dirty,
                       Eviction *evicted);

    /** Remove @p line if present; returns true if it was. */
    bool erase(Addr line);

    /** Drop every line (used between experiment repetitions). */
    void clear();

    /** Call fn(line, entry) for every valid way, in way order. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::size_t w = 0; w < tags_.size(); ++w) {
            if (tags_[w] != kNoLine)
                fn(tags_[w], entries_[w]);
        }
    }

  private:
    /** Tag of an invalid way; no line address is odd. */
    static constexpr Addr kNoLine = ~Addr{0};

    /** wayOf() of an absent line. */
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    /** Index of the first way of @p line's set. */
    std::size_t setBase(Addr line) const;

    /** Index of the way holding @p line, or kNoWay. */
    std::size_t wayOf(Addr line) const;

    std::uint32_t numSets_;
    std::uint32_t ways_;
    std::uint64_t stamp_ = 0;
    // numSets_ x ways_ each, by set then way.
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> stamps_; ///< Last insert or touch.
    std::vector<CacheEntry> entries_;
};

} // namespace ccn::mem

#endif // CCN_MEM_CACHE_HH
