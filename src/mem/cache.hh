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

/** One cache way. */
struct CacheEntry
{
    Addr line = 0;
    LineState state = LineState::Invalid;
    bool dirty = false;
    sim::Tick readyAt = 0; ///< Fill completion (for prefetch hits).
    bool wasPrefetch = false; ///< Installed by the prefetcher.
    std::uint64_t lruStamp = 0;

    bool valid() const { return state != LineState::Invalid; }
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
 */
class SetAssocCache
{
  public:
    /**
     * @param total_lines Capacity in lines; rounded down to a multiple
     *                    of @p ways.
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

    std::uint32_t ways() const { return ways_; }

    /** Number of valid entries (O(capacity); for tests). */
    std::uint64_t countValid() const;

  private:
    std::uint32_t setIndex(Addr line) const;

    std::uint32_t numSets_;
    std::uint32_t ways_;
    std::uint64_t stamp_ = 0;
    std::vector<CacheEntry> entries_; // numSets_ x ways_.
};

} // namespace ccn::mem

#endif // CCN_MEM_CACHE_HH
