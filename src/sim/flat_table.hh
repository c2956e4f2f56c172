/**
 * @file
 * FlatTable: the simulator's one open-addressed hash table.
 *
 * Every per-transaction lookup table on the timing path (the core's
 * pending-MMIO table, each L3 shard's directory index, a private
 * cache's eviction buffer and outstanding atomics) is a FlatTable. Keys
 * are integers with one reserved empty value, so a slot is just
 * {key, value} in one contiguous array: no per-entry node, no
 * allocation once the table has reached its working size.
 *
 * - Capacity starts at 16 slots, stays a power of two and doubles
 *   before the load would pass 1/2, so probe runs stay short.
 * - The home slot is the top bits of a Fibonacci (golden-ratio)
 *   multiply of Hash(key), which spreads the sequential keys the
 *   simulator generates (line numbers, transaction ids).
 * - Collisions probe linearly; take() closes the probe run by backward
 *   shifting, so there are no tombstones to accumulate.
 * - The empty key is never present: looking it up misses, so a stray
 *   id equal to it reads as unknown rather than as a free slot.
 *
 * Growing and taking move values between slots: a pointer or
 * reference into the table is valid only until the next call that can
 * insert or remove a key.
 */

#ifndef DUET_SIM_FLAT_TABLE_HH
#define DUET_SIM_FLAT_TABLE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/check.hh"

namespace duet
{

/** Default FlatTable hash: the key's own integer value. */
struct FlatIdentityHash
{
    template <typename Key>
    constexpr std::uint64_t
    operator()(Key key) const
    {
        return static_cast<std::uint64_t>(key);
    }
};

/**
 * Open-addressed map from integer @p Key to @p Value. @p EmptyKey marks
 * a free slot and must never be inserted. @p Hash maps a key to the
 * 64-bit integer the Fibonacci multiply spreads.
 */
template <typename Key, typename Value, Key EmptyKey,
          typename Hash = FlatIdentityHash>
class FlatTable
{
  public:
    std::size_t size() const { return size_; }

    /** Slot count, a power of two; it grows and never shrinks. */
    std::size_t capacity() const { return slots_.size(); }

    /** Call @p fn(key, value) for every member, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_)
            if (s.key != EmptyKey)
                fn(s.key, s.value);
    }

    /** The value for @p key; null when absent. */
    Value *
    find(Key key)
    {
        const std::size_t i = probe(key);
        return holds(i, key) ? &slots_[i].value : nullptr;
    }

    const Value *
    find(Key key) const
    {
        const std::size_t i = probe(key);
        return holds(i, key) ? &slots_[i].value : nullptr;
    }

    bool contains(Key key) const { return find(key) != nullptr; }

    /** Get-or-create: the value for @p key, value-initialized on first
     *  touch. */
    Value &
    operator[](Key key)
    {
        std::size_t i = probe(key);
        if (holds(i, key))
            return slots_[i].value;
        return claim(i, key).value;
    }

    /** Insert @p key, which must be absent. */
    Value &
    insert(Key key, Value value)
    {
        std::size_t i = probe(key);
        DUET_DCHECK(!holds(i, key), "FlatTable: duplicate key");
        Slot &s = claim(i, key);
        s.value = std::move(value);
        return s.value;
    }

    /** Remove @p key and return its value; nullopt when absent. */
    std::optional<Value>
    take(Key key)
    {
        const std::size_t i = probe(key);
        if (!holds(i, key))
            return std::nullopt;
        std::optional<Value> out(std::move(slots_[i].value));
        removeAt(i);
        return out;
    }

  private:
    static_assert(std::is_integral_v<Key>, "FlatTable keys are integers");

    /// Starting capacity; always a power of two.
    static constexpr std::size_t kInitSlots = 16;

    struct Slot
    {
        Key key = EmptyKey;
        Value value{};
    };

    std::size_t mask() const { return slots_.size() - 1; }

    std::size_t
    home(Key key) const
    {
        return static_cast<std::size_t>(
            (Hash{}(key) * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    /** The slot holding @p key, or the empty slot ending its run. */
    std::size_t
    probe(Key key) const
    {
        std::size_t i = home(key);
        while (slots_[i].key != key && slots_[i].key != EmptyKey)
            i = (i + 1) & mask();
        return i;
    }

    /** Whether slot @p i (found by probe()) holds @p key. */
    bool
    holds(std::size_t i, Key key) const
    {
        return key != EmptyKey && slots_[i].key == key;
    }

    /** Occupy empty slot @p i (found by probe()) with @p key, growing
     *  first when the load would pass 1/2. */
    Slot &
    claim(std::size_t i, Key key)
    {
        DUET_DCHECK(key != EmptyKey, "FlatTable: inserting the empty key");
        if ((size_ + 1) * 2 > slots_.size()) {
            grow();
            i = probe(key);
        }
        slots_[i].key = key;
        ++size_;
        return slots_[i];
    }

    /** Empty slot @p i, shifting later members of its probe run back
     *  into the hole whenever their home slot permits it. */
    void
    removeAt(std::size_t i)
    {
        std::size_t hole = i;
        for (std::size_t j = (i + 1) & mask(); slots_[j].key != EmptyKey;
             j = (j + 1) & mask()) {
            const std::size_t h = home(slots_[j].key);
            if (((j - h) & mask()) >= ((j - hole) & mask())) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole] = Slot{};
        --size_;
    }

    void
    grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        --shift_;
        for (Slot &s : old) {
            if (s.key == EmptyKey)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != EmptyKey)
                i = (i + 1) & mask();
            slots_[i] = std::move(s);
        }
    }

    std::vector<Slot> slots_ = std::vector<Slot>(kInitSlots);
    std::size_t size_ = 0;
    /// 64 - log2(capacity): home() keeps the top bits.
    int shift_ = 64 - std::countr_zero(kInitSlots);
};

} // namespace duet

#endif // DUET_SIM_FLAT_TABLE_HH
