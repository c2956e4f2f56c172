/**
 * @file
 * A BRAM scratchpad: non-coherent memory private to the soft accelerator
 * (paper Fig. 3, "Non-Coherent Memory"). One read or write port access per
 * eFPGA cycle; the accelerator coroutine pays the cycle via its own clock.
 */

#ifndef DUET_FPGA_SCRATCHPAD_HH
#define DUET_FPGA_SCRATCHPAD_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace duet
{

/** Simple byte-addressable scratchpad backed by BRAM resources. */
class Scratchpad
{
  public:
    explicit Scratchpad(std::size_t bytes) : data_(bytes, 0) {}

    std::size_t size() const { return data_.size(); }

    std::uint64_t
    read(std::size_t offset, unsigned size = 8) const
    {
        // Overflow-safe bound: `offset + size` could wrap for a
        // corrupted offset near SIZE_MAX and sneak past a naive sum.
        // The size<=8 half is unconditional because the value buffer
        // below is 8 bytes — that bound is memory safety, not paranoia.
        if (size < 1 || size > 8 || size > data_.size() ||
            offset > data_.size() - size) [[unlikely]]
            oob("read", offset, size);
        std::uint64_t v = 0;
        std::memcpy(&v, data_.data() + offset, size);
        reads.inc();
        return v;
    }

    void
    write(std::size_t offset, std::uint64_t v, unsigned size = 8)
    {
        if (size < 1 || size > 8 || size > data_.size() ||
            offset > data_.size() - size) [[unlikely]]
            oob("write", offset, size);
        std::memcpy(data_.data() + offset, &v, size);
        writes.inc();
    }

    /** BRAM bits this scratchpad consumes in the fabric. */
    std::size_t bramBits() const { return data_.size() * 8; }

    mutable Counter reads;
    Counter writes;

  private:
    /** A mis-sized layout trips here first: say exactly what overran. */
    [[noreturn]] void
    oob(const char *what, std::size_t offset, unsigned size) const
    {
        panic("scratchpad OOB " + std::string(what) + ": offset " +
              std::to_string(offset) + " + size " + std::to_string(size) +
              " exceeds capacity " + std::to_string(data_.size()) +
              " B (resize with --spm-kib or shrink the workload layout)");
    }

    std::vector<std::uint8_t> data_;
};

} // namespace duet

#endif // DUET_FPGA_SCRATCHPAD_HH
