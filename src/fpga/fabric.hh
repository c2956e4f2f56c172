/**
 * @file
 * The eFPGA fabric model: an island-style grid of CLB/BRAM/multiplier
 * tiles (PRGA-built in the paper, Sec. IV), its configuration memory, and
 * resource accounting used by the Table II area model.
 *
 * Substitution note (see DESIGN.md): we cannot run FPGA CAD offline, so an
 * accelerator's resource usage and Fmax come from its AccelDesc (imported
 * from the paper's Yosys/VTR/PRGA results); the fabric checks fit and
 * computes utilization exactly like Table II reports it.
 */

#ifndef DUET_FPGA_FABRIC_HH
#define DUET_FPGA_FABRIC_HH

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace duet
{

/** Resources an accelerator consumes (or a fabric offers). */
struct FabricResources
{
    std::uint64_t luts = 0;
    std::uint64_t ffs = 0;
    std::uint64_t bramBits = 0;
    std::uint64_t mults = 0;
};

/** Geometry of an island-style fabric, VTR-flagship flavored
 *  (k6_frac_N10_frac_chain_mem32K_40nm: 10 fracturable 6-LUTs per CLB,
 *  32 Kb BRAMs). */
struct FabricConfig
{
    unsigned clbColumns = 10;
    unsigned clbRows = 10;
    unsigned lutsPerClb = 10;
    unsigned ffsPerClb = 20;
    unsigned bramTiles = 10;
    unsigned bitsPerBram = 32 * 1024;
    unsigned multTiles = 8;
    /** Configuration bits per CLB-equivalent tile (sets bitstream size). */
    unsigned configBitsPerTile = 1024;
};

/** A synthesized accelerator image: resources, Fmax, bitstream. */
struct Bitstream
{
    std::string accelName;
    FabricResources used;
    std::uint64_t fmaxMHz = 100;
    std::vector<std::uint8_t> bytes;
    std::uint32_t checksum = 0;

    /** Compute the integrity checksum over the payload. */
    static std::uint32_t
    computeChecksum(const std::vector<std::uint8_t> &bytes)
    {
        std::uint32_t sum = 0x9e3779b9u;
        for (std::uint8_t b : bytes)
            sum = (sum << 5) + sum + b;
        return sum;
    }

    void seal() { checksum = computeChecksum(bytes); }
    bool intact() const { return checksum == computeChecksum(bytes); }
};

/** The fabric: capacity, configuration state, utilization math. */
class Fabric
{
  public:
    enum class State : std::uint8_t
    {
        Unconfigured,
        Programming,
        Configured,
    };

    explicit Fabric(const FabricConfig &cfg = {}) : cfg_(cfg) {}

    const FabricConfig &config() const { return cfg_; }
    State state() const { return state_; }
    const std::string &accelName() const { return accelName_; }

    FabricResources
    capacity() const
    {
        FabricResources r;
        r.luts = std::uint64_t{cfg_.clbColumns} * cfg_.clbRows *
                 cfg_.lutsPerClb;
        r.ffs = std::uint64_t{cfg_.clbColumns} * cfg_.clbRows *
                cfg_.ffsPerClb;
        r.bramBits = std::uint64_t{cfg_.bramTiles} * cfg_.bitsPerBram;
        r.mults = cfg_.multTiles;
        return r;
    }

    /** Total configuration bitstream size in bytes. */
    std::size_t
    bitstreamBytes() const
    {
        std::uint64_t tiles = std::uint64_t{cfg_.clbColumns} * cfg_.clbRows +
                              cfg_.bramTiles + cfg_.multTiles;
        return static_cast<std::size_t>(tiles * cfg_.configBitsPerTile / 8);
    }

    /** Does this image fit? */
    bool
    fits(const FabricResources &used) const
    {
        FabricResources cap = capacity();
        return used.luts <= cap.luts && used.ffs <= cap.ffs &&
               used.bramBits <= cap.bramBits && used.mults <= cap.mults;
    }

    /** CLB utilization as Table II reports it (max of LUT/FF pressure). */
    double
    clbUtilization(const FabricResources &used) const
    {
        FabricResources cap = capacity();
        double lut_u = static_cast<double>(used.luts) / cap.luts;
        double ff_u = static_cast<double>(used.ffs) / cap.ffs;
        return std::max(lut_u, ff_u);
    }

    double
    bramUtilization(const FabricResources &used) const
    {
        FabricResources cap = capacity();
        if (cap.bramBits == 0)
            return 0.0;
        return static_cast<double>(used.bramBits) / cap.bramBits;
    }

    // ------------------------------------------------------------------
    // Configuration state machine (driven by the FPGA Manager).
    // ------------------------------------------------------------------

    /** Begin programming; the fabric is unusable until endProgramming. */
    void
    beginProgramming()
    {
        state_ = State::Programming;
        accelName_.clear();
    }

    /**
     * Finish programming with @p image.
     * @return false if the image fails the integrity check or does not
     *         fit; the fabric stays Unconfigured.
     */
    bool
    endProgramming(const Bitstream &image)
    {
        if (!image.intact() || !fits(image.used)) {
            state_ = State::Unconfigured;
            return false;
        }
        state_ = State::Configured;
        accelName_ = image.accelName;
        return true;
    }

  private:
    FabricConfig cfg_;
    State state_ = State::Unconfigured;
    std::string accelName_;
};

} // namespace duet

#endif // DUET_FPGA_FABRIC_HH
