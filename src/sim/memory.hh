/**
 * @file
 * Flat 64 KiB physical memory with region classification. The memory
 * array holds data for every region; timing and statistics are handled
 * by the bus, which asks regionOf() where an address lives.
 */

#ifndef SWAPRAM_SIM_MEMORY_HH
#define SWAPRAM_SIM_MEMORY_HH

#include <cstdint>
#include <vector>

#include "masm/assembler.hh"

namespace swapram::sim {

/** Physical region of an address. */
enum class RegionKind : std::uint8_t { Sram, Fram, Mmio, Unmapped };

/** Region of @p addr in the modelled memory map. */
RegionKind regionOf(std::uint16_t addr);

/** Region of @p addr with a configurable SRAM end (exclusive). The
 *  one-argument overload above fixes it at platform::kSramEnd. */
RegionKind regionOf(std::uint16_t addr, std::uint32_t sram_end);

/** Backing store: a flat array; the loader writes image chunks into it. */
class Memory
{
  public:
    Memory();

    std::uint8_t read8(std::uint16_t addr) const { return bytes_[addr]; }
    std::uint16_t
    read16(std::uint16_t addr) const
    {
        return static_cast<std::uint16_t>(
            bytes_[addr] |
            (bytes_[static_cast<std::uint16_t>(addr + 1)] << 8));
    }
    void write8(std::uint16_t addr, std::uint8_t v) { bytes_[addr] = v; }
    void
    write16(std::uint16_t addr, std::uint16_t v)
    {
        bytes_[addr] = static_cast<std::uint8_t>(v & 0xFF);
        bytes_[static_cast<std::uint16_t>(addr + 1)] =
            static_cast<std::uint8_t>(v >> 8);
    }

    /** Copy all image chunks into the array. */
    void loadImage(const masm::Image &image);

    /** Raw backing span for the threaded fast tier. Accesses through
     *  it bypass the bus, so the caller owns all accounting and
     *  invalidation duties. */
    std::uint8_t *bytes() { return bytes_.data(); }

  private:
    std::vector<std::uint8_t> bytes_;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_MEMORY_HH
