/**
 * @file
 * Memory bus: routes every CPU access to the flat memory / MMIO devices,
 * charges FRAM wait-state and contention stalls, and maintains all
 * access statistics (region counts, code/data-space classification,
 * hardware-cache hits/misses).
 *
 * When a trace::TraceEngine is attached, the bus emits structured
 * events for every access, FRAM stall, and hardware-cache hit/miss.
 * When a metrics::RunMetrics is attached, every accounted access also
 * lands in the per-page address-space heatmap and every FRAM stall in
 * the stall-latency histogram. With neither attached (the default)
 * each site is a single null-pointer branch — no allocation, no
 * virtual call.
 */

#ifndef SWAPRAM_SIM_BUS_HH
#define SWAPRAM_SIM_BUS_HH

#include <cstdint>

#include "metrics/run_metrics.hh"
#include "sim/config.hh"
#include "sim/hw_cache.hh"
#include "sim/memory.hh"
#include "sim/mmio.hh"
#include "sim/pagegen.hh"
#include "sim/predecode.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace swapram::sim {

/** Kind of one bus access. */
enum class AccessKind : std::uint8_t { Fetch, Read, Write };

/** The CPU's window onto memory. */
class Bus
{
  public:
    Bus(Memory &memory, Mmio &mmio, Stats &stats,
        const MachineConfig &config);

    /** Reset per-instruction state (contention tracking). */
    void beginInstruction();

    std::uint16_t read16(std::uint16_t addr, AccessKind kind);
    std::uint8_t read8(std::uint16_t addr, AccessKind kind);
    void write16(std::uint16_t addr, std::uint16_t value);
    void write8(std::uint16_t addr, std::uint8_t value);

    /** Code-space range used for Table 1's code/data classification. */
    void
    setCodeRange(std::uint16_t base, std::uint32_t end)
    {
        code_base_ = base;
        code_end_ = end;
    }

    /** Total cycles as seen by the bus's stall accounting plus the
     *  externally supplied base-cycle count (set by the CPU). */
    void setCycleProbe(const std::uint64_t *base_cycles)
    {
        base_cycles_probe_ = base_cycles;
    }

    /** Attach (or detach, with nullptr) the trace engine. */
    void setTraceEngine(trace::TraceEngine *engine)
    {
        trace_ = engine;
    }

    /** Attach run metrics (heatmap + stall histogram recording);
     *  nullptr detaches. Not owned. */
    void setMetrics(metrics::RunMetrics *metrics) { metrics_ = metrics; }

    /** Attach a predecode cache to invalidate on writes; nullptr
     *  detaches. Not owned. */
    void setPredecode(PredecodeCache *cache) { predecode_ = cache; }

    /** Attach the fast tier's write-generation table so oracle
     *  stores invalidate blocks exactly like fast-path stores; nullptr
     *  detaches. Not owned. */
    void setPageGens(PageGenTable *gens) { page_gens_ = gens; }

    HwCache &hwCache() { return hw_cache_; }

    /** Code-space classification range (mirrored by the fast tier's
     *  accounting). */
    std::uint16_t codeBase() const { return code_base_; }
    std::uint32_t codeEnd() const { return code_end_; }

  private:
    void account(std::uint16_t addr, RegionKind region, AccessKind kind);

    /** Total cycles right now (stall + externally probed base). */
    std::uint64_t
    now() const
    {
        return stats_.stall_cycles +
               (base_cycles_probe_ ? *base_cycles_probe_ : 0);
    }

    /** Emit one access event if anyone is listening. */
    void
    traceAccess(std::uint16_t addr, std::uint16_t value,
                AccessKind kind, bool byte)
    {
        if (trace_ && trace_->wants(trace::kCatAccess)) {
            trace::EventKind ek =
                kind == AccessKind::Fetch  ? trace::EventKind::Fetch
                : kind == AccessKind::Read ? trace::EventKind::Read
                                           : trace::EventKind::Write;
            trace_->emit({now(), ek, static_cast<std::uint8_t>(byte),
                          addr, value, 0});
        }
    }

    Memory &memory_;
    Mmio &mmio_;
    Stats &stats_;
    const MachineConfig &config_;
    HwCache hw_cache_;

    std::uint16_t code_base_ = 0;
    std::uint32_t code_end_ = 0;
    std::uint32_t fram_accesses_this_instr_ = 0;
    std::uint32_t last_fram_line_ = 0;
    const std::uint64_t *base_cycles_probe_ = nullptr;
    trace::TraceEngine *trace_ = nullptr;
    metrics::RunMetrics *metrics_ = nullptr;
    PredecodeCache *predecode_ = nullptr;
    PageGenTable *page_gens_ = nullptr;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_BUS_HH
