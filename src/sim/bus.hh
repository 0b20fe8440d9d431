/**
 * @file
 * Memory bus: routes every CPU access to the flat memory / MMIO devices,
 * charges FRAM wait-state and contention stalls, and maintains all
 * access statistics (region counts, code/data-space classification,
 * hardware-cache hits/misses).
 *
 * The memory timing rules live here once, next to the bus that is
 * their reference, and both execution tiers apply them:
 *   - FramTiming, the per-access FRAM stall (and the largest stall one
 *     access can cost);
 *   - FramLineChain, the per-instruction line-contention chain;
 *   - CodeRange, Table 1's code/data-space classification;
 *   - StoreInvalidation, the predecode and page-generation duties of
 *     every store.
 * Bus::account and the bus's write paths apply them per access. The
 * threaded tier (sim/threaded.cc) applies the same rules to its
 * register-dependent accesses at run time, and to its static accesses
 * and folded fetch runs when it lowers a block, where they produce the
 * per-op stall fields its kernels read.
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

#include <algorithm>
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

/** These rules and sim/exec.hh's instruction semantics run inside the
 *  threaded tier's kernels, once per simulated access or instruction:
 *  force them inline there. */
#if defined(__GNUC__)
#define SWAPRAM_INLINE inline __attribute__((always_inline))
#else
#define SWAPRAM_INLINE inline
#endif

namespace swapram::sim {

/** Kind of one bus access. */
enum class AccessKind : std::uint8_t { Fetch, Read, Write };

/**
 * The FRAM controller's per-access stall (paper §2.2/§5.4), built once
 * from MachineConfig. A read or fetch that hits the hardware cache
 * stalls only for line contention. A miss, a write (writes go to the
 * FRAM array directly and never touch the read cache), or any access
 * with the cache off stalls for max(wait states, contention): a miss's
 * wait states already serialize it against the earlier access.
 */
class FramTiming
{
  public:
    explicit FramTiming(const MachineConfig &config)
        : wait_states_(config.effectiveWaitStates()),
          contention_(config.contention_stall),
          worst_(std::max(wait_states_, contention_)),
          hw_cache_(config.hw_cache_enabled)
    {
    }

    /** Reads and fetches probe the hardware cache; with it off, every
     *  one misses. */
    bool hwCacheEnabled() const { return hw_cache_; }

    /** Stall of one FRAM access: @p hit for a read or fetch that hit
     *  the hardware cache, @p contends from its FramLineChain. */
    SWAPRAM_INLINE std::uint32_t
    stall(bool hit, bool contends) const
    {
        if (hit)
            return contends ? contention_ : 0;
        return contends ? worst_ : wait_states_;
    }

    /** The largest stall one access can cost. */
    std::uint32_t maxStall() const { return worst_; }

  private:
    std::uint32_t wait_states_;
    std::uint32_t contention_;
    std::uint32_t worst_;
    bool hw_cache_;
};

/**
 * One instruction's FRAM line-contention chain. An instruction that
 * dispatches several accesses to distant FRAM addresses bottlenecks at
 * the cache controller regardless of clock frequency: an access
 * contends when it is not the instruction's first FRAM access and it
 * leaves the previous access's 8-byte line. A default-constructed
 * chain is a fresh instruction.
 */
class FramLineChain
{
  public:
    /** Add the FRAM access at @p addr; true when it contends. */
    SWAPRAM_INLINE bool
    next(std::uint16_t addr)
    {
        const std::uint16_t line = lineOf(addr);
        const bool contends = last_ != kNone && line != last_;
        last_ = line;
        return contends;
    }

    /** True when @p addr lies on the previous access's line. */
    bool sameLine(std::uint16_t addr) const { return lineOf(addr) == last_; }

  private:
    static std::uint16_t
    lineOf(std::uint16_t addr)
    {
        return static_cast<std::uint16_t>(addr >> HwCache::kLineShift);
    }

    /** No FRAM access yet: above every line number. */
    static constexpr std::uint16_t kNone = 0xFFFF;
    std::uint16_t last_ = kNone;
};

/** Table 1's code-space range [base, end): an SRAM or FRAM access
 *  inside it is a code-space access, any other a data-space access. */
struct CodeRange {
    std::uint16_t base = 0;
    std::uint32_t end = 0;

    bool
    contains(std::uint16_t addr) const
    {
        return addr >= base && static_cast<std::uint32_t>(addr) < end;
    }
};

/** The invalidation duties of every store, whether through the bus or
 *  the threaded tier's direct stores: drop the predecode slots whose
 *  instructions it could overlap, and bump the page generations that
 *  fast-tier blocks validate against. Either table may be absent. */
struct StoreInvalidation {
    PredecodeCache *predecode = nullptr;
    PageGenTable *page_gens = nullptr;

    /** Stats::predecode_invalidations counted per store. */
    std::uint32_t drops() const { return predecode ? 1 : 0; }

    /** A store of @p bytes bytes landed at @p addr; returns drops(). */
    SWAPRAM_INLINE std::uint32_t
    note(std::uint16_t addr, unsigned bytes) const
    {
        if (page_gens)
            page_gens->noteWrite(addr, bytes);
        if (predecode)
            predecode->invalidateWrite(addr);
        return drops();
    }
};

/** The CPU's window onto memory. */
class Bus
{
  public:
    Bus(Memory &memory, Mmio &mmio, Stats &stats,
        const MachineConfig &config);

    /** A new instruction: a fresh contention chain. */
    void beginInstruction() { fram_chain_ = {}; }

    std::uint16_t read16(std::uint16_t addr, AccessKind kind);
    std::uint8_t read8(std::uint16_t addr, AccessKind kind);
    void write16(std::uint16_t addr, std::uint16_t value);
    void write8(std::uint16_t addr, std::uint8_t value);

    /** Code-space range used for Table 1's code/data classification. */
    void
    setCodeRange(std::uint16_t base, std::uint32_t end)
    {
        code_ = {base, end};
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
    void setPredecode(PredecodeCache *cache) { stores_.predecode = cache; }

    /** Attach the fast tier's write-generation table so oracle
     *  stores invalidate blocks exactly like fast-path stores; nullptr
     *  detaches. Not owned. */
    void setPageGens(PageGenTable *gens) { stores_.page_gens = gens; }

    HwCache &hwCache() { return hw_cache_; }

    /** The rules the threaded tier applies to its own accesses. */
    const FramTiming &framTiming() const { return timing_; }
    const CodeRange &codeRange() const { return code_; }
    const StoreInvalidation &stores() const { return stores_; }

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
    FramTiming timing_;
    FramLineChain fram_chain_;
    CodeRange code_;
    StoreInvalidation stores_;

    const std::uint64_t *base_cycles_probe_ = nullptr;
    trace::TraceEngine *trace_ = nullptr;
    metrics::RunMetrics *metrics_ = nullptr;
};

} // namespace swapram::sim

#endif // SWAPRAM_SIM_BUS_HH
