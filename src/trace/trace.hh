/**
 * @file
 * TraceEngine: the hub every layer emits events into.
 *
 * Design constraints (ISSUE 1):
 *  - zero overhead when tracing is off: emit sites hold a raw
 *    `TraceEngine *` that is nullptr by default, so the disabled path
 *    is a single predictable branch and no allocation ever happens;
 *  - bounded memory: events are recorded into a fixed-capacity ring
 *    buffer (oldest overwritten, drops counted), so tracing a
 *    billion-cycle run cannot OOM the host;
 *  - pluggable sinks: streaming consumers (text/CSV/Chrome writers,
 *    the swap-timeline analyzer) subscribe with their own category
 *    mask; the engine's effective mask is the union of the ring's and
 *    every sink's, so emit sites skip work nobody wants.
 *
 * Sinks may re-emit derived events from inside notify() (SwapTimeline
 * does); delivery order for other sinks is trigger-then-derived as
 * long as derived-emitting sinks are registered last.
 */

#ifndef SWAPRAM_TRACE_TRACE_HH
#define SWAPRAM_TRACE_TRACE_HH

#include <cstdint>
#include <vector>

#include "trace/event.hh"

namespace swapram::trace {

/** Streaming consumer of trace events. */
class Sink
{
  public:
    virtual ~Sink() = default;

    /** Called for every event matching the sink's category mask. */
    virtual void event(const Event &event) = 0;

    /** Called once when the producing run completes (flush point). */
    virtual void finish() {}

    /**
     * Categories of this sink's subscription it consumes only while
     * the cache runtime's copy loop (sim::CodeOwner::Memcpy) runs.
     * Producers may leave them out everywhere else, which lets the
     * machine keep the rest of the run on its fast tiers.
     */
    virtual std::uint32_t copyLoopOnly() const { return kCatNone; }
};

/** Central event hub: bounded ring buffer + subscribed sinks. */
class TraceEngine
{
  public:
    /** @p ring_mask selects what the ring records; @p capacity bounds
     *  it (0 disables in-memory recording entirely, as does an empty
     *  @p ring_mask; either way no ring storage is allocated). */
    explicit TraceEngine(std::uint32_t ring_mask = kCatAll,
                         std::size_t capacity = kDefaultCapacity);

    static constexpr std::size_t kDefaultCapacity = 1 << 16;

    /** Subscribe @p sink to categories in @p mask (not owned). */
    void addSink(Sink *sink, std::uint32_t mask = kCatAll);

    /** True when somebody wants events of @p category. */
    bool
    wants(Category category) const
    {
        return (mask_ & category) != 0;
    }

    /** Union of ring and sink masks (0 = nothing to do). */
    std::uint32_t mask() const { return mask_; }

    /** What somebody wants while the PC is outside the copy loop: the
     *  mask without each sink's Sink::copyLoopOnly() categories. */
    std::uint32_t outsideCopyMask() const { return outside_mask_; }

    /** Record @p event and deliver it to matching sinks. */
    void emit(const Event &event);

    /** Signal end of run to every sink (once). */
    void finish();

    /** Events currently held by the ring, oldest first. */
    std::vector<Event> ring() const;

    /** Total events accepted (ring or sink) since construction. */
    std::uint64_t emitted() const { return emitted_; }

    /** Ring-buffer overwrites (events no longer retrievable). */
    std::uint64_t dropped() const { return dropped_; }

    std::size_t ringCapacity() const { return ring_.size(); }
    std::uint32_t ringMask() const { return ring_mask_; }

  private:
    struct Subscription {
        Sink *sink;
        std::uint32_t mask;
    };

    std::uint32_t ring_mask_;
    std::uint32_t mask_;
    std::uint32_t outside_mask_;
    std::vector<Event> ring_; ///< fixed-size circular storage
    std::size_t head_ = 0;    ///< next write slot
    std::size_t count_ = 0;   ///< valid entries (<= ring_.size())
    std::uint64_t emitted_ = 0;
    std::uint64_t dropped_ = 0;
    bool finished_ = false;
    std::vector<Subscription> sinks_;
};

} // namespace swapram::trace

#endif // SWAPRAM_TRACE_TRACE_HH
