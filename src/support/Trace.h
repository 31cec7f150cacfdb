//===- Trace.h - structured runtime tracing ---------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured-tracing half of the JIT observability layer: thread-safe
/// scoped spans with nesting, instant events, and counter series, recorded
/// with monotonic timestamps into a bounded ring-buffer sink and exported
/// as chrome://tracing-compatible JSON ("trace event format"). Open the
/// export in chrome://tracing or https://ui.perfetto.dev to see the paper's
/// Figure 5/6 stage attribution per launch, per worker thread.
///
/// Activation:
///   * `PROTEUS_TRACE=<file>` — trace the whole process; the export is
///     written to <file> at exit (and on trace::stop()). Optional
///     `PROTEUS_TRACE_BUFFER=<events>` sizes the ring buffer (an integer in
///     [1, MaxCapacity]; default DefaultCapacity).
///   * programmatic: trace::start()/trace::stop() (used by tests).
///
/// When no session is active every probe is a relaxed atomic load plus a
/// predicted-not-taken branch — cheap enough to leave compiled in
/// everywhere (figure6 regresses < 1% with tracing unset).
///
/// The ring buffer overwrites the oldest events when full (droppedEvents()
/// reports how many); the set of distinct event names ever recorded is kept
/// separately and exported in the JSON metadata, so "did stage X run?"
/// questions survive wraparound.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_SUPPORT_TRACE_H
#define PROTEUS_SUPPORT_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace proteus {
namespace trace {

namespace detail {
extern std::atomic<bool> EnabledFlag;
} // namespace detail

/// True while a trace session is collecting events. This is the fast-path
/// probe every instrumentation site checks first.
inline bool enabled() {
  return detail::EnabledFlag.load(std::memory_order_relaxed);
}

/// Default ring-buffer capacity in events (~12 MB).
constexpr size_t DefaultCapacity = size_t(1) << 18;

/// Largest capacity PROTEUS_TRACE_BUFFER accepts (~768 MB); larger values,
/// like non-numeric ones, keep DefaultCapacity and count a config error.
constexpr size_t MaxCapacity = size_t(1) << 24;

/// Starts a session: resets the ring buffer and enables collection.
/// \p OutputPath may be empty (export only via exportJson()/writeJson()).
void start(const std::string &OutputPath,
           size_t CapacityEvents = DefaultCapacity);

/// Disables collection and, when the session has an output path, writes the
/// export there. The buffer stays readable until the next start().
void stop();

/// Renders the current buffer as chrome://tracing JSON.
std::string exportJson();

/// Writes exportJson() to \p Path. Returns false on I/O failure.
bool writeJson(const std::string &Path);

/// Events currently held in the ring buffer.
size_t recordedEvents();

/// Events overwritten because the ring buffer was full.
uint64_t droppedEvents();

/// Interns \p Name into session-lifetime storage and returns a stable
/// pointer — the form every recording call expects. Interning the same
/// string twice returns the same pointer. Usable whether or not a session
/// is active.
const char *internName(const std::string &Name);

/// Records an instant event (a point in time, rendered as a tick).
void instant(const char *Name, const char *Cat = "proteus");

/// Records one sample of a counter series (queue depth, occupancy, ...).
void counterValue(const char *Name, double Value);

/// Records a complete span from explicit timestamps (used by Span; exposed
/// for instrumentation that cannot use RAII scoping).
void complete(const char *Name, const char *Cat, uint64_t StartNs,
              uint64_t DurNs);

/// Synthetic track ids for simulated GPU stream timelines. Lane spans are
/// recorded with an explicit tid (instead of the calling thread's) so
/// chrome://tracing renders one horizontal lane per device:stream and
/// overlapping launches on independent streams show up as parallel bars.
/// The base keeps lanes clear of real thread ids (which count up from 1).
constexpr uint32_t LaneTidBase = 1u << 20;

/// Track id for device \p DeviceOrdinal, stream \p StreamId.
inline uint32_t laneTid(unsigned DeviceOrdinal, unsigned StreamId) {
  return LaneTidBase + DeviceOrdinal * 1024u + StreamId;
}

/// Records a complete span on an explicit synthetic track. Timestamps are
/// the caller's own coordinate space (the GPU engine uses simulated-time
/// nanoseconds); spans on one lane must not partially overlap, which stream
/// FIFO timelines guarantee by construction.
void lane(const char *Name, const char *Cat, uint32_t Tid, uint64_t TsNs,
          uint64_t DurNs);

/// Monotonic nanoseconds since the session started.
uint64_t nowNs();

/// RAII scoped span: records a complete event covering the constructor-to-
/// destructor interval on the current thread. Nesting is tracked per
/// thread and exported (args.depth) so tests can assert span structure.
/// \p Name and \p Cat must outlive the session: use string literals or
/// internName().
class Span {
public:
  explicit Span(const char *Name, const char *Cat = "proteus");
  ~Span();

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  const char *Cat;
  uint64_t StartNs;
  bool Active;
};

/// Structural validation of an exported trace file, shared by
/// tools/trace_validate and the test suite. Checks that the file is valid
/// JSON in trace-event format, that per-thread 'X' spans are properly
/// nested (no partial overlap), and that every \p RequiredNames entry
/// appears among the recorded event names (the metadata name set counts,
/// so wraparound does not fail the check).
bool validateTraceFile(const std::string &Path,
                       const std::vector<std::string> &RequiredNames,
                       std::string *ErrorOut);

} // namespace trace
} // namespace proteus

#endif // PROTEUS_SUPPORT_TRACE_H
