// Flat counter slabs for the DC ingest path. Each ingest party owns one
// contiguous row of uint64 increment slots — one per configured counter,
// then a trash slot that absorbs increments to names not measured this
// round, then optional padding — and instruments are compiled against
// slot indices once per round instead of doing a string lookup per
// increment. At report time the rows merge by plain mod-2^64 addition onto
// the blinded base values, so the reported bytes are independent of the
// number of rows and of how the event stream was split across them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/tor/events.h"

namespace tormet::privcount {

/// Maps a counter name to its slab slot at bind time; names not measured
/// this round resolve to the trash slot (index == number of counters).
using slot_resolver = std::function<std::size_t(const std::string&)>;

/// An instrument compiled to direct slab increments: `bind` resolves its
/// counter names to slots once per round, `ingest_span` then increments one
/// slab row for a contiguous span of events with no per-event name lookup.
/// Concurrent calls on disjoint rows must be safe.
class batch_instrument {
 public:
  virtual ~batch_instrument() = default;
  virtual void bind(const slot_resolver& slot_of) = 0;
  virtual void ingest_span(const tor::event* evs, std::size_t n,
                           std::uint64_t* slab) = 0;
};

/// Makes one fresh, unbound instance of an instrument. A deployment calls
/// it once per DC, so each DC binds its own slot table. Every catalogue
/// instrument (src/core/instruments.h) is handed out this way.
using instrument_factory = std::function<std::unique_ptr<batch_instrument>()>;

/// An ad-hoc instrument written as a string callback: it names each
/// counter it increments, per event. No catalogue instrument has this
/// form; it serves one-off instruments in tests and the per-event
/// baseline the batched-ingest bench measures against.
using legacy_instrument = std::function<void(
    const tor::event&,
    const std::function<void(const std::string& counter, std::uint64_t amount)>&)>;

/// Runs a string-callback instrument as a batch_instrument: each increment
/// resolves its counter name through the round's slot resolver.
[[nodiscard]] std::unique_ptr<batch_instrument> adapt_instrument(
    legacy_instrument fn);

/// Report-time merge: out[i] = base[i] + Σ over rows of
/// slabs[r * stride + i], mod 2^64, for i in [0, counters), where the row
/// stride is slabs.size() / rows and must exceed `counters`; each row's
/// tail (trash slot, padding) is dropped. Addition on the ring is
/// commutative and associative, so the result is identical for every row
/// count and every split of the same event stream — the property the
/// worker/split matrix tests pin.
void merge_slabs(const std::vector<std::uint64_t>& slabs, std::size_t rows,
                 std::size_t counters, const std::vector<std::uint64_t>& base,
                 std::vector<std::uint64_t>& out);

}  // namespace tormet::privcount
