#include "src/privcount/counter_slab.h"

#include <utility>

#include "src/util/check.h"

namespace tormet::privcount {

namespace {

// The adapter keeps no mutable state between calls: concurrent ingest
// parties run ingest_span() on the same instance with disjoint slab rows,
// so each increment resolves through slot_of_ directly (a read-only lookup
// into the round's counter index) instead of a shared memo map.
class legacy_adapter final : public batch_instrument {
 public:
  explicit legacy_adapter(legacy_instrument fn) : fn_{std::move(fn)} {}

  void bind(const slot_resolver& slot_of) override { slot_of_ = slot_of; }

  void ingest_span(const tor::event* evs, std::size_t n,
                   std::uint64_t* slab) override {
    const auto incr = make_incr(slab);
    for (std::size_t i = 0; i < n; ++i) fn_(evs[i], incr);
  }

 private:
  [[nodiscard]] std::function<void(const std::string&, std::uint64_t)>
  make_incr(std::uint64_t* slab) const {
    return [this, slab](const std::string& counter, std::uint64_t amount) {
      slab[slot_of_(counter)] += amount;
    };
  }

  legacy_instrument fn_;
  slot_resolver slot_of_;
};

}  // namespace

std::unique_ptr<batch_instrument> adapt_instrument(legacy_instrument fn) {
  expects(fn != nullptr, "instrument must be callable");
  return std::make_unique<legacy_adapter>(std::move(fn));
}

void merge_slabs(const std::vector<std::uint64_t>& slabs, std::size_t rows,
                 std::size_t counters, const std::vector<std::uint64_t>& base,
                 std::vector<std::uint64_t>& out) {
  expects(base.size() == counters, "merge: one base value per counter");
  expects(rows >= 1 && slabs.size() % rows == 0 &&
              slabs.size() / rows > counters,
          "merge: slabs must be rows x (counters + tail)");
  const std::size_t stride = slabs.size() / rows;
  out = base;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint64_t* row = slabs.data() + r * stride;
    for (std::size_t i = 0; i < counters; ++i) out[i] += row[i];
  }
}

}  // namespace tormet::privcount
