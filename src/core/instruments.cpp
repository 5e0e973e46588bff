#include "src/core/instruments.h"

#include <array>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "src/util/bytes.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace tormet::core {

namespace {

/// True for the streams whose hostnames the paper calls primary domains:
/// a circuit's initial stream naming a hostname on a web port (§4.1).
[[nodiscard]] const tor::exit_stream_event* primary_domain_of(const tor::event& ev) {
  const auto* s = std::get_if<tor::exit_stream_event>(&ev.body);
  if (s == nullptr || !s->is_initial) return nullptr;
  if (s->kind != tor::address_kind::hostname) return nullptr;
  if (s->port != 80 && s->port != 443) return nullptr;
  return s;
}

/// Walks `hostname` and its parent domains through `index`, returning the
/// first match ("www.amazon.com" matches an entry for "amazon.com").
template <typename Map>
[[nodiscard]] auto find_by_suffix(const Map& index, std::string_view hostname)
    -> decltype(index.end()) {
  std::string_view rest = hostname;
  for (;;) {
    const auto it = index.find(std::string{rest});
    if (it != index.end()) return it;
    const std::size_t dot = rest.find('.');
    if (dot == std::string_view::npos) return index.end();
    rest.remove_prefix(dot + 1);
  }
}

/// True when `hostname` or one of its parent domains is an Alexa entry.
[[nodiscard]] bool alexa_listed(const workload::alexa_list& alexa,
                                std::string_view hostname) {
  std::string_view rest = hostname;
  for (;;) {
    if (alexa.contains(rest)) return true;
    const std::size_t dot = rest.find('.');
    if (dot == std::string_view::npos) return false;
    rest.remove_prefix(dot + 1);
  }
}

/// What the entry-side instruments read off a client connection, circuit
/// or data event. `measure` indexes k_entry_measures.
struct entry_fact {
  std::uint32_t ip = 0;
  std::size_t measure = 0;
  std::uint64_t amount = 1;
  bool dir_circuit = false;
};
constexpr std::array<const char*, 3> k_entry_measures{"connections",
                                                      "circuits", "bytes"};

[[nodiscard]] std::optional<entry_fact> entry_fact_of(const tor::event& ev) {
  if (const auto* c = std::get_if<tor::entry_connection_event>(&ev.body)) {
    return entry_fact{c->client_ip, 0, 1, false};
  }
  if (const auto* ci = std::get_if<tor::entry_circuit_event>(&ev.body)) {
    return entry_fact{ci->client_ip, 1, 1,
                      ci->kind == tor::circuit_kind::directory};
  }
  if (const auto* d = std::get_if<tor::entry_data_event>(&ev.body)) {
    return entry_fact{d->client_ip, 2, d->bytes, false};
  }
  return std::nullopt;
}

/// The one compiled form of every catalogue instrument. `names_` lists its
/// counters once; bind() resolves them to this round's slab slots, and
/// `step_(ev, slot, slab)` increments slab[slot[k]] for the k-th name.
/// step_ captures only immutable state, so concurrent ingest_span() calls
/// on disjoint rows share nothing mutable.
template <typename Step>
class compiled_instrument final : public privcount::batch_instrument {
 public:
  compiled_instrument(std::shared_ptr<const std::vector<std::string>> names,
                      Step step)
      : names_{std::move(names)}, step_{std::move(step)} {}

  void bind(const privcount::slot_resolver& slot_of) override {
    slots_.clear();
    for (const auto& name : *names_) slots_.push_back(slot_of(name));
  }

  void ingest_span(const tor::event* evs, std::size_t n,
                   std::uint64_t* slab) override {
    const std::size_t* slot = slots_.data();
    for (std::size_t i = 0; i < n; ++i) step_(evs[i], slot, slab);
  }

 private:
  std::shared_ptr<const std::vector<std::string>> names_;
  Step step_;
  std::vector<std::size_t> slots_;
};

/// A factory of fresh, unbound compiled_instrument instances: `step`
/// increments the k-th of `names` as slab[slot[k]].
template <typename Step>
[[nodiscard]] privcount::instrument_factory compile(
    std::vector<std::string> names, Step step) {
  return [names = std::make_shared<const std::vector<std::string>>(
              std::move(names)),
          step]() -> std::unique_ptr<privcount::batch_instrument> {
    return std::make_unique<compiled_instrument<Step>>(names, step);
  };
}

}  // namespace

privcount::instrument_factory instrument_stream_taxonomy() {
  enum : std::size_t { total, initial, hostname, ipv4, ipv6, web, other };
  return compile(
      {"streams/total", "streams/initial", "streams/initial/hostname",
       "streams/initial/ipv4", "streams/initial/ipv6",
       "streams/initial/hostname/web", "streams/initial/hostname/other"},
      [](const tor::event& ev, const std::size_t* slot, std::uint64_t* slab) {
        const auto* s = std::get_if<tor::exit_stream_event>(&ev.body);
        if (s == nullptr) return;
        ++slab[slot[total]];
        if (!s->is_initial) return;
        ++slab[slot[initial]];
        switch (s->kind) {
          case tor::address_kind::hostname:
            ++slab[slot[hostname]];
            ++slab[slot[(s->port == 80 || s->port == 443) ? web : other]];
            break;
          case tor::address_kind::ipv4:
            ++slab[slot[ipv4]];
            break;
          case tor::address_kind::ipv6:
            ++slab[slot[ipv6]];
            break;
        }
      });
}

privcount::instrument_factory instrument_domain_sets(
    std::string base, std::vector<domain_set> sets) {
  // domain -> counter position, with first-set-wins semantics.
  std::vector<std::string> names;
  auto index = std::make_shared<std::unordered_map<std::string, std::size_t>>();
  for (const auto& set : sets) {
    for (const auto& d : set.domains) {
      index->emplace(d, names.size());  // keeps the first set that claimed d
    }
    names.push_back(base + "/" + set.name);
  }
  const std::size_t other = names.size();
  names.push_back(base + "/other");
  return compile(std::move(names), [index, other](const tor::event& ev,
                                                  const std::size_t* slot,
                                                  std::uint64_t* slab) {
    const auto* s = primary_domain_of(ev);
    if (s == nullptr) return;
    const auto it = find_by_suffix(*index, s->target);
    ++slab[slot[it == index->end() ? other : it->second]];
  });
}

privcount::instrument_factory instrument_tld_histogram(
    std::string base, std::vector<std::string> tlds,
    std::shared_ptr<const workload::alexa_list> alexa, bool separate_torproject,
    std::shared_ptr<const workload::suffix_list> suffixes) {
  expects(suffixes != nullptr, "tld histogram needs a suffix list");
  std::vector<std::string> names;
  auto tld_index =
      std::make_shared<std::unordered_map<std::string, std::size_t>>();
  for (const auto& tld : tlds) {
    (*tld_index)[tld] = names.size();
    names.push_back(base + "/" + tld);
  }
  const std::size_t other = names.size();
  names.push_back(base + "/other");
  const std::size_t torproject = names.size();
  if (separate_torproject) names.push_back(base + "/torproject.org");
  return compile(std::move(names), [tld_index, alexa, separate_torproject,
                                    other, torproject](const tor::event& ev,
                                                       const std::size_t* slot,
                                                       std::uint64_t* slab) {
    const auto* s = primary_domain_of(ev);
    if (s == nullptr) return;
    if (separate_torproject &&
        workload::hostname_matches_domain(s->target, "torproject.org")) {
      ++slab[slot[torproject]];
      return;
    }
    // With a list, only Alexa-listed domains count (Fig 3's second series).
    if (alexa != nullptr && !alexa_listed(*alexa, s->target)) return;
    const auto tld = workload::suffix_list::tld_of(s->target);
    if (!tld.has_value()) return;
    const auto it = tld_index->find(*tld);
    ++slab[slot[it == tld_index->end() ? other : it->second]];
  });
}

privcount::instrument_factory instrument_entry_totals() {
  std::vector<std::string> names;
  for (const char* m : k_entry_measures) {
    names.push_back(std::string{"entry/"} + m);
  }
  return compile(std::move(names), [](const tor::event& ev,
                                      const std::size_t* slot,
                                      std::uint64_t* slab) {
    if (const auto f = entry_fact_of(ev)) slab[slot[f->measure]] += f->amount;
  });
}

privcount::instrument_factory instrument_country_usage(
    std::shared_ptr<const workload::geoip_db> geo,
    std::vector<std::string> country_codes) {
  expects(geo != nullptr, "country usage needs a geoip db");
  // Country index -> position of its first counter; the code's counters
  // are k_entry_measures in order, then dir-requests.
  constexpr std::size_t k_unmeasured = static_cast<std::size_t>(-1);
  std::vector<std::size_t> first(geo->num_countries(), k_unmeasured);
  std::vector<std::string> names;
  for (const auto& code : country_codes) {
    first[geo->index_of(code)] = names.size();
    for (const char* m : k_entry_measures) {
      names.push_back("country/" + code + "/" + m);
    }
    names.push_back("country/" + code + "/dir-requests");
  }
  return compile(std::move(names), [geo, first](const tor::event& ev,
                                                const std::size_t* slot,
                                                std::uint64_t* slab) {
    const auto f = entry_fact_of(ev);
    if (!f.has_value()) return;
    const std::size_t at = first[geo->country_of(f->ip)];
    if (at == k_unmeasured) return;
    slab[slot[at + f->measure]] += f->amount;
    // Directory requests feed the Tor-Metrics-style baseline estimator
    // (stats/metrics_portal.h) — the §5.2 UAE-discrepancy comparison.
    if (f->dir_circuit) slab[slot[at + k_entry_measures.size()]] += f->amount;
  });
}

privcount::instrument_factory instrument_as_split(
    std::shared_ptr<const workload::geoip_db> geo,
    std::vector<std::uint32_t> top_asns) {
  expects(geo != nullptr, "as split needs a geoip db");
  auto top = std::make_shared<const std::unordered_set<std::uint32_t>>(
      top_asns.begin(), top_asns.end());
  std::vector<std::string> names;
  for (const char* group : {"as/top1000/", "as/other/"}) {
    for (const char* m : k_entry_measures) {
      names.push_back(std::string{group} + m);
    }
  }
  return compile(std::move(names), [geo, top](const tor::event& ev,
                                              const std::size_t* slot,
                                              std::uint64_t* slab) {
    const auto f = entry_fact_of(ev);
    if (!f.has_value()) return;
    const std::size_t group =
        top->contains(geo->asn_of(f->ip)) ? 0 : k_entry_measures.size();
    slab[slot[group + f->measure]] += f->amount;
  });
}

privcount::instrument_factory instrument_hsdir_descriptors(
    std::shared_ptr<const workload::ahmia_index> index) {
  expects(index != nullptr, "hsdir instrument needs an ahmia index");
  enum : std::size_t { publishes, total, success, failed, pub, unknown };
  return compile(
      {"hsdir/publishes", "hsdir/fetch/total", "hsdir/fetch/success",
       "hsdir/fetch/failed", "hsdir/fetch/success/public",
       "hsdir/fetch/success/unknown"},
      [index](const tor::event& ev, const std::size_t* slot,
              std::uint64_t* slab) {
        if (std::holds_alternative<tor::hsdir_publish_event>(ev.body)) {
          ++slab[slot[publishes]];
          return;
        }
        const auto* f = std::get_if<tor::hsdir_fetch_event>(&ev.body);
        if (f == nullptr) return;
        ++slab[slot[total]];
        if (f->outcome == tor::fetch_outcome::success) {
          ++slab[slot[success]];
          ++slab[slot[index->contains(f->address) ? pub : unknown]];
        } else {
          ++slab[slot[failed]];
        }
      });
}

privcount::instrument_factory instrument_rendezvous() {
  enum : std::size_t { circuits, succeeded, conn_closed, expired, cells };
  return compile(
      {"rend/circuits", "rend/succeeded", "rend/conn-closed", "rend/expired",
       "rend/cells"},
      [](const tor::event& ev, const std::size_t* slot, std::uint64_t* slab) {
        const auto* r = std::get_if<tor::rend_circuit_event>(&ev.body);
        if (r == nullptr) return;
        ++slab[slot[circuits]];
        switch (r->outcome) {
          case tor::rend_outcome::succeeded:
            ++slab[slot[succeeded]];
            slab[slot[cells]] += r->payload_cells;
            break;
          case tor::rend_outcome::failed_conn_closed:
            ++slab[slot[conn_closed]];
            break;
          case tor::rend_outcome::failed_expired:
            ++slab[slot[expired]];
            break;
        }
      });
}

// ---------------------------------------------------------------------------
// PSC extractors
// ---------------------------------------------------------------------------

psc::data_collector::extractor extract_client_ip() {
  return [](const tor::event& ev) -> std::optional<std::string> {
    if (const auto* c = std::get_if<tor::entry_connection_event>(&ev.body)) {
      return "ip:" + std::to_string(c->client_ip);
    }
    return std::nullopt;
  };
}

psc::data_collector::extractor extract_client_country(
    std::shared_ptr<const workload::geoip_db> geo) {
  expects(geo != nullptr, "country extractor needs a geoip db");
  return [geo](const tor::event& ev) -> std::optional<std::string> {
    if (const auto* c = std::get_if<tor::entry_connection_event>(&ev.body)) {
      return "cc:" + geo->countries()[geo->country_of(c->client_ip)].code;
    }
    return std::nullopt;
  };
}

psc::data_collector::extractor extract_client_asn(
    std::shared_ptr<const workload::geoip_db> geo) {
  expects(geo != nullptr, "asn extractor needs a geoip db");
  return [geo](const tor::event& ev) -> std::optional<std::string> {
    if (const auto* c = std::get_if<tor::entry_connection_event>(&ev.body)) {
      return "as:" + std::to_string(geo->asn_of(c->client_ip));
    }
    return std::nullopt;
  };
}

psc::data_collector::extractor extract_primary_sld(
    std::shared_ptr<const workload::suffix_list> suffixes,
    std::shared_ptr<const workload::alexa_list> alexa) {
  expects(suffixes != nullptr, "sld extractor needs a suffix list");
  return [suffixes, alexa](const tor::event& ev) -> std::optional<std::string> {
    const auto* s = primary_domain_of(ev);
    if (s == nullptr) return std::nullopt;
    const auto sld = suffixes->sld_of(s->target);
    if (!sld.has_value()) return std::nullopt;
    // Restrict to SLDs of Alexa-listed domains.
    if (alexa != nullptr && !alexa_listed(*alexa, s->target)) {
      return std::nullopt;
    }
    return "sld:" + *sld;
  };
}

psc::data_collector::extractor extract_published_address() {
  return [](const tor::event& ev) -> std::optional<std::string> {
    if (const auto* p = std::get_if<tor::hsdir_publish_event>(&ev.body)) {
      return "pub:" + p->address.value;
    }
    return std::nullopt;
  };
}

psc::data_collector::extractor extract_fetched_address() {
  return [](const tor::event& ev) -> std::optional<std::string> {
    const auto* f = std::get_if<tor::hsdir_fetch_event>(&ev.body);
    if (f == nullptr || f->outcome != tor::fetch_outcome::success) {
      return std::nullopt;
    }
    return "fetch:" + f->address.value;
  };
}

// ---------------------------------------------------------------------------
// Name registry
// ---------------------------------------------------------------------------

namespace {

/// Canonical parameters of the registered parameterized instruments. These
/// are frozen: every process of a distributed round (and the in-process
/// reference) must instantiate bit-identical measurements from the name
/// alone.
const std::vector<std::string>& canonical_tlds() {
  // Fig 3's measured TLD list.
  static const std::vector<std::string> tlds{
      "com", "org", "net", "br", "cn", "de", "fr", "in", "ir", "it", "jp",
      "pl", "ru", "uk"};
  return tlds;
}

constexpr std::size_t k_canonical_alexa_size = 20'000;
constexpr std::uint64_t k_canonical_alexa_seed = 3;

const std::shared_ptr<const workload::alexa_list>& canonical_alexa() {
  static const auto list = std::make_shared<const workload::alexa_list>(
      workload::alexa_list::make_synthetic(
          {.size = k_canonical_alexa_size, .seed = k_canonical_alexa_seed}));
  return list;
}

/// Fig 2's rank buckets over the canonical Alexa list: torproject.org
/// apart, then (0,10], (10,100], (100,1000], (1000,10000].
std::vector<domain_set> canonical_rank_sets() {
  const workload::alexa_list& alexa = *canonical_alexa();
  std::vector<domain_set> sets;
  sets.push_back({"torproject.org", {"torproject.org"}});
  std::uint32_t lo = 0;
  for (std::uint32_t hi = 10; hi <= alexa.size(); hi *= 10) {
    domain_set set;
    set.name = "(" + std::to_string(lo) + "," + std::to_string(hi) + "]";
    set.domains.reserve(hi - lo);
    for (std::uint32_t rank = lo + 1; rank <= hi; ++rank) {
      const std::string& d = alexa.domain_at_rank(rank);
      if (d != "torproject.org") set.domains.push_back(d);
    }
    sets.push_back(std::move(set));
    lo = hi;
  }
  return sets;
}

const std::vector<std::string>& canonical_rank_set_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& set : canonical_rank_sets()) out.push_back(set.name);
    return out;
  }();
  return names;
}

/// The ahmia index over the canonical synthetic service universe. Onion
/// addresses are a pure function of the service's creation index
/// (tor::network::add_onion_service), so indexing a prefix of that
/// universe deterministically classifies any simulated trace's services;
/// the paper found 56.8 % of fetched services in ahmia's index.
constexpr std::size_t k_canonical_service_universe = 4096;
constexpr double k_ahmia_public_fraction = 0.568;
constexpr std::uint64_t k_canonical_ahmia_seed = 4242;

const std::shared_ptr<const workload::ahmia_index>& canonical_ahmia() {
  static const auto index = [] {
    std::vector<tor::onion_address> universe;
    universe.reserve(k_canonical_service_universe);
    for (std::size_t i = 0; i < k_canonical_service_universe; ++i) {
      const std::string key_material =
          "tormet.service.key." + std::to_string(i);
      universe.push_back(tor::derive_onion_address(as_bytes(key_material)));
    }
    rng r{k_canonical_ahmia_seed};
    return std::make_shared<const workload::ahmia_index>(
        workload::ahmia_index::make(universe, k_ahmia_public_fraction, r));
  }();
  return index;
}

const std::shared_ptr<const workload::suffix_list>& canonical_suffixes() {
  static const auto suffixes = std::make_shared<const workload::suffix_list>(
      workload::suffix_list::embedded());
  return suffixes;
}

/// One row per registered instrument. Sensitivities follow the paper's
/// action bounds (Table 1: 20 domains per user-day, 12 connections, 651
/// circuits; stream totals bound by 20 domains x ~20 streams). Expected
/// values are magnitude guesses for the equal-relative-noise budget split;
/// operators tune them per round.
struct instrument_row {
  const char* name;
  privcount::instrument_factory (*factory)();
  std::vector<privcount::counter_spec> (*default_specs)();
};

const std::vector<instrument_row>& instrument_table() {
  using specs = std::vector<privcount::counter_spec>;
  static const std::vector<instrument_row> table{
      {"stream_taxonomy", instrument_stream_taxonomy,
       [] {
         return specs{{"streams/total", 400.0, 6e4},
                      {"streams/initial", 20.0, 3e3},
                      {"streams/initial/hostname", 20.0, 3e3},
                      {"streams/initial/ipv4", 20.0, 500},
                      {"streams/initial/ipv6", 20.0, 500},
                      {"streams/initial/hostname/web", 20.0, 3e3},
                      {"streams/initial/hostname/other", 20.0, 500}};
       }},
      {"entry_totals", instrument_entry_totals,
       [] {
         return specs{{"entry/connections", 12.0, 2e3},
                      {"entry/circuits", 651.0, 1.7e4},
                      {"entry/bytes", 407e6, 7e9}};
       }},
      {"rendezvous", instrument_rendezvous,
       [] {
         return specs{{"rend/circuits", 651.0, 1e4},
                      {"rend/succeeded", 651.0, 1e3},
                      {"rend/conn-closed", 651.0, 500},
                      {"rend/expired", 651.0, 1e4},
                      {"rend/cells", 1e6, 1e6}};
       }},
      {"tld_histogram",
       [] {
         return instrument_tld_histogram("tld", canonical_tlds(), nullptr,
                                         /*separate_torproject=*/true,
                                         canonical_suffixes());
       },
       [] {
         specs out;
         for (const auto& tld : canonical_tlds()) {
           out.push_back({"tld/" + tld, 20.0, 500});
         }
         out.push_back({"tld/other", 20.0, 500});
         out.push_back({"tld/torproject.org", 20.0, 5e3});
         return out;
       }},
      {"domain_sets",
       [] { return instrument_domain_sets("sites", canonical_rank_sets()); },
       [] {
         specs out;
         for (const auto& set_name : canonical_rank_set_names()) {
           out.push_back({"sites/" + set_name, 20.0, 1e3});
         }
         out.push_back({"sites/other", 20.0, 3e3});
         return out;
       }},
      {"hsdir_ahmia",
       [] { return instrument_hsdir_descriptors(canonical_ahmia()); },
       [] {
         return specs{{"hsdir/publishes", 24.0, 2e3},
                      {"hsdir/fetch/total", 10.0, 1e3},
                      {"hsdir/fetch/success", 10.0, 1e3},
                      {"hsdir/fetch/failed", 10.0, 1e3},
                      {"hsdir/fetch/success/public", 10.0, 500},
                      {"hsdir/fetch/success/unknown", 10.0, 500}};
       }},
  };
  return table;
}

/// One row per registered extractor.
struct extractor_row {
  const char* name;
  psc::data_collector::extractor (*factory)();
};

const std::vector<extractor_row>& extractor_table() {
  static const std::vector<extractor_row> table{
      {"client_ip", extract_client_ip},
      {"client_country",
       [] {
         return extract_client_country(
             std::make_shared<const workload::geoip_db>(
                 workload::geoip_db::make_synthetic()));
       }},
      {"client_asn",
       [] {
         return extract_client_asn(std::make_shared<const workload::geoip_db>(
             workload::geoip_db::make_synthetic()));
       }},
      {"primary_sld",
       [] { return extract_primary_sld(canonical_suffixes(), nullptr); }},
      {"published_address", extract_published_address},
      {"fetched_address", extract_fetched_address},
  };
  return table;
}

/// The row registered under `name`; throws precondition_error naming
/// `kind` when there is none.
template <typename Row>
const Row& row_of(const std::vector<Row>& table, const std::string& name,
                  const char* kind) {
  for (const Row& row : table) {
    if (row.name == name) return row;
  }
  throw precondition_error{std::string{"unknown "} + kind + ": " + name};
}

template <typename Row>
std::vector<std::string> names_of(const std::vector<Row>& table) {
  std::vector<std::string> names;
  for (const Row& row : table) names.emplace_back(row.name);
  return names;
}

}  // namespace

const std::vector<std::string>& instrument_names() {
  static const std::vector<std::string> names = names_of(instrument_table());
  return names;
}

privcount::instrument_factory instrument_by_name(const std::string& name) {
  return row_of(instrument_table(), name, "instrument").factory();
}

std::vector<privcount::counter_spec> default_specs_for(
    const std::string& instrument_name) {
  return row_of(instrument_table(), instrument_name, "instrument")
      .default_specs();
}

const std::vector<std::string>& extractor_names() {
  static const std::vector<std::string> names = names_of(extractor_table());
  return names;
}

psc::data_collector::extractor extractor_by_name(const std::string& name) {
  return row_of(extractor_table(), name, "extractor").factory();
}

}  // namespace tormet::core
