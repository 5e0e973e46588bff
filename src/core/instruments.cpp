#include "src/core/instruments.h"

#include <unordered_map>

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

}  // namespace

privcount::data_collector::instrument instrument_stream_taxonomy() {
  return [](const tor::event& ev, const auto& incr) {
    const auto* s = std::get_if<tor::exit_stream_event>(&ev.body);
    if (s == nullptr) return;
    incr("streams/total", 1);
    if (!s->is_initial) return;
    incr("streams/initial", 1);
    switch (s->kind) {
      case tor::address_kind::hostname: {
        incr("streams/initial/hostname", 1);
        const bool web = s->port == 80 || s->port == 443;
        incr(web ? "streams/initial/hostname/web"
                 : "streams/initial/hostname/other",
             1);
        break;
      }
      case tor::address_kind::ipv4:
        incr("streams/initial/ipv4", 1);
        break;
      case tor::address_kind::ipv6:
        incr("streams/initial/ipv6", 1);
        break;
    }
  };
}

privcount::data_collector::instrument instrument_domain_sets(
    std::string base, std::vector<domain_set> sets) {
  // domain -> (set index) with first-set-wins semantics.
  auto index = std::make_shared<std::unordered_map<std::string, std::size_t>>();
  auto names = std::make_shared<std::vector<std::string>>();
  for (std::size_t i = 0; i < sets.size(); ++i) {
    names->push_back(base + "/" + sets[i].name);
    for (const auto& d : sets[i].domains) {
      index->emplace(d, i);  // emplace keeps the first set that claimed d
    }
  }
  const std::string other = base + "/other";
  return [index, names, other](const tor::event& ev, const auto& incr) {
    const auto* s = primary_domain_of(ev);
    if (s == nullptr) return;
    const auto it = find_by_suffix(*index, s->target);
    if (it == index->end()) {
      incr(other, 1);
    } else {
      incr((*names)[it->second], 1);
    }
  };
}

privcount::data_collector::instrument instrument_tld_histogram(
    std::string base, std::vector<std::string> tlds,
    std::shared_ptr<const workload::alexa_list> alexa, bool separate_torproject,
    std::shared_ptr<const workload::suffix_list> suffixes) {
  expects(suffixes != nullptr, "tld histogram needs a suffix list");
  auto tld_set = std::make_shared<std::unordered_map<std::string, std::string>>();
  for (const auto& tld : tlds) {
    (*tld_set)[tld] = base + "/" + tld;
  }
  const std::string other = base + "/other";
  const std::string torproject = base + "/torproject.org";
  return [tld_set, alexa, separate_torproject, suffixes, other, torproject](
             const tor::event& ev, const auto& incr) {
    const auto* s = primary_domain_of(ev);
    if (s == nullptr) return;
    if (separate_torproject &&
        workload::hostname_matches_domain(s->target, "torproject.org")) {
      incr(torproject, 1);
      return;
    }
    if (alexa != nullptr) {
      // Restrict to Alexa-listed domains: the hostname or a parent must be
      // a list entry.
      std::string_view rest = s->target;
      bool listed = false;
      for (;;) {
        if (alexa->contains(rest)) {
          listed = true;
          break;
        }
        const std::size_t dot = rest.find('.');
        if (dot == std::string_view::npos) break;
        rest.remove_prefix(dot + 1);
      }
      if (!listed) return;
    }
    const auto tld = workload::suffix_list::tld_of(s->target);
    if (!tld.has_value()) return;
    const auto it = tld_set->find(*tld);
    incr(it == tld_set->end() ? other : it->second, 1);
  };
}

privcount::data_collector::instrument instrument_entry_totals() {
  return [](const tor::event& ev, const auto& incr) {
    if (std::holds_alternative<tor::entry_connection_event>(ev.body)) {
      incr("entry/connections", 1);
    } else if (std::holds_alternative<tor::entry_circuit_event>(ev.body)) {
      incr("entry/circuits", 1);
    } else if (const auto* d = std::get_if<tor::entry_data_event>(&ev.body)) {
      incr("entry/bytes", d->bytes);
    }
  };
}

privcount::data_collector::instrument instrument_country_usage(
    std::shared_ptr<const workload::geoip_db> geo,
    std::vector<std::string> country_codes) {
  expects(geo != nullptr, "country usage needs a geoip db");
  auto wanted = std::make_shared<std::unordered_map<std::uint16_t, std::string>>();
  for (const auto& code : country_codes) {
    (*wanted)[geo->index_of(code)] = code;
  }
  return [geo, wanted](const tor::event& ev, const auto& incr) {
    std::uint32_t ip = 0;
    const char* suffix = nullptr;
    std::uint64_t amount = 1;
    bool is_dir_circuit = false;
    if (const auto* c = std::get_if<tor::entry_connection_event>(&ev.body)) {
      ip = c->client_ip;
      suffix = "connections";
    } else if (const auto* ci = std::get_if<tor::entry_circuit_event>(&ev.body)) {
      ip = ci->client_ip;
      suffix = "circuits";
      is_dir_circuit = ci->kind == tor::circuit_kind::directory;
    } else if (const auto* d = std::get_if<tor::entry_data_event>(&ev.body)) {
      ip = d->client_ip;
      suffix = "bytes";
      amount = d->bytes;
    } else {
      return;
    }
    const auto it = wanted->find(geo->country_of(ip));
    if (it == wanted->end()) return;
    incr("country/" + it->second + "/" + suffix, amount);
    // Directory requests feed the Tor-Metrics-style baseline estimator
    // (stats/metrics_portal.h) — the §5.2 UAE-discrepancy comparison.
    if (is_dir_circuit) incr("country/" + it->second + "/dir-requests", amount);
  };
}

privcount::data_collector::instrument instrument_as_split(
    std::shared_ptr<const workload::geoip_db> geo,
    std::vector<std::uint32_t> top_asns) {
  expects(geo != nullptr, "as split needs a geoip db");
  auto top = std::make_shared<std::set<std::uint32_t>>(top_asns.begin(),
                                                       top_asns.end());
  return [geo, top](const tor::event& ev, const auto& incr) {
    std::uint32_t ip = 0;
    const char* suffix = nullptr;
    std::uint64_t amount = 1;
    if (const auto* c = std::get_if<tor::entry_connection_event>(&ev.body)) {
      ip = c->client_ip;
      suffix = "connections";
    } else if (const auto* ci = std::get_if<tor::entry_circuit_event>(&ev.body)) {
      ip = ci->client_ip;
      suffix = "circuits";
    } else if (const auto* d = std::get_if<tor::entry_data_event>(&ev.body)) {
      ip = d->client_ip;
      suffix = "bytes";
      amount = d->bytes;
    } else {
      return;
    }
    const bool is_top = top->contains(geo->asn_of(ip));
    incr(std::string{"as/"} + (is_top ? "top1000/" : "other/") + suffix, amount);
  };
}

privcount::data_collector::instrument instrument_hsdir_descriptors(
    std::shared_ptr<const workload::ahmia_index> index) {
  expects(index != nullptr, "hsdir instrument needs an ahmia index");
  return [index](const tor::event& ev, const auto& incr) {
    if (std::holds_alternative<tor::hsdir_publish_event>(ev.body)) {
      incr("hsdir/publishes", 1);
      return;
    }
    const auto* f = std::get_if<tor::hsdir_fetch_event>(&ev.body);
    if (f == nullptr) return;
    incr("hsdir/fetch/total", 1);
    if (f->outcome == tor::fetch_outcome::success) {
      incr("hsdir/fetch/success", 1);
      incr(index->contains(f->address) ? "hsdir/fetch/success/public"
                                       : "hsdir/fetch/success/unknown",
           1);
    } else {
      incr("hsdir/fetch/failed", 1);
    }
  };
}

privcount::data_collector::instrument instrument_rendezvous() {
  return [](const tor::event& ev, const auto& incr) {
    const auto* r = std::get_if<tor::rend_circuit_event>(&ev.body);
    if (r == nullptr) return;
    incr("rend/circuits", 1);
    switch (r->outcome) {
      case tor::rend_outcome::succeeded:
        incr("rend/succeeded", 1);
        incr("rend/cells", r->payload_cells);
        break;
      case tor::rend_outcome::failed_conn_closed:
        incr("rend/conn-closed", 1);
        break;
      case tor::rend_outcome::failed_expired:
        incr("rend/expired", 1);
        break;
    }
  };
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
    if (alexa != nullptr) {
      // Restrict to SLDs of Alexa-listed domains.
      std::string_view rest = s->target;
      bool listed = false;
      for (;;) {
        if (alexa->contains(rest)) {
          listed = true;
          break;
        }
        const std::size_t dot = rest.find('.');
        if (dot == std::string_view::npos) break;
        rest.remove_prefix(dot + 1);
      }
      if (!listed) return std::nullopt;
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

/// stream_taxonomy compiled to slab slots: one variant probe and 2-4 array
/// increments per event, no string handling — the shape the >=50M ev/s
/// ingest target needs. Emits exactly the increments of
/// instrument_stream_taxonomy().
class batch_stream_taxonomy final : public privcount::batch_instrument {
 public:
  void bind(const privcount::slot_resolver& slot_of) override {
    total_ = slot_of("streams/total");
    initial_ = slot_of("streams/initial");
    hostname_ = slot_of("streams/initial/hostname");
    ipv4_ = slot_of("streams/initial/ipv4");
    ipv6_ = slot_of("streams/initial/ipv6");
    web_ = slot_of("streams/initial/hostname/web");
    other_ = slot_of("streams/initial/hostname/other");
  }

  void ingest_span(const tor::event* evs, std::size_t n,
                   std::uint64_t* slab) override {
    for (std::size_t i = 0; i < n; ++i) step(evs[i], slab);
  }

 private:
  void step(const tor::event& ev, std::uint64_t* slab) const {
    const auto* s = std::get_if<tor::exit_stream_event>(&ev.body);
    if (s == nullptr) return;
    ++slab[total_];
    if (!s->is_initial) return;
    ++slab[initial_];
    switch (s->kind) {
      case tor::address_kind::hostname:
        ++slab[hostname_];
        ++slab[(s->port == 80 || s->port == 443) ? web_ : other_];
        break;
      case tor::address_kind::ipv4:
        ++slab[ipv4_];
        break;
      case tor::address_kind::ipv6:
        ++slab[ipv6_];
        break;
    }
  }

  std::size_t total_ = 0, initial_ = 0, hostname_ = 0, ipv4_ = 0, ipv6_ = 0,
              web_ = 0, other_ = 0;
};

/// entry_totals compiled to slab slots (see instrument_entry_totals()).
class batch_entry_totals final : public privcount::batch_instrument {
 public:
  void bind(const privcount::slot_resolver& slot_of) override {
    connections_ = slot_of("entry/connections");
    circuits_ = slot_of("entry/circuits");
    bytes_ = slot_of("entry/bytes");
  }

  void ingest_span(const tor::event* evs, std::size_t n,
                   std::uint64_t* slab) override {
    for (std::size_t i = 0; i < n; ++i) step(evs[i], slab);
  }

 private:
  void step(const tor::event& ev, std::uint64_t* slab) const {
    const auto& body = ev.body;
    if (std::holds_alternative<tor::entry_connection_event>(body)) {
      ++slab[connections_];
    } else if (std::holds_alternative<tor::entry_circuit_event>(body)) {
      ++slab[circuits_];
    } else if (const auto* d = std::get_if<tor::entry_data_event>(&body)) {
      slab[bytes_] += d->bytes;
    }
  }

  std::size_t connections_ = 0, circuits_ = 0, bytes_ = 0;
};

}  // namespace

std::unique_ptr<privcount::batch_instrument> make_batch_instrument(
    const std::string& name) {
  if (name == "stream_taxonomy") return std::make_unique<batch_stream_taxonomy>();
  if (name == "entry_totals") return std::make_unique<batch_entry_totals>();
  return nullptr;
}

const std::vector<std::string>& instrument_names() {
  static const std::vector<std::string> names{
      "stream_taxonomy", "entry_totals", "rendezvous",
      "tld_histogram",   "domain_sets",  "hsdir_ahmia"};
  return names;
}

privcount::data_collector::instrument instrument_by_name(
    const std::string& name) {
  if (name == "stream_taxonomy") return instrument_stream_taxonomy();
  if (name == "entry_totals") return instrument_entry_totals();
  if (name == "rendezvous") return instrument_rendezvous();
  if (name == "tld_histogram") {
    return instrument_tld_histogram("tld", canonical_tlds(), nullptr,
                                    /*separate_torproject=*/true,
                                    canonical_suffixes());
  }
  if (name == "domain_sets") {
    return instrument_domain_sets("sites", canonical_rank_sets());
  }
  if (name == "hsdir_ahmia") {
    return instrument_hsdir_descriptors(canonical_ahmia());
  }
  throw precondition_error{"unknown instrument: " + name};
}

std::vector<privcount::counter_spec> default_specs_for(
    const std::string& instrument_name) {
  // Sensitivities follow the paper's action bounds (Table 1: 20 domains per
  // user-day, 12 connections, 651 circuits; stream totals bound by
  // 20 domains x ~20 streams). Expected values are magnitude guesses for
  // the equal-relative-noise budget split — operators tune them per round.
  if (instrument_name == "stream_taxonomy") {
    return {{"streams/total", 400.0, 6e4},
            {"streams/initial", 20.0, 3e3},
            {"streams/initial/hostname", 20.0, 3e3},
            {"streams/initial/ipv4", 20.0, 500},
            {"streams/initial/ipv6", 20.0, 500},
            {"streams/initial/hostname/web", 20.0, 3e3},
            {"streams/initial/hostname/other", 20.0, 500}};
  }
  if (instrument_name == "entry_totals") {
    return {{"entry/connections", 12.0, 2e3},
            {"entry/circuits", 651.0, 1.7e4},
            {"entry/bytes", 407e6, 7e9}};
  }
  if (instrument_name == "rendezvous") {
    return {{"rend/circuits", 651.0, 1e4},
            {"rend/succeeded", 651.0, 1e3},
            {"rend/conn-closed", 651.0, 500},
            {"rend/expired", 651.0, 1e4},
            {"rend/cells", 1e6, 1e6}};
  }
  if (instrument_name == "tld_histogram") {
    std::vector<privcount::counter_spec> specs;
    for (const auto& tld : canonical_tlds()) {
      specs.push_back({"tld/" + tld, 20.0, 500});
    }
    specs.push_back({"tld/other", 20.0, 500});
    specs.push_back({"tld/torproject.org", 20.0, 5e3});
    return specs;
  }
  if (instrument_name == "domain_sets") {
    std::vector<privcount::counter_spec> specs;
    for (const auto& set_name : canonical_rank_set_names()) {
      specs.push_back({"sites/" + set_name, 20.0, 1e3});
    }
    specs.push_back({"sites/other", 20.0, 3e3});
    return specs;
  }
  if (instrument_name == "hsdir_ahmia") {
    return {{"hsdir/publishes", 24.0, 2e3},
            {"hsdir/fetch/total", 10.0, 1e3},
            {"hsdir/fetch/success", 10.0, 1e3},
            {"hsdir/fetch/failed", 10.0, 1e3},
            {"hsdir/fetch/success/public", 10.0, 500},
            {"hsdir/fetch/success/unknown", 10.0, 500}};
  }
  throw precondition_error{"unknown instrument: " + instrument_name};
}

const std::vector<std::string>& extractor_names() {
  static const std::vector<std::string> names{
      "client_ip",   "client_country",    "client_asn",
      "primary_sld", "published_address", "fetched_address"};
  return names;
}

psc::data_collector::extractor extractor_by_name(const std::string& name) {
  if (name == "client_ip") return extract_client_ip();
  if (name == "client_country") {
    return extract_client_country(std::make_shared<const workload::geoip_db>(
        workload::geoip_db::make_synthetic()));
  }
  if (name == "client_asn") {
    return extract_client_asn(std::make_shared<const workload::geoip_db>(
        workload::geoip_db::make_synthetic()));
  }
  if (name == "primary_sld") {
    return extract_primary_sld(std::make_shared<const workload::suffix_list>(
                                   workload::suffix_list::embedded()),
                               nullptr);
  }
  if (name == "published_address") return extract_published_address();
  if (name == "fetched_address") return extract_fetched_address();
  throw precondition_error{"unknown extractor: " + name};
}

}  // namespace tormet::core
