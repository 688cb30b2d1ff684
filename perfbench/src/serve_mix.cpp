// serve_mix: one serve::Server::run and four closed-loop clients in one
// process, talking NDJSON through in-memory streams. Each client sends
// its next line only after its reply arrives.
//
// Traffic is organised in epochs. Every client runs the same mix per
// epoch, in its own seeded order: first the four cold explore templates
// (kernels, ranges and policies, protocol layout default) and one
// seeded search, then the warm follow-ups: per template an exact
// repeat, two narrower subset explores and three bound-only reselects,
// plus the search's repeat. Clients share the cold templates, so each
// is computed once per epoch and the other requesters are store hits
// (single-flight waiters or ready hits). Cold work first keeps most
// warm requests off a machine busy with sweeps, so their median
// measures request handling, not CPU contention. At the end of an
// epoch all clients meet at a barrier and one sends "invalidate", so
// every epoch starts cold: the hit share is the same on every run and
// the store counters repeat exactly.
#include <algorithm>
#include <barrier>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "memx/kernels/registry.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/report/result_io.hpp"
#include "memx/search/dominance.hpp"
#include "memx/search/front_io.hpp"
#include "memx/search/nsga.hpp"
#include "memx/serve/json.hpp"
#include "memx/serve/protocol.hpp"
#include "memx/serve/server.hpp"
#include "memx/util/numeric_io.hpp"

namespace perfbench {
namespace {

using memx::serve::JsonValue;

constexpr unsigned kClients = 4;
constexpr unsigned kWorkers = 4;

struct Ranges {
  std::uint32_t maxCache = 0;
  std::uint32_t maxLine = 0;
  std::uint32_t maxAssoc = 0;
  std::uint32_t maxTiling = 0;
};

struct ColdTemplate {
  const char* kernel;
  const char* replacement;
  Ranges ranges;
};

// Distinct kernels, so no template's sweep covers another's.
constexpr ColdTemplate kCold[] = {
    {"compress", "LRU", {1024, 64, 8, 16}},
    {"sor", "FIFO", {512, 32, 4, 8}},
    {"pde", "TreePLRU", {512, 32, 4, 8}},
    {"dequant", "Random", {512, 32, 8, 8}},
};

/// Narrower ranges of a template, each covered by its full sweep.
Ranges subsetRanges(const Ranges& r, unsigned variant) {
  Ranges s = r;
  switch (variant) {
    case 0: s.maxCache /= 2; break;
    case 1: s.maxLine /= 2; break;
    case 2: s.maxAssoc /= 2; break;
    default:
      s.maxCache /= 2;
      s.maxTiling /= 2;
      break;
  }
  return s;
}
constexpr unsigned kSubsets = 4;

constexpr const char* kSelections[] = {
    R"({"metric":"min_energy"})",
    R"({"metric":"min_cycles"})",
    R"({"metric":"min_edp"})",
    R"({"cycle_bound":50000,"metric":"min_energy"})",
    R"({"cycle_bound":500000,"metric":"min_energy"})",
    R"({"energy_bound":20000,"metric":"min_cycles"})",
    R"({"energy_bound":200000,"metric":"min_cycles"})",
    R"({"cycle_bound":200000,"energy_bound":100000,"metric":"min_energy"})",
};

struct SearchTemplate {
  const char* kernel;
  Ranges ranges;
  bool joint;  ///< widen to the joint policy/layout/L2 space
  unsigned pop;
  unsigned gens;
};

constexpr SearchTemplate kSearch[] = {
    {"matadd", {256, 32, 4, 4}, true, 16, 20},
    {"compress", {1024, 64, 8, 16}, false, 16, 20},
};
/// Search seeds come from this pool, each with a ledger entry.
constexpr unsigned kSearchSeeds = 32;

std::string rangesJson(const Ranges& r) {
  return "{\"max_associativity\":" + std::to_string(r.maxAssoc) +
         ",\"max_cache_bytes\":" + std::to_string(r.maxCache) +
         ",\"max_line_bytes\":" + std::to_string(r.maxLine) +
         ",\"max_tiling\":" + std::to_string(r.maxTiling) + "}";
}

/// Request lines without "id" (clients prepend it) and without the
/// opening brace.
std::string exploreBody(const ColdTemplate& t, const Ranges& r,
                        const char* selection) {
  return std::string("\"include_points\":true,\"op\":\"explore\",\"options\":{") +
         "\"ranges\":" + rangesJson(r) + ",\"replacement\":\"" + t.replacement +
         "\"},\"selection\":" + selection + ",\"workload\":\"" + t.kernel + "\"}";
}

std::string searchBody(const SearchTemplate& t, unsigned seedIndex) {
  return std::string("\"include_points\":true,\"op\":\"search\",\"options\":{") +
         "\"ranges\":" + rangesJson(t.ranges) + "},\"search\":{\"gens\":" +
         std::to_string(t.gens) + (t.joint ? ",\"joint\":true" : "") + ",\"pop\":" + std::to_string(t.pop) +
         ",\"seed\":" + std::to_string(seedIndex + 1) + "},\"workload\":\"" +
         t.kernel + "\"}";
}

struct PoolRequest {
  std::string key;   ///< ledger key of the expected reply
  std::string body;  ///< request line minus "{" and id
};

PoolRequest cold(unsigned t) {
  return {"cold/" + std::to_string(t),
          exploreBody(kCold[t], kCold[t].ranges, kSelections[0])};
}
PoolRequest subset(unsigned t, unsigned v) {
  return {"subset/" + std::to_string(t) + '/' + std::to_string(v),
          exploreBody(kCold[t], subsetRanges(kCold[t].ranges, v), kSelections[0])};
}
PoolRequest reselect(unsigned t, unsigned v) {
  return {"reselect/" + std::to_string(t) + '/' + std::to_string(v),
          exploreBody(kCold[t], kCold[t].ranges, kSelections[v])};
}
PoolRequest search(unsigned s, unsigned seedIndex) {
  return {"search/" + std::to_string(s) + '/' + std::to_string(seedIndex),
          searchBody(kSearch[s], seedIndex)};
}

/// Set-up: every client's per-epoch script, "client<TAB>key<TAB>body"
/// per line.
void writeScript(const fs::path& file, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::ofstream out(file);
  std::vector<unsigned> base(std::size(kCold));
  for (unsigned i = 0; i < base.size(); ++i) base[i] = i;
  std::shuffle(base.begin(), base.end(), rng);
  for (unsigned c = 0; c < kClients; ++c) {
    // Client c walks the seeded template order from its own starting
    // point, so the four clients always start on four different cold
    // templates and every seed gives the epoch the same parallelism.
    std::vector<unsigned> order = base;
    std::rotate(order.begin(), order.begin() + c % order.size(), order.end());
    // Every epoch searches each template equally often, whatever the seed.
    const unsigned searchTemplate = c % std::size(kSearch);
    const PoolRequest seeded = search(searchTemplate,
                                      static_cast<unsigned>(rng() % kSearchSeeds));
    std::vector<PoolRequest> script;
    for (const unsigned t : order) script.push_back(cold(t));
    script.push_back(seeded);
    std::vector<PoolRequest> warm{seeded};
    for (const unsigned t : order) {
      std::vector<unsigned> subsets{0, 1, 2, 3};
      std::shuffle(subsets.begin(), subsets.end(), rng);
      std::vector<unsigned> selections{1, 2, 3, 4, 5, 6, 7};
      std::shuffle(selections.begin(), selections.end(), rng);
      warm.insert(warm.end(), {cold(t), subset(t, subsets[0]), subset(t, subsets[1]),
                               reselect(t, selections[0]), reselect(t, selections[1]),
                               reselect(t, selections[2])});
    }
    std::shuffle(warm.begin(), warm.end(), rng);
    script.insert(script.end(), warm.begin(), warm.end());
    for (const PoolRequest& r : script) {
      out << c << '\t' << r.key << '\t' << r.body << '\n';
    }
  }
  if (!out) throw std::runtime_error("cannot write " + file.string());
}

std::vector<std::vector<PoolRequest>> readScript(const fs::path& file) {
  std::ifstream in(file);
  std::vector<std::vector<PoolRequest>> scripts(kClients);
  std::string line;
  while (std::getline(in, line)) {
    const auto a = line.find('\t');
    const auto b = line.find('\t', a + 1);
    if (a == std::string::npos || b == std::string::npos) {
      throw std::runtime_error("bad script line in " + file.string());
    }
    const unsigned c = static_cast<unsigned>(std::stoul(line.substr(0, a)));
    if (c >= kClients) throw std::runtime_error("bad client in " + file.string());
    scripts[c].push_back({line.substr(a + 1, b - a - 1), line.substr(b + 1)});
  }
  for (const auto& s : scripts) {
    if (s.empty()) throw std::runtime_error("empty client script in " + file.string());
  }
  return scripts;
}

/// Digest of a reply's content: everything but the fields that depend
/// on timing or on the request's own flags.
std::string contentDigest(JsonValue reply) {
  auto& object = reply.asObject();
  for (const char* field : {"id", "cached", "subset", "report"}) object.erase(field);
  return digest(reply.dump());
}

memx::serve::Request parsePoolRequest(const PoolRequest& r) {
  return memx::serve::parseRequest(JsonValue::parse("{" + r.body));
}

/// The search a request asks for, with "joint" widened exactly as
/// Server::handleSearch widens it.
memx::search::SearchOptions searchOptionsOf(const memx::serve::Request& r) {
  memx::search::SearchOptions options = r.search;
  if (r.jointSpace) {
    memx::search::DesignSpaceOptions space;
    space.ranges = r.options.ranges;
    space.replacements = {memx::ReplacementPolicy::LRU, memx::ReplacementPolicy::FIFO,
                          memx::ReplacementPolicy::Random,
                          memx::ReplacementPolicy::TreePLRU};
    space.writePolicies = {memx::WritePolicy::WriteBack,
                           memx::WritePolicy::WriteThrough};
    space.sweepLayout = true;
    space.l2CapacityBytes = {4 * space.ranges.maxCacheBytes};
    options.space = space;
  }
  return options;
}

/// Hypervolume reference point and exact-front hypervolume of a search
/// template's space, from an exhaustive search.
std::array<double, 4> searchTruth(unsigned s) {
  const memx::serve::Request request = parsePoolRequest(search(s, 0));
  memx::search::SearchOptions exhaustive = searchOptionsOf(request);
  exhaustive.maxEvaluations = std::uint64_t{1} << 40;
  const memx::search::SearchResult truth =
      memx::Explorer(request.options)
          .searchPareto(memx::registeredKernel(request.workload), exhaustive);
  if (!truth.exact) throw std::runtime_error("exhaustive search was not exact");
  memx::search::Objectives ref{0, 0, 0};
  std::vector<memx::search::Objectives> objectives;
  for (const auto& p : truth.front) {
    objectives.push_back(p.objectives);
    for (std::size_t i = 0; i < 3; ++i) ref[i] = std::max(ref[i], p.objectives[i] * 1.1);
  }
  return {ref[0], ref[1], ref[2], memx::search::hypervolume(objectives, ref)};
}

/// Blocking istream buffer fed one line at a time by the clients.
class LineFeed final : public std::streambuf {
public:
  void push(std::string line) {
    {
      const std::lock_guard lock(mutex_);
      queue_.push_back(std::move(line) + '\n');
    }
    ready_.notify_one();
  }
  void close() {
    {
      const std::lock_guard lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

protected:
  int_type underflow() override {
    std::unique_lock lock(mutex_);
    ready_.wait(lock, [&] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return traits_type::eof();
    current_ = std::move(queue_.front());
    queue_.pop_front();
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(*gptr());
  }

private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::string> queue_;
  bool closed_ = false;
  std::string current_;  ///< only touched by the reading thread
};

/// A client's reply slot.
struct Mailbox {
  std::mutex mutex;
  std::condition_variable ready;
  std::optional<std::string> line;
  Clock::time_point received;

  void deliver(std::string reply) {
    {
      const std::lock_guard lock(mutex);
      line = std::move(reply);
      received = Clock::now();
    }
    ready.notify_one();
  }
  std::string take(Clock::time_point& at) {
    std::unique_lock lock(mutex);
    ready.wait(lock, [&] { return line.has_value(); });
    std::string out = std::move(*line);
    line.reset();
    at = received;
    return out;
  }
};

/// ostream buffer that routes each complete reply line to the mailbox
/// named by its id ("r<client>.<n>"; "ctl" for the control client).
class ReplySink final : public std::streambuf {
public:
  explicit ReplySink(std::vector<Mailbox>& boxes) : boxes_(boxes) {}

protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return ch;
    put(traits_type::to_char_type(ch));
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

private:
  void put(char c) {
    if (c != '\n') {
      pending_.push_back(c);
      return;
    }
    std::size_t box = boxes_.size() - 1;  // control / unroutable
    const auto at = pending_.find("\"id\":\"r");
    if (at != std::string::npos) {
      box = static_cast<std::size_t>(std::strtoul(pending_.c_str() + at + 7, nullptr, 10));
      if (box >= boxes_.size()) box = boxes_.size() - 1;
    }
    boxes_[box].deliver(std::move(pending_));
    pending_.clear();
  }

  std::vector<Mailbox>& boxes_;
  std::string pending_;
};

/// What one reply of a pool key contributes; fixed per key because its
/// content is checked against the ledger.
struct Facts {
  double points = 0.0;
  double refs = 0.0;
  double hv = -1.0;  ///< search replies only
};

struct Sample {
  std::size_t epoch = 0;
  double latency = 0.0;
  double queueWait = -1.0;  ///< traced phase only
  double overhead = -1.0;   ///< traced phase only
};

/// Shared state of one phase: a Server plus its clients.
class Phase {
public:
  Phase(const Args& args, const std::vector<std::vector<PoolRequest>>& scripts,
        Ledger& ledger, Result& result, bool traced)
      : args_(args), scripts_(scripts), ledger_(ledger), result_(result),
        traced_(traced), boxes_(kClients + 1), sink_(boxes_) {}

  /// Run `epochs` epochs (0 = until the time budget is spent).
  void run(unsigned epochs);

  std::vector<Sample> samples;
  std::vector<double> epochSec;
  /// probeSeconds() before the first epoch and after each one.
  std::vector<double> probes;
  double points = 0.0;
  double refs = 0.0;
  std::vector<double> searchHv;
  memx::serve::ResultStore::Counters store;
  std::uint64_t errors = 0;
  /// Served CSV of the first reply per pool key (for direct-call checks).
  std::map<std::string, std::string> firstCsv;

private:
  void client(unsigned c);
  void handleReply(unsigned c, const PoolRequest& request, const std::string& line,
                   double latency, const std::string& id, Sample& sample);
  bool epochDone() noexcept;

  const Args& args_;
  const std::vector<std::vector<PoolRequest>>& scripts_;
  Ledger& ledger_;
  Result& result_;
  bool traced_;
  unsigned targetEpochs_ = 0;
  std::vector<Mailbox> boxes_;
  ReplySink sink_;
  LineFeed feed_;
  std::mutex mutex_;  ///< guards everything below and the public tallies
  std::map<std::string, Facts> facts_;
  std::map<std::string, Clock::time_point> started_;  ///< id -> onJobStart
  bool stop_ = false;
  Clock::time_point phaseStart_;
  Clock::time_point epochStart_;
};

bool Phase::epochDone() noexcept {
  try {
    const double sec = secondsSince(epochStart_);
    epochSec.push_back(sec);
    probes.push_back(probeSeconds());  // all clients wait at the barrier
    const double elapsed = secondsSince(phaseStart_);
    stop_ = targetEpochs_ > 0
                ? epochSec.size() >= targetEpochs_
                : elapsed + elapsed / static_cast<double>(epochSec.size()) > args_.seconds;
    if (!stop_) {
      feed_.push(R"({"id":"ctl","op":"invalidate"})");
      Clock::time_point at;
      const std::string reply = boxes_[kClients].take(at);
      if (reply.find("\"ok\":true") == std::string::npos) {
        result_.fail("invalidate failed: " + reply);
      }
      epochStart_ = Clock::now();
    }
  } catch (const std::exception& e) {
    result_.fail(std::string("epoch barrier: ") + e.what());
    stop_ = true;
  }
  return stop_;
}

void Phase::run(unsigned epochs) {
  targetEpochs_ = epochs;
  memx::serve::ServerOptions options;
  options.workers = kWorkers;
  if (traced_) {
    options.onJobStart = [this](const memx::serve::Request& request) {
      const auto now = Clock::now();
      if (!request.id.isString()) return;
      const std::lock_guard lock(mutex_);
      started_[request.id.asString()] = now;
    };
  }
  memx::serve::Server server(options);
  std::istream in(&feed_);
  std::ostream out(&sink_);
  std::thread serving([&] {
    try {
      server.run(in, out);
    } catch (const std::exception& e) {
      const std::lock_guard lock(mutex_);
      result_.fail(std::string("server: ") + e.what());
    }
  });

  auto completion = [this]() noexcept { epochDone(); };
  std::barrier sync(static_cast<std::ptrdiff_t>(kClients), completion);
  phaseStart_ = Clock::now();
  probes.push_back(probeSeconds());
  epochStart_ = Clock::now();
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, &sync] {
      try {
        for (;;) {
          client(c);
          sync.arrive_and_wait();
          if (stop_) break;
        }
      } catch (const std::exception& e) {
        {
          const std::lock_guard lock(mutex_);
          result_.fail("client " + std::to_string(c) + ": " + e.what());
        }
        sync.arrive_and_drop();  // the other clients carry on
      }
    });
  }
  for (std::thread& t : clients) t.join();
  feed_.close();
  serving.join();
  store = server.store().counters();
  errors = server.stats().responsesError.load();
}

void Phase::client(unsigned c) {
  std::vector<Sample> local;
  unsigned n = 0;
  for (const PoolRequest& request : scripts_[c]) {
    const std::string id = "r" + std::to_string(c) + "." + std::to_string(n++) +
                           "." + std::to_string(epochSec.size());
    std::string line = "{\"id\":\"" + id + "\"," +
                       (traced_ ? "\"include_report\":true," : "") + request.body;
    const auto sent = Clock::now();
    feed_.push(std::move(line));
    Clock::time_point received;
    const std::string reply = boxes_[c].take(received);
    Sample sample;
    sample.epoch = epochSec.size();
    sample.latency = std::chrono::duration<double>(received - sent).count();
    if (traced_) {
      const std::lock_guard lock(mutex_);
      const auto it = started_.find(id);
      if (it != started_.end()) {
        sample.queueWait = std::chrono::duration<double>(it->second - sent).count();
        started_.erase(it);
      }
    }
    handleReply(c, request, reply, sample.latency, id, sample);
    local.push_back(sample);
  }
  const std::lock_guard lock(mutex_);
  samples.insert(samples.end(), local.begin(), local.end());
}

void Phase::handleReply(unsigned c, const PoolRequest& request,
                        const std::string& line, double latency,
                        const std::string& id, Sample& sample) {
  {
    const std::lock_guard lock(mutex_);
    result_.attempt();
  }
  try {
    JsonValue reply = JsonValue::parse(line);
    const auto& object = reply.asObject();
    if (object.at("id").asString() != id || !object.at("ok").asBool()) {
      const std::lock_guard lock(mutex_);
      result_.fail("client " + std::to_string(c) + " " + request.key + ": " +
                   line.substr(0, 300));
      return;
    }
    if (traced_) {
      double compute = 0.0;
      for (const JsonValue& phase : object.at("report").asObject().at("phases").asArray()) {
        const std::string& name = phase.asObject().at("name").asString();
        if (name == "serve.compute" || name == "serve.reselect") {
          compute += phase.asObject().at("total_seconds").asNumber();
        }
      }
      sample.overhead = latency - compute;
    }
    const std::string csv = object.at("csv").asString();
    const bool isSearch = object.at("op").asString() == "search";
    const double count = object.at(isSearch ? "front" : "points").asNumber();
    const std::string got = contentDigest(std::move(reply));
    const std::lock_guard lock(mutex_);
    if (!ledger_.check(request.key, got)) {
      result_.fail("client " + std::to_string(c) + " " + request.key +
                   ": reply content digest differs");
      return;
    }
    auto [it, fresh] = facts_.try_emplace(request.key);
    if (fresh) {
      firstCsv[request.key] = csv;
      it->second.points = count;
      if (isSearch) {
        std::istringstream in(csv);
        std::vector<memx::search::Objectives> objectives;
        for (const auto& row : memx::search::readFrontCsv(in)) {
          objectives.push_back(row.objectives);
        }
        // "search/<template>/<seed>" -> "hv/search/<template>"
        const std::optional<std::string> truth =
            ledger_.get("hv/" + request.key.substr(0, request.key.rfind('/')));
        std::array<double, 4> t{};
        if (truth) {
          std::istringstream ts(*truth);
          ts >> t[0] >> t[1] >> t[2] >> t[3];
        }
        it->second.hv = t[3] > 0 ? memx::search::hypervolume(
                                       objectives, {t[0], t[1], t[2]}) / t[3]
                                 : 0.0;
      } else {
        it->second.refs = referencesOf(memx::fromCsvString(csv));
      }
    }
    points += it->second.points;
    refs += it->second.refs;
    if (it->second.hv >= 0) searchHv.push_back(it->second.hv);
  } catch (const std::exception& e) {
    const std::lock_guard lock(mutex_);
    result_.fail("client " + std::to_string(c) + " " + request.key + ": " + e.what());
  }
}

void recordLedger(Ledger& ledger) {
  memx::serve::Server server;
  const auto put = [&](const PoolRequest& r) {
    const std::string reply = server.handleLine("{\"id\":\"rec\"," + r.body);
    JsonValue value = JsonValue::parse(reply);
    if (!value.asObject().at("ok").asBool()) {
      throw std::runtime_error("pool request " + r.key + " failed: " + reply);
    }
    ledger.check(r.key, contentDigest(std::move(value)));
  };
  for (unsigned t = 0; t < std::size(kCold); ++t) {
    put(cold(t));
    for (unsigned v = 0; v < kSubsets; ++v) put(subset(t, v));
    for (unsigned v = 0; v < std::size(kSelections); ++v) put(reselect(t, v));
  }
  for (unsigned s = 0; s < std::size(kSearch); ++s) {
    const std::array<double, 4> t = searchTruth(s);
    ledger.check("hv/search/" + std::to_string(s),
                 memx::formatDouble17(t[0]) + ' ' + memx::formatDouble17(t[1]) +
                     ' ' + memx::formatDouble17(t[2]) + ' ' +
                     memx::formatDouble17(t[3]));
    for (unsigned i = 0; i < kSearchSeeds; ++i) put(search(s, i));
  }
}

/// Compare served CSVs with the same direct library calls: the first
/// cold template and the first search of client 0's script.
void checkAgainstDirect(const std::vector<std::vector<PoolRequest>>& scripts,
                        const Phase& phase, Result& result) {
  std::optional<PoolRequest> explore;
  std::optional<PoolRequest> search;
  for (const PoolRequest& r : scripts[0]) {
    if (!explore && r.key.rfind("cold/", 0) == 0) explore = r;
    if (!search && r.key.rfind("search/", 0) == 0) search = r;
  }
  const auto served = [&](const PoolRequest& r) -> std::optional<std::string> {
    const auto it = phase.firstCsv.find(r.key);
    if (it == phase.firstCsv.end()) return std::nullopt;
    return it->second;
  };
  if (explore && served(*explore)) {
    result.attempt();
    const memx::serve::Request req = parsePoolRequest(*explore);
    const std::string direct = memx::toCsvString(
        memx::Explorer(req.options).explore(memx::registeredKernel(req.workload)));
    if (direct != *served(*explore)) {
      result.fail("served " + explore->key + " CSV differs from Explorer::explore");
    }
  }
  if (search && served(*search)) {
    result.attempt();
    const memx::serve::Request req = parsePoolRequest(*search);
    const memx::search::SearchResult r =
        memx::Explorer(req.options)
            .searchPareto(memx::registeredKernel(req.workload), searchOptionsOf(req));
    std::vector<memx::search::FrontRow> rows;
    for (const auto& p : r.front) rows.push_back(memx::search::toFrontRow(r.workload, p));
    std::ostringstream csv;
    memx::search::writeFrontCsv(csv, rows);
    if (csv.str() != *served(*search)) {
      result.fail("served " + search->key + " front differs from searchPareto");
    }
  }
}

/// One epoch's distinct compute, re-driven through the public calls with
/// a timer around each: the cold explores through the sweep primitives
/// and toCsvString, the searches through Explorer::searchPareto.
void directReplay(const Args& args,
                  const std::vector<std::vector<PoolRequest>>& scripts,
                  Layers& layers) {
  std::map<std::string, PoolRequest> distinct;
  for (const auto& script : scripts) {
    for (const PoolRequest& r : script) {
      if (r.key.rfind("cold/", 0) == 0 || r.key.rfind("search/", 0) == 0) {
        distinct.emplace(r.key, r);
      }
    }
  }
  memx::obs::Recorder recorder;
  const auto start = Clock::now();
  for (const auto& [key, pool] : distinct) {
    const memx::serve::Request req = parsePoolRequest(pool);
    const memx::Kernel kernel = memx::registeredKernel(req.workload);
    memx::Explorer explorer(req.options);
    explorer.setRecorder(&recorder);
    if (req.op == memx::serve::RequestOp::Search) {
      const LayerSpan span(layers, "search.run_s", &recorder);
      static_cast<void>(explorer.searchPareto(kernel, searchOptionsOf(req)));
      continue;
    }
    const memx::ExplorationResult r = tracedSweep(explorer, kernel, layers);
    const LayerSpan span(layers, "report.csv_s", &recorder);
    static_cast<void>(memx::toCsvString(r));
  }
  finishLayers(layers, recorder, 1.0, secondsSince(start));
  const memx::obs::RunReport report = recorder.report();
  layers.set("search.evals", static_cast<double>(report.counter("search.evals")));
  layers.set("search.generations",
             static_cast<double>(report.counter("search.generations")));
  const auto* run = report.phase("search.run");
  const auto* batch = report.phase("search.evaluate_batch");
  if (run != nullptr && batch != nullptr && run->totalSec > 0) {
    layers.set("search.eval_share", batch->totalSec / run->totalSec);
  }
  writeChromeTrace(args, recorder);
}

}  // namespace

int runServeMix(const Args& args, Result& result) {
  const fs::path dir = kWorkDir / "serve_mix";
  fs::create_directories(dir);
  const fs::path scriptFile = dir / "requests.tsv";
  Ledger ledger(kExpectedDir / "serve_mix.tsv", args.record);
  if (args.record) {
    recordLedger(ledger);
    ledger.save();
    return 0;
  }
  EndToEnd e2e;
  e2e.setupSec = timedSetup([&] { writeScript(scriptFile, args.seed); });
  const auto scripts = readScript(scriptFile);

  if (!args.trace) {
    Phase phase(args, scripts, ledger, result, false);
    phase.run(args.ops);
    // Every epoch carries the same requests, so each gets an equal share
    // of the run's work; it is calibrated by the probes around it.
    const double epochs = static_cast<double>(phase.epochSec.size());
    for (std::size_t e = 0; e < phase.epochSec.size(); ++e) {
      e2e.ops.push_back({phase.epochSec[e],
                         calibration(phase.probes[e], phase.probes[e + 1]),
                         phase.points / epochs, phase.refs / epochs,
                         static_cast<double>(phase.samples.size()) / epochs});
    }
    for (const Sample& s : phase.samples) {
      e2e.requestSec.push_back(s.latency * e2e.ops[s.epoch].scale);
    }
    double hv = 0.0;
    for (const double h : phase.searchHv) hv += h;
    e2e.hypervolume = phase.searchHv.empty() ? 0.0 : hv / static_cast<double>(phase.searchHv.size());
    std::ostringstream os;
    os << "epochs " << phase.epochSec.size() << "; store hits " << phase.store.hits
       << " subset " << phase.store.subsetHits << " misses " << phase.store.misses;
    result.note(os.str());
    checkAgainstDirect(scripts, phase, result);
    reportEndToEnd(e2e, result);
    return 0;
  }

  const unsigned epochs = args.ops > 0 ? args.ops : 3;
  Phase untraced(args, scripts, ledger, result, false);
  untraced.run(epochs);
  Phase traced(args, scripts, ledger, result, true);
  traced.run(epochs);
  Layers layers;
  std::vector<double> waits;
  std::vector<double> overheads;
  for (const Sample& s : traced.samples) {
    if (s.queueWait >= 0) waits.push_back(s.queueWait * 1e3);
    if (s.overhead >= 0) overheads.push_back(s.overhead * 1e3);
  }
  layers.set("serve.queue_wait_ms", median(waits));
  layers.set("serve.overhead_ms", median(overheads));
  const auto& st = traced.store;
  const double hits = static_cast<double>(st.hits + st.subsetHits);
  layers.set("serve.store_hit_ratio", hits / std::max(1.0, hits + static_cast<double>(st.misses)));
  layers.set("serve.errors", static_cast<double>(traced.errors + untraced.errors));
  layers.set("obs.overhead_ratio", median(traced.epochSec) / median(untraced.epochSec));
  directReplay(args, scripts, layers);
  layers.report(result);
  return 0;
}

}  // namespace perfbench
