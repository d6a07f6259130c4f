// perfbench: one benchmark for the monitor pipeline, end to end and per
// layer.  It drives the chain netqre-monitor composes, through the library's
// public functions only:
//
//   capture (MappedPcapReader::fill, 1024-packet batches)
//     -> QuerySet::on_batch / ParallelQuerySet::feed
//     -> sampling round at every second of capture time, and once at the end:
//          snapshot -> SeriesStore::ingest -> HealthEngine::evaluate
//          -> store::render_push -> store::apply_push into a parent store
//
// Each layer is timed from outside, around the calls into it.  Every pass
// checks its results against reference computations made here, straight
// from the generated packets and the meaning of the query text.  See
// README.md for the workloads, the metrics and the known faults.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --cache DIR
//
// The capture for (workload, seed) is generated into DIR when missing or
// stale.  The
// last line of stdout is the JSON result; tables and diagnostics go to
// stderr.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <new>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "apps/queryset_admin.hpp"
#include "netqre.hpp"
#include "obs/health.hpp"
#include "store/series_store.hpp"
#include "store/stream.hpp"
#include "trafficgen/trafficgen.hpp"

// ---- heap allocation count (this binary only) -------------------------------
// Counted per thread, so the capture thread's count is the allocations made
// during its own calls (fill, on_batch, feed).
namespace {
thread_local uint64_t t_allocs = 0;
}  // namespace

void* operator new(size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace {

using namespace netqre;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---- workloads --------------------------------------------------------------

struct Tenant {
  std::string file;  // shipped query file; also the tenant's name in the set
  std::string main;  // entry sfun; also the tenant's label in metric names
};

enum class CaptureKind { Backbone, Attack };

struct Workload {
  std::string name;
  CaptureKind capture;
  std::vector<Tenant> tenants;
  // 0 = one QuerySet on the capture thread.  The sharded workload runs 2
  // workers, so with the dispatcher it keeps 3 threads and one core of 4
  // spare: with 4 busy threads a slow spell of the shared host slowed it by
  // up to a third (README.md, "Run-to-run drift").
  int workers;
  uint32_t store_keys;  // per-context key budget of both stores
  std::string rules;    // .health text loaded after the built-in rules
};

// Backbone mix: Zipf 1.1 over 30k flows and the paper's 888 B mean frame, at
// 200 kpps for 3 s of capture (README.md, "Why these sizes").  Written
// full-frame (incl_len == orig_len) so ingest copies real payload bytes.
constexpr uint64_t kBackbonePackets = 600'000;
constexpr uint32_t kBackboneFlows = 30'000;
constexpr double kBackboneSkew = 1.1;
constexpr double kBackbonePps = 200'000;
constexpr double kBackboneStart = 1000.0;

// Attack mix: SYN flood (benign + half-open handshakes) and Slowloris
// (normal bursts + trickling attackers) against one server, over 10 s.
constexpr uint32_t kBenignHandshakes = 10'000;
constexpr uint32_t kAttackHandshakes = 30'000;
constexpr uint32_t kNormalConns = 1'000;
constexpr uint32_t kSlowConns = 3'000;
constexpr double kAttackSeconds = 10.0;
constexpr double kAttackStart = 1000.0;

// Part of every cached capture's name, with the constants above: bump it
// when the generators or fill_frame change what a capture holds.
constexpr int kCaptureVersion = 1;

// Checks that fail today because of faults in the program (README.md, "Known
// faults").  They count in `failed`; any other failed check makes the run
// incorrect.
const std::set<std::string> kKnownFaults = {
    "heavy_flows_critical",     // store eviction + `key: *` admission order
    "result.total_bytes",       // sharded scalars come out per shard
    "result.recent_new_conns",  // recent(t) is dropped on the load path
};

// The daemon's heavy-hitter threshold (heavy_hitter.nqre: hh > 1000000),
// watched per key by a `key: *` rule.
constexpr double kHeavyBytes = 1'000'000;
constexpr const char* kTopTalkerRule =
    "alarm: top_talkers\n"
    "on: heavy_hitter.nqre\n"
    "key: *\n"
    "lookup: max -60s\n"
    "crit: > 1000000\n"
    "info: a (src,dst) flow moved more than 1 MB\n";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Workload make_workload(const std::string& name) {
  if (name == "backbone-tenants") {
    return {name,
            CaptureKind::Backbone,
            {{"heavy_hitter.nqre", "hh"},
             {"super_spreader.nqre", "ss"},
             {"entropy.nqre", "src_pkts"},
             {"flow_size_dist.nqre", "flow_pkts"}},
            0,
            1024,
            kTopTalkerRule};
  }
  if (name == "attack-mix") {
    return {name,
            CaptureKind::Attack,
            {{"syn_flood.nqre", "incomplete_total"},
             {"new_conns.nqre", "recent_new_conns"},
             {"slowloris.nqre", "avg_rate"},
             {"dup_acks.nqre", "dup_acks"}},
            0,
            1u << 20,
            read_file("queries/syn_flood.health")};
  }
  if (name == "backbone-sharded") {
    return {name,
            CaptureKind::Backbone,
            {{"heavy_hitter.nqre", "hh"},
             {"super_spreader.nqre", "ss"},
             {"count_traffic.nqre", "total_bytes"}},
            2,
            1u << 20,
            ""};
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

// ---- reference computations -------------------------------------------------
// Written from the packets as generated and from the pcap format (µs
// timestamps, orig_len as the packet length), not from the program.

std::string ip_str(uint32_t ip) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", ip >> 24, (ip >> 16) & 0xff,
                (ip >> 8) & 0xff, ip & 0xff);
  return buf;
}

constexpr uint32_t kTcpHeaders = 14 + 20 + 20;  // Ethernet + IPv4 + TCP
constexpr uint32_t kUdpHeaders = 14 + 20 + 8;

uint32_t headers_of(const net::Packet& p) {
  return p.proto == net::Proto::Udp ? kUdpHeaders : kTcpHeaders;
}

// The `len` a reader sees: the record's orig_len, never below the frame.
uint32_t captured_len(const net::Packet& p) {
  return std::max<uint32_t>(
      p.wire_len, headers_of(p) + static_cast<uint32_t>(p.payload.size()));
}

// The timestamp a reader sees: whole seconds plus rounded microseconds.
double captured_ts(double ts) {
  uint64_t sec = static_cast<uint64_t>(ts);
  uint64_t usec = static_cast<uint64_t>(
      std::llround((ts - static_cast<double>(sec)) * 1e6));
  if (usec >= 1'000'000) {
    sec += 1;
    usec -= 1'000'000;
  }
  return static_cast<double>(sec) + static_cast<double>(usec) * 1e-6;
}

using ResultMap = std::map<std::string, double>;

struct Reference {
  uint64_t packets = 0;
  double first_ts = 0;
  double last_ts = 0;
  std::map<std::string, ResultMap> results;  // by tenant main
  // backbone: flows over the heavy-hitter threshold ("src,dst" keys)
  std::vector<std::string> heavy_flows;
  // attack: bounds on recent(5) >> new_conns (see run_checks)
  double recent_low = 0;
  double recent_high = 0;
};

struct BackboneRef {
  // (src << 32 | dst) -> (bytes, packets)
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> flows;
  uint64_t total_bytes = 0;
  uint64_t packets = 0;
  double first_ts = 0, last_ts = 0;

  void add(const net::Packet& p) {
    auto& f = flows[(uint64_t{p.src_ip} << 32) | p.dst_ip];
    const uint32_t len = captured_len(p);
    f.first += len;
    f.second += 1;
    total_bytes += len;
    if (packets == 0) first_ts = captured_ts(p.ts);
    last_ts = captured_ts(p.ts);
    ++packets;
  }

  Reference finish() const {
    Reference r;
    r.packets = packets;
    r.first_ts = first_ts;
    r.last_ts = last_ts;
    ResultMap& hh = r.results["hh"];
    ResultMap& flow_pkts = r.results["flow_pkts"];
    ResultMap& ss = r.results["ss"];
    ResultMap& src_pkts = r.results["src_pkts"];
    std::unordered_map<uint32_t, std::pair<uint64_t, uint64_t>> by_src;
    for (const auto& [k, f] : flows) {
      const uint32_t src = static_cast<uint32_t>(k >> 32);
      const std::string key =
          ip_str(src) + "," + ip_str(static_cast<uint32_t>(k));
      hh[key] = static_cast<double>(f.first);
      flow_pkts[key] = static_cast<double>(f.second);
      if (static_cast<double>(f.first) > kHeavyBytes) {
        r.heavy_flows.push_back(key);
      }
      by_src[src].first += 1;  // distinct destinations
      by_src[src].second += f.second;
    }
    for (const auto& [src, s] : by_src) {
      ss[ip_str(src)] = static_cast<double>(s.first);
      src_pkts[ip_str(src)] = static_cast<double>(s.second);
    }
    r.results["total_bytes"]["value"] = static_cast<double>(total_bytes);
    std::sort(r.heavy_flows.begin(), r.heavy_flows.end());
    return r;
  }
};

// A TCP connection in NetQRE's Conn sense: both directions, keyed by the
// smaller (ip, port) endpoint first.
struct ConnKey {
  uint32_t a_ip, b_ip;
  uint16_t a_port, b_port;
  bool operator==(const ConnKey&) const = default;
};
struct ConnHash {
  size_t operator()(const ConnKey& c) const {
    const uint64_t ips = uint64_t{c.a_ip} << 32 | c.b_ip;
    const uint64_t ports = uint64_t{c.a_port} << 16 | c.b_port;
    return std::hash<uint64_t>()(ips ^ ports * 0x9e3779b97f4a7c15ull);
  }
};

ConnKey conn_of(const net::Packet& p) {
  if (std::pair(p.src_ip, p.src_port) <= std::pair(p.dst_ip, p.dst_port)) {
    return {p.src_ip, p.dst_ip, p.src_port, p.dst_port};
  }
  return {p.dst_ip, p.src_ip, p.dst_port, p.src_port};
}

std::string conn_str(const ConnKey& c) {
  return ip_str(c.a_ip) + ":" + std::to_string(c.a_port) + "<->" +
         ip_str(c.b_ip) + ":" + std::to_string(c.b_port);
}

Reference attack_reference(const std::vector<net::Packet>& pkts) {
  Reference r;
  r.packets = pkts.size();
  r.first_ts = captured_ts(pkts.front().ts);
  r.last_ts = captured_ts(pkts.back().ts);
  struct Conn {
    std::vector<const net::Packet*> pkts;
  };
  std::unordered_map<ConnKey, Conn, ConnHash> conns;
  std::vector<ConnKey> order;
  for (const auto& p : pkts) {
    if (p.proto != net::Proto::Tcp) continue;
    auto [it, fresh] = conns.try_emplace(conn_of(p));
    if (fresh) order.push_back(it->first);
    it->second.pkts.push_back(&p);
  }

  // Every keyed query below is a sum over `Conn c`; a snapshot emits one
  // row per connection (the value under the sum), and alarms aggregate it.
  // syn_flood: a (SYN seq x, later SYN-ACK seq y ackno x+1) pair counts when
  // no packet after that SYN-ACK acknowledges y+1.
  // new_conns: 1 for a connection with a SYN (syn, no ack); recent(5) keeps
  // the last 5 s of capture.
  // dup_acks: the ackno values carried by two or more ACKs.
  // slowloris: bytes / (last - first timestamp), undefined for a zero
  // duration; summed and divided by the connection count.
  double total_rate = 0;
  const double end = r.last_ts;
  ResultMap& incomplete = r.results["incomplete_total"];
  ResultMap& dup = r.results["dup_acks"];
  for (const ConnKey& key : order) {
    const auto& cp = conns[key].pkts;
    std::set<std::pair<uint32_t, uint32_t>> open_pairs;
    for (size_t i = 0; i < cp.size(); ++i) {
      const net::Packet& s = *cp[i];
      if (!(s.syn() && !s.ack())) continue;
      for (size_t j = i + 1; j < cp.size(); ++j) {
        const net::Packet& sa = *cp[j];
        if (!(sa.syn() && sa.ack() && sa.ack_no == s.seq + 1)) continue;
        bool acked = false;
        for (size_t k = j + 1; k < cp.size() && !acked; ++k) {
          acked = cp[k]->ack() && cp[k]->ack_no == sa.seq + 1;
        }
        if (!acked) open_pairs.emplace(s.seq, sa.seq);
      }
    }
    const std::string name = conn_str(key);
    incomplete[name] = static_cast<double>(open_pairs.size());

    double last_syn = -1;
    std::map<uint32_t, int> acks;
    uint64_t bytes = 0;
    for (const net::Packet* p : cp) {
      if (p->syn() && !p->ack()) last_syn = captured_ts(p->ts);
      if (p->ack()) ++acks[p->ack_no];
      bytes += captured_len(*p);
    }
    if (last_syn > end - 5.0) r.recent_high += 1;
    if (last_syn > end - 5.0 + 5.0 / 8) r.recent_low += 1;
    int dups = 0;
    for (const auto& [y, n] : acks) dups += n >= 2 ? 1 : 0;
    dup[name] = dups;
    const double duration =
        captured_ts(cp.back()->ts) - captured_ts(cp.front()->ts);
    if (duration != 0) total_rate += static_cast<double>(bytes) / duration;
  }
  r.results["avg_rate"]["value"] =
      total_rate / static_cast<double>(order.size());
  return r;
}

// ---- capture generation -----------------------------------------------------

trafficgen::BackboneConfig backbone_config(uint64_t seed) {
  trafficgen::BackboneConfig cfg;
  cfg.n_packets = kBackbonePackets;
  cfg.n_flows = kBackboneFlows;
  cfg.zipf_skew = kBackboneSkew;
  cfg.pps = kBackbonePps;
  cfg.seed = seed;
  cfg.start_ts = kBackboneStart;
  return cfg;
}

// Gives a backbone packet its full frame: payload up to the wire length.
void fill_frame(net::Packet& p) {
  const uint32_t headers = headers_of(p);
  p.payload.assign(p.wire_len > headers ? p.wire_len - headers : 0, 'x');
}

std::vector<net::Packet> attack_packets(uint64_t seed) {
  trafficgen::SynFloodConfig sf;
  sf.benign_handshakes = kBenignHandshakes;
  sf.attack_handshakes = kAttackHandshakes;
  sf.duration = kAttackSeconds;
  sf.seed = seed * 2 + 1;
  trafficgen::SlowlorisConfig sl;
  sl.normal_conns = kNormalConns;
  sl.slow_conns = kSlowConns;
  sl.duration = kAttackSeconds;
  sl.seed = seed * 2 + 2;
  std::vector<net::Packet> out = trafficgen::syn_flood_trace(sf);
  auto slow = trafficgen::slowloris_trace(sl);
  out.insert(out.end(), std::make_move_iterator(slow.begin()),
             std::make_move_iterator(slow.end()));
  std::stable_sort(out.begin(), out.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.ts < b.ts;
                   });
  for (auto& p : out) p.ts += kAttackStart;
  return out;
}

struct Capture {
  std::string path;
  Reference ref;
  double gen_s = 0;  // 0 when the cached file was reused
};

// The generator parameters a capture depends on, hashed (FNV-1a) into its
// file name, so a capture made under other parameters is never reused.
std::string capture_tag(CaptureKind kind) {
  std::ostringstream params;
  params << kCaptureVersion << ' ';
  if (kind == CaptureKind::Backbone) {
    params << "backbone " << kBackbonePackets << ' ' << kBackboneFlows << ' '
           << kBackboneSkew << ' ' << kBackbonePps << ' ' << kBackboneStart;
  } else {
    params << "attack " << kBenignHandshakes << ' ' << kAttackHandshakes << ' '
           << kNormalConns << ' ' << kSlowConns << ' ' << kAttackSeconds << ' '
           << kAttackStart;
  }
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : params.str()) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// Bytes PcapWriter writes for `p`: a record header and the encoded frame.
uint64_t record_bytes(const net::Packet& p) {
  return 16 + headers_of(p) + p.payload.size();
}

// Keeps one capture per kind in the cache: a new seed replaces the old file.
// A cached file whose size differs from what the generated packets make is
// stale and is remade.
Capture prepare_capture(CaptureKind kind, uint64_t seed,
                        const fs::path& cache) {
  fs::create_directories(cache);
  const std::string kind_name =
      kind == CaptureKind::Backbone ? "backbone" : "attack";
  const fs::path path = cache / (kind_name + "-" + capture_tag(kind) + "-" +
                                 std::to_string(seed) + ".pcap");
  const bool cached = fs::exists(path);
  if (!cached) {
    for (const auto& e : fs::directory_iterator(cache)) {
      const std::string f = e.path().filename().string();
      if (f.rfind(kind_name, 0) == 0 && e.path().extension() == ".pcap") {
        fs::remove(e.path());
      }
    }
  }
  const int64_t t0 = now_ns();
  Capture c;
  c.path = path.string();
  std::unique_ptr<net::PcapWriter> writer;
  const fs::path tmp = path.string() + ".tmp";
  if (!cached) writer = std::make_unique<net::PcapWriter>(tmp.string());
  uint64_t file_bytes = 24;  // the pcap global header
  if (kind == CaptureKind::Backbone) {
    trafficgen::BackboneStream stream(backbone_config(seed));
    BackboneRef ref;
    for (uint64_t i = 0; i < stream.size(); ++i) {
      net::Packet p = stream.packet(i);
      fill_frame(p);
      ref.add(p);
      file_bytes += record_bytes(p);
      if (writer) writer->write_packet(p);
    }
    c.ref = ref.finish();
  } else {
    const auto pkts = attack_packets(seed);
    for (const auto& p : pkts) {
      file_bytes += record_bytes(p);
      if (writer) writer->write_packet(p);
    }
    c.ref = attack_reference(pkts);
  }
  if (cached && fs::file_size(path) != file_bytes) {
    fs::remove(path);
    return prepare_capture(kind, seed, cache);
  }
  if (writer) {
    writer->flush();
    writer.reset();
    // Write the capture back to disk now, so the write-back does not run
    // during the timed passes.
    const int fd = ::open(tmp.c_str(), O_RDONLY);
    if (fd < 0 || ::fsync(fd) != 0) {
      if (fd >= 0) ::close(fd);
      throw std::runtime_error("cannot sync " + tmp.string());
    }
    ::close(fd);
    fs::rename(tmp, path);
    if (fs::file_size(path) != file_bytes) {
      throw std::runtime_error(path.string() + " has " +
                               std::to_string(fs::file_size(path)) +
                               " bytes, the packets make " +
                               std::to_string(file_bytes));
    }
    c.gen_s = static_cast<double>(now_ns() - t0) * 1e-9;
  }
  return c;
}

// ---- spans ------------------------------------------------------------------
// Always-on layer clocks (one clock read per boundary), plus in-memory spans
// when tracing: name, start, end and the enclosing span.

struct Tracer {
  struct Span {
    const char* name;
    int64_t t0, t1;
    int parent;
  };
  bool on = false;
  std::vector<Span> spans;
  std::vector<int> stack;
};

class Timed {
 public:
  Timed(Tracer& tr, const char* name, int64_t& acc)
      : tr_(tr), acc_(acc), t0_(now_ns()) {
    if (tr_.on) {
      idx_ = static_cast<int>(tr_.spans.size());
      tr_.spans.push_back(
          {name, t0_, 0, tr_.stack.empty() ? -1 : tr_.stack.back()});
      tr_.stack.push_back(idx_);
    }
  }
  ~Timed() {
    const int64_t t1 = now_ns();
    acc_ += t1 - t0_;
    if (idx_ >= 0) {
      tr_.spans[idx_].t1 = t1;
      tr_.stack.pop_back();
    }
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Tracer& tr_;
  int64_t& acc_;
  int64_t t0_;
  int idx_ = -1;
};

// The layer (module) a span's self time belongs to.
const char* layer_of(const std::string& span) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"fill", "net"},
      {"load_query", "lang"},
      {"on_batch", "core"},
      {"status", "core"},
      {"feed", "core.parallel"},
      {"finish", "core.parallel"},
      {"snapshot", "store"},
      {"ingest", "store"},
      {"render_push", "store.stream"},
      {"apply_push", "store.stream"},
      {"evaluate", "obs.health"},
  };
  for (const auto& [name, layer] : kLayers) {
    if (span == name) return layer;
  }
  if (span == "teardown") return "teardown";  // freeing state and stores
  return "bench";  // the benchmark's own glue: set-up, rounds, checks
}

// ---- one pass of the pipeline -----------------------------------------------

using Round =
    std::vector<std::pair<std::string, std::vector<core::ResultSample>>>;

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

struct PassResult {
  double wall_s = 0;  // first fill -> end of the final round
  uint64_t packets = 0;
  uint64_t batches = 0;
  uint64_t rounds = 0;
  std::vector<double> batch_us;
  std::vector<double> lag_ms;
  double state_mb = 0;
  double store_mb = 0;
  // layer clocks, ns; setup_ns runs from the start of the pass to the first
  // fill
  int64_t setup_ns = 0, fill_ns = 0, step_ns = 0, finish_ns = 0, load_ns = 0,
          snapshot_ns = 0, ingest_ns = 0, evaluate_ns = 0, render_ns = 0,
          apply_ns = 0, pass_ns = 0;
  uint64_t fill_allocs = 0;
  uint64_t samples = 0;
  uint64_t push_bytes = 0;
  uint64_t evicted_keys = 0;
  uint64_t alarms = 0;
  uint64_t transitions = 0;
  uint64_t compiled_tenants = 0;
  uint64_t atom_pool = 0, atom_refs = 0;
  double shard_skew = 0;
  std::map<std::string, double> state_bytes;  // by tenant main
  std::vector<Check> checks;
};

ResultMap to_map(const std::vector<store::Sample>& samples) {
  ResultMap m;
  for (const auto& s : samples) m[s.key] = s.value;
  return m;
}

std::string first_diff(const ResultMap& got, const ResultMap& want,
                       double rel_tol) {
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " keys, reference has " +
           std::to_string(want.size());
  }
  for (const auto& [k, v] : want) {
    const auto it = got.find(k);
    if (it == got.end()) return "missing key " + k;
    const double err = std::fabs(it->second - v);
    if (err > rel_tol * std::max(1.0, std::fabs(v))) {
      return k + " = " + std::to_string(it->second) + ", reference " +
             std::to_string(v);
    }
  }
  return "";
}

// The latest row of `context`, as dimension -> value (gaps skipped).
ResultMap latest_row(const store::SeriesStore& st, const std::string& context) {
  store::RangeQuery q;
  q.after_s = -1;
  q.before_s = 0;
  store::RangeResult rr;
  ResultMap out;
  if (!st.query(context, q, rr) || rr.rows.empty()) return out;
  const auto& row = rr.rows.back();
  for (size_t i = 0; i < rr.dimensions.size(); ++i) {
    if (!std::isnan(row.values[i])) out[rr.dimensions[i]] = row.values[i];
  }
  return out;
}

// Everything a pass sets up before the first packet: the tenants (loaded
// through the daemon's lint -> certify -> compile -> load chain), the edge
// and parent stores, the health engine with the built-in rules plus the
// workload's, the open capture and the batch it fills.
struct Rig {
  std::unique_ptr<core::QuerySet> set;
  std::unique_ptr<core::ParallelQuerySet> par;
  store::SeriesStore edge;
  store::SeriesStore parent;
  apps::QuerySetRuntime rt;
  health::HealthEngine healthd;
  net::MappedPcapReader reader;
  net::PacketBatch batch{kDefaultBatch};

  Rig(const Workload& wl, const std::string& capture, Tracer& tr,
      int64_t& load_ns)
      : set(wl.workers > 0 ? nullptr : std::make_unique<core::QuerySet>()),
        par(wl.workers > 0
                ? std::make_unique<core::ParallelQuerySet>(wl.workers)
                : nullptr),
        edge(store_config(wl)),
        parent(store_config(wl)),
        healthd(&edge, nullptr),
        reader(capture) {
    rt.set = set.get();
    rt.parallel = par.get();
    rt.store = &edge;
    for (const Tenant& t : wl.tenants) {
      Timed tl(tr, "load_query", load_ns);
      const auto out = apps::load_query(rt, t.file, t.file, t.main, "", 0);
      if (out.status != 200) {
        throw std::runtime_error("load " + t.file + ": " + out.error);
      }
    }
    healthd.add_rules(health::builtin_rules());
    if (!wl.rules.empty()) {
      auto parsed = health::parse_health_rules(wl.rules);
      if (!parsed.error.empty()) throw std::runtime_error(parsed.error);
      healthd.add_rules(std::move(parsed.rules));
    }
  }

  static store::StoreConfig store_config(const Workload& wl) {
    store::StoreConfig cfg;
    cfg.max_keys = wl.store_keys;
    return cfg;
  }
};

class Pipeline {
 public:
  Pipeline(const Workload& wl, const Capture& cap, Tracer& tr)
      : wl_(wl), cap_(cap), tr_(tr) {}

  PassResult run() {
    PassResult r;
    Timed pass(tr_, "pass", r.pass_ns);

    std::unique_ptr<Rig> rig_owner;
    {
      Timed ts(tr_, "setup", r.setup_ns);
      rig_owner = std::make_unique<Rig>(wl_, cap_.path, tr_, r.load_ns);
    }
    Rig& rig = *rig_owner;
    core::QuerySet* set = rig.set.get();
    core::ParallelQuerySet* par = rig.par.get();
    net::PacketBatch& batch = rig.batch;

    // ---- replay with rounds at every second of capture time ---------------
    const int64_t first_fill = now_ns();
    double next_round = std::floor(cap_.ref.first_ts) + 1.0;
    for (;;) {
      const int64_t b0 = now_ns();
      size_t n = 0;
      {
        const uint64_t a0 = t_allocs;
        Timed tf(tr_, "fill", r.fill_ns);
        n = rig.reader.fill(batch, kDefaultBatch);
        r.fill_allocs += t_allocs - a0;
      }
      if (n == 0) break;
      const double last_ts = batch[n - 1].ts;
      const int64_t handed = now_ns();
      if (par) {
        Timed ts(tr_, "feed", r.step_ns);
        par->feed(std::move(batch));
      } else {
        Timed ts(tr_, "on_batch", r.step_ns);
        set->on_batch(batch.packets());
      }
      r.batch_us.push_back(static_cast<double>(now_ns() - b0) * 1e-3);
      r.packets += n;
      ++r.batches;
      while (last_ts >= next_round) {
        sample_round(r, rig, static_cast<uint64_t>(next_round * 1e9));
        r.lag_ms.push_back(static_cast<double>(now_ns() - handed) * 1e-6);
        next_round += 1.0;
      }
    }
    // Final round: after the feed drains, at the capture's last timestamp.
    {
      const int64_t handed = now_ns();
      if (par) {
        Timed tf(tr_, "finish", r.finish_ns);
        par->finish();
      }
      sample_round(r, rig,
                   static_cast<uint64_t>(std::llround(cap_.ref.last_ts * 1e9)));
      r.lag_ms.push_back(static_cast<double>(now_ns() - handed) * 1e-6);
    }
    r.wall_s = static_cast<double>(now_ns() - first_fill) * 1e-9;

    // ---- end-of-run state -------------------------------------------------
    std::vector<core::QueryStatus> statuses;
    {
      int64_t status_ns = 0;
      Timed ts(tr_, "status", status_ns);
      if (set) set->sample_state_metrics();
      statuses = rig.rt.status();
    }
    size_t state = 0;
    for (const auto& st : statuses) {
      state += st.state_bytes;
      if (st.tier == "specialized") ++r.compiled_tenants;
      for (const Tenant& t : wl_.tenants) {
        if (t.file == st.name) {
          r.state_bytes[t.main] = static_cast<double>(st.state_bytes);
        }
      }
    }
    r.state_mb = static_cast<double>(state) / 1e6;
    r.store_mb = static_cast<double>(rig.edge.resident_bytes()) / 1e6;
    r.evicted_keys = rig.edge.evicted_keys();
    const auto counts = rig.healthd.counts();
    r.alarms = counts.warning + counts.critical;
    r.transitions = rig.healthd.transitions_total();
    const core::QuerySet& any = set ? *set : par->shard_set(0);
    r.atom_pool = any.atom_pool_size();
    r.atom_refs = any.atom_refs();
    if (par) {
      uint64_t most = 0, sum = 0;
      for (int i = 0; i < par->workers(); ++i) {
        most = std::max(most, par->shard_set(i).packets());
        sum += par->shard_set(i).packets();
      }
      r.shard_skew = sum ? static_cast<double>(most) * par->workers() /
                               static_cast<double>(sum)
                         : 0;
    }
    {
      int64_t sink = 0;
      Timed tc(tr_, "checks", sink);
      run_checks(r, rig);
    }
    {
      // Dropping the tenants' state and the stores is part of the pass.
      int64_t teardown_ns = 0;
      Timed td(tr_, "teardown", teardown_ns);
      rig_owner.reset();
    }
    return r;
  }

 private:
  void sample_round(PassResult& r, Rig& g, uint64_t t_ns) {
    int64_t round_ns = 0;
    Timed tround(tr_, "round", round_ns);
    Round round;
    std::vector<std::pair<std::string, std::vector<store::Sample>>> samples;
    {
      Timed t(tr_, "snapshot", r.snapshot_ns);
      if (g.set) {
        g.set->snapshot_all(round);
      } else {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        g.par->snapshot_all_async([&](Round got) {
          std::lock_guard lock(mu);
          round = std::move(got);
          done = true;
          cv.notify_one();
        });
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return done; });
      }
      std::sort(round.begin(), round.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& [query, results] : round) {
        std::vector<store::Sample> s;
        s.reserve(results.size());
        for (const auto& res : results) s.push_back({res.key, res.value});
        samples.emplace_back(query, std::move(s));
      }
    }
    for (const auto& [query, s] : samples) {
      Timed t(tr_, "ingest", r.ingest_ns);
      g.edge.ingest(g.edge.context(query), t_ns, s);
      r.samples += s.size();
    }
    {
      Timed t(tr_, "evaluate", r.evaluate_ns);
      g.healthd.evaluate(t_ns);
    }
    std::vector<std::string> bodies;
    for (const auto& [query, s] : samples) {
      Timed t(tr_, "render_push", r.render_ns);
      bodies.push_back(store::render_push("edge", query, t_ns, s));
      r.push_bytes += bodies.back().size();
    }
    for (const auto& body : bodies) {
      Timed t(tr_, "apply_push", r.apply_ns);
      const auto res = store::apply_push(g.parent, body);
      if (!res.error.empty()) {
        throw std::runtime_error("apply_push: " + res.error);
      }
    }
    ++r.rounds;
    last_samples_ = std::move(samples);
  }

  void run_checks(PassResult& r, const Rig& g) {
    const Reference& ref = cap_.ref;
    const uint64_t counted = g.set ? g.set->packets() : g.par->packets();
    auto check = [&](std::string name, bool ok, std::string detail) {
      r.checks.push_back({std::move(name), ok, std::move(detail)});
    };
    check("packets_counted", counted == ref.packets && r.packets == ref.packets,
          "set counted " + std::to_string(counted) + ", reader delivered " +
              std::to_string(r.packets) + ", capture holds " +
              std::to_string(ref.packets));

    std::map<std::string, ResultMap> final_by_file;
    for (const auto& [query, s] : last_samples_) {
      final_by_file[query] = to_map(s);
    }

    for (const Tenant& t : wl_.tenants) {
      const ResultMap& got = final_by_file[t.file];
      if (t.main == "recent_new_conns") {
        // The alarm's view: the sum over connections.  recent(5) runs as
        // staggered panes (window.hpp), so the answer covers between
        // 5*(7/8) s and 5 s of history.
        double v = 0;
        for (const auto& [k, x] : got) v += x;
        check("result." + t.main,
              v >= ref.recent_low && v <= ref.recent_high,
              "value " + std::to_string(v) + ", new connections in the last "
              "4.375..5 s of capture: " + std::to_string(ref.recent_low) +
              ".." + std::to_string(ref.recent_high));
        continue;
      }
      const auto want = ref.results.find(t.main);
      if (want == ref.results.end()) {
        throw std::logic_error("no reference computation for " + t.main);
      }
      const double tol = t.main == "avg_rate" ? 1e-9 : 0;
      const std::string diff = first_diff(got, want->second, tol);
      check("result." + t.main, diff.empty(), diff);
    }

    // The edge store holds min(keys, budget) keys per context, each at its
    // final-snapshot value; the parent holds the same rows.
    bool parent_ok = true;
    std::string parent_detail;
    for (const Tenant& t : wl_.tenants) {
      const ResultMap& snap = final_by_file[t.file];
      const ResultMap row = latest_row(g.edge, t.file);
      const size_t want_keys =
          std::min<size_t>(snap.size(), wl_.store_keys);
      std::string detail;
      if (g.edge.keys(t.file) != want_keys || row.size() != want_keys) {
        detail = std::to_string(g.edge.keys(t.file)) + " keys held, " +
                 std::to_string(row.size()) + " in the latest row, want " +
                 std::to_string(want_keys);
      }
      for (const auto& [k, v] : row) {
        const auto it = snap.find(k);
        if (detail.empty() && (it == snap.end() || it->second != v)) {
          detail = "key " + k + " holds " + std::to_string(v) +
                   ", final snapshot " +
                   (it == snap.end() ? "lacks it" : std::to_string(it->second));
        }
      }
      check("store." + t.main, detail.empty(), detail);
      const std::string pctx = "edge/" + t.file;
      if (parent_ok && (g.parent.keys(pctx) != g.edge.keys(t.file) ||
                        latest_row(g.parent, pctx) != row)) {
        parent_ok = false;
        parent_detail = "context " + pctx + " differs from the edge";
      }
    }
    check("parent_equals_edge", parent_ok, parent_detail);

    if (wl_.capture == CaptureKind::Backbone && wl_.workers == 0) {
      size_t missed = 0;
      std::string first;
      for (const auto& key : ref.heavy_flows) {
        const auto st = g.healthd.status("top_talkers", key);
        if (st != health::AlertStatus::Critical) {
          if (missed++ == 0) first = key;
        }
      }
      check("heavy_flows_critical", missed == 0,
            std::to_string(missed) + " of " +
                std::to_string(ref.heavy_flows.size()) +
                " flows over 1 MB are not CRITICAL, first " + first);
    }
    if (wl_.capture == CaptureKind::Attack) {
      check("syn_flood_critical",
            g.healthd.status("syn_flood", "total") ==
                health::AlertStatus::Critical,
            "syn_flood[total] is not CRITICAL");
    }
  }

  const Workload& wl_;
  const Capture& cap_;
  Tracer& tr_;
  std::vector<std::pair<std::string, std::vector<store::Sample>>> last_samples_;
};

// ---- statistics -------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// The highest percentile of a fixed ladder with at least ten batches beyond
// it, for `n` batches a pass.
double tail_percentile(uint64_t n) {
  for (double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

// ---- trace-mode extras ------------------------------------------------------

// Replays the capture through a QuerySet holding `tenants`; returns the
// on_batch time and the fill+on_batch wall time, ns.
std::pair<int64_t, int64_t> replay_set(const Capture& cap,
                                       const std::vector<Tenant>& tenants) {
  core::QuerySet set;
  apps::QuerySetRuntime rt;
  rt.set = &set;
  for (const Tenant& t : tenants) {
    const auto out = apps::load_query(rt, t.file, t.file, t.main, "", 0);
    if (out.status != 200) throw std::runtime_error(out.error);
  }
  net::MappedPcapReader reader(cap.path);
  net::PacketBatch batch(kDefaultBatch);
  int64_t step = 0;
  const int64_t t0 = now_ns();
  while (reader.fill(batch, kDefaultBatch) > 0) {
    const int64_t s0 = now_ns();
    set.on_batch(batch.packets());
    step += now_ns() - s0;
  }
  return {step, now_ns() - t0};
}

void write_spans(const Tracer& tr, const fs::path& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  const int64_t origin = tr.spans.empty() ? 0 : tr.spans.front().t0;
  for (size_t i = 0; i < tr.spans.size(); ++i) {
    const auto& s = tr.spans[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"parent\":%d}}",
                  i ? "," : "", s.name, layer_of(s.name),
                  static_cast<double>(s.t0 - origin) * 1e-3,
                  static_cast<double>(s.t1 - s.t0) * 1e-3, s.parent);
    out << buf << "\n";
  }
  out << "]}\n";
}

// Self time per layer: a span's duration minus its direct children's.
std::map<std::string, int64_t> self_times(const Tracer& tr) {
  std::vector<int64_t> child(tr.spans.size(), 0);
  for (const auto& s : tr.spans) {
    if (s.parent >= 0) child[s.parent] += s.t1 - s.t0;
  }
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < tr.spans.size(); ++i) {
    const auto& s = tr.spans[i];
    if (s.parent < 0) continue;  // the pass itself is the total
    out[layer_of(s.name)] += (s.t1 - s.t0) - child[i];
  }
  return out;
}

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", metrics[i].value);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cache;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--cache") a.cache = v;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  if (a.cache.empty()) throw std::runtime_error("--cache is required");
  return a;
}

int run(const Args& args) {
  const Workload wl = make_workload(args.workload);
  const Capture cap = prepare_capture(wl.capture, args.seed, args.cache);
  // Generation is reported apart from setup_s.
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %llu packets over %.2f s of capture, "
               "generated in %.2f s (0 = cached)\n",
               wl.name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(cap.ref.packets),
               cap.ref.last_ts - cap.ref.first_ts, cap.gen_s);

  Tracer tracer;
  std::vector<PassResult> passes;
  double untraced_pass_s = 0;
  if (args.trace) {
    // One untraced pass first: the reference for the tracing overhead.
    Pipeline p(wl, cap, tracer);
    const PassResult r = p.run();
    untraced_pass_s = static_cast<double>(r.pass_ns) * 1e-9;
    tracer.on = true;
  }
  const int64_t t_start = now_ns();
  do {
    Pipeline p(wl, cap, tracer);
    passes.push_back(p.run());
    const PassResult& r = passes.back();
    std::fprintf(stderr,
                 "perfbench: pass %zu: %.3f MPPS, lag %.2f ms, "
                 "batch p50 %.1f us, setup %.2f ms\n",
                 passes.size(), static_cast<double>(r.packets) / r.wall_s / 1e6,
                 median(r.lag_ms), median(r.batch_us),
                 static_cast<double>(r.setup_ns) * 1e-6);
  } while (static_cast<double>(now_ns() - t_start) * 1e-9 < args.seconds);

  // The run's operations are the first pass's checks plus one more, that
  // every later pass had the same outcomes; so `attempted` and `failed` do
  // not depend on how many passes fit into --seconds.
  std::vector<Check> checks = passes.front().checks;
  size_t differing = 0;
  for (size_t i = 1; i < passes.size(); ++i) {
    const auto& later = passes[i].checks;
    differing += !std::equal(
        later.begin(), later.end(), checks.begin(), checks.end(),
        [](const Check& a, const Check& b) {
          return a.name == b.name && a.ok == b.ok;
        });
  }
  checks.push_back({"passes_agree", differing == 0,
                    std::to_string(differing) + " of " +
                        std::to_string(passes.size() - 1) +
                        " later passes differ from the first"});
  uint64_t failed = 0;
  bool correct = true;
  for (const auto& c : checks) {
    std::fprintf(stderr, "perfbench: check %-26s %s%s%s\n", c.name.c_str(),
                 c.ok ? "ok" : "FAILED", c.ok ? "" : ": ",
                 c.ok ? "" : c.detail.c_str());
    if (c.ok) continue;
    ++failed;
    if (!kKnownFaults.contains(c.name)) correct = false;
  }
  const uint64_t attempted = checks.size();
  std::fprintf(stderr,
               "perfbench: %zu passes, %llu checks attempted, %llu failed\n",
               passes.size(), static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));

  using Pass = const PassResult&;
  auto per_pass = [&](auto f) {
    std::vector<double> v;
    for (const auto& r : passes) v.push_back(f(r));
    return median(v);
  };
  const double pkts = static_cast<double>(cap.ref.packets);
  auto d = [](auto x) { return static_cast<double>(x); };

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"throughput_mpps",
         per_pass([&](Pass r) { return pkts / r.wall_s / 1e6; }), "MPPS"},
        {"result_lag_ms", per_pass([](Pass r) { return median(r.lag_ms); }),
         "ms"},
        {"batch_us_p50", per_pass([](Pass r) { return median(r.batch_us); }),
         "us"},
        {"setup_s", per_pass([&](Pass r) { return d(r.setup_ns) * 1e-9; }),
         "s"},
        {"state_mb", per_pass([](Pass r) { return r.state_mb; }), "MB"},
        {"store_mb", per_pass([](Pass r) { return r.store_mb; }), "MB"},
    };
    // The tail does not repeat within a tenth between runs, so it is a
    // reference figure on stderr rather than a metric (README.md).
    const double tail_p = tail_percentile(passes.front().batches);
    std::fprintf(
        stderr, "perfbench: batch_us_tail %.1f us (p%g of %llu batches)\n",
        per_pass([&](Pass r) { return quantile(r.batch_us, tail_p / 100); }),
        tail_p, static_cast<unsigned long long>(passes.front().batches));
    print_result(correct, attempted, failed, metrics);
    return 0;
  }

  const PassResult& f = passes.front();
  auto ns_per_pkt = [&](int64_t PassResult::*m) {
    return per_pass([&](Pass r) { return d(r.*m) / pkts; });
  };
  auto ms = [&](int64_t PassResult::*m) {
    return per_pass([&](Pass r) { return d(r.*m) * 1e-6; });
  };
  auto ms_per_round = [&](int64_t PassResult::*m) {
    return per_pass([&](Pass r) { return d(r.*m) * 1e-6 / d(r.rounds); });
  };
  // Each tenant alone, then all of them in one set, over the same capture.
  std::map<std::string, double> solo;
  double solo_sum = 0;
  for (const Tenant& t : wl.tenants) {
    solo[t.main] = d(replay_set(cap, {t}).first) / pkts;
    solo_sum += solo[t.main];
  }
  double shared_step = ns_per_pkt(&PassResult::step_ns);
  double baseline_mpps = 0;
  if (wl.workers > 0) {
    const auto [step, wall] = replay_set(cap, wl.tenants);
    shared_step = d(step) / pkts;
    baseline_mpps = pkts / d(wall) * 1e3;
  }

  // Self time per layer over the traced passes.
  int64_t total = 0;
  for (const auto& r : passes) total += r.pass_ns;
  int64_t accounted = 0;
  std::fprintf(stderr, "perfbench: self time by layer, %zu traced passes\n",
               passes.size());
  for (const auto& [layer, ns] : self_times(tracer)) {
    accounted += ns;
    std::fprintf(stderr, "  %-14s %10.1f ms  %5.1f%%\n", layer.c_str(),
                 d(ns) * 1e-6, 100.0 * d(ns) / d(total));
  }
  const double unaccounted_pct = 100.0 * d(total - accounted) / d(total);
  std::fprintf(stderr, "  %-14s %10.1f ms  %5.1f%%\n", "unaccounted",
               d(total - accounted) * 1e-6, unaccounted_pct);
  const double traced_pass_s = d(total) * 1e-9 / d(passes.size());
  const double overhead_pct = 100.0 * (traced_pass_s / untraced_pass_s - 1.0);
  std::fprintf(stderr,
               "perfbench: traced pass %.3f s, untraced pass %.3f s "
               "(%+.1f%%)\n",
               traced_pass_s, untraced_pass_s, overhead_pct);
  const fs::path spans =
      fs::path(args.cache) /
      ("spans-" + wl.name + "-" + std::to_string(args.seed) + ".json");
  write_spans(tracer, spans);
  std::fprintf(stderr, "perfbench: spans written to %s\n",
               spans.string().c_str());

  const double rounds = d(f.rounds);
  metrics = {
      {"net.fill_ns_per_pkt", ns_per_pkt(&PassResult::fill_ns), "ns"},
      {"net.allocs_per_batch",
       per_pass([&](Pass r) { return d(r.fill_allocs) / d(r.batches); }),
       "count"},
      {"lang.load_ms", ms(&PassResult::load_ns), "ms"},
      {"core.step_ns_per_pkt", shared_step, "ns"},
      {"core.sharing_ratio", solo_sum / shared_step, "ratio"},
      {"core.compiled_tenants", d(f.compiled_tenants), "count"},
      {"core.atom_pool_size", d(f.atom_pool), "count"},
      {"core.atom_refs", d(f.atom_refs), "count"},
      {"core.parallel.feed_ns_per_pkt",
       wl.workers > 0 ? ns_per_pkt(&PassResult::step_ns) : 0, "ns"},
      {"core.parallel.finish_ms", ms(&PassResult::finish_ns), "ms"},
      {"core.parallel.shard_skew", f.shard_skew, "ratio"},
      {"core.parallel.baseline_mpps", baseline_mpps, "MPPS"},
      {"store.snapshot_ms_per_round", ms_per_round(&PassResult::snapshot_ns),
       "ms"},
      {"store.ingest_ns_per_sample",
       per_pass([&](Pass r) { return d(r.ingest_ns) / d(r.samples); }), "ns"},
      {"store.samples_per_round", d(f.samples) / rounds, "count"},
      {"store.evicted_keys", d(f.evicted_keys), "count"},
      {"store.stream.render_ms_per_round",
       ms_per_round(&PassResult::render_ns), "ms"},
      {"store.stream.apply_ms_per_round", ms_per_round(&PassResult::apply_ns),
       "ms"},
      {"store.stream.bytes_per_round", d(f.push_bytes) / rounds, "bytes"},
      {"obs.health.evaluate_ms_per_round",
       ms_per_round(&PassResult::evaluate_ns), "ms"},
      {"obs.health.alarms", d(f.alarms), "count"},
      {"obs.health.transitions", d(f.transitions), "count"},
      {"trace.unaccounted_pct", unaccounted_pct, "%"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
  // Per-tenant figures: every tenant any workload runs, 0 where this
  // workload does not run it.
  static constexpr const char* kLabels[] = {
      "hh",       "ss",          "src_pkts",         "flow_pkts",
      "total_bytes", "incomplete_total", "recent_new_conns", "avg_rate",
      "dup_acks"};
  auto get = [](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  for (const char* label : kLabels) {
    metrics.push_back({std::string("core.solo_ns_per_pkt.") + label,
                       get(solo, label), "ns"});
  }
  for (const char* label : kLabels) {
    metrics.push_back({std::string("core.state_bytes.") + label,
                       get(f.state_bytes, label), "bytes"});
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
