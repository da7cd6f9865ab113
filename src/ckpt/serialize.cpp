#include "ckpt/serialize.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <vector>

#include "base/error.h"
#include "ckpt/hash.h"

namespace secflow {
namespace {

/// Output stream with the precision every serializer needs: 17 significant
/// digits round-trip any finite double exactly through decimal text.
std::ostringstream make_out() {
  std::ostringstream os;
  os << std::setprecision(17);
  return os;
}

/// Free text that may contain spaces (but no newlines are required either):
/// length-prefixed as `<n>:<bytes>`.
void put_str(std::ostream& os, const std::string& s) {
  os << s.size() << ':' << s;
}

/// Whitespace-token reader over a serializer payload.
class TokenReader {
 public:
  TokenReader(const std::string& text, std::string what)
      : is_(text), what_(std::move(what)) {}

  void expect(const char* kw) {
    const std::string t = word();
    if (t != kw) {
      fail("expected '" + std::string(kw) + "', got '" + t + "'");
    }
  }

  std::string word() {
    std::string t;
    if (!(is_ >> t)) fail("unexpected end of input");
    return t;
  }

  long long integer() {
    long long v = 0;
    if (!(is_ >> v)) fail("expected integer");
    return v;
  }

  double real() {
    double v = 0;
    if (!(is_ >> v)) fail("expected number");
    return v;
  }

  bool boolean() {
    const long long v = integer();
    if (v != 0 && v != 1) fail("expected 0/1 flag");
    return v == 1;
  }

  /// Inverse of put_str.
  std::string sized_str() {
    std::size_t n = 0;
    if (!(is_ >> n)) fail("expected string length");
    if (is_.get() != ':') fail("expected ':' after string length");
    std::string s(n, '\0');
    if (n > 0 && !is_.read(s.data(), static_cast<std::streamsize>(n))) {
      fail("truncated string payload");
    }
    return s;
  }

  void done() {
    std::string t;
    if (is_ >> t) fail("trailing data '" + t + "'");
  }

  [[noreturn]] void fail(const std::string& msg) {
    throw ParseError("ckpt:" + what_, msg);
  }

 private:
  std::istringstream is_;
  std::string what_;
};

}  // namespace

// --- CellLibrary -----------------------------------------------------------

std::string write_cell_library(const CellLibrary& lib) {
  std::ostringstream os = make_out();
  os << "CELLLIB ";
  put_str(os, lib.name());
  os << ' ' << lib.size() << '\n';
  for (const CellTypeId id : lib.all()) {
    const CellType& c = lib.cell(id);
    os << "CELL " << c.name << ' ' << static_cast<int>(c.kind) << ' '
       << (c.negedge_clock ? 1 : 0) << ' ' << c.function.n_inputs() << ' '
       << hash_hex(c.function.table()) << ' ' << c.area_um2 << ' ' << c.width_um << ' '
       << c.height_um << ' ' << c.intrinsic_delay_ps << ' '
       << c.drive_res_kohm << ' ' << c.internal_cap_ff << ' ' << c.pins.size()
       << '\n';
    for (const PinDef& p : c.pins) {
      os << "PIN " << p.name << ' ' << (p.dir == PinDir::kOutput ? 1 : 0)
         << ' ' << p.cap_ff << '\n';
    }
  }
  return os.str();
}

CellLibrary parse_cell_library(const std::string& text) {
  TokenReader ts(text, "cell_library");
  ts.expect("CELLLIB");
  CellLibrary lib(ts.sized_str());
  const long long n = ts.integer();
  for (long long i = 0; i < n; ++i) {
    ts.expect("CELL");
    CellType c;
    c.name = ts.word();
    const long long kind = ts.integer();
    if (kind < 0 || kind > 2) ts.fail("bad cell kind");
    c.kind = static_cast<CellKind>(kind);
    c.negedge_clock = ts.boolean();
    const int fn_inputs = static_cast<int>(ts.integer());
    const std::uint64_t table = parse_hash_hex(ts.word());
    c.function = LogicFn(fn_inputs, table);
    c.area_um2 = ts.real();
    c.width_um = ts.real();
    c.height_um = ts.real();
    c.intrinsic_delay_ps = ts.real();
    c.drive_res_kohm = ts.real();
    c.internal_cap_ff = ts.real();
    const long long npins = ts.integer();
    for (long long p = 0; p < npins; ++p) {
      ts.expect("PIN");
      PinDef pin;
      pin.name = ts.word();
      pin.dir = ts.boolean() ? PinDir::kOutput : PinDir::kInput;
      pin.cap_ff = ts.real();
      c.pins.push_back(std::move(pin));
    }
    lib.add(std::move(c));
  }
  ts.done();
  lib.validate();
  return lib;
}

// --- Extraction ------------------------------------------------------------

std::string write_extraction(const Extraction& ex) {
  std::vector<const std::string*> names;
  names.reserve(ex.nets.size());
  for (const auto& [name, p] : ex.nets) names.push_back(&name);
  std::sort(names.begin(), names.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });

  std::ostringstream os = make_out();
  os << "EXTRACTION " << ex.nets.size() << '\n';
  for (const std::string* name : names) {
    const NetParasitics& p = ex.nets.at(*name);
    os << "NET " << *name << ' ' << p.wire_cap_ff << ' ' << p.pin_cap_ff
       << ' ' << p.coupling_cap_ff << ' ' << p.res_kohm << ' '
       << p.couplings.size() << '\n';
    for (const auto& [other, cc] : p.couplings) {
      os << "COUPLE " << other << ' ' << cc << '\n';
    }
  }
  return os.str();
}

Extraction parse_extraction(const std::string& text) {
  TokenReader ts(text, "extraction");
  ts.expect("EXTRACTION");
  const long long n = ts.integer();
  Extraction ex;
  ex.nets.reserve(static_cast<std::size_t>(n));
  for (long long i = 0; i < n; ++i) {
    ts.expect("NET");
    const std::string name = ts.word();
    NetParasitics p;
    p.wire_cap_ff = ts.real();
    p.pin_cap_ff = ts.real();
    p.coupling_cap_ff = ts.real();
    p.res_kohm = ts.real();
    const long long nc = ts.integer();
    p.couplings.reserve(static_cast<std::size_t>(nc));
    for (long long c = 0; c < nc; ++c) {
      ts.expect("COUPLE");
      const std::string other = ts.word();
      const double cc = ts.real();
      p.couplings.emplace_back(other, cc);
    }
    if (!ex.nets.emplace(name, std::move(p)).second) {
      ts.fail("duplicate net '" + name + "'");
    }
  }
  ts.done();
  return ex;
}

// --- CapTable --------------------------------------------------------------

std::string write_cap_table(const CapTable& caps) {
  std::vector<const std::string*> names;
  names.reserve(caps.size());
  for (const auto& [name, ff] : caps) names.push_back(&name);
  std::sort(names.begin(), names.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });

  std::ostringstream os = make_out();
  os << "CAPTABLE " << caps.size() << '\n';
  for (const std::string* name : names) {
    os << "CAP " << *name << ' ' << caps.at(*name) << '\n';
  }
  return os.str();
}

CapTable parse_cap_table(const std::string& text) {
  TokenReader ts(text, "cap_table");
  ts.expect("CAPTABLE");
  const long long n = ts.integer();
  CapTable caps;
  caps.reserve(static_cast<std::size_t>(n));
  for (long long i = 0; i < n; ++i) {
    ts.expect("CAP");
    const std::string name = ts.word();
    const double ff = ts.real();
    if (!caps.emplace(name, ff).second) {
      ts.fail("duplicate net '" + name + "'");
    }
  }
  ts.done();
  return caps;
}

// --- TimingReport ----------------------------------------------------------

std::string write_timing_report(const TimingReport& r) {
  std::ostringstream os = make_out();
  os << "TIMING " << r.critical_delay_ps << ' ' << r.min_period_ps << ' ';
  put_str(os, r.endpoint);
  os << '\n';
  os << "PATH " << r.critical_path.size() << '\n';
  for (const PathNode& n : r.critical_path) {
    os << "NODE ";
    put_str(os, n.instance);
    os << ' ';
    put_str(os, n.net);
    os << ' ' << n.arrival_ps << '\n';
  }
  os << "ARRIVALS " << r.net_arrival_ps.size() << '\n';
  for (const double a : r.net_arrival_ps) os << "A " << a << '\n';
  return os.str();
}

TimingReport parse_timing_report(const std::string& text) {
  TokenReader ts(text, "timing_report");
  TimingReport r;
  ts.expect("TIMING");
  r.critical_delay_ps = ts.real();
  r.min_period_ps = ts.real();
  r.endpoint = ts.sized_str();
  ts.expect("PATH");
  const long long np = ts.integer();
  r.critical_path.reserve(static_cast<std::size_t>(np));
  for (long long i = 0; i < np; ++i) {
    ts.expect("NODE");
    PathNode n;
    n.instance = ts.sized_str();
    n.net = ts.sized_str();
    n.arrival_ps = ts.real();
    r.critical_path.push_back(std::move(n));
  }
  ts.expect("ARRIVALS");
  const long long na = ts.integer();
  r.net_arrival_ps.reserve(static_cast<std::size_t>(na));
  for (long long i = 0; i < na; ++i) {
    ts.expect("A");
    r.net_arrival_ps.push_back(ts.real());
  }
  ts.done();
  return r;
}

// --- small stats structs ---------------------------------------------------

std::string write_route_stats(const RouteStats& s) {
  std::ostringstream os = make_out();
  os << "ROUTESTATS " << s.wirelength_dbu << ' ' << s.vias << ' '
     << s.nets_routed << ' ' << s.iterations << ' ' << s.expanded_nodes
     << ' ' << s.window_escalations << ' ' << s.full_grid_searches << ' '
     << s.nets_ripped << '\n';
  return os.str();
}

RouteStats parse_route_stats(const std::string& text) {
  TokenReader ts(text, "route_stats");
  ts.expect("ROUTESTATS");
  RouteStats s;
  s.wirelength_dbu = ts.integer();
  s.vias = static_cast<int>(ts.integer());
  s.nets_routed = static_cast<int>(ts.integer());
  s.iterations = static_cast<int>(ts.integer());
  s.expanded_nodes = ts.integer();
  s.window_escalations = static_cast<int>(ts.integer());
  s.full_grid_searches = static_cast<int>(ts.integer());
  s.nets_ripped = ts.integer();
  ts.done();
  return s;
}

std::string write_substitution_stats(const SubstitutionStats& s) {
  std::ostringstream os = make_out();
  os << "SUBSTATS " << s.inverters_removed << ' ' << s.buffers_removed << ' '
     << s.gates_substituted << ' ' << s.flops_substituted << ' '
     << s.ties_substituted << ' ' << s.port_buffers_added << '\n';
  return os.str();
}

SubstitutionStats parse_substitution_stats(const std::string& text) {
  TokenReader ts(text, "substitution_stats");
  ts.expect("SUBSTATS");
  SubstitutionStats s;
  s.inverters_removed = static_cast<int>(ts.integer());
  s.buffers_removed = static_cast<int>(ts.integer());
  s.gates_substituted = static_cast<int>(ts.integer());
  s.flops_substituted = static_cast<int>(ts.integer());
  s.ties_substituted = static_cast<int>(ts.integer());
  s.port_buffers_added = static_cast<int>(ts.integer());
  ts.done();
  return s;
}

std::string write_lec_result(const LecResult& r) {
  std::ostringstream os = make_out();
  os << "LEC " << (r.equivalent ? 1 : 0) << ' ' << r.compared_points << ' '
     << r.mismatches.size() << '\n';
  for (const LecMismatch& m : r.mismatches) {
    os << "MISMATCH ";
    put_str(os, m.what);
    os << ' ';
    put_str(os, m.counterexample);
    os << '\n';
  }
  return os.str();
}

LecResult parse_lec_result(const std::string& text) {
  TokenReader ts(text, "lec_result");
  ts.expect("LEC");
  LecResult r;
  r.equivalent = ts.boolean();
  r.compared_points = static_cast<int>(ts.integer());
  const long long n = ts.integer();
  r.mismatches.reserve(static_cast<std::size_t>(n));
  for (long long i = 0; i < n; ++i) {
    ts.expect("MISMATCH");
    LecMismatch m;
    m.what = ts.sized_str();
    m.counterexample = ts.sized_str();
    r.mismatches.push_back(std::move(m));
  }
  ts.done();
  return r;
}

std::string write_check_result(const CheckResult& r) {
  std::ostringstream os = make_out();
  os << "CHECK " << (r.ok ? 1 : 0) << ' ' << r.nets_checked << ' '
     << r.pins_checked << ' ' << r.issues.size() << '\n';
  for (const CheckIssue& i : r.issues) {
    os << "ISSUE ";
    put_str(os, i.net);
    os << ' ';
    put_str(os, i.what);
    os << '\n';
  }
  return os.str();
}

CheckResult parse_check_result(const std::string& text) {
  TokenReader ts(text, "check_result");
  ts.expect("CHECK");
  CheckResult r;
  r.ok = ts.boolean();
  r.nets_checked = static_cast<int>(ts.integer());
  r.pins_checked = static_cast<int>(ts.integer());
  const long long n = ts.integer();
  r.issues.reserve(static_cast<std::size_t>(n));
  for (long long i = 0; i < n; ++i) {
    ts.expect("ISSUE");
    CheckIssue issue;
    issue.net = ts.sized_str();
    issue.what = ts.sized_str();
    r.issues.push_back(std::move(issue));
  }
  ts.done();
  return r;
}

// --- DPA summaries ---------------------------------------------------------

std::string write_energy_stats(const EnergyStats& s) {
  std::ostringstream os = make_out();
  os << "ENERGY " << s.mean_pj << ' ' << s.min_pj << ' ' << s.max_pj << ' '
     << s.ned << ' ' << s.nsd << '\n';
  return os.str();
}

EnergyStats parse_energy_stats(const std::string& text) {
  TokenReader ts(text, "energy_stats");
  ts.expect("ENERGY");
  EnergyStats s;
  s.mean_pj = ts.real();
  s.min_pj = ts.real();
  s.max_pj = ts.real();
  s.ned = ts.real();
  s.nsd = ts.real();
  ts.done();
  return s;
}

}  // namespace secflow
