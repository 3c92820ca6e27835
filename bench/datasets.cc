#include "datasets.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench_runner.h"
#include "graph/generators.h"

namespace tdb::bench {

namespace {

// Proxy sizes are chosen so that bench_paper's full sweep (every table and
// figure of Section VII) finishes on a single core in minutes at
// TDB_BENCH_SCALE=0.25, while preserving each dataset's character:
// density ordering, degree skew, and reciprocity mirror Table II/IV.
// Reciprocity values are tuned to the Table IV "with 2-cycle" ratios
// (e.g. ASC 8.64 -> nearly symmetric; GNU 1.15 -> almost none).
const std::vector<DatasetSpec>& Registry() {
  static const std::vector<DatasetSpec> kDatasets = {
      // name   full            |V|      |E|      davg   n     theta recip large
      {"WKV", "Wiki-Vote", 7.0e3, 1.04e5, 29.1, 1000, 0.72, 0.08, false},
      {"ASC", "as-caida", 2.6e4, 1.07e5, 8.1, 2600, 0.65, 0.90, false},
      {"GNU", "Gnutella31", 6.3e4, 1.48e5, 4.7, 4000, 0.50, 0.0003, false},
      {"EU", "Email-Euall", 2.65e5, 4.20e5, 3.2, 8000, 0.80, 0.0017, false},
      {"SAD", "Slashdot0902", 8.2e4, 9.48e5, 23.1, 2400, 0.70, 0.95, false},
      {"WND", "web-NotreDame", 3.25e5, 1.5e6, 9.2, 8000, 0.75, 0.015, false},
      {"CT", "citeseer", 3.84e5, 1.7e6, 9.1, 8000, 0.68, 0.10, false},
      {"WST", "webStanford", 2.81e5, 2.3e6, 16.4, 5000, 0.75, 0.30, false},
      {"LOAN", "prosper-loans", 8.9e4, 3.4e6, 76.1, 1200, 0.62, 0.80, false},
      {"WIT", "Wiki-Talk", 2.4e6, 5.0e6, 4.2, 16000, 0.85, 0.004, false},
      {"WGO", "webGoogle", 8.75e5, 5.1e6, 11.7, 10000, 0.70, 0.012, false},
      {"WBS", "webBerkStan", 6.85e5, 7.6e6, 22.2, 6000, 0.75, 0.30, false},
      {"FLK", "Flickr", 2.3e6, 3.31e7, 28.8, 16000, 0.75, 0.40, true},
      {"LJ", "LiverJournal", 1.06e7, 1.12e8, 21.0, 30000, 0.70, 0.60, true},
      {"WKP", "Wikipedia", 1.82e7, 1.72e8, 18.85, 40000, 0.75, 0.35, true},
      {"TW", "Twitter(WWW)", 4.16e7, 1.47e9, 70.5, 20000, 0.78, 0.25, true},
  };
  return kDatasets;
}

uint64_t SeedFor(const DatasetSpec& spec) {
  // Stable per-dataset seed derived from the abbreviation.
  uint64_t h = 0xCBF29CE484222325ULL;
  for (const char* p = spec.name; *p != '\0'; ++p) {
    h = (h ^ static_cast<uint64_t>(*p)) * 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

VertexId DatasetSpec::ProxyVertices(double scale) const {
  double n = static_cast<double>(proxy_n) * scale;
  return static_cast<VertexId>(std::max(16.0, n));
}

EdgeId DatasetSpec::ProxyEdges(double scale) const {
  const double n = ProxyVertices(scale);
  return static_cast<EdgeId>(std::max(32.0, n * paper_davg / 2.0));
}

const std::vector<DatasetSpec>& AllDatasets() { return Registry(); }

std::vector<DatasetSpec> SmallDatasets() {
  std::vector<DatasetSpec> out;
  for (const DatasetSpec& d : Registry()) {
    if (!d.large) out.push_back(d);
  }
  return out;
}

const DatasetSpec* FindDataset(const std::string& name) {
  for (const DatasetSpec& d : Registry()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

CsrGraph BuildProxy(const DatasetSpec& spec, double scale) {
  PowerLawParams params;
  params.n = spec.ProxyVertices(scale);
  params.m = spec.ProxyEdges(scale);
  params.theta = spec.theta;
  params.reciprocity = spec.reciprocity;
  params.seed = SeedFor(spec);
  return GeneratePowerLaw(params);
}

double BenchScale() {
  const double v = EnvDouble("TDB_BENCH_SCALE", 1.0);
  if (v <= 0.0) {
    std::fprintf(stderr, "invalid TDB_BENCH_SCALE value: %s (must be > 0)\n",
                 std::getenv("TDB_BENCH_SCALE"));
    std::exit(2);
  }
  return v;
}

}  // namespace tdb::bench
