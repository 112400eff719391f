#include "oracles.h"

#include <algorithm>
#include <cstdio>

#include "common/hash.h"

namespace tgraph::perfbench {

std::vector<std::string> CanonicalLines(const TGraph& graph) {
  Result<TGraph> ve = graph.As(Representation::kVe);
  if (!ve.ok()) return {"error " + ve.status().ToString()};
  VeGraph coalesced = ve->Coalesce().ve();
  std::vector<std::string> lines;
  for (const VeVertex& v : coalesced.vertices().Collect()) {
    lines.push_back("V " + v.ToString());
  }
  for (const VeEdge& e : coalesced.edges().Collect()) {
    lines.push_back("E " + e.ToString());
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

uint64_t Fingerprint(const std::vector<std::string>& lines) {
  std::string joined;
  for (const std::string& line : lines) {
    joined += line;
    joined += '\n';
  }
  return HashBytes(joined);
}

uint64_t Fingerprint(const TGraph& graph) {
  return Fingerprint(CanonicalLines(graph));
}

Status CheckRecordCount(int64_t expected, int64_t got) {
  if (expected == got) return Status::OK();
  return Status::Internal("record count " + std::to_string(got) +
                          ", expected " + std::to_string(expected));
}

Status CheckFingerprint(uint64_t expected, const TGraph& got) {
  uint64_t actual = Fingerprint(got);
  if (actual == expected) return Status::OK();
  return Status::Internal("content fingerprint " + std::to_string(actual) +
                          ", expected " + std::to_string(expected));
}

Status CheckBody(const std::string& expected, const std::string& got) {
  if (expected == got) return Status::OK();
  return Status::Internal("response body differs from the interpreter's:\n"
                          "  got:      " + got.substr(0, 200) +
                          "\n  expected: " + expected.substr(0, 200));
}

Status CheckLiveEqualsOffline(const TGraph& offline, const TGraph& live) {
  std::vector<std::string> want = CanonicalLines(offline);
  std::vector<std::string> got = CanonicalLines(live);
  if (want == got) return Status::OK();
  auto mismatch = std::mismatch(want.begin(), want.end(), got.begin(),
                                got.end());
  std::string detail =
      mismatch.first != want.end() ? *mismatch.first : std::string("<end>");
  return Status::Internal("live graph differs from offline build (" +
                          std::to_string(got.size()) + " vs " +
                          std::to_string(want.size()) +
                          " records; first expected difference: " + detail +
                          ")");
}

Status CheckViewBody(const TGraph& zoomed, const std::string& body) {
  std::vector<std::string> lines = CanonicalLines(zoomed);
  int64_t vertices = std::count_if(lines.begin(), lines.end(),
                                   [](const std::string& l) {
                                     return l.rfind("V ", 0) == 0;
                                   });
  int64_t edges = static_cast<int64_t>(lines.size()) - vertices;
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fingerprint(lines)));
  std::string counts = ": " + std::to_string(vertices) +
                       " vertex records, " + std::to_string(edges) +
                       " edge records\n";
  std::string content = "content " + std::string(hex) + "\n";
  if (body.find(counts) != std::string::npos &&
      body.find(content) != std::string::npos) {
    return Status::OK();
  }
  return Status::Internal("view body '" + body + "' does not match the "
                          "offline zoom (" + counts.substr(2) + content + ")");
}

}  // namespace tgraph::perfbench
