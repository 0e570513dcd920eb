// Verify a DNS zone deployment before it ships: runs the full DNS-V workflow
// (paper Fig. 6) for a chosen engine version over a zone file.
//
//   $ ./examples/verify_zone [version] [zone-file]
//
// version: any of AllEngineVersions() (default: golden)
// zone-file: path to a zone in this repo's zone text format
//            (default: a built-in zone with wildcard + delegation)
//
// Exit code 0 = verified, 1 = issues found, 2 = usage/abort.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "src/dnsv/verifier.h"

namespace {

const char* const kDefaultZone = R"(
$ORIGIN shipit.test.
@      SOA   ns1 42
@      NS    ns1.shipit.test.
ns1    A     192.0.2.1
www    A     192.0.2.80
*      TXT   7
sub    NS    ns1.sub.shipit.test.
ns1.sub A    192.0.2.91
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace dnsv;

  EngineVersion version = EngineVersion::kGolden;
  if (argc > 1) {
    bool found = false;
    for (EngineVersion candidate : AllEngineVersions()) {
      if (std::strcmp(argv[1], EngineVersionName(candidate)) == 0) {
        version = candidate;
        found = true;
      }
    }
    if (!found) {
      std::string names;
      for (EngineVersion candidate : AllEngineVersions()) {
        names += names.empty() ? "" : "|";
        names += EngineVersionName(candidate);
      }
      std::fprintf(stderr, "unknown version '%s' (use %s)\n", argv[1], names.c_str());
      return 2;
    }
  }
  std::string zone_text = kDefaultZone;
  if (argc > 2) {
    std::ifstream file(argv[2]);
    if (!file) {
      std::fprintf(stderr, "cannot open zone file %s\n", argv[2]);
      return 2;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    zone_text = buffer.str();
  }
  Result<ZoneConfig> zone = ParseZoneText(zone_text);
  if (!zone.ok()) {
    std::fprintf(stderr, "zone parse error: %s\n", zone.error().c_str());
    return 2;
  }

  std::printf("DNS-V: verifying engine %s over zone %s ...\n", EngineVersionName(version),
              zone.value().origin.ToString().c_str());
  VerifyOptions options;
  options.use_summaries = true;  // the paper's workflow: summarize, then check
  VerificationReport report = VerifyEngine(version, zone.value(), options);
  std::printf("%s", report.ToString().c_str());
  if (report.aborted) {
    return 2;
  }
  return report.verified ? 0 : 1;
}
