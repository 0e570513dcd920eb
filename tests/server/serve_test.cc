// Unit tests for the socket-free request pipeline (src/server/serve.h),
// including regression tests for the three historical example-server bugs
// (ISSUE 5): the crashing SERVFAIL fallback, the hardcoded FORMERR flag
// bytes, and the unchecked atoi port parsing.
#include "src/server/serve.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dns/example_zones.h"
#include "src/fuzz/packet_gen.h"

namespace dnsv {
namespace {

std::unique_ptr<AuthoritativeServer> MakeShard() {
  Result<std::unique_ptr<AuthoritativeServer>> shard =
      AuthoritativeServer::Create(EngineVersion::kGolden, KitchenSinkZone());
  EXPECT_TRUE(shard.ok()) << shard.error();
  return std::move(shard).value();
}

std::vector<uint8_t> QueryPacket(const std::string& qname, RrType qtype, uint16_t id = 0x1234,
                                 bool rd = false) {
  WireQuery query;
  query.id = id;
  query.qname = DnsName::Parse(qname).value();
  query.qtype = qtype;
  query.recursion_desired = rd;
  return EncodeWireQuery(query);
}

std::vector<uint8_t> EdnsQueryPacket(const std::string& qname, RrType qtype, uint16_t payload,
                                     bool dnssec_ok = false, uint8_t version = 0) {
  WireQuery query;
  query.id = 0x1234;
  query.qname = DnsName::Parse(qname).value();
  query.qtype = qtype;
  query.edns.present = true;
  query.edns.udp_payload = payload;
  query.edns.dnssec_ok = dnssec_ok;
  query.edns.version = version;
  return EncodeWireQuery(query);
}

TEST(ServePacketTest, AnswersOverTheSamePathAsTheOldServer) {
  auto shard = MakeShard();
  ServerStats stats;
  std::vector<uint8_t> packet = QueryPacket("chain.example.com", RrType::kA, 0x4242);
  ServeOutcome outcome =
      ServePacket(shard.get(), packet.data(), packet.size(), kMaxUdpPayload, &stats);
  ASSERT_FALSE(outcome.parse_error);
  WireQuery echoed;
  Result<ResponseView> view = ParseWireResponse(outcome.wire, &echoed);
  ASSERT_TRUE(view.ok()) << view.error();
  EXPECT_EQ(echoed.id, 0x4242);
  EXPECT_EQ(view.value().rcode, Rcode::kNoError);
  EXPECT_EQ(view.value().answer.size(), 4u);  // chain -> alias -> www + 2 A records
  EXPECT_EQ(stats.rcodes[0].load(), 1u);
}

// Regression (ISSUE 5 bug 1): a qname of five 63-byte labels is parseable
// off the wire but exceeds the 255-byte wire-name limit, so even the minimal
// SERVFAIL response fails to encode. The old server called `.value()` on
// that second failure and crashed on attacker-controlled input; the fallback
// must now be the infallible header-only SERVFAIL with the ID patched in.
TEST(ServePacketTest, ServfailFallbackIsInfallibleOnUnencodableQname) {
  auto shard = MakeShard();
  ServerStats stats;
  std::string label(63, 'a');
  std::string huge = label + "." + label + "." + label + "." + label + "." + label;
  std::vector<uint8_t> packet = QueryPacket(huge, RrType::kA, 0xBEEF, /*rd=*/true);
  ASSERT_TRUE(ParseWireQuery(packet).ok());  // the parser accepts it...
  WireQuery parsed = ParseWireQuery(packet).value();
  ASSERT_FALSE(EncodeWireResponse(parsed, ResponseView{}).ok());  // ...the encoder cannot

  ServeOutcome outcome =
      ServePacket(shard.get(), packet.data(), packet.size(), kMaxUdpPayload, &stats);
  EXPECT_TRUE(outcome.servfail_fallback);
  ASSERT_EQ(outcome.wire.size(), 12u);  // header-only
  EXPECT_EQ(outcome.wire[0], 0xBE);
  EXPECT_EQ(outcome.wire[1], 0xEF);
  EXPECT_EQ(outcome.wire[2], 0x80 | 0x01);  // QR + echoed RD
  EXPECT_EQ(outcome.wire[3], 0x02);         // SERVFAIL
  for (size_t i = 4; i < 12; ++i) {
    EXPECT_EQ(outcome.wire[i], 0) << "section count byte " << i;
  }
  EXPECT_EQ(stats.encode_failures.load(), 1u);
  EXPECT_EQ(stats.servfail_fallbacks.load(), 1u);
}

// Regression (ISSUE 5 bug 2): the FORMERR path used to hardcode flag bytes
// 0x80 0x01, discarding the client's OPCODE and RD bit that RFC 1035 §4.1.1
// requires a responder to echo (and wrongly asserting RD for clients that
// never set it).
TEST(ServePacketTest, FormerrEchoesOpcodeAndRdBit) {
  auto shard = MakeShard();
  // OPCODE 0, RD set, QDCOUNT 0 -> ParseWireQuery rejects it as malformed.
  std::vector<uint8_t> packet = {0xAB, 0xCD, 0x01, 0x00, 0, 0, 0, 0, 0, 0, 0, 0};
  ServeOutcome outcome =
      ServePacket(shard.get(), packet.data(), packet.size(), kMaxUdpPayload, nullptr);
  EXPECT_TRUE(outcome.parse_error);
  ASSERT_EQ(outcome.wire.size(), 12u);
  EXPECT_EQ(outcome.wire[0], 0xAB);
  EXPECT_EQ(outcome.wire[1], 0xCD);
  EXPECT_EQ(outcome.wire[2], 0x80 | 0x01);  // QR + echoed RD
  EXPECT_EQ(outcome.wire[3], 0x01);         // FORMERR

  // A query without RD must NOT get RD reflected back.
  std::vector<uint8_t> no_rd = {0x00, 0x01, 0x00, 0x00, 0, 0, 0, 0, 0, 0, 0, 0};
  outcome = ServePacket(shard.get(), no_rd.data(), no_rd.size(), kMaxUdpPayload, nullptr);
  EXPECT_TRUE(outcome.parse_error);
  EXPECT_EQ(outcome.wire[2], 0x80);
  EXPECT_EQ(outcome.wire[2] & 0x01, 0);
}

// ISSUE 9 bugfix: a well-formed packet whose OPCODE is not QUERY used to be
// lumped in with unparseable garbage and answered FORMERR. RFC 1035 §4.1.1
// says an unimplemented kind of request gets NOTIMP — the packet parsed
// fine, the operation is just unsupported.
TEST(ServePacketTest, NonQueryOpcodesGetNotimpNotFormerr) {
  auto shard = MakeShard();
  for (uint8_t opcode : {uint8_t{1}, uint8_t{2}, uint8_t{4}}) {  // IQUERY, STATUS, NOTIFY
    SCOPED_TRACE(static_cast<int>(opcode));
    std::vector<uint8_t> packet = {0xAB, 0xCD, static_cast<uint8_t>(opcode << 3 | 0x01),
                                   0x00, 0,    1,
                                   0,    0,    0,
                                   0,    0,    0};
    // Well-formed question section, so only the opcode is objectionable.
    const uint8_t question[] = {3, 'w', 'w', 'w', 4, 'c', 'o', 'r', 'p',
                               4, 't', 'e', 's', 't', 0, 0, 1, 0, 1};
    packet.insert(packet.end(), question, question + sizeof(question));
    ServerStats stats;
    ServeOutcome outcome =
        ServePacket(shard.get(), packet.data(), packet.size(), kMaxUdpPayload, &stats);
    EXPECT_TRUE(outcome.not_implemented);
    EXPECT_FALSE(outcome.parse_error);
    ASSERT_EQ(outcome.wire.size(), 12u);
    EXPECT_EQ(outcome.wire[0], 0xAB);
    EXPECT_EQ(outcome.wire[1], 0xCD);
    EXPECT_EQ(outcome.wire[2], 0x80 | (opcode << 3) | 0x01);  // QR + opcode + RD echoed
    EXPECT_EQ(outcome.wire[3], 0x04);                         // NOTIMP
    EXPECT_EQ(stats.parse_failures.load(), 0u);  // not a parse failure
    EXPECT_EQ(stats.rcodes[4].load(), 1u);
  }

  // A *response* (QR=1) with a weird opcode is not a request at all — that
  // stays FORMERR, so reflected responses cannot farm NOTIMPs.
  std::vector<uint8_t> reflected = {0xAB, 0xCD, 0x90, 0x00, 0, 0, 0, 0, 0, 0, 0, 0};
  ServeOutcome outcome =
      ServePacket(shard.get(), reflected.data(), reflected.size(), kMaxUdpPayload, nullptr);
  EXPECT_TRUE(outcome.parse_error);
  EXPECT_FALSE(outcome.not_implemented);
  EXPECT_EQ(outcome.wire[3], 0x01);
}

TEST(BuildErrorResponseTest, TruncatedHeadersGetBestEffortEcho) {
  // Nothing to echo: ID stays 0, flags are just QR.
  std::vector<uint8_t> empty = BuildErrorResponse(nullptr, 0, Rcode::kFormErr);
  ASSERT_EQ(empty.size(), 12u);
  EXPECT_EQ(empty[0], 0);
  EXPECT_EQ(empty[1], 0);
  EXPECT_EQ(empty[2], 0x80);
  EXPECT_EQ(empty[3], 0x01);

  // Two bytes: the ID is echoed, the flags word is not guessed at.
  uint8_t two[] = {0x12, 0x34};
  std::vector<uint8_t> id_only = BuildErrorResponse(two, sizeof(two), Rcode::kFormErr);
  EXPECT_EQ(id_only[0], 0x12);
  EXPECT_EQ(id_only[1], 0x34);
  EXPECT_EQ(id_only[2], 0x80);
}

// Every query_reject_* packet in the fuzz corpus must produce a FORMERR
// whose header echoes the client's ID/OPCODE/RD per the rules above.
TEST(ServePacketTest, CorpusRejectPacketsGetConformantFormerr) {
  auto shard = MakeShard();
  int tested = 0;
  for (const auto& entry : std::filesystem::directory_iterator(DNSV_WIRE_CORPUS_DIR)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("query_reject_", 0) != 0) {
      continue;
    }
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    Result<std::vector<uint8_t>> packet = HexToWirePacket(text.str());
    ASSERT_TRUE(packet.ok()) << name << ": " << packet.error();
    const std::vector<uint8_t>& bytes = packet.value();
    ServerStats stats;
    ServeOutcome outcome =
        ServePacket(shard.get(), bytes.data(), bytes.size(), kMaxUdpPayload, &stats);
    EXPECT_TRUE(outcome.parse_error) << name;
    // RFC 6891 §7: when the (tolerantly scanned) query carried an OPT, the
    // FORMERR echoes one — 11 extra bytes and ARCOUNT 1.
    EdnsInfo scanned;
    ScanQueryForOpt(bytes.data(), bytes.size(), &scanned);
    ASSERT_EQ(outcome.wire.size(), scanned.present ? 23u : 12u) << name;
    EXPECT_EQ(outcome.wire[11], scanned.present ? 1 : 0) << name;  // ARCOUNT
    if (scanned.present) {
      EXPECT_EQ(outcome.wire[12], 0x00) << name;  // root owner
      EXPECT_EQ(outcome.wire[13], 0x00) << name;
      EXPECT_EQ(outcome.wire[14], 41) << name;  // TYPE=OPT
    }
    EXPECT_EQ(outcome.wire[3], 0x01) << name;                   // FORMERR
    EXPECT_EQ(outcome.wire[2] & 0x80, 0x80) << name;            // QR set
    if (bytes.size() >= 2) {
      EXPECT_EQ(outcome.wire[0], bytes[0]) << name;
      EXPECT_EQ(outcome.wire[1], bytes[1]) << name;
    }
    if (bytes.size() >= 4) {
      EXPECT_EQ(outcome.wire[2] & 0x79, bytes[2] & 0x79) << name;  // OPCODE + RD echoed
    }
    EXPECT_EQ(stats.parse_failures.load(), 1u) << name;
    ++tested;
  }
  EXPECT_GE(tested, 3);  // the corpus ships at least 3 reject queries
}

// Every query_notimp_* packet (well-formed, OPCODE outside the QUERY
// subset: IQUERY, STATUS, NOTIFY) must produce a NOTIMP with the header
// echo rules of BuildErrorResponse.
TEST(ServePacketTest, CorpusNotimpPacketsGetNotimp) {
  auto shard = MakeShard();
  int tested = 0;
  for (const auto& entry : std::filesystem::directory_iterator(DNSV_WIRE_CORPUS_DIR)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("query_notimp_", 0) != 0) {
      continue;
    }
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    Result<std::vector<uint8_t>> packet = HexToWirePacket(text.str());
    ASSERT_TRUE(packet.ok()) << name << ": " << packet.error();
    const std::vector<uint8_t>& bytes = packet.value();
    ServerStats stats;
    ServeOutcome outcome =
        ServePacket(shard.get(), bytes.data(), bytes.size(), kMaxUdpPayload, &stats);
    EXPECT_TRUE(outcome.not_implemented) << name;
    EXPECT_FALSE(outcome.parse_error) << name;
    ASSERT_EQ(outcome.wire.size(), 12u) << name;
    EXPECT_EQ(outcome.wire[3], 0x04) << name;                    // NOTIMP
    EXPECT_EQ(outcome.wire[2] & 0x80, 0x80) << name;             // QR set
    EXPECT_EQ(outcome.wire[0], bytes[0]) << name;
    EXPECT_EQ(outcome.wire[1], bytes[1]) << name;
    EXPECT_EQ(outcome.wire[2] & 0x79, bytes[2] & 0x79) << name;  // OPCODE + RD echoed
    EXPECT_NE(bytes[2] & 0x78, 0) << name;  // the corpus packet really is non-QUERY
    EXPECT_EQ(stats.parse_failures.load(), 0u) << name;
    EXPECT_EQ(stats.rcodes[4].load(), 1u) << name;
    ++tested;
  }
  EXPECT_GE(tested, 3);  // IQUERY, STATUS, NOTIFY
}

// Regression (ISSUE 5 bug 3): `dns_server zone.txt 99999` used to truncate
// the port mod 2^16 via atoi, and "abc" became port 0 (kernel-assigned).
TEST(ParsePortTest, RejectsWhatAtoiSilentlyMangled) {
  EXPECT_FALSE(ParsePort("99999").ok());   // atoi: 34463
  EXPECT_FALSE(ParsePort("65536").ok());   // atoi: 0
  EXPECT_FALSE(ParsePort("abc").ok());     // atoi: 0
  EXPECT_FALSE(ParsePort("53x").ok());     // atoi: 53
  EXPECT_FALSE(ParsePort("0").ok());       // reserved: means kernel-assigned
  EXPECT_FALSE(ParsePort("").ok());
  EXPECT_FALSE(ParsePort("-1").ok());
  EXPECT_FALSE(ParsePort(" 53").ok());
  EXPECT_FALSE(ParsePort("999999999999999999999").ok());  // would overflow int
  ASSERT_TRUE(ParsePort("53").ok());
  EXPECT_EQ(ParsePort("53").value(), 53);
  ASSERT_TRUE(ParsePort("65535").ok());
  EXPECT_EQ(ParsePort("65535").value(), 65535);
  ASSERT_TRUE(ParsePort("1").ok());
  EXPECT_EQ(ParsePort("1").value(), 1);
}

// RFC 6891 §6.1.3: an EDNS version we do not implement gets BADVERS — header
// rcode nibble 0, extended-RCODE byte 1 in the echoed OPT — without running
// the engine, and the dedicated counter (not the 4-bit histogram) records it.
TEST(ServePacketTest, EdnsVersionAboveZeroGetsBadvers) {
  auto shard = MakeShard();
  ServerStats stats;
  std::vector<uint8_t> packet =
      EdnsQueryPacket("www.example.com", RrType::kA, 4096, /*dnssec_ok=*/true, /*version=*/1);
  ServeOutcome outcome =
      ServePacket(shard.get(), packet.data(), packet.size(), kMaxUdpPayload, &stats);
  EXPECT_TRUE(outcome.badvers);
  EXPECT_FALSE(outcome.parse_error);
  ASSERT_EQ(outcome.wire.size(), 23u);  // header + OPT echo
  EXPECT_EQ(outcome.wire[3] & 0xF, 0);  // header nibble: the low 4 bits of 16
  EXPECT_EQ(outcome.wire[11], 1);       // ARCOUNT
  EXPECT_EQ(outcome.wire[14], 41);      // TYPE=OPT
  EXPECT_EQ(outcome.wire[17], 1);       // extended RCODE: BADVERS >> 4
  EXPECT_EQ(outcome.wire[18], 0);       // our version
  EXPECT_EQ(outcome.wire[19] & 0x80, 0x80);  // DO echoed
  EXPECT_EQ(stats.badvers_responses.load(), 1u);
  EXPECT_EQ(stats.edns_queries.load(), 1u);
}

// The negotiated limit governs: an OPT advertising 4096 lets a wide answer
// through UDP untruncated, while the same query without an OPT truncates at
// 512 — and every EDNS answer echoes exactly one OPT.
TEST(ServePacketTest, EdnsPayloadLiftsTheUdpClamp) {
  Result<std::unique_ptr<AuthoritativeServer>> shard =
      AuthoritativeServer::Create(EngineVersion::kV5, WideRrsetZone());
  ASSERT_TRUE(shard.ok()) << shard.error();
  ServerStats stats;

  std::vector<uint8_t> edns = EdnsQueryPacket("www.example.com", RrType::kA, 4096);
  ServeOutcome big =
      ServePacket(shard.value().get(), edns.data(), edns.size(), kMaxUdpPayload, &stats);
  EXPECT_FALSE(big.truncated);
  EXPECT_GT(big.wire.size(), kMaxUdpPayload);
  WireQuery echoed;
  Result<ResponseView> view = ParseWireResponse(big.wire, &echoed);
  ASSERT_TRUE(view.ok()) << view.error();
  EXPECT_TRUE(echoed.edns.present);
  EXPECT_EQ(view.value().answer.size(), 40u);
  EXPECT_EQ(stats.edns_queries.load(), 1u);

  // A 1232 advertisement truncates the same answer midway — and keeps the OPT.
  std::vector<uint8_t> mid = EdnsQueryPacket("www.example.com", RrType::kA, 1232);
  ServeOutcome flag_day =
      ServePacket(shard.value().get(), mid.data(), mid.size(), kMaxUdpPayload, &stats);
  EXPECT_TRUE(flag_day.truncated);
  EXPECT_LE(flag_day.wire.size(), 1232u);
  WireQuery echoed_mid;
  ASSERT_TRUE(ParseWireResponse(flag_day.wire, &echoed_mid).ok());
  EXPECT_TRUE(echoed_mid.edns.present);

  // No OPT, no negotiation: the classic 512 clamp, and no OPT in the answer.
  std::vector<uint8_t> plain = QueryPacket("www.example.com", RrType::kA);
  ServeOutcome clamped =
      ServePacket(shard.value().get(), plain.data(), plain.size(), kMaxUdpPayload, &stats);
  EXPECT_TRUE(clamped.truncated);
  EXPECT_LE(clamped.wire.size(), kMaxUdpPayload);
  WireQuery echoed_plain;
  ASSERT_TRUE(ParseWireResponse(clamped.wire, &echoed_plain).ok());
  EXPECT_FALSE(echoed_plain.edns.present);
  // EDNS governs UDP only: over TCP the transport limit wins (RFC 6891
  // §6.2.5), even for a 512-advertising client.
  std::vector<uint8_t> small = EdnsQueryPacket("www.example.com", RrType::kA, 512);
  ServeOutcome tcp =
      ServePacket(shard.value().get(), small.data(), small.size(), kMaxTcpPayload, &stats);
  EXPECT_FALSE(tcp.truncated);
}

// Every new label takes the midpoint between its interned neighbours, so
// m, ma, maa, ... halve one gap of the shard's label code space per query.
// Query labels are query-scoped: a long-lived shard must answer each such
// query exactly as a fresh shard does, and keep no label of it afterwards.
TEST(ServePacketTest, HostileLabelSequencesLeaveTheInternerUnchanged) {
  for (BackendKind backend : {BackendKind::kInterp, BackendKind::kCompiled}) {
    SCOPED_TRACE(BackendKindName(backend));
    Result<std::unique_ptr<AuthoritativeServer>> shard =
        AuthoritativeServer::Create(EngineVersion::kV5, KitchenSinkZone(), backend);
    ASSERT_TRUE(shard.ok()) << shard.error();
    const size_t labels_before = shard.value()->interner().size();
    for (int i = 0; i < 200; ++i) {
      // Labels stay within 63 bytes: four runs of m.., n.., o.., p...
      std::string label(1, static_cast<char>('m' + i / 62));
      label.append(static_cast<size_t>(i % 62), 'a');
      std::vector<uint8_t> packet = QueryPacket(label + ".example.com", RrType::kA);
      ServeOutcome served = ServePacket(shard.value().get(), packet.data(), packet.size(),
                                        kMaxUdpPayload, nullptr);
      Result<std::unique_ptr<AuthoritativeServer>> fresh =
          AuthoritativeServer::Create(EngineVersion::kV5, KitchenSinkZone(), backend);
      ASSERT_TRUE(fresh.ok()) << fresh.error();
      ServeOutcome reference = ServePacket(fresh.value().get(), packet.data(), packet.size(),
                                           kMaxUdpPayload, nullptr);
      ASSERT_EQ(served.wire, reference.wire) << "query " << i << ": " << label;
    }
    EXPECT_EQ(shard.value()->interner().size(), labels_before);
  }
}

// One qname of 84 two-byte labels, each sorting just below the one interned
// before it, nests 84 midpoints into a single gap: more halvings than the
// code space has bits. The query gets SERVFAIL and the shard lives on.
TEST(ServePacketTest, QnameThatExhaustsALabelGapGetsServfail) {
  Result<std::unique_ptr<AuthoritativeServer>> shard =
      AuthoritativeServer::Create(EngineVersion::kV5, KitchenSinkZone(), BackendKind::kCompiled);
  ASSERT_TRUE(shard.ok()) << shard.error();
  const size_t labels_before = shard.value()->interner().size();
  WireQuery query;
  query.id = 0x5151;
  query.qtype = RrType::kA;
  for (int k = 0; k < 84; ++k) {
    // Labels are interned root-first, so the wire order ascends.
    query.qname.labels.push_back(std::string{'a', static_cast<char>(0x80 + k)});
  }
  std::vector<uint8_t> packet = EncodeWireQuery(query);
  ServerStats stats;
  ServeOutcome served =
      ServePacket(shard.value().get(), packet.data(), packet.size(), kMaxUdpPayload, &stats);
  ASSERT_FALSE(served.parse_error);
  WireQuery echoed;
  Result<ResponseView> view = ParseWireResponse(served.wire, &echoed);
  ASSERT_TRUE(view.ok()) << view.error();
  EXPECT_EQ(view.value().rcode, Rcode::kServFail);
  EXPECT_EQ(shard.value()->interner().size(), labels_before);

  std::vector<uint8_t> next = QueryPacket("www.example.com", RrType::kA);
  ServeOutcome after =
      ServePacket(shard.value().get(), next.data(), next.size(), kMaxUdpPayload, &stats);
  ASSERT_TRUE(ParseWireResponse(after.wire, &echoed).ok());
  EXPECT_EQ(ParseWireResponse(after.wire, &echoed).value().rcode, Rcode::kNoError);
}

TEST(ServePacketTest, UdpClampTruncatesAndTcpLimitServesInFull) {
  Result<std::unique_ptr<AuthoritativeServer>> shard =
      AuthoritativeServer::Create(EngineVersion::kGolden, WideRrsetZone());
  ASSERT_TRUE(shard.ok()) << shard.error();
  ServerStats stats;
  std::vector<uint8_t> packet = QueryPacket("www.example.com", RrType::kA);

  ServeOutcome udp =
      ServePacket(shard.value().get(), packet.data(), packet.size(), kMaxUdpPayload, &stats);
  EXPECT_TRUE(udp.truncated);
  EXPECT_LE(udp.wire.size(), kMaxUdpPayload);
  EXPECT_EQ(stats.truncated_responses.load(), 1u);

  ServeOutcome tcp =
      ServePacket(shard.value().get(), packet.data(), packet.size(), kMaxTcpPayload, &stats);
  EXPECT_FALSE(tcp.truncated);
  WireQuery echoed;
  Result<ResponseView> view = ParseWireResponse(tcp.wire, &echoed);
  ASSERT_TRUE(view.ok()) << view.error();
  EXPECT_EQ(view.value().answer.size(), 40u);
}

}  // namespace
}  // namespace dnsv
