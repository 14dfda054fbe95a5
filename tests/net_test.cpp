//===- tests/net_test.cpp - sld socket subsystem tests ---------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//===----------------------------------------------------------------------===//
// The network front end: wire framing (torn/short frames, oversized
// payloads, bad magic), protocol encode/decode strictness, the options
// round-trip helpers, and the Server/Client pair end to end over real
// sockets -- including N concurrent clients on one key observing the
// single-flight, WARM-then-GET warm hits, and (compiler-gated) numeric
// identity between a locally generated kernel and one served over the
// socket and dlopen'd from the shipped bytes.
//===----------------------------------------------------------------------===//

#include "la/Programs.h"
#include "net/Client.h"
#include "net/Protocol.h"
#include "net/Server.h"
#include "net/Wire.h"
#include "runtime/Jit.h"
#include "service/KernelService.h"
#include "slingen/OptionsIO.h"
#include "support/Random.h"

#include "TestData.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include <stdlib.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace slingen;
using namespace slingen::net;
using namespace slingen::testdata;

namespace {

/// RAII temporary directory (socket files, cache dirs).
struct TempDir {
  TempDir() {
    char Tmpl[] = "/tmp/slingen_net_XXXXXX";
    Path = mkdtemp(Tmpl);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string Path;
};

/// A connected AF_UNIX stream pair for wire-level tests.
struct SocketPair {
  int A = -1, B = -1;
  SocketPair() {
    int Fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) == 0) {
      A = Fds[0];
      B = Fds[1];
    }
  }
  ~SocketPair() {
    if (A >= 0)
      close(A);
    if (B >= 0)
      close(B);
  }
};

/// A raw client socket speaking (possibly broken) bytes at a server.
int rawConnect(const std::string &Path) {
  int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un SA{};
  SA.sun_family = AF_UNIX;
  strncpy(SA.sun_path, Path.c_str(), sizeof(SA.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&SA), sizeof(SA)) != 0) {
    close(Fd);
    return -1;
  }
  return Fd;
}

Request potrfRequest(const std::string &Func, const VectorISA &Isa,
                     int N = 8) {
  GenOptions O;
  O.Isa = &Isa;
  O.FuncName = Func;
  Request R;
  R.LaSource = la::potrfSource(N);
  R.OptionsText = serializeGenOptions(O);
  return R;
}

//===----------------------------------------------------------------------===//
// Wire framing
//===----------------------------------------------------------------------===//

TEST(Wire, FrameRoundTrip) {
  SocketPair SP;
  ASSERT_GE(SP.A, 0);
  std::string Payload = "hello sld";
  Payload.push_back('\0'); // binary-safe
  Payload += "tail";
  std::string Err;
  ASSERT_TRUE(writeFrame(SP.A, Verb::Get, Payload, Err)) << Err;
  ASSERT_TRUE(writeFrame(SP.A, Verb::Ping, "", Err)) << Err;

  Frame F;
  ASSERT_EQ(readFrame(SP.B, F, Err), ReadStatus::Ok) << Err;
  EXPECT_EQ(F.verb(), Verb::Get);
  EXPECT_EQ(F.Payload, Payload);
  ASSERT_EQ(readFrame(SP.B, F, Err), ReadStatus::Ok) << Err;
  EXPECT_EQ(F.verb(), Verb::Ping);
  EXPECT_TRUE(F.Payload.empty());

  // Clean close between frames is Eof, not an error.
  close(SP.A);
  SP.A = -1;
  EXPECT_EQ(readFrame(SP.B, F, Err), ReadStatus::Eof);
}

TEST(Wire, TornHeaderAndTornPayloadAreErrors) {
  {
    SocketPair SP;
    // Half a header, then close.
    ASSERT_EQ(write(SP.A, "sld2\x01\xff", 6), 6);
    close(SP.A);
    SP.A = -1;
    Frame F;
    std::string Err;
    EXPECT_EQ(readFrame(SP.B, F, Err), ReadStatus::Error);
    EXPECT_NE(Err.find("torn frame"), std::string::npos) << Err;
  }
  {
    SocketPair SP;
    // A full header promising 100 payload bytes, only 3 delivered.
    std::string Hdr = "sld2";
    Hdr.push_back(0x01);
    Hdr.push_back(100);
    Hdr.append(3, '\0');
    Hdr += "abc";
    ASSERT_EQ(write(SP.A, Hdr.data(), Hdr.size()),
              static_cast<ssize_t>(Hdr.size()));
    close(SP.A);
    SP.A = -1;
    Frame F;
    std::string Err;
    EXPECT_EQ(readFrame(SP.B, F, Err), ReadStatus::Error);
    EXPECT_NE(Err.find("torn frame"), std::string::npos) << Err;
  }
}

TEST(Wire, BadMagicIsRejected) {
  SocketPair SP;
  ASSERT_EQ(write(SP.A, "HTTP/1.1 ", 9), 9);
  Frame F;
  std::string Err;
  EXPECT_EQ(readFrame(SP.B, F, Err), ReadStatus::Error);
  EXPECT_NE(Err.find("magic"), std::string::npos) << Err;
}

TEST(Wire, OversizedPayloadIsRejectedBeforeReading) {
  SocketPair SP;
  std::string Err;
  // Declared length 2 MiB against a 1 MiB cap; no payload bytes follow,
  // proving rejection happens on the header alone.
  std::string Hdr = "sld2";
  Hdr.push_back(0x01);
  uint32_t Len = 2u << 20;
  for (int I = 0; I < 4; ++I)
    Hdr.push_back(static_cast<char>((Len >> (8 * I)) & 0xff));
  ASSERT_EQ(write(SP.A, Hdr.data(), Hdr.size()),
            static_cast<ssize_t>(Hdr.size()));
  Frame F;
  EXPECT_EQ(readFrame(SP.B, F, Err, /*MaxPayload=*/1u << 20),
            ReadStatus::Error);
  EXPECT_NE(Err.find("exceeds"), std::string::npos) << Err;
}

TEST(Wire, ByteReaderNeverOverruns) {
  ByteWriter W;
  W.u8(7);
  W.u32(123456);
  W.u64(0x1122334455667788ULL);
  W.f64(3.25);
  W.str("abc");
  std::string Data = W.take();

  ByteReader B(Data);
  uint8_t V8;
  uint32_t V32;
  uint64_t V64;
  double D;
  std::string S;
  ASSERT_TRUE(B.u8(V8));
  ASSERT_TRUE(B.u32(V32));
  ASSERT_TRUE(B.u64(V64));
  ASSERT_TRUE(B.f64(D));
  ASSERT_TRUE(B.str(S));
  EXPECT_EQ(V8, 7);
  EXPECT_EQ(V32, 123456u);
  EXPECT_EQ(V64, 0x1122334455667788ULL);
  EXPECT_EQ(D, 3.25);
  EXPECT_EQ(S, "abc");
  EXPECT_TRUE(B.atEnd());

  // Every truncation point fails cleanly.
  for (size_t Cut = 0; Cut < Data.size(); ++Cut) {
    std::string Short = Data.substr(0, Cut);
    ByteReader T(Short);
    bool Ok = T.u8(V8) && T.u32(V32) && T.u64(V64) && T.f64(D) && T.str(S);
    EXPECT_FALSE(Ok && Cut < Data.size());
  }

  // A string whose length prefix promises more than the buffer holds.
  ByteWriter W2;
  W2.u32(1000);
  std::string Lying = W2.take() + "short";
  ByteReader L(Lying);
  EXPECT_FALSE(L.str(S));
}

//===----------------------------------------------------------------------===//
// Protocol messages
//===----------------------------------------------------------------------===//

TEST(Protocol, RequestRoundTrip) {
  Request R;
  R.LaSource = "Mat A(4,4) <In>;\n";
  R.OptionsText = "isa=avx\nfunc=k\n";
  R.Batched = true;
  R.StrategyName = "fused";
  R.Threads = 4;
  R.MeasureOverride = 1;
  R.WantSo = false;

  Request D;
  std::string Err;
  ASSERT_TRUE(decodeRequest(encodeRequest(R), D, Err)) << Err;
  EXPECT_EQ(D.LaSource, R.LaSource);
  EXPECT_EQ(D.OptionsText, R.OptionsText);
  EXPECT_EQ(D.Batched, R.Batched);
  EXPECT_EQ(D.StrategyName, R.StrategyName);
  EXPECT_EQ(D.Threads, 4);
  EXPECT_EQ(D.MeasureOverride, 1);
  EXPECT_EQ(D.WantSo, false);

  // Unset overrides survive as unset.
  R.MeasureOverride = -1;
  R.Threads = 0;
  ASSERT_TRUE(decodeRequest(encodeRequest(R), D, Err));
  EXPECT_EQ(D.MeasureOverride, -1);
  EXPECT_EQ(D.Threads, 0);

  // Truncated and trailing-garbage payloads are rejected.
  std::string Enc = encodeRequest(R);
  EXPECT_FALSE(decodeRequest(Enc.substr(0, Enc.size() / 2), D, Err));
  EXPECT_FALSE(decodeRequest(Enc + "x", D, Err));
}

TEST(Protocol, ArtifactRoundTrip) {
  ArtifactMsg A;
  A.Key = "00deadbeef001122";
  A.FuncName = "potrf8";
  A.IsaName = "avx";
  A.NumParams = 2;
  A.Batched = true;
  A.StrategyName = "loop";
  A.BatchThreads = 8;
  A.Choice = {2, 0, 1};
  A.StaticCost = 1048;
  A.Measured = true;
  A.MeasuredCycles = 812.5;
  A.CSource = "void potrf8(double*, double*);";
  A.SoBytes = std::string("\x7f""ELF\x00\x01binary", 12);

  ArtifactMsg D;
  std::string Err;
  ASSERT_TRUE(decodeArtifact(encodeArtifact(A), D, Err)) << Err;
  EXPECT_EQ(D.Key, A.Key);
  EXPECT_EQ(D.FuncName, A.FuncName);
  EXPECT_EQ(D.IsaName, A.IsaName);
  EXPECT_EQ(D.NumParams, A.NumParams);
  EXPECT_EQ(D.Batched, A.Batched);
  EXPECT_EQ(D.StrategyName, A.StrategyName);
  EXPECT_EQ(D.BatchThreads, 8);
  EXPECT_EQ(D.Choice, A.Choice);
  EXPECT_EQ(D.StaticCost, A.StaticCost);
  EXPECT_EQ(D.Measured, A.Measured);
  EXPECT_EQ(D.MeasuredCycles, A.MeasuredCycles);
  EXPECT_EQ(D.CSource, A.CSource);
  EXPECT_EQ(D.SoBytes, A.SoBytes);

  std::string Enc = encodeArtifact(A);
  for (size_t Cut : {size_t(0), size_t(3), Enc.size() / 2, Enc.size() - 1})
    EXPECT_FALSE(decodeArtifact(Enc.substr(0, Cut), D, Err));
}

TEST(Protocol, RequestToServiceArgsValidates) {
  Request R = potrfRequest("net_ok", avxIsa());
  GenOptions O;
  service::RequestOptions Req;
  std::string Err;
  ASSERT_TRUE(requestToServiceArgs(R, O, Req, Err)) << Err;
  EXPECT_EQ(std::string(O.Isa->Name), "avx");
  EXPECT_EQ(O.FuncName, "net_ok");
  EXPECT_FALSE(Req.Strategy.has_value());
  EXPECT_FALSE(Req.Measure.has_value());

  R.StrategyName = "loop";
  R.MeasureOverride = 0;
  R.Threads = 3;
  ASSERT_TRUE(requestToServiceArgs(R, O, Req, Err));
  EXPECT_EQ(*Req.Strategy, BatchStrategy::ScalarLoop);
  EXPECT_EQ(*Req.Measure, false);
  EXPECT_EQ(*Req.Threads, 3);

  // "vec" named a batch strategy that is no longer emitted.
  R.StrategyName = "vec";
  EXPECT_FALSE(requestToServiceArgs(R, O, Req, Err));
  EXPECT_NE(Err.find("unknown batch strategy"), std::string::npos) << Err;

  R.StrategyName = "fused";
  ASSERT_TRUE(requestToServiceArgs(R, O, Req, Err));
  EXPECT_EQ(*Req.Strategy, BatchStrategy::InstanceParallelFused);

  R.Threads = 0;
  ASSERT_TRUE(requestToServiceArgs(R, O, Req, Err));
  EXPECT_FALSE(Req.Threads.has_value());

  R.StrategyName = "bogus";
  EXPECT_FALSE(requestToServiceArgs(R, O, Req, Err));
  R.StrategyName.clear();
  R.OptionsText = "isa=vax11\n";
  EXPECT_FALSE(requestToServiceArgs(R, O, Req, Err));
  R.OptionsText = "func=8startsWithDigit\n";
  EXPECT_FALSE(requestToServiceArgs(R, O, Req, Err));
  R.OptionsText = "no-such-option=1\n";
  EXPECT_FALSE(requestToServiceArgs(R, O, Req, Err));
}

TEST(Protocol, GenOptionsSerializationRoundTrips) {
  GenOptions O;
  O.Isa = &sse2Isa();
  O.FuncName = "roundtrip";
  O.BlockSize = 8;
  O.UnrollK = 3;
  O.EnableCse = false;
  std::string Doc = serializeGenOptions(O);

  GenOptions D;
  std::string Err;
  ASSERT_TRUE(deserializeGenOptions(Doc, D, Err)) << Err;
  EXPECT_EQ(serializeGenOptions(D), Doc);
  EXPECT_EQ(optionsFingerprint(D), optionsFingerprint(O));
  EXPECT_EQ(std::string(D.Isa->Name), "sse2");
  EXPECT_EQ(D.BlockSize, 8);
  EXPECT_FALSE(D.EnableCse);
}

TEST(Protocol, ServiceConfigSerializationRoundTrips) {
  service::ServiceConfig C;
  C.MemCapacity = 7;
  C.CacheDir = "/tmp/somewhere";
  C.Measure = true;
  C.Strategy = BatchStrategy::InstanceParallelFused;
  C.BatchThreads = 6;
  C.CacheMaxBytes = 1 << 20;
  C.PrefetchWorkers = 5;
  std::string Doc = service::serializeServiceConfig(C);

  service::ServiceConfig D;
  std::string Err;
  ASSERT_TRUE(service::deserializeServiceConfig(Doc, D, Err)) << Err;
  EXPECT_EQ(service::serializeServiceConfig(D), Doc);
  EXPECT_EQ(D.MemCapacity, 7u);
  EXPECT_EQ(D.CacheDir, "/tmp/somewhere");
  EXPECT_TRUE(D.Measure);
  EXPECT_EQ(D.Strategy, BatchStrategy::InstanceParallelFused);
  EXPECT_EQ(D.BatchThreads, 6);
  EXPECT_EQ(D.CacheMaxBytes, 1 << 20);
  EXPECT_EQ(D.PrefetchWorkers, 5);

  EXPECT_FALSE(service::applyServiceConfigOption(D, "mem-capacity", "0",
                                                 Err));
  EXPECT_FALSE(service::applyServiceConfigOption(D, "strategy", "bogus",
                                                 Err));
  EXPECT_FALSE(service::applyServiceConfigOption(D, "strategy", "vec", Err));
  EXPECT_NE(Err.find("(loop, fused, or auto)"), std::string::npos) << Err;
  EXPECT_FALSE(service::applyServiceConfigOption(D, "batch-threads", "-1",
                                                 Err));
  EXPECT_FALSE(service::applyServiceConfigOption(D, "cache-max-bytes", "x",
                                                 Err));
  EXPECT_FALSE(service::applyServiceConfigOption(D, "nope", "1", Err));
}

TEST(Protocol, ErrorPayloadRoundTripsTheCode) {
  std::string Payload =
      encodeErrorPayload(service::Errc::ParseError, "parse error: line 3");
  std::optional<service::Errc> Code;
  std::string Msg;
  decodeErrorPayload(Payload, Code, Msg);
  ASSERT_TRUE(Code.has_value());
  EXPECT_EQ(*Code, service::Errc::ParseError);
  EXPECT_EQ(Msg, "parse error: line 3");

  // A message that merely *looks* prefixed must not decode as a code, and
  // untagged payloads (pre-code daemons) survive as plain messages.
  decodeErrorPayload("parse error: not a token", Code, Msg);
  EXPECT_FALSE(Code.has_value());
  EXPECT_EQ(Msg, "parse error: not a token");
  decodeErrorPayload("no separator here", Code, Msg);
  EXPECT_FALSE(Code.has_value());
  // An ERR frame claiming success is nonsense; "ok" must not decode.
  decodeErrorPayload("ok: all good", Code, Msg);
  EXPECT_FALSE(Code.has_value());
  EXPECT_EQ(Msg, "ok: all good");
}

TEST(Protocol, ParseAddrForms) {
  ParsedAddr P;
  std::string Err;
  ASSERT_TRUE(parseAddr("unix:/run/sld.sock", P, Err));
  EXPECT_TRUE(P.IsUnix);
  EXPECT_EQ(P.UnixPath, "/run/sld.sock");
  ASSERT_TRUE(parseAddr("/tmp/x.sock", P, Err));
  EXPECT_TRUE(P.IsUnix);
  ASSERT_TRUE(parseAddr("tcp:localhost:9000", P, Err));
  EXPECT_FALSE(P.IsUnix);
  EXPECT_EQ(P.Host, "localhost");
  EXPECT_EQ(P.Port, 9000);
  ASSERT_TRUE(parseAddr("127.0.0.1:81", P, Err));
  EXPECT_EQ(P.Host, "127.0.0.1");
  EXPECT_EQ(P.Port, 81);
  ASSERT_TRUE(parseAddr(":8080", P, Err));
  EXPECT_EQ(P.Host, "127.0.0.1");
  EXPECT_FALSE(parseAddr("justaname", P, Err));
  EXPECT_FALSE(parseAddr("host:", P, Err));
  EXPECT_FALSE(parseAddr("host:99999", P, Err));
  EXPECT_FALSE(parseAddr("host:12ab", P, Err));
}

//===----------------------------------------------------------------------===//
// Server + Client end to end
//===----------------------------------------------------------------------===//

/// A server over a temp Unix socket plus its backing service.
struct TestDaemon {
  explicit TestDaemon(service::ServiceConfig SC = {},
                      ServerConfig NC = {}) // NOLINT
      : Svc(std::move(SC)) {
    if (NC.UnixPath.empty())
      NC.UnixPath = Dir.Path + "/sld.sock";
    Srv.emplace(Svc, NC);
    std::string Err;
    Ok = Srv->start(Err);
    if (!Ok)
      ADD_FAILURE() << "server start failed: " << Err;
  }

  Client client() {
    std::string Err;
    auto C = Client::connect(Srv->unixPath(), Err);
    EXPECT_TRUE(C) << Err;
    return std::move(*C);
  }

  TempDir Dir;
  service::KernelService Svc;
  std::optional<Server> Srv;
  bool Ok = false;
};

TEST(SldServer, PingStatsAndGetServeOverUnixSocket) {
  service::ServiceConfig SC;
  SC.UseCompiler = false; // portable: source-only artifacts
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  Client C = D.client();

  std::string Err;
  EXPECT_TRUE(C.ping(Err)) << Err;

  ArtifactMsg A;
  ASSERT_TRUE(C.get(potrfRequest("net_potrf", scalarIsa()), A, Err)) << Err;
  EXPECT_EQ(A.FuncName, "net_potrf");
  EXPECT_EQ(A.IsaName, "scalar");
  EXPECT_EQ(A.NumParams, 2);
  EXPECT_EQ(A.Key.size(), 16u);
  EXPECT_NE(A.CSource.find("void net_potrf("), std::string::npos);
  EXPECT_TRUE(A.SoBytes.empty()); // no compiler on the daemon

  // A second identical request is a memory-tier hit daemon-side, visible
  // through the STATS verb.
  ASSERT_TRUE(C.get(potrfRequest("net_potrf", scalarIsa()), A, Err)) << Err;
  std::string Stats;
  ASSERT_TRUE(C.stats(Stats, Err)) << Err;
  EXPECT_NE(Stats.find("mem-hits=1"), std::string::npos) << Stats;
  EXPECT_NE(Stats.find("generations=1"), std::string::npos) << Stats;
}

TEST(SldServer, ServesOverLoopbackTcp) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  ServerConfig NC;
  NC.TcpPort = 0; // ephemeral
  service::KernelService Svc(SC);
  Server Srv(Svc, NC);
  std::string Err;
  ASSERT_TRUE(Srv.start(Err)) << Err;
  ASSERT_GT(Srv.tcpPort(), 0);

  auto C = Client::connect("127.0.0.1:" + std::to_string(Srv.tcpPort()),
                           Err);
  ASSERT_TRUE(C) << Err;
  EXPECT_TRUE(C->ping(Err)) << Err;
  ArtifactMsg A;
  ASSERT_TRUE(C->get(potrfRequest("tcp_potrf", scalarIsa()), A, Err))
      << Err;
  EXPECT_EQ(A.FuncName, "tcp_potrf");
}

TEST(SldServer, MalformedRequestGetsErrorAndConnectionSurvives) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);

  int Fd = rawConnect(D.Srv->unixPath());
  ASSERT_GE(Fd, 0);
  std::string Err;

  // Unknown verb: ERR response, connection stays usable.
  ASSERT_TRUE(writeFrame(Fd, static_cast<Verb>(0x7f), "???", Err)) << Err;
  Frame F;
  ASSERT_EQ(readFrame(Fd, F, Err), ReadStatus::Ok) << Err;
  EXPECT_EQ(F.verb(), Verb::Error);
  EXPECT_NE(F.Payload.find("unsupported verb"), std::string::npos);

  // Well-framed garbage request payload: ERR, still alive.
  ASSERT_TRUE(writeFrame(Fd, Verb::Get, "not a request", Err)) << Err;
  ASSERT_EQ(readFrame(Fd, F, Err), ReadStatus::Ok) << Err;
  EXPECT_EQ(F.verb(), Verb::Error);

  // Valid frame, invalid LA program: ERR with the parse diagnostic.
  Request Bad;
  Bad.LaSource = "Mat A(8, 8) <In;"; // syntax error
  ASSERT_TRUE(writeFrame(Fd, Verb::Get, encodeRequest(Bad), Err)) << Err;
  ASSERT_EQ(readFrame(Fd, F, Err), ReadStatus::Ok) << Err;
  EXPECT_EQ(F.verb(), Verb::Error);
  EXPECT_NE(F.Payload.find("parse error"), std::string::npos) << F.Payload;

  // The same connection still serves a good request afterwards.
  ASSERT_TRUE(writeFrame(Fd, Verb::Get,
                         encodeRequest(potrfRequest("after_err",
                                                    scalarIsa())),
                         Err))
      << Err;
  ASSERT_EQ(readFrame(Fd, F, Err), ReadStatus::Ok) << Err;
  EXPECT_EQ(F.verb(), Verb::Artifact);
  close(Fd);
}

TEST(SldServer, OversizedAndTornClientFramesDoNotKillTheDaemon) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  ServerConfig NC;
  NC.MaxPayload = 4096;
  TestDaemon D(SC, NC);
  ASSERT_TRUE(D.Ok);

  {
    // Declare a payload over the server's cap; the server answers ERR and
    // hangs up without reading it.
    int Fd = rawConnect(D.Srv->unixPath());
    ASSERT_GE(Fd, 0);
    std::string Err;
    std::string Hdr = "sld2";
    Hdr.push_back(0x01);
    uint32_t Len = 1u << 20;
    for (int I = 0; I < 4; ++I)
      Hdr.push_back(static_cast<char>((Len >> (8 * I)) & 0xff));
    ASSERT_EQ(write(Fd, Hdr.data(), Hdr.size()),
              static_cast<ssize_t>(Hdr.size()));
    Frame F;
    ASSERT_EQ(readFrame(Fd, F, Err), ReadStatus::Ok) << Err;
    EXPECT_EQ(F.verb(), Verb::Error);
    EXPECT_NE(F.Payload.find("exceeds"), std::string::npos);
    EXPECT_EQ(readFrame(Fd, F, Err), ReadStatus::Eof);
    close(Fd);
  }
  {
    // A client dying mid-frame must only cost its own connection.
    int Fd = rawConnect(D.Srv->unixPath());
    ASSERT_GE(Fd, 0);
    ASSERT_EQ(write(Fd, "sld2\x01", 5), 5);
    close(Fd);
  }
  // The daemon still serves fresh connections.
  Client C = D.client();
  std::string Err;
  EXPECT_TRUE(C.ping(Err)) << Err;
}

TEST(SldServer, ConcurrentClientsOnOneKeySingleFlight) {
  service::ServiceConfig SC;
  SC.UseCompiler = false; // deterministic and portable
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);

  // Multi-HLAC program: generation is slow enough that all clients pile
  // onto the in-flight miss.
  GenOptions O;
  O.Isa = &scalarIsa();
  O.FuncName = "kf_net";
  Request R;
  R.LaSource = la::kalmanSource(8, 8);
  R.OptionsText = serializeGenOptions(O);

  const int NumClients = 6;
  std::vector<Client> Clients;
  for (int I = 0; I < NumClients; ++I)
    Clients.push_back(D.client());

  std::atomic<int> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<std::string> Keys(NumClients);
  std::vector<std::string> Errors(NumClients);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumClients; ++T)
    Threads.emplace_back([&, T] {
      ++Ready;
      while (!Go.load())
        std::this_thread::yield();
      ArtifactMsg A;
      std::string Err;
      if (Clients[T].get(R, A, Err))
        Keys[T] = A.Key;
      else
        Errors[T] = Err;
    });
  while (Ready.load() < NumClients)
    std::this_thread::yield();
  Go = true;
  for (auto &T : Threads)
    T.join();

  for (int T = 0; T < NumClients; ++T) {
    ASSERT_FALSE(Keys[T].empty()) << Errors[T];
    EXPECT_EQ(Keys[T], Keys[0]);
  }
  // The acceptance bar: N concurrent sockets, one generation.
  service::ServiceStats St = D.Svc.stats();
  EXPECT_EQ(St.Generations, 1);
  EXPECT_EQ(St.Misses, 1);
  EXPECT_EQ(St.MemHits + St.FlightJoins, NumClients - 1);
}

TEST(SldServer, WarmThenGetIsAWarmHit) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  Client C = D.client();

  Request R = potrfRequest("warm_potrf", scalarIsa());
  std::string Err;
  ASSERT_TRUE(C.warm(R, Err)) << Err;
  // warm() acks at queue time; drain the pool for determinism.
  D.Svc.drainPrefetches();
  service::ServiceStats St = D.Svc.stats();
  EXPECT_EQ(St.Prefetches, 1);
  EXPECT_EQ(St.Generations, 1);

  ArtifactMsg A;
  ASSERT_TRUE(C.get(R, A, Err)) << Err;
  EXPECT_EQ(A.FuncName, "warm_potrf");
  St = D.Svc.stats();
  EXPECT_EQ(St.Generations, 1) << "the get must ride the warmed entry";
  EXPECT_EQ(St.MemHits, 1);

  // A malformed warm request fails loudly at the client -- both bad
  // options and a program that does not parse.
  Request Bad = R;
  Bad.StrategyName = "bogus";
  EXPECT_FALSE(C.warm(Bad, Err));
  EXPECT_NE(Err.find("bogus"), std::string::npos);
  Request Unparseable = R;
  Unparseable.LaSource = "Mat A(8, 8) <In;";
  EXPECT_FALSE(C.warm(Unparseable, Err));
  EXPECT_NE(Err.find("parse error"), std::string::npos) << Err;
  EXPECT_EQ(D.Svc.stats().Prefetches, 1) << "nothing was queued";
}

TEST(SldServer, RemoteArtifactMatchesLocalServiceExactly) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  TempDir LocalDir, RemoteDir;

  GenOptions O;
  O.Isa = &hostIsa();
  O.FuncName = "potrf_e2e";
  const int N = 8;
  std::string Src = la::potrfSource(N);

  // Reference: a local service with its own cache.
  service::ServiceConfig LocalSC;
  LocalSC.CacheDir = LocalDir.Path;
  service::KernelService Local(LocalSC);
  service::GetResult LocalR = Local.get(Src, O);
  ASSERT_TRUE(LocalR) << LocalR.Error;
  ASSERT_TRUE(LocalR->isCallable());

  // Remote: the same request through a daemon with its own disk tier (so
  // both kernels are compiled under the disk tier's portable flag set and
  // the numerics are bit-comparable).
  service::ServiceConfig SC;
  SC.CacheDir = RemoteDir.Path;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  Client C = D.client();
  Request R;
  R.LaSource = Src;
  R.OptionsText = serializeGenOptions(O);
  ArtifactMsg A;
  std::string Err;
  ASSERT_TRUE(C.get(R, A, Err)) << Err;

  // Identical provenance and identical emitted C.
  EXPECT_EQ(A.Key, LocalR->Key);
  EXPECT_EQ(A.CSource, LocalR->CSource);
  EXPECT_EQ(A.Choice, LocalR->Choice);
  EXPECT_EQ(A.StaticCost, LocalR->StaticCost);
  EXPECT_EQ(A.NumParams, LocalR->NumParams);
  ASSERT_FALSE(A.SoBytes.empty()) << "daemon has a compiler, so the wire "
                                     "artifact must carry the object";

  // The shipped bytes dlopen into a kernel that agrees numerically with
  // the locally compiled one -- the "no compiler on the client" promise.
  auto K = runtime::JitKernel::loadFromBytes(A.SoBytes, A.FuncName,
                                             A.NumParams, Err);
  ASSERT_TRUE(K) << Err;
  Rng Rand(17);
  std::vector<double> In = spd(N, Rand), InCopy = In;
  std::vector<double> XLocal(N * N, 0.0), XRemote(N * N, 0.0);
  double *LocalBufs[2] = {In.data(), XLocal.data()};
  LocalR->call(LocalBufs);
  double *RemoteBufs[2] = {InCopy.data(), XRemote.data()};
  K->call(RemoteBufs);
  EXPECT_LT(maxAbsDiff(XLocal, XRemote), 1e-15);
  double Nonzero = 0.0;
  for (double V : XRemote)
    Nonzero += std::fabs(V);
  EXPECT_GT(Nonzero, 0.0);
}

// Batched flavor of the end-to-end identity promise: a remote batched
// request pinning the fused strategy and a dispatch width serves the C a
// local service generates for the same request, byte for byte, and the
// resolved strategy/threads ride the wire with the artifact.
TEST(SldServer, RemoteBatchedFusedMatchesLocalByteForByte) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  if (hostIsa().Nu < 2)
    GTEST_SKIP() << "host has no vector ISA";
  TempDir LocalDir, RemoteDir;

  GenOptions O;
  O.Isa = &hostIsa();
  O.FuncName = "potrf_bfe2e";
  std::string Src = la::potrfSource(8);

  service::ServiceConfig LocalSC;
  LocalSC.CacheDir = LocalDir.Path;
  service::KernelService Local(LocalSC);
  service::RequestOptions LocalReq;
  LocalReq.Batched = true;
  LocalReq.Strategy = BatchStrategy::InstanceParallelFused;
  LocalReq.Threads = 2;
  service::GetResult LocalR = Local.get(Src, O, LocalReq);
  ASSERT_TRUE(LocalR) << LocalR.Error;
  EXPECT_EQ(LocalR->Strategy, BatchStrategy::InstanceParallelFused);
  EXPECT_EQ(LocalR->BatchThreads, 2);

  service::ServiceConfig SC;
  SC.CacheDir = RemoteDir.Path;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  Client C = D.client();
  Request R;
  R.LaSource = Src;
  R.OptionsText = serializeGenOptions(O);
  R.Batched = true;
  R.StrategyName = "fused";
  R.Threads = 2;
  ArtifactMsg A;
  std::string Err;
  ASSERT_TRUE(C.get(R, A, Err)) << Err;

  EXPECT_EQ(A.Key, LocalR->Key);
  EXPECT_EQ(A.CSource, LocalR->CSource);
  EXPECT_TRUE(A.Batched);
  EXPECT_EQ(A.StrategyName, "fused");
  EXPECT_EQ(A.BatchThreads, 2);
  ASSERT_FALSE(A.SoBytes.empty());

  // The shipped object carries both batched entries (a batched load
  // requires the span entry), so a compiler-less client can dispatch it
  // threaded.
  auto K = runtime::JitKernel::loadFromBytes(A.SoBytes, A.FuncName,
                                             A.NumParams, Err,
                                             /*WithBatchEntry=*/true);
  ASSERT_TRUE(K) << Err;
  EXPECT_TRUE(K->hasBatchEntry());
}

// The structured error categories Client::get surfaces: a daemon-side
// generation/parse failure (Daemon + its Errc), a malformed request
// (Daemon + invalid-request), and a hung-up daemon (Transport) -- the
// distinction the facade's fallback backend retries on.
TEST(SldServer, ClientSurfacesStructuredErrorCategories) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  Client C = D.client();

  // Daemon verdict: the LA source does not parse.
  Request Bad;
  Bad.LaSource = "Mat A(8, 8) <In;";
  ArtifactMsg A;
  ClientError E;
  ASSERT_FALSE(C.get(Bad, A, E));
  EXPECT_EQ(E.Category, ErrorCategory::Daemon);
  ASSERT_TRUE(E.Code.has_value());
  EXPECT_EQ(*E.Code, service::Errc::ParseError);
  EXPECT_NE(E.Message.find("parse error"), std::string::npos);

  // Daemon validation: an unknown strategy name in the request.
  Request BadStrategy = potrfRequest("net_cat", scalarIsa());
  BadStrategy.StrategyName = "bogus";
  ASSERT_FALSE(C.get(BadStrategy, A, E));
  EXPECT_EQ(E.Category, ErrorCategory::Daemon);
  ASSERT_TRUE(E.Code.has_value());
  EXPECT_EQ(*E.Code, service::Errc::InvalidRequest);

  // Transport: the daemon dies under the connection.
  D.Srv->stop();
  ASSERT_FALSE(C.get(potrfRequest("net_cat", scalarIsa()), A, E));
  EXPECT_EQ(E.Category, ErrorCategory::Transport);
  EXPECT_FALSE(E.Code.has_value());
}

TEST(SldServer, StopDisconnectsClientsAndUnlinksSocket) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  auto D = std::make_unique<TestDaemon>(SC);
  ASSERT_TRUE(D->Ok);
  std::string Path = D->Srv->unixPath();
  Client C = D->client();
  std::string Err;
  ASSERT_TRUE(C.ping(Err)) << Err;

  D->Srv->stop();
  EXPECT_FALSE(std::filesystem::exists(Path));
  EXPECT_FALSE(C.ping(Err)); // the daemon hung up

  // stop() is idempotent and safe before destruction.
  D->Srv->stop();
}

//===----------------------------------------------------------------------===//
// Server-timing wire field (optional trailing fields, old/new compat)
//===----------------------------------------------------------------------===//

TEST(Protocol, RequestWantTimingIsOptionalAndTrailing) {
  Request R;
  R.LaSource = "Mat A(4,4) <In>;\n";
  R.OptionsText = "isa=avx\nfunc=k\n";

  // Default request: no trailing byte, so the encoding is byte-identical
  // to the pre-timing wire format.
  std::string Plain = encodeRequest(R);
  R.WantTiming = true;
  std::string WithTiming = encodeRequest(R);
  ASSERT_EQ(WithTiming.size(), Plain.size() + 1);
  EXPECT_EQ(WithTiming.substr(0, Plain.size()), Plain);

  // Both forms decode, and absence means false -- exactly what an
  // old-format client's bytes look like to a new daemon.
  Request D;
  std::string Err;
  ASSERT_TRUE(decodeRequest(Plain, D, Err)) << Err;
  EXPECT_FALSE(D.WantTiming);
  ASSERT_TRUE(decodeRequest(WithTiming, D, Err)) << Err;
  EXPECT_TRUE(D.WantTiming);

  // The field is only encoded when set: an explicit 0 byte (or any other
  // value, or trailing garbage after it) is malformed, not "false".
  EXPECT_FALSE(decodeRequest(Plain + std::string(1, '\0'), D, Err));
  EXPECT_FALSE(decodeRequest(Plain + std::string(1, '\x02'), D, Err));
  EXPECT_FALSE(decodeRequest(WithTiming + "x", D, Err));
}

TEST(Protocol, RequestDeadlineIsOptionalAndTrailing) {
  Request R;
  R.LaSource = "Mat A(4,4) <In>;\n";
  R.OptionsText = "isa=avx\nfunc=k\n";

  // No deadline, no timing: byte-identical to the pre-deadline format.
  std::string Plain = encodeRequest(R);
  R.DeadlineMs = 1500;
  std::string WithDeadline = encodeRequest(R);
  // The deadline rides behind the (explicit) timing byte: +1 +4.
  ASSERT_EQ(WithDeadline.size(), Plain.size() + 5);
  EXPECT_EQ(WithDeadline.substr(0, Plain.size()), Plain);
  R.WantTiming = true;
  std::string WithBoth = encodeRequest(R);
  ASSERT_EQ(WithBoth.size(), Plain.size() + 5);

  // All three forms decode; absence means "no deadline" -- what an
  // old-format client's bytes look like to a new daemon.
  Request D;
  std::string Err;
  ASSERT_TRUE(decodeRequest(Plain, D, Err)) << Err;
  EXPECT_EQ(D.DeadlineMs, 0u);
  ASSERT_TRUE(decodeRequest(WithDeadline, D, Err)) << Err;
  EXPECT_EQ(D.DeadlineMs, 1500u);
  EXPECT_FALSE(D.WantTiming);
  ASSERT_TRUE(decodeRequest(WithBoth, D, Err)) << Err;
  EXPECT_EQ(D.DeadlineMs, 1500u);
  EXPECT_TRUE(D.WantTiming);

  // A reused message does not leak the previous request's deadline.
  ASSERT_TRUE(decodeRequest(Plain, D, Err)) << Err;
  EXPECT_EQ(D.DeadlineMs, 0u);

  // Malformed tails: a zero deadline is never encoded so it never
  // decodes, and truncated or over-long tails are rejected.
  ByteWriter Zero;
  Zero.u8(0);
  Zero.u32(0);
  EXPECT_FALSE(decodeRequest(Plain + Zero.take(), D, Err));
  EXPECT_FALSE(
      decodeRequest(WithDeadline.substr(0, WithDeadline.size() - 1), D, Err));
  EXPECT_FALSE(decodeRequest(WithDeadline + "x", D, Err));

  // The daemon stamps an absolute expiry at decode time.
  GenOptions O;
  service::RequestOptions Req;
  Request SR = potrfRequest("ddl", avxIsa());
  ASSERT_TRUE(requestToServiceArgs(SR, O, Req, Err)) << Err;
  EXPECT_EQ(Req.DeadlineUs, 0);
  SR.DeadlineMs = 50;
  ASSERT_TRUE(requestToServiceArgs(SR, O, Req, Err)) << Err;
  EXPECT_GT(Req.DeadlineUs, 0);
}

TEST(Protocol, ArtifactTimingTextIsOptionalAndTrailing) {
  ArtifactMsg A;
  A.Key = "00deadbeef001122";
  A.FuncName = "potrf8";
  A.IsaName = "avx";
  A.NumParams = 2;
  A.CSource = "void potrf8(double*, double*);";

  // No breakdown: byte-identical to the pre-timing format, so old clients
  // decode new daemons.
  std::string Plain = encodeArtifact(A);
  ArtifactMsg D;
  std::string Err;
  ASSERT_TRUE(decodeArtifact(Plain, D, Err)) << Err;
  EXPECT_TRUE(D.TimingText.empty());

  // With a breakdown, the document round-trips as the final field.
  service::RequestTiming TM;
  TM.Tier = "generated";
  TM.CacheUs = 12;
  TM.GenUs = 3400;
  TM.CompileUs = 5600;
  TM.TotalUs = 9100;
  A.TimingText = service::serializeRequestTiming(TM);
  std::string WithTiming = encodeArtifact(A);
  ASSERT_GT(WithTiming.size(), Plain.size());
  ASSERT_TRUE(decodeArtifact(WithTiming, D, Err)) << Err;
  service::RequestTiming Back;
  ASSERT_TRUE(service::deserializeRequestTiming(D.TimingText, Back));
  EXPECT_EQ(Back.Tier, "generated");
  EXPECT_EQ(Back.CacheUs, 12);
  EXPECT_EQ(Back.GenUs, 3400);
  EXPECT_EQ(Back.CompileUs, 5600);
  EXPECT_EQ(Back.TotalUs, 9100);

  // A decoded no-timing payload into a reused message clears the old
  // document rather than leaking the previous request's breakdown.
  ASSERT_TRUE(decodeArtifact(Plain, D, Err)) << Err;
  EXPECT_TRUE(D.TimingText.empty());

  // Trailing bytes after the timing field are still rejected.
  EXPECT_FALSE(decodeArtifact(WithTiming + "x", D, Err));
}

TEST(Protocol, RequestTraceIdIsOptionalAndTrailing) {
  Request R;
  R.LaSource = "Mat A(4,4) <In>;\n";
  R.OptionsText = "isa=avx\nfunc=k\n";

  // No trace id: byte-identical to the pre-trace format.
  std::string Plain = encodeRequest(R);
  R.TraceId = 0x1122334455667788ull;
  R.SpanId = 0x99aabbccddeeff00ull;
  std::string WithTrace = encodeRequest(R);
  // The ids ride behind the timing byte and the deadline word (which may
  // be zero only in this long form): +1 +4 +8 +8.
  ASSERT_EQ(WithTrace.size(), Plain.size() + 21);
  EXPECT_EQ(WithTrace.substr(0, Plain.size()), Plain);

  Request D;
  std::string Err;
  ASSERT_TRUE(decodeRequest(WithTrace, D, Err)) << Err;
  EXPECT_EQ(D.TraceId, 0x1122334455667788ull);
  EXPECT_EQ(D.SpanId, 0x99aabbccddeeff00ull);
  EXPECT_FALSE(D.WantTiming);
  EXPECT_EQ(D.DeadlineMs, 0u);

  // All four tail fields together round-trip.
  R.WantTiming = true;
  R.DeadlineMs = 250;
  ASSERT_TRUE(decodeRequest(encodeRequest(R), D, Err)) << Err;
  EXPECT_TRUE(D.WantTiming);
  EXPECT_EQ(D.DeadlineMs, 250u);
  EXPECT_EQ(D.TraceId, 0x1122334455667788ull);
  EXPECT_EQ(D.SpanId, 0x99aabbccddeeff00ull);

  // A reused message does not leak the previous request's ids.
  ASSERT_TRUE(decodeRequest(Plain, D, Err)) << Err;
  EXPECT_EQ(D.TraceId, 0u);
  EXPECT_EQ(D.SpanId, 0u);

  // A zero trace id is never encoded, so it never decodes: the 21-byte
  // tail with an all-zero id slot is malformed, not "untraced".
  ByteWriter Zero;
  Zero.u8(0);
  Zero.u32(0);
  Zero.u64(0);
  Zero.u64(7);
  EXPECT_FALSE(decodeRequest(Plain + Zero.take(), D, Err));

  // Truncated and over-long trace tails are rejected, never forgiven.
  EXPECT_FALSE(
      decodeRequest(WithTrace.substr(0, WithTrace.size() - 1), D, Err));
  EXPECT_FALSE(decodeRequest(WithTrace + "x", D, Err));
}

TEST(Protocol, ArtifactServerSpansAreOptionalAndTrailing) {
  ArtifactMsg A;
  A.Key = "00deadbeef001122";
  A.FuncName = "potrf8";
  A.IsaName = "avx";
  A.NumParams = 2;
  A.CSource = "void potrf8(double*, double*);";
  service::RequestTiming TM;
  TM.Tier = "generated";
  TM.TotalUs = 10;
  A.TimingText = service::serializeRequestTiming(TM);
  std::string NoSpans = encodeArtifact(A);

  obs::Span S1{"cache.lookup", "service", 100, 5, 7, 0};
  obs::Span S2{"generate", "service", 110, 900, 7, 0};
  A.ServerSpans = {S1, S2};
  std::string WithSpans = encodeArtifact(A);
  ASSERT_GT(WithSpans.size(), NoSpans.size());
  EXPECT_EQ(WithSpans.substr(0, NoSpans.size()), NoSpans);

  ArtifactMsg D;
  std::string Err;
  ASSERT_TRUE(decodeArtifact(WithSpans, D, Err)) << Err;
  ASSERT_EQ(D.ServerSpans.size(), 2u);
  EXPECT_EQ(D.ServerSpans[0].Name, "cache.lookup");
  EXPECT_EQ(D.ServerSpans[0].StartUs, 100);
  EXPECT_EQ(D.ServerSpans[0].DurUs, 5);
  EXPECT_EQ(D.ServerSpans[1].Name, "generate");
  EXPECT_EQ(D.ServerSpans[1].Cat, "service");
  EXPECT_EQ(D.ServerSpans[1].Tid, 7u);

  // A decoded span-free payload into a reused message clears the list.
  ASSERT_TRUE(decodeArtifact(NoSpans, D, Err)) << Err;
  EXPECT_TRUE(D.ServerSpans.empty());

  // An empty span list is never encoded, so a zero count never decodes;
  // a hostile count beyond the cap is rejected before any reserve.
  ByteWriter ZeroCount;
  ZeroCount.u32(0);
  EXPECT_FALSE(decodeArtifact(NoSpans + ZeroCount.take(), D, Err));
  ByteWriter Huge;
  Huge.u32(100000);
  EXPECT_FALSE(decodeArtifact(NoSpans + Huge.take(), D, Err));

  // Truncated and over-long span blobs are malformed.
  EXPECT_FALSE(
      decodeArtifact(WithSpans.substr(0, WithSpans.size() - 1), D, Err));
  EXPECT_FALSE(decodeArtifact(WithSpans + "x", D, Err));
}

TEST(SldServer, ServerTimingArrivesOnMissAndHit) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  Client C = D.client();
  std::string Err;

  // Cache miss: the daemon generated the kernel, and the attached
  // breakdown says so.
  Request R = potrfRequest("timed_potrf", scalarIsa());
  R.WantTiming = true;
  ArtifactMsg A;
  ASSERT_TRUE(C.get(R, A, Err)) << Err;
  ASSERT_FALSE(A.TimingText.empty());
  service::RequestTiming Miss;
  ASSERT_TRUE(service::deserializeRequestTiming(A.TimingText, Miss))
      << A.TimingText;
  EXPECT_EQ(Miss.Tier, "generated");
  EXPECT_GT(Miss.GenUs, 0);
  EXPECT_GE(Miss.TotalUs, Miss.GenUs);

  // Same request again: a memory-tier hit, with its own (hit-shaped)
  // breakdown.
  ASSERT_TRUE(C.get(R, A, Err)) << Err;
  ASSERT_FALSE(A.TimingText.empty());
  service::RequestTiming Hit;
  ASSERT_TRUE(service::deserializeRequestTiming(A.TimingText, Hit));
  EXPECT_EQ(Hit.Tier, "mem");
  EXPECT_EQ(Hit.GenUs, 0);

  // A client that does not ask gets the pre-timing response shape.
  R.WantTiming = false;
  ASSERT_TRUE(C.get(R, A, Err)) << Err;
  EXPECT_TRUE(A.TimingText.empty());

  // The daemon's STATS now carries the cache gauges.
  std::string Stats;
  ASSERT_TRUE(C.stats(Stats, Err)) << Err;
  EXPECT_NE(Stats.find("mem-entries=1"), std::string::npos) << Stats;
  EXPECT_NE(Stats.find("disk-entries="), std::string::npos) << Stats;
  EXPECT_NE(Stats.find("disk-bytes="), std::string::npos) << Stats;
}

TEST(SldServer, ServerSpansRideTheReplyOnlyForTracedTimingRequests) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  Client C = D.client();
  std::string Err;

  // Trace id + want-timing: the daemon ships its span list back, and the
  // generation phase is in it -- the raw material for the merged trace.
  Request R = potrfRequest("span_potrf", scalarIsa());
  R.WantTiming = true;
  R.TraceId = obs::newTraceId();
  R.SpanId = obs::newTraceId();
  ArtifactMsg A;
  ASSERT_TRUE(C.get(R, A, Err)) << Err;
  ASSERT_FALSE(A.ServerSpans.empty());
  bool SawGenerate = false;
  for (const obs::Span &S : A.ServerSpans)
    SawGenerate = SawGenerate || S.Name == "generate";
  EXPECT_TRUE(SawGenerate) << A.ServerSpans.size() << " spans, no generate";

  // Want-timing alone is exactly what an old client sends: it must keep
  // getting the old reply shape (breakdown text, no span field).
  Request R2 = potrfRequest("span_potrf2", scalarIsa());
  R2.WantTiming = true;
  ASSERT_TRUE(C.get(R2, A, Err)) << Err;
  EXPECT_FALSE(A.TimingText.empty());
  EXPECT_TRUE(A.ServerSpans.empty());

  // A trace id without want-timing tags the daemon's own records but
  // ships nothing back.
  Request R3 = potrfRequest("span_potrf3", scalarIsa());
  R3.TraceId = obs::newTraceId();
  R3.SpanId = obs::newTraceId();
  ASSERT_TRUE(C.get(R3, A, Err)) << Err;
  EXPECT_TRUE(A.TimingText.empty());
  EXPECT_TRUE(A.ServerSpans.empty());
}

TEST(SldServer, MetricsVerbReturnsTheScrape) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  Client C = D.client();
  std::string Err;

  ArtifactMsg A;
  ASSERT_TRUE(C.get(potrfRequest("metrics_potrf", scalarIsa()), A, Err))
      << Err;
  std::string Text;
  ASSERT_TRUE(C.metrics(Text, Err)) << Err;
  // The registry scrape: the GET above must show up in the server
  // histogram expansion and in the per-kernel/per-peer top-K tables.
  EXPECT_NE(Text.find("server.get.us.count="), std::string::npos) << Text;
  EXPECT_NE(Text.find("server.get.us.p99-us="), std::string::npos);
  EXPECT_NE(Text.find("top.kernel.metrics_potrf.count=1"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("top.peer.unix.count="), std::string::npos) << Text;

  // Globally sorted keys: every line's key must be >= its predecessor's.
  std::string Prev;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol == std::string::npos ? Text.size() : Eol + 1;
    size_t Eq = Line.find('=');
    ASSERT_NE(Eq, std::string::npos) << "not key=value: " << Line;
    std::string Key = Line.substr(0, Eq);
    // The top-K tables are appended after the sorted registry dump and
    // sort within themselves.
    if (Key.rfind("top.", 0) == 0)
      break;
    EXPECT_LE(Prev, Key) << "unsorted scrape at " << Key;
    Prev = Key;
  }
}

//===----------------------------------------------------------------------===//
// Overload shedding and idle reaping
//===----------------------------------------------------------------------===//

TEST(SldServer, ConnectionCapShedsWithOverloaded) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  ServerConfig NC;
  NC.MaxConns = 2;
  TestDaemon D(SC, NC);
  ASSERT_TRUE(D.Ok);
  std::string Err;

  {
    Client C1 = D.client(), C2 = D.client();
    ASSERT_TRUE(C1.ping(Err)) << Err; // both registered server-side
    ASSERT_TRUE(C2.ping(Err)) << Err;

    // The third connection is accepted only to be told "overloaded" and
    // hung up on -- before it sends anything.
    int Fd = rawConnect(D.Srv->unixPath());
    ASSERT_GE(Fd, 0);
    Frame F;
    ASSERT_EQ(readFrame(Fd, F, Err), ReadStatus::Ok) << Err;
    EXPECT_EQ(F.verb(), Verb::Error);
    std::optional<service::Errc> Code;
    std::string Msg;
    decodeErrorPayload(F.Payload, Code, Msg);
    ASSERT_TRUE(Code.has_value()) << F.Payload;
    EXPECT_EQ(*Code, service::Errc::Overloaded);
    EXPECT_EQ(readFrame(Fd, F, Err), ReadStatus::Eof);
    close(Fd);
  }

  // Capacity comes back once the old connections close (the accept loop
  // reaps them lazily, so allow a few attempts).
  bool Served = false;
  for (int I = 0; I < 100 && !Served; ++I) {
    std::string E2;
    auto C = Client::connect(D.Srv->unixPath(), E2);
    Served = C && C->ping(E2);
    if (!Served)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(Served) << "capacity never recovered after clients left";
}

TEST(SldServer, IdleConnectionsAreReapedAfterTimeout) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  ServerConfig NC;
  NC.IdleTimeoutMs = 150;
  TestDaemon D(SC, NC);
  ASSERT_TRUE(D.Ok);
  std::string Err;

  // A connection that never sends a request is hung up on -- in bounded
  // time, not at server shutdown.
  int Fd = rawConnect(D.Srv->unixPath());
  ASSERT_GE(Fd, 0);
  auto Start = std::chrono::steady_clock::now();
  Frame F;
  EXPECT_EQ(readFrame(Fd, F, Err), ReadStatus::Eof);
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_LT(ElapsedMs, 5000);
  close(Fd);

  // An active client is unaffected as long as it keeps talking.
  Client C = D.client();
  EXPECT_TRUE(C.ping(Err)) << Err;
}

} // namespace
