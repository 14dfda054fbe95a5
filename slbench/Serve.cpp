//===- slbench/Serve.cpp - the `serve` workload ---------------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// A private daemon -- KernelService plus net::Server on a Unix socket, in
// this process, on a fresh disk cache -- driven in closed loop. Hit clients
// fetch a hot set of kernels; one miss client issues never-seen unbatched
// static requests back to back, the writes beside the reads. Misses take
// one `cc` each and bypass the tuner, so this is the control workload for
// any change to `cold`'s tuner; `net`, `client` and the cache do the work.
//
// Hits ask for the artifact without its object (wantObject(false)) and are
// checked byte for byte against the kernel the set-up fetched and ran. A
// shipped object is staged to a file and dlopen'd per get, and on the
// disk the benchmark must stay on that staging swung the hit median by
// +-30% from run to run; the object path is measured per layer instead
// (client.load_us, runtime.dlopen_us, net.reply_kib) and by every miss,
// which takes the default get and runs its kernel against the oracle.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Format.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

namespace slbench {

namespace {

struct Hot {
  Problem P;
  Instance I;
  std::string Key, CSource; ///< what every hit must return
};

/// The serving reference: a one-byte round trip over a socketpair to an
/// echo thread -- the two thread wake-ups every hit also pays, in
/// benchmark code.
class Echo {
public:
  Echo() {
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, Fd) != 0) {
      perror("slbench: socketpair");
      std::exit(1);
    }
    Thread = std::thread([this] {
      char C;
      while (read(Fd[1], &C, 1) == 1 && write(Fd[1], &C, 1) == 1) {
      }
    });
  }
  ~Echo() {
    shutdown(Fd[0], SHUT_RDWR); // the echo thread's read returns 0
    Thread.join();
    close(Fd[0]);
    close(Fd[1]);
  }
  Echo(const Echo &) = delete;
  Echo &operator=(const Echo &) = delete;

  /// Microseconds for one round trip, or a negative value on error.
  double roundTripUs() {
    char C = 1;
    auto T0 = Clock::now();
    if (write(Fd[0], &C, 1) != 1 || read(Fd[0], &C, 1) != 1)
      return -1.0;
    return secondsSince(T0) * 1e6;
  }

private:
  int Fd[2] = {-1, -1};
  std::thread Thread;
};

} // namespace

WorkloadResult runServe(const Options &O, Tally &T) {
  WorkloadResult W;
  W.Kernels = O.Smoke ? std::vector<KernelSpec>{{"potrf", 4}, {"kf", 4}}
                      : std::vector<KernelSpec>{{"potrf", 4}, {"potrf", 8},
                                                {"trsyl", 4}, {"trlya", 4},
                                                {"trtri", 8}, {"kf", 4},
                                                {"gpr", 4},   {"l1a", 4}};
  auto MakeHot = [&](const KernelSpec &S, const char *Stream) {
    auto H = std::make_unique<Hot>(Hot{Problem(S), {}, {}, {}});
    Rng R = seededRng(O.Seed, Stream + S.label());
    H->I = H->P.instance(R);
    return H;
  };
  std::vector<std::unique_ptr<Hot>> HotSet;
  std::vector<sl::Request> Warm, HitReqs;
  for (const KernelSpec &S : W.Kernels) {
    HotSet.push_back(MakeHot(S, "serve/"));
    Warm.push_back(*request(S, "serve_" + S.label()).build());
    HitReqs.push_back(
        *request(S, "serve_" + S.label()).wantObject(false).build());
  }
  // The miss client's never-seen requests cycle through these shapes.
  std::vector<std::unique_ptr<Hot>> MissPool;
  for (const char *Kind : {"potrf", "trsyl", "trlya", "trtri"})
    for (int N : {5, 6, 7})
      MissPool.push_back(MakeHot({Kind, N}, "serve-miss/"));

  // Runs a served kernel once and checks it against the oracle.
  auto Check = [&](const sl::Kernel &K, const Hot &H) {
    Buffers B(H.P, 1);
    B.load(H.I, 0);
    sl::Status St = K.call(B.ptr());
    double Err = B.error(H.I, 0);
    return T.count(St.ok() && Err <= Tolerance,
                   formatf("serve %s: %s, error %g", K.functionName().c_str(),
                           St.str().c_str(), Err));
  };

  // Set-up: start a daemon on an empty cache and serve the hot set through
  // it once, several times; the last daemon stays up for the measurement.
  std::vector<double> SetupS;
  std::unique_ptr<Daemon> D;
  for (int Rep = 0; Rep < O.setupReps(); ++Rep) {
    D.reset();
    auto T0 = Clock::now();
    D = std::make_unique<Daemon>(formatf("%s/serve%d", O.WorkDir.c_str(), Rep));
    auto Got = fetchAll(D->address(), Warm, workers());
    SetupS.push_back(secondsSince(T0));
    for (size_t I = 0; I < Got.size(); ++I)
      if (T.count(Got[I].ok(), "serve warm " + Warm[I].functionName() + ": " +
                                   Got[I].status().str()) &&
          Check(*Got[I], *HotSet[I])) {
        HotSet[I]->Key = Got[I]->key();
        HotSet[I]->CSource = Got[I]->cSource();
      }
  }

  std::atomic<bool> Measuring{false}, Stop{false};
  std::mutex Mu;
  std::vector<double> HitUs, MissUs, EchoUs;
  const int HitClients =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / 2);
  std::vector<std::thread> Clients;
  for (int C = 0; C < HitClients; ++C)
    Clients.emplace_back([&, C] {
      auto S = sl::Session::open(D->address());
      if (!T.count(S.ok(), "hit client: " + S.status().str()))
        return;
      Rng R = seededRng(O.Seed, formatf("serve/client%d", C));
      Echo Ref;
      std::vector<double> Mine, MyEcho;
      for (long Op = 1; !Stop.load(); ++Op) {
        bool Timed = Measuring.load();
        if (Op % 8 == 0) { // one reference round trip per seven hits
          double Us = Ref.roundTripUs();
          if (T.count(Us >= 0, "echo round trip") && Timed)
            MyEcho.push_back(Us);
          continue;
        }
        size_t I = R.next() % HotSet.size();
        auto T0 = Clock::now();
        auto K = S->get(HitReqs[I]);
        double Us = secondsSince(T0) * 1e6;
        if (T.count(K.ok() && K->key() == HotSet[I]->Key &&
                        K->cSource() == HotSet[I]->CSource,
                    "serve hit " + HitReqs[I].functionName() + ": " +
                        K.status().str()) &&
            Timed)
          Mine.push_back(Us);
      }
      std::lock_guard<std::mutex> L(Mu);
      HitUs.insert(HitUs.end(), Mine.begin(), Mine.end());
      EchoUs.insert(EchoUs.end(), MyEcho.begin(), MyEcho.end());
    });
  // Untimed warm-up: connections open, the daemon's threads start.
  std::this_thread::sleep_for(std::chrono::milliseconds(O.Smoke ? 100 : 1000));

  Measuring = true;
  auto T0 = Clock::now();
  std::thread Misser([&] {
    auto S = sl::Session::open(D->address());
    if (!T.count(S.ok(), "miss client: " + S.status().str()))
      return;
    for (int I = 0; !Stop.load(); ++I) {
      const Hot &H = *MissPool[I % MissPool.size()];
      auto Req = *request(H.P.spec(),
                          formatf("serve_miss_s%llu_%d",
                                  static_cast<unsigned long long>(O.Seed), I))
                      .measure(false)
                      .build();
      auto T1 = Clock::now();
      auto K = S->get(Req);
      double Us = secondsSince(T1) * 1e6;
      if (T.count(K.ok(), "serve miss: " + K.status().str()) && Check(*K, H)) {
        std::lock_guard<std::mutex> L(Mu);
        MissUs.push_back(Us);
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::duration<double>(O.Seconds));
  Measuring = false;
  double Elapsed = secondsSince(T0);
  Stop = true;
  for (std::thread &C : Clients)
    C.join();
  Misser.join();

  W.EndToEnd["setup_s"] = median(SetupS);
  reportTimes(W, percentile(HitUs, 50), percentile(HitUs, 90),
              HitUs.size() / Elapsed, percentile(EchoUs, 50));
  W.Notes.push_back(formatf("serve.hits %zu count", HitUs.size()));
  W.Notes.push_back(formatf("serve.hit_us_p99 %.1f us", percentile(HitUs, 99)));
  W.Notes.push_back(formatf("serve.misses %zu count", MissUs.size()));
  W.Notes.push_back(
      formatf("serve.miss_ms_p50 %.2f ms", percentile(MissUs, 50) / 1e3));
  W.Notes.push_back(formatf("serve.hit_clients %d count", HitClients));
  return W;
}

} // namespace slbench
