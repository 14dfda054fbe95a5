//===- cir/LoadStoreOpt.cpp - the domain-specific load/store analysis -----==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Implements the paper's Stage-3 load/store analysis (Sec. 3.3, Figs. 11/12):
// memory is tracked at element granularity through constant addresses; a
// vector load whose lanes were all produced by earlier stores (or loads) is
// replaced by a shuffle/blend of the producing registers, a scalar load by a
// lane extract, and stores that are overwritten before any read are deleted.
//
//===----------------------------------------------------------------------===//

#include "cir/Passes.h"

#include "cir/Verify.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <set>

using namespace slingen;
using namespace slingen::cir;

namespace {

/// Where a memory element currently lives in registers: lane -1 means a
/// scalar register holds it.
struct LaneVal {
  int Reg = -1;
  int Lane = -1;
  long Time = 0;       ///< clock value at publication (for the age window)
  bool Stored = false; ///< published by a store (still in flight)
};

using MemKey = std::pair<const Operand *, int>; // (buffer, element offset)

class LoadStorePass {
public:
  LoadStorePass(Function &F, int WindowInsts)
      : F(F), Window(WindowInsts), Defs(F.NumRegs, 0), NextReg(F.NumRegs) {
    countDefs(F.Body);
    RegWidth = F.RegWidth;
    Rename.resize(F.NumRegs);
    for (int I = 0; I < F.NumRegs; ++I)
      Rename[I] = I;
    runBlock(F.Body);
    deadStores(F.Body, /*LiveOutEverything=*/true);
    F.NumRegs = NextReg;
    F.RegWidth = RegWidth;
  }

private:
  Function &F;
  int Window;
  long Clock = 0;
  std::vector<int> Defs;
  std::vector<int> Rename;
  std::vector<int> RegWidth;
  int NextReg;
  std::map<MemKey, LaneVal> Mem;

  void countDefs(const std::vector<Node> &Body) {
    for (const Node &N : Body) {
      if (const auto *I = std::get_if<Inst>(&N)) {
        if (hasDst(I->K) && I->Dst >= 0)
          ++Defs[I->Dst];
      } else {
        countDefs(std::get<Loop>(N).Body);
      }
    }
  }

  bool singleDef(int R) const { return R >= 0 && Defs[R] == 1; }

  int freshReg(int Width) {
    RegWidth.push_back(Width);
    Defs.push_back(1);
    Rename.push_back(NextReg);
    return NextReg++;
  }

  void invalidateBuffer(const Operand *Buf) {
    for (auto It = Mem.begin(); It != Mem.end();)
      It = It->first.first == Buf ? Mem.erase(It) : std::next(It);
  }

  void recordStore(const Operand *Buf, int Off, int Reg, int Lane) {
    if (singleDef(Reg))
      Mem[{Buf, Off}] = {Reg, Lane, Clock, /*Stored=*/true};
    else
      Mem.erase({Buf, Off});
  }

  /// Window-checked lookup: entries older than Window instructions are
  /// treated as absent. Bounding the forwarding distance keeps register
  /// live ranges local in the very large unrolled kernels -- both the C
  /// compiler's register allocator and the function splitter depend on
  /// that locality; the paper's Fig. 11/12 patterns span only a few
  /// statements, far below any reasonable window.
  const LaneVal *lookup(const Operand *Buf, int Off) {
    auto It = Mem.find({Buf, Off});
    if (It == Mem.end())
      return nullptr;
    if (Window > 0 && Clock - It->second.Time > Window) {
      Mem.erase(It);
      return nullptr;
    }
    return &It->second;
  }

  /// Synthesizes the value of a vector load (Lanes active lanes at Base +
  /// L * Stride of Buf into a Nu-lane register) out of registers, appending
  /// the instructions to Out; returns the register, or -1 to keep the load.
  /// One shuffle serves when every lane lives in at most two vector
  /// registers of one width. Otherwise, when some lane was stored recently
  /// -- a load spanning several stores, or a store of another shape, cannot
  /// be forwarded by the hardware and stalls until they retire -- a vector
  /// of up to four lanes is assembled in registers (see assemble).
  int synthesize(const Operand *Buf, int Base, int Stride, int Lanes, int Nu,
                 std::vector<Node> &Out) {
    const LaneVal *Vals[8] = {};
    bool AnyStored = false;
    for (int L = 0; L < Lanes; ++L) {
      Vals[L] = lookup(Buf, Base + L * Stride);
      AnyStored = AnyStored || (Vals[L] && Vals[L]->Stored);
    }
    Cover C = cover(Vals, Lanes, Nu);
    if (C.Covered == Lanes) {
      if (C.Identity)
        return C.SrcA; // direct reuse, no instruction needed
      return emitShuffle(C.SrcA, C.SrcB, std::move(C.Sel), Out);
    }
    // Nothing in flight: the load itself is cheapest. Eight lanes would
    // take a two-level insert tree, more than the stall it avoids.
    if (!AnyStored || Nu > 4)
      return -1;
    return assemble(Buf, Base, Stride, Vals, Lanes, Nu, Out);
  }

  /// The lanes one shuffle of the two best vector sources (those holding
  /// the most lanes, of one width) provides; the other selector entries
  /// are -1, which zeroes them (VLoad semantics for inactive lanes).
  struct Cover {
    int SrcA = -1, SrcB = -1, Covered = 0;
    bool Identity = false; ///< SrcA itself is the value
    std::vector<int> Sel;
  };

  Cover cover(const LaneVal *const *Vals, int Lanes, int Nu) const {
    // Distinct vector source registers and how many lanes each holds.
    int Regs[8], Count[8], NumRegs = 0;
    for (int L = 0; L < Lanes; ++L) {
      if (!Vals[L] || Vals[L]->Lane < 0)
        continue;
      int R = Vals[L]->Reg, S = 0;
      while (S < NumRegs && Regs[S] != R)
        ++S;
      if (S == NumRegs) {
        Regs[NumRegs] = R;
        Count[NumRegs++] = 0;
      }
      ++Count[S];
    }
    Cover C;
    C.Sel.assign(Nu, -1);
    if (NumRegs == 0)
      return C;
    auto Best = [&](int Skip, int Width) {
      int Pick = -1;
      for (int S = 0; S < NumRegs; ++S)
        if (S != Skip && (Width == 0 || RegWidth[Regs[S]] == Width) &&
            (Pick < 0 || Count[S] > Count[Pick]))
          Pick = S;
      return Pick;
    };
    int A = Best(-1, 0);
    C.SrcA = Regs[A];
    const int Ws = RegWidth[C.SrcA];
    int B = Best(A, Ws);
    C.SrcB = B < 0 ? -1 : Regs[B];
    C.Identity = Lanes == Nu && Ws == Nu;
    for (int L = 0; L < Lanes; ++L) {
      const LaneVal *V = Vals[L];
      if (!V || V->Lane < 0 || (V->Reg != C.SrcA && V->Reg != C.SrcB))
        continue;
      C.Sel[L] = (V->Reg == C.SrcB ? Ws : 0) + V->Lane;
      C.Identity = C.Identity && V->Reg == C.SrcA && V->Lane == L;
      ++C.Covered;
    }
    C.Identity = C.Identity && C.Covered == Lanes;
    if (C.SrcB < 0)
      C.SrcB = C.SrcA;
    return C;
  }

  /// Assembles lanes [0, Lanes) (the rest zero) in a Nu-lane register. A
  /// run with no lane in flight is one plain load; a vector wider than two
  /// lanes with more than one lane missing from its best shuffle is built
  /// as two halves joined by one insert; otherwise the shuffle is completed
  /// lane by lane from broadcasts of the missing scalars (their producer, a
  /// lane extract, or a scalar load), two lanes per shuffle when there is
  /// nothing to blend into yet.
  int assemble(const Operand *Buf, int Base, int Stride,
               const LaneVal *const *Vals, int Lanes, int Nu,
               std::vector<Node> &Out) {
    bool AnyStored = false;
    for (int L = 0; L < Lanes; ++L)
      AnyStored = AnyStored || (Vals[L] && Vals[L]->Stored);
    if (!AnyStored) {
      Inst Ld;
      Ld.K = Stride == 1 ? Op::VLoad : Op::VLoadStrided;
      Ld.Dst = freshReg(Nu);
      Ld.Address.Buf = Buf;
      Ld.Address.Const = Base;
      Ld.Lanes = Lanes;
      Ld.Stride = Stride == 1 ? 0 : Stride;
      int Dst = Ld.Dst;
      Out.push_back(std::move(Ld));
      return Dst;
    }
    Cover C = cover(Vals, Lanes, Nu);
    if (C.Covered == Lanes)
      return C.Identity ? C.SrcA : emitShuffle(C.SrcA, C.SrcB, C.Sel, Out);
    const int H = Nu / 2;
    if (Nu > 2 && Lanes - C.Covered > 1 && Lanes > H) {
      int Lo = assemble(Buf, Base, Stride, Vals, H, H, Out);
      int Hi = assemble(Buf, Base + H * Stride, Stride, Vals + H, Lanes - H,
                        H, Out);
      std::vector<int> Concat(Nu);
      for (int L = 0; L < Nu; ++L)
        Concat[L] = L;
      return emitShuffle(Lo, Hi, std::move(Concat), Out);
    }
    // Broadcasts of the lanes the shuffle misses.
    std::vector<std::pair<int, int>> Missing; // (lane, broadcast register)
    for (int L = 0; L < Lanes; ++L) {
      if (C.Sel[L] >= 0)
        continue;
      const LaneVal *V = Vals[L];
      int S;
      if (!V) {
        Inst Ld;
        Ld.K = Op::SLoad;
        Ld.Dst = freshReg(1);
        Ld.Address.Buf = Buf;
        Ld.Address.Const = Base + L * Stride;
        S = Ld.Dst;
        Out.push_back(std::move(Ld));
      } else if (V->Lane < 0) {
        S = V->Reg;
      } else {
        Inst Ex;
        Ex.K = Op::VExtract;
        Ex.Dst = freshReg(1);
        Ex.A = V->Reg;
        Ex.Lanes = V->Lane;
        S = Ex.Dst;
        Out.push_back(std::move(Ex));
      }
      Inst Bc;
      Bc.K = Op::VBroadcast;
      Bc.Dst = freshReg(Nu);
      Bc.A = S;
      Missing.push_back({L, Bc.Dst});
      Out.push_back(std::move(Bc));
    }
    size_t Next = 0;
    int Cur = -1;
    if (C.SrcA >= 0) {
      Cur = emitShuffle(C.SrcA, C.SrcB, C.Sel, Out);
    } else {
      // Nothing to blend into: place the first two lanes at once (zero
      // elsewhere).
      std::vector<int> Sel(Nu, -1);
      int A = Missing[0].second, B = A;
      Sel[Missing[0].first] = Missing[0].first;
      if (Missing.size() > 1) {
        B = Missing[1].second;
        Sel[Missing[1].first] = Nu + Missing[1].first;
      }
      Cur = emitShuffle(A, B, std::move(Sel), Out);
      Next = std::min<size_t>(2, Missing.size());
    }
    // Blend each remaining broadcast into its lane.
    for (; Next < Missing.size(); ++Next) {
      std::vector<int> Blend(Nu);
      for (int K = 0; K < Nu; ++K)
        Blend[K] = K;
      Blend[Missing[Next].first] = Nu + Missing[Next].first;
      Cur = emitShuffle(Cur, Missing[Next].second, std::move(Blend), Out);
    }
    return Cur;
  }

  int emitShuffle(int A, int B, std::vector<int> Sel, std::vector<Node> &Out) {
    Inst Sh;
    Sh.K = Op::VShuffle;
    Sh.Dst = freshReg(static_cast<int>(Sel.size()));
    Sh.A = A;
    Sh.B = B;
    Sh.Sel = std::move(Sel);
    int Dst = Sh.Dst;
    Out.push_back(std::move(Sh));
    return Dst;
  }

  void runBlock(std::vector<Node> &Body) {
    std::vector<Node> Out;
    Out.reserve(Body.size());
    for (Node &N : Body) {
      if (auto *LP = std::get_if<Loop>(&N)) {
        // Conservative barriers: forget everything around loops.
        Mem.clear();
        runBlock(LP->Body);
        Mem.clear();
        Out.push_back(std::move(N));
        continue;
      }
      Inst I = std::move(std::get<Inst>(N));
      ++Clock;
      if (I.A >= 0)
        I.A = Rename[I.A];
      if (I.B >= 0)
        I.B = Rename[I.B];
      if (I.C >= 0)
        I.C = Rename[I.C];

      switch (I.K) {
      case Op::SStore:
        if (I.Address.isConstant()) {
          recordStore(I.Address.Buf, I.Address.Const, I.A, -1);
        } else {
          invalidateBuffer(I.Address.Buf);
        }
        Out.push_back(std::move(I));
        continue;
      case Op::VStore:
        if (I.Address.isConstant()) {
          for (int L = 0; L < I.Lanes; ++L)
            recordStore(I.Address.Buf, I.Address.Const + L, I.A, L);
        } else {
          invalidateBuffer(I.Address.Buf);
        }
        Out.push_back(std::move(I));
        continue;
      case Op::VStoreStrided:
        if (I.Address.isConstant()) {
          for (int L = 0; L < I.Lanes; ++L)
            recordStore(I.Address.Buf, I.Address.Const + L * I.Stride, I.A,
                        L);
        } else {
          invalidateBuffer(I.Address.Buf);
        }
        Out.push_back(std::move(I));
        continue;
      case Op::VStoreStridedMasked:
        // Runtime-masked coverage is unknown at compile time: treat as a
        // may-write of the whole buffer, never a forwarding source.
        invalidateBuffer(I.Address.Buf);
        Out.push_back(std::move(I));
        continue;
      case Op::SLoad: {
        if (I.Address.isConstant()) {
          const LaneVal *V = lookup(I.Address.Buf, I.Address.Const);
          if (V) {
            if (V->Lane < 0 && singleDef(I.Dst)) {
              // Forward the scalar directly.
              Rename[I.Dst] = V->Reg;
              continue;
            }
            if (V->Lane >= 0) {
              // Replace the load with a lane extract.
              Inst Ex;
              Ex.K = Op::VExtract;
              Ex.Dst = I.Dst;
              Ex.A = V->Reg;
              Ex.Lanes = V->Lane;
              Out.push_back(std::move(Ex));
              continue;
            }
          }
          // A kept load publishes its destination for later reuse.
          if (singleDef(I.Dst))
            Mem[{I.Address.Buf, I.Address.Const}] = {I.Dst, -1, Clock};
        }
        Out.push_back(std::move(I));
        continue;
      }
      case Op::VLoad:
      case Op::VLoadStrided: {
        int Stride = I.K == Op::VLoad ? 1 : I.Stride;
        if (I.Address.isConstant() && singleDef(I.Dst)) {
          int R = synthesize(I.Address.Buf, I.Address.Const, Stride, I.Lanes,
                             RegWidth[I.Dst], Out);
          if (R >= 0) {
            Rename[I.Dst] = R;
            continue;
          }
          for (int L = 0; L < I.Lanes; ++L)
            Mem[{I.Address.Buf, I.Address.Const + L * Stride}] = {I.Dst, L,
                                                                 Clock};
        }
        Out.push_back(std::move(I));
        continue;
      }
      default:
        Out.push_back(std::move(I));
        continue;
      }
    }
    Body = std::move(Out);
  }

  /// Backward dead-store elimination within straight-line regions: a store
  /// all of whose elements are overwritten before any read (and before any
  /// loop) is removed.
  void deadStores(std::vector<Node> &Body, bool LiveOutEverything) {
    std::set<MemKey> Overwritten;
    std::vector<Node> Out;
    Out.reserve(Body.size());
    for (auto It = Body.rbegin(); It != Body.rend(); ++It) {
      Node &N = *It;
      if (auto *LP = std::get_if<Loop>(&N)) {
        deadStores(LP->Body, true);
        Overwritten.clear();
        Out.push_back(std::move(N));
        continue;
      }
      Inst &I = std::get<Inst>(N);
      auto Covered = [&](const Operand *Buf, int Off, int Count,
                         int Stride) {
        for (int L = 0; L < Count; ++L)
          if (!Overwritten.count({Buf, Off + L * Stride}))
            return false;
        return true;
      };
      auto MarkStore = [&](const Operand *Buf, int Off, int Count,
                           int Stride) {
        for (int L = 0; L < Count; ++L)
          Overwritten.insert({Buf, Off + L * Stride});
      };
      auto MarkRead = [&](const Operand *Buf, int Off, int Count,
                          int Stride) {
        for (int L = 0; L < Count; ++L)
          Overwritten.erase({Buf, Off + L * Stride});
      };
      switch (I.K) {
      case Op::SStore:
        if (I.Address.isConstant()) {
          if (Covered(I.Address.Buf, I.Address.Const, 1, 1))
            continue; // dead
          MarkStore(I.Address.Buf, I.Address.Const, 1, 1);
        } else {
          Overwritten.clear();
        }
        break;
      case Op::VStore:
        if (I.Address.isConstant()) {
          if (Covered(I.Address.Buf, I.Address.Const, I.Lanes, 1))
            continue;
          MarkStore(I.Address.Buf, I.Address.Const, I.Lanes, 1);
        } else {
          Overwritten.clear();
        }
        break;
      case Op::VStoreStrided:
        if (I.Address.isConstant()) {
          if (Covered(I.Address.Buf, I.Address.Const, I.Lanes, I.Stride))
            continue;
          MarkStore(I.Address.Buf, I.Address.Const, I.Lanes, I.Stride);
        } else {
          Overwritten.clear();
        }
        break;
      case Op::VStoreStridedMasked:
      case Op::VLoadStridedMasked:
        // Unknown runtime coverage: may write less than it claims / may
        // read anything -- never prove an earlier store dead across one.
        Overwritten.clear();
        break;
      case Op::SLoad:
        if (I.Address.isConstant())
          MarkRead(I.Address.Buf, I.Address.Const, 1, 1);
        else
          Overwritten.clear();
        break;
      case Op::VLoad:
        if (I.Address.isConstant())
          MarkRead(I.Address.Buf, I.Address.Const, I.Lanes, 1);
        else
          Overwritten.clear();
        break;
      case Op::VLoadStrided:
        if (I.Address.isConstant())
          MarkRead(I.Address.Buf, I.Address.Const, I.Lanes, I.Stride);
        else
          Overwritten.clear();
        break;
      default:
        break;
      }
      Out.push_back(std::move(N));
    }
    std::reverse(Out.begin(), Out.end());
    Body = std::move(Out);
    (void)LiveOutEverything;
  }
};

} // namespace

void cir::loadStoreOpt(Function &F, int WindowInsts) {
  LoadStorePass Pass(F, WindowInsts);
  verifyAssert(F, "load-store-opt");
}
