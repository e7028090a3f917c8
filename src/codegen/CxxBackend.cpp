//===- codegen/CxxBackend.cpp - Emit, compile and load native code ----------==//

#include "codegen/CxxBackend.h"

#include "compiler/Program.h"
#include "support/FaultInjection.h"
#include "support/RuntimeConfig.h"
#include "wir/CxxEmit.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <sys/wait.h>
#include <unistd.h>

using namespace slin;
using namespace slin::codegen;

namespace {

/// Shell-quotes \p S for the std::system command line (single quotes,
/// with embedded quotes spliced).
std::string shQuote(const std::string &S) {
  std::string Out = "'";
  for (char C : S) {
    if (C == '\'')
      Out += "'\\''";
    else
      Out += C;
  }
  Out += "'";
  return Out;
}

bool runsOk(int Rc) { return Rc != -1 && WIFEXITED(Rc) && WEXITSTATUS(Rc) == 0; }

bool writeTextFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = Text.empty() ||
            std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  if (std::fclose(F) != 0)
    Ok = false;
  return Ok;
}

/// A line or so of the compiler's stderr for the degrade reason,
/// starting at the first line that mentions an error: warnings and
/// "In function" context come first in compiler output and would
/// otherwise crowd the actual error out of the excerpt.
std::string stderrExcerpt(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return std::string();
  std::string All(64 * 1024, '\0');
  All.resize(std::fread(&All[0], 1, All.size(), F));
  std::fclose(F);
  size_t At = All.find("error");
  if (At == std::string::npos) {
    At = 0;
  } else {
    size_t LineEnd = All.rfind('\n', At);
    At = LineEnd == std::string::npos ? 0 : LineEnd + 1;
  }
  std::string S = All.substr(At, 239);
  for (char &C : S)
    if (C == '\n' || C == '\r')
      C = ' ';
  while (!S.empty() && S.back() == ' ')
    S.pop_back();
  return S;
}

/// The generated TU's preamble: the NativeCtx ABI mirror, libm
/// declarations (no headers — the TU is fully self-contained), and the
/// failure helpers the tape emitter calls. Built with -fno-builtin so
/// the compiler cannot constant-fold a libm call with its own (possibly
/// differently-rounded) implementation — every sin/fmod/lround resolves
/// at runtime to the same libm the interpreter calls.
std::string preamble() {
  std::string P;
  P += "// Generated by slin native codegen (scheme v" +
       std::to_string(codegenVersion()) + "). Do not edit.\n";
  P += "extern \"C\" {\n"
       "double sin(double); double cos(double); double tan(double);\n"
       "double atan(double); double sqrt(double); double fabs(double);\n"
       "double exp(double); double log(double); double floor(double);\n"
       "double round(double); double fmod(double, double);\n"
       "long lround(double);\n"
       "int snprintf(char *, unsigned long, const char *, ...);\n"
       "}\n"
       "\n"
       "// Layout-matched mirror of codegen::NativeCtx.\n"
       "struct SlinNativeCtx {\n"
       "  double *const *Fld;\n"
       "  const int *FldSz;\n"
       "  void *Sink;\n"
       "  void (*Print)(void *, double);\n"
       "  void (*Fail)(const char *);\n"
       "};\n"
       "\n"
       "// Shapes are compiled once: no inlining into the trampolines and\n"
       "// (GCC) no per-caller constant-propagated clones.\n"
       "#if defined(__clang__)\n"
       "#define SLIN_SHAPE_ __attribute__((noinline)) static\n"
       "#else\n"
       "#define SLIN_SHAPE_ __attribute__((noinline, noclone)) static\n"
       "#endif\n"
       "\n"
       "// constexpr, so NaN/Inf table entries initialise statically.\n"
       "static constexpr double slin_bits_(unsigned long long B) {\n"
       "  return __builtin_bit_cast(double, B);\n"
       "}\n"
       "\n"
       "[[noreturn]] __attribute__((unused, cold, noinline)) static void\n"
       "slin_fail_(const SlinNativeCtx *Ctx, const char *Msg) {\n"
       "  Ctx->Fail(Msg);\n"
       "  __builtin_unreachable();\n"
       "}\n"
       "\n"
       "[[noreturn]] __attribute__((unused, cold, noinline)) static void\n"
       "slin_rate_fail_(const SlinNativeCtx *Ctx, unsigned long Popped,\n"
       "                long Pop, long Pushed, long Push) {\n"
       "  char Buf[160];\n"
       "  snprintf(Buf, sizeof(Buf),\n"
       "           \"work function violated its declared rates \"\n"
       "           \"(popped %lu/%ld, pushed %ld/%ld)\",\n"
       "           Popped, Pop, Pushed, Push);\n"
       "  Ctx->Fail(Buf);\n"
       "  __builtin_unreachable();\n"
       "}\n"
       "\n";
  // Brace form: `extern "C" unsigned x = N;` is a definition that
  // compilers warn about ("initialized and declared 'extern'").
  P += "extern \"C\" { unsigned slin_abi_version_ = " +
       std::to_string(codegenVersion()) + "u; }\n\n";
  return P;
}

} // namespace

bool slin::codegen::nativeDisabled() {
  return RuntimeConfig::current().NoNative;
}

std::string slin::codegen::discoverCompiler() {
  // SLIN_CXX wins verbatim, without probing: a deliberately nonexistent
  // path (the CI no-toolchain arm) must fail at compile time, every
  // time, deterministically.
  std::string Configured = RuntimeConfig::current().Cxx;
  if (!Configured.empty())
    return Configured;
  static std::once_flag Once;
  static std::string Found;
  std::call_once(Once, [] {
    for (const char *C : {"c++", "g++", "clang++"}) {
      std::string Cmd =
          std::string("command -v ") + C + " >/dev/null 2>&1";
      if (runsOk(std::system(Cmd.c_str()))) {
        Found = C;
        return;
      }
    }
  });
  return Found;
}

std::string slin::codegen::nativeCompileFlags() {
  // -ffp-contract=off and -fno-builtin are bit-identity requirements
  // (no FMA contraction, no compile-time libm folding); everything else
  // is plain optimized shared-object compilation.
  return "-O3 -march=native -ffp-contract=off -fno-builtin -fPIC -shared "
         "-std=c++17 -x c++";
}

int slin::codegen::emitProgramSource(const CompiledProgram &P,
                                     std::string &Src) {
  // Tape bodies are emitted once per distinct text (shape), numbered in
  // order of first appearance; each node's entry point is a trampoline
  // that passes its own constant table to its shape.
  std::map<std::string, size_t> ShapeIds;
  std::string Shapes, Nodes;
  int Emitted = 0;
  auto EmitTape = [&](const wir::OpProgram &T, const std::string &Fn) {
    std::vector<double> Consts;
    std::string Body;
    if (!wir::CxxTapeEmitter::emit(T, Consts, Body))
      return false;
    auto Ins = ShapeIds.emplace(std::move(Body), ShapeIds.size());
    std::string Shape = "slin_s" + std::to_string(Ins.first->second);
    if (Ins.second)
      Shapes += "SLIN_SHAPE_ void " + Shape + Ins.first->first + "\n";
    std::string Table = "nullptr";
    if (!Consts.empty()) {
      Table = Fn + "_c";
      Nodes += "static constexpr double " + Table + "[] = {";
      for (size_t I = 0; I != Consts.size(); ++I)
        Nodes += std::string(I % 4 ? " " : "\n  ") +
                 wir::cxxDoubleLiteral(Consts[I]) + ",";
      Nodes += "\n};\n";
    }
    Nodes += "extern \"C\" void " + Fn +
             "(const SlinNativeCtx *Ctx, const double *In, double *Out, "
             "long K) { " +
             Shape + "(" + Table + ", Ctx, In, Out, K); }\n\n";
    ++Emitted;
    return true;
  };

  const flat::FlatGraph &G = P.graph();
  for (size_t I = 0; I != G.Nodes.size(); ++I) {
    if (G.Nodes[I].Kind != flat::NodeKind::Filter)
      continue;
    const CompiledProgram::FilterArtifact &A = P.filterArtifact(I);
    std::string Base = "slin_f" + std::to_string(I);
    if (A.Native) {
      if (A.Native->emitBatchCxx(Nodes, Base + "_batch")) {
        Nodes += "\n";
        ++Emitted;
      }
      continue;
    }
    if (EmitTape(A.Work, Base) && !A.InitWork.empty())
      EmitTape(A.InitWork, Base + "_init");
  }
  Src = preamble() + Shapes + Nodes;
  return Emitted;
}

BuildResult slin::codegen::buildNativeModule(const CompiledProgram &P,
                                             ArtifactStore *Store,
                                             const ArtifactStore::Key &K) {
  BuildResult R;
  std::string Cxx = discoverCompiler();
  if (Cxx.empty()) {
    R.Error = "no C++ toolchain on PATH (set SLIN_CXX to name one)";
    return R;
  }

  std::string Src;
  if (emitProgramSource(P, Src) == 0) {
    R.Error = "program has no native-codegen-eligible filters";
    return R;
  }

  // Scratch directory for the source (and the object, when no store).
  const char *TmpEnv = std::getenv("TMPDIR");
  std::string Templ = std::string(TmpEnv && *TmpEnv ? TmpEnv : "/tmp") +
                      "/slin-native-XXXXXX";
  std::vector<char> Buf(Templ.begin(), Templ.end());
  Buf.push_back('\0');
  if (!::mkdtemp(Buf.data())) {
    R.Error = std::string("mkdtemp: ") + std::strerror(errno);
    return R;
  }
  std::string Scratch = Buf.data();
  std::string SrcPath = Scratch + "/program.cpp";
  std::string CcErrPath = Scratch + "/cc.err";

  // When publishing, compile straight into the store directory under
  // the store's own `.tmp.<pid>.<seq>` discipline (its stale-tmp sweep
  // then covers objects from crashed compiles too).
  static std::atomic<uint64_t> Seq{0};
  std::string Obj;
  bool Publish = Store != nullptr;
  if (Publish) {
    char Suffix[64];
    std::snprintf(Suffix, sizeof(Suffix), ".tmp.%ld.%llu",
                  static_cast<long>(::getpid()),
                  static_cast<unsigned long long>(
                      Seq.fetch_add(1, std::memory_order_relaxed)));
    Obj = Store->objectPathFor(K, codegenVersion()) + Suffix;
  } else {
    Obj = Scratch + "/program.so";
  }

  auto Cleanup = [&](bool RemoveObj) {
    if (RemoveObj)
      ::unlink(Obj.c_str());
    ::unlink(SrcPath.c_str());
    ::unlink(CcErrPath.c_str());
    ::rmdir(Scratch.c_str());
  };

  if (!writeTextFile(SrcPath, Src)) {
    R.Error = "write generated source: " + SrcPath;
    Cleanup(false);
    return R;
  }

  // A ccache shim named by SLIN_CXX works unchanged.
  std::string Cmd = shQuote(Cxx) + " " + nativeCompileFlags() + " " +
                    shQuote(SrcPath) + " -o " + shQuote(Obj) + " 2>" +
                    shQuote(CcErrPath);
  R.CompilerRan = true;
  bool CcOk;
  if (faults::shouldFail(faults::Point::CodegenCcFail)) {
    CcOk = false;
    R.Error = "native compile failed: injected compiler failure";
  } else {
    CcOk = runsOk(std::system(Cmd.c_str()));
    if (!CcOk) {
      std::string Detail = stderrExcerpt(CcErrPath);
      R.Error = "native compile failed (" + Cxx + ")";
      if (!Detail.empty())
        R.Error += ": " + Detail;
    }
  }
  if (!CcOk) {
    R.CompileFailed = true;
    Cleanup(true);
    return R;
  }

  // dlopen the object *before* publishing: the mapping survives both
  // the rename into place and a failed publish's unlink, so a store
  // hiccup costs only the disk tier, never this run's module.
  std::string OpenErr;
  R.Module = NativeModule::open(Obj, P.graph().Nodes.size(), &OpenErr);
  if (!R.Module) {
    R.DlopenFailed = true;
    R.Error = "load native object: " + OpenErr;
    Cleanup(true);
    return R;
  }

  if (Publish)
    // Failure already unlinked the tmp object; the module stays usable
    // and the next cold process recompiles.
    Store->publishObject(K, codegenVersion(), Obj);
  else
    ::unlink(Obj.c_str());
  Cleanup(false);
  return R;
}
