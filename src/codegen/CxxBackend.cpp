//===- codegen/CxxBackend.cpp - Emit, compile and load native code ----------==//

#include "codegen/CxxBackend.h"

#include "compiler/Program.h"
#include "support/FaultInjection.h"
#include "support/RuntimeConfig.h"
#include "wir/CxxEmit.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <mutex>
#include <numeric>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace slin;
using namespace slin::codegen;

namespace {

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

/// One out-of-process $CXX run: the child's pid, or the reason it could
/// not be started.
struct Job {
  pid_t Pid = -1;
  int SpawnErr = 0;
  std::string LogPath;
};

/// Starts \p Argv without a shell: Argv[0] is searched on PATH when it
/// has no slash (as the shell would), stdin reads /dev/null, and stdout
/// and stderr go to \p LogPath.
Job spawnJob(const std::vector<std::string> &Argv, std::string LogPath) {
  Job J;
  J.LogPath = std::move(LogPath);
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  posix_spawn_file_actions_t Fa;
  posix_spawn_file_actions_init(&Fa);
  posix_spawn_file_actions_addopen(&Fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&Fa, 2, J.LogPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0600);
  posix_spawn_file_actions_adddup2(&Fa, 2, 1);
  J.SpawnErr =
      posix_spawnp(&J.Pid, Args[0], &Fa, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&Fa);
  if (J.SpawnErr)
    J.Pid = -1;
  return J;
}

/// Waits for \p J's child, and only for it (the host process may have
/// children of its own). Returns the failure reason, empty when the job
/// ran and exited 0.
std::string reapJob(const Job &J) {
  if (J.Pid < 0)
    return std::string("cannot run: ") + std::strerror(J.SpawnErr);
  int Status = 0;
  while (::waitpid(J.Pid, &Status, 0) < 0)
    if (errno != EINTR)
      return std::string("waitpid: ") + std::strerror(errno);
  if (WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
    return std::string();
  std::string Detail = stderrExcerpt(J.LogPath);
  if (!Detail.empty())
    return Detail;
  return WIFSIGNALED(Status)
             ? "killed by signal " + std::to_string(WTERMSIG(Status))
             : "exit status " + std::to_string(WEXITSTATUS(Status));
}

/// Every part's preamble: the NativeCtx ABI mirror, libm declarations
/// (no headers — each part is fully self-contained), and the failure
/// helpers the tape emitter calls; \p DefinesAbi adds the one
/// slin_abi_version_ definition (part 0). Built with -fno-builtin so
/// the compiler cannot constant-fold a libm call with its own (possibly
/// differently-rounded) implementation — every sin/fmod/lround resolves
/// at runtime to the same libm the interpreter calls.
std::string preamble(bool DefinesAbi) {
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
  if (DefinesAbi)
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
    // The bare name is returned: spawning searches PATH the same way.
    const char *Env = std::getenv("PATH");
    std::string Path = Env ? Env : "/bin:/usr/bin";
    for (const char *C : {"c++", "g++", "clang++"}) {
      for (size_t At = 0; At <= Path.size();) {
        size_t End = std::min(Path.find(':', At), Path.size());
        std::string Dir = End == At ? "." : Path.substr(At, End - At);
        if (::access((Dir + "/" + C).c_str(), X_OK) == 0) {
          Found = C;
          return;
        }
        At = End + 1;
      }
    }
  });
  return Found;
}

std::vector<std::string> slin::codegen::nativeCompileFlags() {
  // -ffp-contract=off and -fno-builtin are bit-identity requirements
  // (no FMA contraction, no compile-time libm folding); everything else
  // is plain optimized position-independent compilation.
  return {"-O3", "-march=native", "-ffp-contract=off", "-fno-builtin",
          "-fPIC", "-std=c++17", "-x", "c++"};
}

unsigned slin::codegen::nativeJobLimit() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

int slin::codegen::emitProgramSource(const CompiledProgram &P,
                                     std::vector<std::string> &Parts,
                                     unsigned MaxParts) {
  // A unit is what one part compiles whole: a shape (a tape body,
  // emitted once per distinct text and numbered in order of first
  // appearance) or a batch kernel. Each piece of per-node text (a
  // constant table plus the trampoline that passes it to its shape, or
  // the kernel itself) belongs to one unit and goes where it goes.
  std::map<std::string, size_t> ShapeIds;
  std::vector<std::string> Bodies; // per unit; empty for batch kernels
  std::vector<size_t> Weight;      // per unit: its body's text length
  std::vector<std::pair<size_t, std::string>> Pieces; // {unit, text}
  int Emitted = 0;
  auto EmitTape = [&](const wir::OpProgram &T, const std::string &Fn) {
    std::vector<double> Consts;
    std::string Body;
    if (!wir::CxxTapeEmitter::emit(T, Consts, Body))
      return false;
    auto Ins = ShapeIds.emplace(std::move(Body), Bodies.size());
    size_t Unit = Ins.first->second;
    std::string Shape = "slin_s" + std::to_string(Unit);
    if (Ins.second) {
      Bodies.push_back("SLIN_SHAPE_ void " + Shape + Ins.first->first + "\n");
      Weight.push_back(Bodies.back().size());
    }
    std::string Text, Table = "nullptr";
    if (!Consts.empty()) {
      Table = Fn + "_c";
      Text += "static constexpr double " + Table + "[] = {";
      for (size_t I = 0; I != Consts.size(); ++I)
        Text += std::string(I % 4 ? " " : "\n  ") +
                wir::cxxDoubleLiteral(Consts[I]) + ",";
      Text += "\n};\n";
    }
    Text += "extern \"C\" void " + Fn +
            "(const SlinNativeCtx *Ctx, const double *In, double *Out, "
            "long K) { " +
            Shape + "(" + Table + ", Ctx, In, Out, K); }\n\n";
    Pieces.emplace_back(Unit, std::move(Text));
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
      std::string Kernel;
      if (A.Native->emitBatchCxx(Kernel, Base + "_batch")) {
        Bodies.emplace_back();
        Weight.push_back(Kernel.size());
        Pieces.emplace_back(Bodies.size() - 1, Kernel + "\n");
        ++Emitted;
      }
      continue;
    }
    if (EmitTape(A.Work, Base) && !A.InitWork.empty())
      EmitTape(A.InitWork, Base + "_init");
  }

  // Largest unit first, each to the least-loaded part (ties: the lower
  // unit, the lower part): the parts' loads come out close, and the
  // split is a function of the program alone.
  size_t NumParts = std::min<size_t>(std::max(1u, MaxParts), Bodies.size());
  std::vector<size_t> Order(Bodies.size()), PartOf(Bodies.size());
  std::iota(Order.begin(), Order.end(), size_t(0));
  std::stable_sort(Order.begin(), Order.end(),
                   [&](size_t A, size_t B) { return Weight[A] > Weight[B]; });
  std::vector<size_t> Load(NumParts, 0);
  for (size_t U : Order) {
    size_t Min = std::min_element(Load.begin(), Load.end()) - Load.begin();
    PartOf[U] = Min;
    Load[Min] += Weight[U];
  }

  // Each part: the preamble, its shapes in unit order, then its per-node
  // text in node order.
  Parts.assign(std::max<size_t>(NumParts, 1), std::string());
  for (size_t Part = 0; Part != Parts.size(); ++Part)
    Parts[Part] = preamble(Part == 0);
  for (size_t U = 0; U != Bodies.size(); ++U)
    Parts[PartOf[U]] += Bodies[U];
  for (const auto &[Unit, Text] : Pieces)
    Parts[PartOf[Unit]] += Text;
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

  std::vector<std::string> Parts;
  if (emitProgramSource(P, Parts, nativeJobLimit()) == 0) {
    R.Error = "program has no native-codegen-eligible filters";
    return R;
  }

  // Scratch directory for the sources, objects and compiler logs (and
  // the linked object, when no store).
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
  auto PartPath = [&](size_t Part, const char *Ext) {
    return Scratch + "/part" + std::to_string(Part) + Ext;
  };
  std::string LinkLog = Scratch + "/link.err";

  // When publishing, link straight into the store directory under the
  // store's own `.tmp.<pid>.<seq>` discipline (its stale-tmp sweep then
  // covers objects from crashed builds too).
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
    for (size_t Part = 0; Part != Parts.size(); ++Part)
      for (const char *Ext : {".cpp", ".o", ".err"})
        ::unlink(PartPath(Part, Ext).c_str());
    ::unlink(LinkLog.c_str());
    ::rmdir(Scratch.c_str());
  };

  for (size_t Part = 0; Part != Parts.size(); ++Part)
    if (!writeTextFile(PartPath(Part, ".cpp"), Parts[Part])) {
      R.Error = "write generated source: " + PartPath(Part, ".cpp");
      Cleanup(false);
      return R;
    }

  R.CompilerRan = true;
  auto Failed = [&](const std::string &Stage, const std::string &Why) {
    R.CompileFailed = true;
    R.Error = "native " + Stage + " failed (" + Cxx + "): " + Why;
    Cleanup(true);
    return R;
  };
  if (faults::shouldFail(faults::Point::CodegenCcFail))
    return Failed("compile", "injected compiler failure");

  // Every part compiles at once; each job is reaped before anything
  // returns, and the first failing part (in part order) is quoted. A
  // ccache shim named by SLIN_CXX works unchanged.
  std::vector<Job> Jobs;
  for (size_t Part = 0; Part != Parts.size(); ++Part) {
    std::vector<std::string> Argv = {Cxx};
    for (std::string &F : nativeCompileFlags())
      Argv.push_back(std::move(F));
    Argv.insert(Argv.end(), {"-c", PartPath(Part, ".cpp"), "-o",
                             PartPath(Part, ".o")});
    Jobs.push_back(spawnJob(Argv, PartPath(Part, ".err")));
  }
  std::string CompileErr;
  for (const Job &J : Jobs) {
    std::string Why = reapJob(J);
    if (CompileErr.empty())
      CompileErr = Why;
  }
  if (!CompileErr.empty())
    return Failed("compile", CompileErr);

  // Link only what emitted code calls: libm, libc and libgcc's helpers,
  // no C++ runtime.
  std::vector<std::string> Argv = {Cxx, "-shared", "-nodefaultlibs"};
  for (size_t Part = 0; Part != Parts.size(); ++Part)
    Argv.push_back(PartPath(Part, ".o"));
  Argv.insert(Argv.end(), {"-lm", "-lc", "-lgcc", "-o", Obj});
  std::string LinkErr = reapJob(spawnJob(Argv, LinkLog));
  if (!LinkErr.empty())
    return Failed("link", LinkErr);

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
