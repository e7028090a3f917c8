//===- codegen/NativeModule.cpp - dlopen'd emitted-C++ programs -------------==//

#include "codegen/NativeModule.h"

#include "codegen/CxxBackend.h"
#include "compiler/Program.h"
#include "compiler/StructuralHash.h"
#include "support/FaultInjection.h"
#include "support/StatsRegistry.h"

#include <dlfcn.h>
#include <unistd.h>

using namespace slin;
using namespace slin::codegen;

uint32_t slin::codegen::codegenVersion() { return 3; }

//===----------------------------------------------------------------------===//
// NativeModule
//===----------------------------------------------------------------------===//

NativeModule::~NativeModule() {
  if (Handle)
    ::dlclose(Handle);
}

NativeModuleRef NativeModule::open(const std::string &Path, size_t NumNodes,
                                   std::string *Err) {
  auto Fail = [&](const std::string &Why) {
    if (Err)
      *Err = Why;
    return nullptr;
  };
  if (faults::shouldFail(faults::Point::CodegenDlopenFail))
    return Fail("injected dlopen failure");

  void *H = ::dlopen(Path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!H) {
    const char *D = ::dlerror();
    return Fail(D ? D : "dlopen failed");
  }

  std::shared_ptr<NativeModule> M(new NativeModule());
  M->Handle = H; // owned from here; destructor dlcloses on any exit

  void *Abi = ::dlsym(H, "slin_abi_version_");
  if (!Abi)
    return Fail("object has no slin_abi_version_ symbol");
  if (*static_cast<const unsigned *>(Abi) != codegenVersion())
    return Fail("object built by a different codegen scheme");

  M->Fns.resize(NumNodes);
  for (size_t I = 0; I != NumNodes; ++I) {
    std::string Base = "slin_f" + std::to_string(I);
    NodeFns &F = M->Fns[I];
    F.Work = reinterpret_cast<WorkFn>(::dlsym(H, Base.c_str()));
    F.Init = reinterpret_cast<WorkFn>(::dlsym(H, (Base + "_init").c_str()));
    F.Batch =
        reinterpret_cast<BatchFn>(::dlsym(H, (Base + "_batch").c_str()));
    if (F.Work || F.Init || F.Batch)
      M->AnyFn = true;
  }
  return M;
}

//===----------------------------------------------------------------------===//
// NativeModuleCache
//===----------------------------------------------------------------------===//

NativeModuleCache &NativeModuleCache::global() {
  static NativeModuleCache C;
  return C;
}

NativeModuleRef NativeModuleCache::get(const CompiledProgram &P,
                                       std::string *DegradeReason) {
  auto Reason = [&](const std::string &Why) {
    if (DegradeReason)
      *DegradeReason = Why;
  };
  // Checked per call, not cached: tests and serving processes flip it
  // at runtime, and the check is one getenv.
  if (nativeDisabled()) {
    Reason("native codegen disabled (SLIN_NO_NATIVE)");
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.Degrades;
    return nullptr;
  }

  Key K{structuralHash(P.root()), hashOptions(P.options())};
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Entries.find(K);
    if (It != Entries.end()) {
      ++Counters.MemHits;
      if (!It->second.Module) {
        // Negative cache: a missing toolchain or failing compile is
        // probed once per program, not once per run.
        Reason(It->second.Reason);
        ++Counters.Degrades;
      }
      return It->second.Module;
    }
    ++Counters.Misses;
  }

  // Disk tier (bypassed by SLIN_NO_CACHE, like the program store): a
  // stored object dlopens with zero passes and zero codegen.
  ArtifactStore *Store = ArtifactStore::enabledGlobal();
  ArtifactStore::Key SK{K.Structure, K.Options};
  if (Store) {
    std::string Path = Store->objectPathFor(SK, codegenVersion());
    if (::access(Path.c_str(), R_OK) == 0) {
      std::string OpenErr;
      NativeModuleRef M = NativeModule::open(Path, P.graph().Nodes.size(),
                                             &OpenErr);
      std::lock_guard<std::mutex> Lock(Mutex);
      if (M) {
        ++Counters.DiskHits;
        Entries[K] = {M, std::string()};
        return M;
      }
      // Unloadable object (corrupt, foreign, injected failure): evict
      // it and fall through to a fresh build.
      ++Counters.DlopenFailures;
      ::unlink(Path.c_str());
    }
  }

  BuildResult R = buildNativeModule(P, Store, SK);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (R.CompilerRan)
      ++Counters.Compiles;
    if (R.CompileFailed)
      ++Counters.CompileFailures;
    if (R.DlopenFailed)
      ++Counters.DlopenFailures;
    if (!R.Module) {
      ++Counters.Degrades;
      Reason(R.Error);
    }
    Entries[K] = {R.Module, R.Error};
  }
  return R.Module;
}

void NativeModuleCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.clear();
}

NativeModuleCache::Stats NativeModuleCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}

void NativeModuleCache::resetStats() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Counters = Stats();
}

namespace {
/// Publishes the native-module cache's counters into the unified
/// snapshot (support/StatsRegistry.h).
const slin::StatsRegistry::Registration NativeCacheStatsReg(
    "native-cache", [](slin::StatsRegistry::Counters &C) {
      NativeModuleCache::Stats S = NativeModuleCache::global().stats();
      C.emplace_back("mem_hits", S.MemHits);
      C.emplace_back("misses", S.Misses);
      C.emplace_back("disk_hits", S.DiskHits);
      C.emplace_back("compiles", S.Compiles);
      C.emplace_back("compile_failures", S.CompileFailures);
      C.emplace_back("dlopen_failures", S.DlopenFailures);
      C.emplace_back("degrades", S.Degrades);
    });
} // namespace
