// Kernel dispatch — one table maps each kernels::Kind to its name and
// function pointer.  A variant is runnable when compiled in (stubs return
// nullptr) AND supported by the CPU (util::CpuFeatures).  kAuto resolves
// once per process: ELPC_FORCE_KERNEL, else the widest runnable variant.
// Forcing an unavailable kernel throws, never silently falls back.

#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <string>

#include "core/kernels/framerate_kernel.hpp"
#include "util/cpu_features.hpp"

namespace elpc::core::kernels {

namespace {

struct KernelRow {
  Kind kind;
  const char* name;
  /// nullptr for kAuto, which selects a variant rather than being one.
  CellKernelFn (*accessor)();
  bool (*cpu_supports)(const util::CpuFeatures&);
};

/// kAuto first, then the variants narrowest to widest.
constexpr KernelRow kKernels[] = {
    {Kind::kAuto, "auto", nullptr, nullptr},
    {Kind::kScalar, "scalar", &scalar_cell_kernel,
     [](const util::CpuFeatures&) { return true; }},
    {Kind::kAvx2, "avx2", &avx2_cell_kernel,
     [](const util::CpuFeatures& cpu) { return cpu.avx2; }},
    {Kind::kAvx512, "avx512", &avx512_cell_kernel,
     [](const util::CpuFeatures& cpu) { return cpu.avx512f; }},
};

// A new Kind needs its row here and kKindCount (and all sized by it,
// e.g. BatchEngine's per-kernel counters) updated in the same change.
static_assert(std::size(kKernels) == kKindCount,
              "kKindCount out of sync with the kernel table");

const KernelRow* find_row(Kind kind) {
  for (const KernelRow& row : kKernels) {
    if (row.kind == kind) {
      return &row;
    }
  }
  return nullptr;
}

/// The variant's function pointer when this process can run it, else
/// nullptr (kAuto, compiled out, or unsupported by the CPU).
CellKernelFn runnable(Kind kind) {
  const KernelRow* row = find_row(kind);
  if (row == nullptr || row->accessor == nullptr ||
      !row->cpu_supports(util::CpuFeatures::get())) {
    return nullptr;
  }
  return row->accessor();
}

struct AutoResolution {
  Kind kind = Kind::kScalar;
  bool env_forced = false;
};

/// kAuto's process-wide answer, computed on first use.  Reading the
/// environment once keeps every solve cheap and every layer (tests,
/// engine, daemon) agreeing on what "auto" means for this process.
const AutoResolution& auto_resolution() {
  static const AutoResolution resolved = [] {
    const char* forced = std::getenv("ELPC_FORCE_KERNEL");
    if (forced != nullptr && *forced != '\0') {
      const Kind kind = kind_from_name(forced);
      if (kind != Kind::kAuto) {
        if (runnable(kind) == nullptr) {
          throw std::runtime_error(
              std::string("ELPC_FORCE_KERNEL=") + forced +
              ": kernel not available on this build/CPU");
        }
        return AutoResolution{kind, true};
      }
    }
    return AutoResolution{available_kernels().back(), false};
  }();
  return resolved;
}

}  // namespace

const char* kind_name(Kind kind) {
  const KernelRow* row = find_row(kind);
  return row != nullptr ? row->name : "unknown";
}

Kind kind_from_name(const std::string& name) {
  std::string expected;
  for (const KernelRow& row : kKernels) {
    if (name == row.name) {
      return row.kind;
    }
    expected += (expected.empty() ? "" : "|") + std::string(row.name);
  }
  throw std::invalid_argument("unknown kernel '" + name + "' (expected " +
                              expected + ")");
}

std::vector<Kind> available_kernels() {
  std::vector<Kind> kinds;
  for (const KernelRow& row : kKernels) {
    if (runnable(row.kind) != nullptr) {
      kinds.push_back(row.kind);
    }
  }
  return kinds;
}

Kind resolve_kernel(Kind requested) {
  if (requested == Kind::kAuto) {
    return auto_resolution().kind;
  }
  if (runnable(requested) == nullptr) {
    throw std::runtime_error(
        std::string("frame-rate kernel '") + kind_name(requested) +
        "' not available on this build/CPU (set ELPC_SIMD=ON and check "
        "util::CpuFeatures)");
  }
  return requested;
}

bool auto_kernel_env_forced() { return auto_resolution().env_forced; }

CellKernelFn kernel_fn(Kind resolved) {
  const CellKernelFn fn = runnable(resolved);
  if (fn == nullptr) {
    throw std::runtime_error(std::string("kernel_fn: '") +
                             kind_name(resolved) +
                             "' is not a resolved, available kernel");
  }
  return fn;
}

}  // namespace elpc::core::kernels
