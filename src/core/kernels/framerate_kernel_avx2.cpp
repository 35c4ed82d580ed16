// AVX2 cell kernel: simd_cell.hpp over 4-lane traits.  -mavx2 applies to
// THIS file only (ELPC_SIMD in CMakeLists.txt); else a nullptr stub.

#include "core/kernels/framerate_kernel.hpp"

#if defined(ELPC_KERNEL_AVX2)
#include <immintrin.h>

#include "core/kernels/simd_cell.hpp"

namespace elpc::core::kernels {
namespace {

/// kLaneMask.lanes[b] has lane l all-ones iff bit l of b is set.
struct LaneMaskTable { alignas(32) std::uint64_t lanes[16][4]; };
constexpr LaneMaskTable kLaneMask = [] {
  LaneMaskTable table{};
  for (unsigned b = 0; b < 16; ++b) {
    for (unsigned l = 0; l < 4; ++l) {
      table.lanes[b][l] = ((b >> l) & 1u) != 0 ? ~std::uint64_t{0} : 0u;
    }
  }
  return table;
}();

struct Avx2Lanes {
  static constexpr std::size_t kWidth = 4;
  using Vec = __m256d;
  using Mask = __m256i;  // all-ones / all-zeros per lane
  using Word = __m256i;
  static Vec splat(double x) { return _mm256_set1_pd(x); }
  static Word splat(std::uint64_t x) { return _mm256_set1_epi64x(x); }
  static Vec load(const double* p) { return _mm256_loadu_pd(p); }
  static Vec max(Vec a, Vec b) { return _mm256_max_pd(a, b); }
  static Vec add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Mask less(Vec a, Vec b) {
    return _mm256_castpd_si256(_mm256_cmp_pd(a, b, _CMP_LT_OQ));
  }
  static Mask equal(Vec a, Vec b) {
    return _mm256_castpd_si256(_mm256_cmp_pd(a, b, _CMP_EQ_OQ));
  }
  static unsigned unvisited(const std::uint64_t* words, Word bit) {
    const Word w = _mm256_loadu_si256(reinterpret_cast<const Word*>(words));
    const Word clear = _mm256_cmpeq_epi64(_mm256_and_si256(w, bit), Word{});
    return _mm256_movemask_pd(_mm256_castsi256_pd(clear));
  }
  static Mask valid(unsigned b) {
    return _mm256_load_si256(reinterpret_cast<const Mask*>(kLaneMask.lanes[b]));
  }
  static Vec blend(Mask m, Vec a, Vec b) {
    return _mm256_blendv_pd(a, b, _mm256_castsi256_pd(m));
  }
  static bool any(Mask m) {
    return _mm256_movemask_pd(_mm256_castsi256_pd(m)) != 0;
  }
  static double lane0(Vec v) { return _mm256_cvtsd_f64(v); }
  template <int k>
  static Vec swap(Vec v) {
    return k == 0 ? _mm256_permute_pd(v, 0b0101)
                  : _mm256_permute2f128_pd(v, v, 1);
  }
};

}  // namespace

CellKernelFn avx2_cell_kernel() { return &simd_cell<Avx2Lanes>; }

}  // namespace elpc::core::kernels
#else
elpc::core::kernels::CellKernelFn elpc::core::kernels::avx2_cell_kernel() {
  return nullptr;
}
#endif
