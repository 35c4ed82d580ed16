// AVX-512F cell kernel: simd_cell.hpp over 8-lane traits (lane bits ARE
// the __mmask8).  -mavx512f applies to THIS file only; else a stub.

#include "core/kernels/framerate_kernel.hpp"

#if defined(ELPC_KERNEL_AVX512)
#include <immintrin.h>

#include "core/kernels/simd_cell.hpp"

namespace elpc::core::kernels {
namespace {

struct Avx512Lanes {
  static constexpr std::size_t kWidth = 8;
  using Vec = __m512d;
  using Mask = __mmask8;
  using Word = __m512i;
  static Vec splat(double x) { return _mm512_set1_pd(x); }
  static Word splat(std::uint64_t x) { return _mm512_set1_epi64(x); }
  static Vec load(const double* p) { return _mm512_loadu_pd(p); }
  static Vec max(Vec a, Vec b) { return _mm512_max_pd(a, b); }
  static Vec add(Vec a, Vec b) { return _mm512_add_pd(a, b); }
  static Mask less(Vec a, Vec b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
  }
  static Mask equal(Vec a, Vec b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ);
  }
  static unsigned unvisited(const std::uint64_t* words, Word bit) {
    return _mm512_testn_epi64_mask(_mm512_loadu_si512(words), bit);
  }
  static Mask valid(unsigned b) { return static_cast<Mask>(b); }
  static Vec blend(Mask m, Vec a, Vec b) {
    return _mm512_mask_blend_pd(m, a, b);
  }
  static bool any(Mask m) { return m != 0; }
  static double lane0(Vec v) { return _mm512_cvtsd_f64(v); }
  template <int k>
  static Vec swap(Vec v) {
    return k == 0   ? _mm512_permute_pd(v, 0b01010101)
           : k == 1 ? _mm512_shuffle_f64x2(v, v, _MM_SHUFFLE(2, 3, 0, 1))
                    : _mm512_shuffle_f64x2(v, v, _MM_SHUFFLE(1, 0, 3, 2));
  }
};

}  // namespace

CellKernelFn avx512_cell_kernel() { return &simd_cell<Avx512Lanes>; }

}  // namespace elpc::core::kernels
#else
elpc::core::kernels::CellKernelFn elpc::core::kernels::avx512_cell_kernel() {
  return nullptr;
}
#endif
