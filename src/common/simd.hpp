// simd.hpp — portability macros for the hot-path kernels.
//
// TL_RESTRICT marks pointers as non-aliasing so the compiler can vectorize
// stencil rows without emitting runtime overlap checks.
//
// TL_TARGET_CLONES compiles a function once per listed ISA with a runtime
// dispatcher (GCC/Clang function multi-versioning), so the default `-O3`
// build stays portable to baseline x86-64 while AVX2 machines run 4-wide
// kernels.  The clone list deliberately stops at "avx2":
//  - plain AVX2 has no FMA encodings, so every clone performs the exact same
//    IEEE operations in the same order and results stay bitwise identical to
//    the scalar build (the golden numerics suite relies on this);
//  - an avx512f clone would admit EVEX FMA contraction under GCC's default
//    -ffp-contract=fast and change results at the ULP level.
// Reductions stay deterministic because the kernels spell out their partial
// accumulators explicitly (see ref_kernels.hpp dot): the compiler may pack
// the four lanes into one vector register but cannot reassociate beyond
// them.
//
// TL_NOINLINE keeps a cold path out of the function that holds a hot loop,
// where inlining it can cost the loop its register allocation.
#pragma once

#if defined(_MSC_VER)
#define TL_RESTRICT __restrict
#elif defined(__GNUC__) || defined(__clang__)
#define TL_RESTRICT __restrict__
#else
#define TL_RESTRICT
#endif

#if defined(_MSC_VER)
#define TL_NOINLINE __declspec(noinline)
#elif defined(__GNUC__) || defined(__clang__)
#define TL_NOINLINE __attribute__((noinline))
#else
#define TL_NOINLINE
#endif

// Function multi-versioning needs ELF ifunc support: glibc-style Linux on
// x86-64 with GCC (Clang also supports the attribute, but keep the gate
// narrow and well-tested; other platforms just build the portable version).
// Sanitizer builds get the plain portable version too: ifunc resolvers run
// during relocation, before the TSan/ASan runtimes are initialised, and
// crash at load — and the sanitizers are there to check the logic, which is
// identical across clones.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define TL_TARGET_CLONES
#elif defined(__x86_64__) && defined(__gnu_linux__) && defined(__GNUC__) && \
    !defined(__clang__)
#define TL_TARGET_CLONES __attribute__((target_clones("default", "avx2")))
#else
#define TL_TARGET_CLONES
#endif
