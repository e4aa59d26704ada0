//! Runtime-dispatched SIMD distance kernels — the single home for every
//! hot distance loop in the workspace (all ANN backends plus, via
//! `emblookup-tensor`, the blocked-matmul inner product).
//!
//! # Dispatch
//!
//! The first distance call resolves a kernel *variant* once per process
//! and caches it in a [`Flag`]:
//!
//! | variant    | when                                                        |
//! |------------|-------------------------------------------------------------|
//! | `scalar`   | `EMBLOOKUP_KERNEL=scalar`, or no SIMD path for this CPU     |
//! | `avx2fma`  | x86_64 with AVX2 **and** FMA detected at runtime            |
//! | `neon`     | aarch64 (NEON is baseline on AArch64)                       |
//!
//! `EMBLOOKUP_KERNEL=scalar|auto` is resolved once, mirroring how
//! `EMBLOOKUP_THREADS` pins the pool width; any value other than
//! `scalar` means auto-detect. [`active`] reports the resolved name so
//! benchmarks can record it next to their numbers.
//!
//! # Determinism contract
//!
//! For a *fixed* variant, every kernel is a pure function of its inputs:
//! results are bit-identical across calls, threads, and pool widths.
//! Scalar and SIMD variants of `sq_l2`/`dot` (and of the crate's own
//! `sq8_l2_gather`) may differ in float rounding (different add order,
//! FMA contraction); tests bound the divergence at 1e-5 relative error.
//! The ADC kernels are stricter: [`adc`] sums in ascending sub-quantizer
//! order in every variant, and [`adc_block`] (contiguous codes) and
//! [`adc_gather`] (codes picked by id) accumulate each lane in that same
//! order, so batched and per-code ADC agree **bit-exactly** under every
//! variant.
//!
//! # Preconditions
//!
//! The block kernels read through raw pointers: the lengths that keep
//! those reads in bounds are `assert!`ed in the safe dispatcher, once per
//! *block* call, in release builds too. "Every code byte is `< ks`" holds
//! by construction at `ks >= 256`; a smaller `ks` takes the checked
//! scalar arm.
//!
//! # Adding an ISA path
//!
//! Add a `#[target_feature]`-gated module here (L002 rejects
//! `target_feature` in any other lib file), a variant constant, a
//! detection arm in `detect()`, and a dispatch arm in each public
//! wrapper. Every `unsafe` token needs an `// lint: allow(L002)`
//! justification naming the dispatch-time feature check that makes it
//! sound.
// lint: hot-path

use emblookup_obs::sync::Flag;

/// Variant value before first resolution.
const V_UNRESOLVED: u8 = 0;
/// Unrolled scalar fallback (also the forced `EMBLOOKUP_KERNEL=scalar`).
const V_SCALAR: u8 = 1;
/// x86_64 AVX2 + FMA path.
const V_AVX2: u8 = 2;
/// aarch64 NEON path.
const V_NEON: u8 = 3;

// One-shot publication of the resolved kernel variant: init() detects CPU
// features / reads EMBLOOKUP_KERNEL once and `set`s (Release); hot-path
// readers `get` (Acquire) and treat 0 as "unresolved". A benign race between
// first callers only repeats the cheap, idempotent detection.
static KERNEL: Flag = Flag::new(V_UNRESOLVED);

/// Resolved kernel variant, resolving it on first use.
#[inline]
fn variant() -> u8 {
    match KERNEL.get() {
        V_UNRESOLVED => init(),
        v => v,
    }
}

/// Cold path of [`variant`]: resolves `EMBLOOKUP_KERNEL` and CPU
/// detection once, publishes the result.
#[cold]
fn init() -> u8 {
    let forced_scalar = std::env::var("EMBLOOKUP_KERNEL")
        .is_ok_and(|v| v.trim().eq_ignore_ascii_case("scalar"));
    let v = if forced_scalar { V_SCALAR } else { detect() };
    KERNEL.set(v);
    v
}

/// CPU-feature detection (the `auto` policy).
fn detect() -> u8 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        return V_AVX2;
    }
    if cfg!(target_arch = "aarch64") {
        return V_NEON;
    }
    V_SCALAR
}

/// Name of the dispatched kernel variant (`"scalar"`, `"avx2fma"`, or
/// `"neon"`), for benchmark records and diagnostics.
pub fn active() -> &'static str {
    match variant() {
        V_AVX2 => "avx2fma",
        V_NEON => "neon",
        _ => "scalar",
    }
}

/// Squared Euclidean distance between two equal-length slices.
#[inline]
pub fn sq_l2(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if variant() == V_AVX2 {
        // lint: allow(L002) gated by dispatch: V_AVX2 is published only after is_x86_feature_detected verified avx2+fma
        return unsafe { x86::sq_l2_avx2(a, b) };
    }
    #[cfg(target_arch = "aarch64")]
    if variant() == V_NEON {
        // lint: allow(L002) gated by dispatch: V_NEON implies NEON, which is baseline on aarch64
        return unsafe { neon::sq_l2_neon(a, b) };
    }
    scalar::sq_l2(a, b)
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if variant() == V_AVX2 {
        // lint: allow(L002) gated by dispatch: V_AVX2 is published only after is_x86_feature_detected verified avx2+fma
        return unsafe { x86::dot_avx2(a, b) };
    }
    #[cfg(target_arch = "aarch64")]
    if variant() == V_NEON {
        // lint: allow(L002) gated by dispatch: V_NEON implies NEON, which is baseline on aarch64
        return unsafe { neon::dot_neon(a, b) };
    }
    scalar::dot(a, b)
}

/// ADC distance of one PQ code against a distance table laid out as
/// `table[j * ks + c]`.
///
/// Deliberately scalar in every variant: for a single code the `m`
/// dependent table loads don't amortize a gather, and the strict
/// ascending-`j` summation is what makes the lanes of [`adc_block`] and
/// [`adc_gather`] bit-exact against this function.
#[inline]
pub fn adc(table: &[f32], ks: usize, code: &[u8]) -> f32 {
    scalar::adc(table, ks, code)
}

/// Gathered ADC: [`adc_block`] over the codes `ids` names, scored where
/// they lie — `out[i]` equals `adc(table, ks, &codes[ids[i] * m..][..m])`
/// **bit-exactly** under every variant — so a graph traversal scores a
/// node's peers in one dispatched call without copying their codes side
/// by side first.
///
/// # Panics
/// Panics if `m` is zero, `out` is shorter than `ids`, the table is
/// shorter than `m * ks`, or an id names a code past the end of `codes`.
#[inline]
pub fn adc_gather(table: &[f32], ks: usize, m: usize, codes: &[u8], ids: &[u32], out: &mut [f32]) {
    assert!(m > 0 && ids.len() <= out.len() && table_holds(table, m, ks), "adc_gather: bad shape");
    let rows = codes.len() / m;
    assert!(ids.iter().all(|&id| (id as usize) < rows), "adc_gather: id out of range");
    #[cfg(target_arch = "x86_64")]
    if variant() == V_AVX2 && ks >= 256 {
        // lint: allow(L002) gated by dispatch (V_AVX2 is published only after is_x86_feature_detected verified avx2+fma) and by the asserts above: every id's code lies inside `codes`, the table holds m rows of ks, and at ks >= 256 no code byte can leave its row
        return unsafe { x86::adc_gather_avx2(table, ks, m, codes, ids, out) };
    }
    scalar::adc_gather(table, ks, m, codes, ids, out);
}

/// True when `table` holds `m` rows of `ks` distances.
#[inline]
fn table_holds(table: &[f32], m: usize, ks: usize) -> bool {
    m.checked_mul(ks).is_some_and(|len| len <= table.len())
}

/// Block ADC: scores `out.len()` contiguous `m`-byte codes against one
/// distance table in a single dispatched call.
///
/// `out[i]` equals `adc(table, ks, &codes[i * m..][..m])` **bit-exactly**
/// under every variant: full quads go through the four-lane body (whose
/// lanes add in ascending `j`) and the remainder uses the single-code
/// order. One dispatch + one call per *block* is what lets the SIMD win
/// survive — per-quad calls into a `#[target_feature]` function cannot
/// inline, and the call overhead eats the kernel's gain.
///
/// # Panics
/// Panics if `m` is zero, `codes` holds fewer than `out.len()` codes, or
/// the table is shorter than `m * ks`.
#[inline]
pub fn adc_block(table: &[f32], ks: usize, m: usize, codes: &[u8], out: &mut [f32]) {
    assert!(m > 0 && out.len() <= codes.len() / m && table_holds(table, m, ks), "adc_block: bad shape");
    #[cfg(target_arch = "x86_64")]
    if variant() == V_AVX2 && ks >= 256 {
        // lint: allow(L002) gated by dispatch (V_AVX2 is published only after is_x86_feature_detected verified avx2+fma) and by the assert above: `codes` holds out.len() codes, the table holds m rows of ks, and at ks >= 256 no code byte can leave its row
        return unsafe { x86::adc_block_avx2(table, ks, m, codes, out) };
    }
    scalar::adc_block(table, ks, m, codes, out);
}

/// Block squared-L2: distances from `query` to `out.len()` contiguous
/// rows of `query.len()` floats each, in a single dispatched call — the
/// ADC table-build and k-means assignment shape (one sub-vector against a
/// whole codebook). `out[i]` is **bit-equal** to [`sq_l2`] of `query` and
/// row `i` under every variant — each arm runs its per-row kernel inside
/// the block loop — which is what lets k-means and PQ encoding call this
/// without re-blessing a codebook; rounding may differ *between* variants
/// as it does for `sq_l2` (within the tested 1e-5 relative bound).
///
/// # Panics
/// Panics if `rows` holds fewer than `out.len()` rows of `query.len()`.
#[inline]
pub fn sq_l2_block(query: &[f32], rows: &[f32], out: &mut [f32]) {
    assert!(
        out.len().checked_mul(query.len()).is_some_and(|n| n <= rows.len()),
        "sq_l2_block: rows shorter than out.len() * query.len()"
    );
    #[cfg(target_arch = "x86_64")]
    if variant() == V_AVX2 {
        // lint: allow(L002) gated by dispatch: V_AVX2 is published only after is_x86_feature_detected verified avx2+fma
        return unsafe { x86::sq_l2_block_avx2(query, rows, out) };
    }
    #[cfg(target_arch = "aarch64")]
    if variant() == V_NEON {
        // lint: allow(L002) gated by dispatch: V_NEON implies NEON, which is baseline on aarch64
        return unsafe { neon::sq_l2_block_neon(query, rows, out) };
    }
    scalar::sq_l2_block(query, rows, out);
}

/// Gathered 8-bit squared-L2: `out[i] = Σ_j (shifted[j] − step[j] ·
/// codes[ids[i] · dim + j])²` with `dim = shifted.len()` — the distance
/// from a query, already shifted by the grid's origin, to each
/// scalar-quantized row `ids` names ([`crate::HnswPqIndex`]'s re-rank;
/// crate-private until something outside the crate scores such rows).
/// One dispatched call per *list*, the row loop inside the
/// `target_feature` boundary, for the reason given at [`adc_block`].
/// Variants may round differently, as they do for [`sq_l2`].
///
/// # Panics
/// Panics if `shifted` is empty, `step` is not as long as `shifted`, `out`
/// is shorter than `ids`, or an id names a row past the end of `codes`.
#[inline]
pub(crate) fn sq8_l2_gather(shifted: &[f32], step: &[f32], codes: &[u8], ids: &[u32], out: &mut [f32]) {
    let dim = shifted.len();
    assert!(dim > 0 && step.len() == dim && ids.len() <= out.len(), "sq8_l2_gather: bad shape");
    let rows = codes.len() / dim;
    assert!(ids.iter().all(|&id| (id as usize) < rows), "sq8_l2_gather: id out of range");
    #[cfg(target_arch = "x86_64")]
    if variant() == V_AVX2 {
        // lint: allow(L002) gated by dispatch (V_AVX2 is published only after is_x86_feature_detected verified avx2+fma) and by the asserts above: `step` holds dim floats, `out` a slot per id, and every id's dim-byte row lies inside `codes`
        return unsafe { x86::sq8_l2_gather_avx2(shifted, step, codes, ids, out) };
    }
    scalar::sq8_l2_gather(shifted, step, codes, ids, out);
}

/// Unrolled scalar reference kernels — the fallback variant and the
/// ground truth the SIMD paths are tested against. Four independent
/// accumulators break the serial float dependency chain (the compiler
/// cannot reassociate float adds itself), which both saturates the FMA
/// pipes and gives the autovectorizer a clean reduction shape.
pub mod scalar {
    /// Squared Euclidean distance (reference).
    #[inline]
    pub fn sq_l2(a: &[f32], b: &[f32]) -> f32 {
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for (ka, kb) in (&mut ca).zip(&mut cb) {
            let d0 = ka[0] - kb[0];
            let d1 = ka[1] - kb[1];
            let d2 = ka[2] - kb[2];
            let d3 = ka[3] - kb[3];
            s0 += d0 * d0;
            s1 += d1 * d1;
            s2 += d2 * d2;
            s3 += d3 * d3;
        }
        let rest: f32 = ca
            .remainder()
            .iter()
            .zip(cb.remainder())
            .map(|(&x, &y)| (x - y) * (x - y))
            .sum();
        (s0 + s1) + (s2 + s3) + rest
    }

    /// Dot product (reference).
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for (ka, kb) in (&mut ca).zip(&mut cb) {
            s0 += ka[0] * kb[0];
            s1 += ka[1] * kb[1];
            s2 += ka[2] * kb[2];
            s3 += ka[3] * kb[3];
        }
        let rest: f32 = ca
            .remainder()
            .iter()
            .zip(cb.remainder())
            .map(|(&x, &y)| x * y)
            .sum();
        (s0 + s1) + (s2 + s3) + rest
    }

    /// Single-code ADC (reference). Strict ascending-`j` summation —
    /// the order contract shared with [`adc_block`] and [`super::adc_gather`].
    #[inline]
    pub fn adc(table: &[f32], ks: usize, code: &[u8]) -> f32 {
        let mut acc = 0.0f32;
        for (j, &c) in code.iter().enumerate() {
            acc += table[j * ks + c as usize];
        }
        acc
    }

    /// Gathered ADC (reference): one single-code ADC per id, so the
    /// gathered form is bit-exact against the per-code form by
    /// construction.
    #[inline]
    pub(crate) fn adc_gather(table: &[f32], ks: usize, m: usize, codes: &[u8], ids: &[u32], out: &mut [f32]) {
        for (o, &id) in out.iter_mut().zip(ids) {
            *o = adc(table, ks, &codes[id as usize * m..][..m]);
        }
    }

    /// Block ADC (reference): one single-code ADC per output slot, so
    /// the block form is bit-exact against the per-code form by
    /// construction.
    #[inline]
    pub fn adc_block(table: &[f32], ks: usize, m: usize, codes: &[u8], out: &mut [f32]) {
        for (o, code) in out.iter_mut().zip(codes.chunks_exact(m)) {
            *o = adc(table, ks, code);
        }
    }

    /// Block squared-L2 (reference): one row at a time.
    #[inline]
    pub fn sq_l2_block(query: &[f32], rows: &[f32], out: &mut [f32]) {
        let dim = query.len();
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(dim)) {
            *o = sq_l2(query, row);
        }
    }

    /// Gathered 8-bit squared-L2 (reference): four accumulators as in
    /// [`sq_l2`], dimension `j` into accumulator `j % 4`.
    #[inline]
    pub(crate) fn sq8_l2_gather(shifted: &[f32], step: &[f32], codes: &[u8], ids: &[u32], out: &mut [f32]) {
        let dim = shifted.len();
        for (o, &id) in out.iter_mut().zip(ids) {
            let row = &codes[id as usize * dim..][..dim];
            let mut s = [0.0f32; 4];
            for (j, ((&q, &t), &c)) in shifted.iter().zip(step).zip(row).enumerate() {
                let d = q - t * f32::from(c);
                s[j % 4] += d * d;
            }
            *o = (s[0] + s[1]) + (s[2] + s[3]);
        }
    }
}

/// AVX2 + FMA kernels. Every function here is sound only after
/// dispatch-time detection; nothing outside [`variant`]-guarded arms
/// may call in.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// Horizontal sum of one 256-bit register.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the caller's dispatch check).
    #[target_feature(enable = "avx2")]
    // lint: allow(L002) target_feature helper, reached only from dispatch-gated kernels in this module
    unsafe fn hsum256(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0b01));
        _mm_cvtss_f32(s)
    }

    /// Squared Euclidean distance, two FMA chains of 8 lanes.
    ///
    /// # Safety
    /// Requires AVX2+FMA; called only when `variant() == V_AVX2`.
    #[target_feature(enable = "avx2", enable = "fma")]
    // lint: allow(L002) sound under dispatch: V_AVX2 is published only after runtime avx2+fma detection
    pub unsafe fn sq_l2_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            let d0 = _mm256_sub_ps(
                _mm256_loadu_ps(a.as_ptr().add(i)),
                _mm256_loadu_ps(b.as_ptr().add(i)),
            );
            let d1 = _mm256_sub_ps(
                _mm256_loadu_ps(a.as_ptr().add(i + 8)),
                _mm256_loadu_ps(b.as_ptr().add(i + 8)),
            );
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            i += 16;
        }
        if i + 8 <= n {
            let d = _mm256_sub_ps(
                _mm256_loadu_ps(a.as_ptr().add(i)),
                _mm256_loadu_ps(b.as_ptr().add(i)),
            );
            acc0 = _mm256_fmadd_ps(d, d, acc0);
            i += 8;
        }
        let mut sum = hsum256(_mm256_add_ps(acc0, acc1));
        while i < n {
            let d = a[i] - b[i];
            sum += d * d;
            i += 1;
        }
        sum
    }

    /// Dot product, two FMA chains of 8 lanes.
    ///
    /// # Safety
    /// Requires AVX2+FMA; called only when `variant() == V_AVX2`.
    #[target_feature(enable = "avx2", enable = "fma")]
    // lint: allow(L002) sound under dispatch: V_AVX2 is published only after runtime avx2+fma detection
    pub unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            acc0 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.as_ptr().add(i)),
                _mm256_loadu_ps(b.as_ptr().add(i)),
                acc0,
            );
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.as_ptr().add(i + 8)),
                _mm256_loadu_ps(b.as_ptr().add(i + 8)),
                acc1,
            );
            i += 16;
        }
        if i + 8 <= n {
            acc0 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.as_ptr().add(i)),
                _mm256_loadu_ps(b.as_ptr().add(i)),
                acc0,
            );
            i += 8;
        }
        let mut sum = hsum256(_mm256_add_ps(acc0, acc1));
        while i < n {
            sum += a[i] * b[i];
            i += 1;
        }
        sum
    }

    /// The one body of block and gathered ADC: `out[i]` is the distance of
    /// the `m`-byte code at `code(i)`. Full quads go through the four-lane
    /// body (per sub-quantizer, four unchecked table loads packed into
    /// one 128-bit lane add), the remainder in single-code order — both
    /// with ascending-`j` adds per lane, so every slot is bit-exact
    /// against `scalar::adc`. Looping *inside* the `target_feature`
    /// boundary amortizes the uninlinable dispatch call over the block.
    /// Deliberately NOT gather-based: `vgatherdps` is microcoded (and
    /// Downfall-mitigated hosts make it slower than four plain loads),
    /// while ADC is load-bound — the win here is eliding the per-element
    /// bounds checks the safe scalar path pays.
    ///
    /// # Safety
    /// Requires AVX2. Caller guarantees `n <= out.len()`, that `code(i)`
    /// points at `m` readable bytes for every `i < n`, that
    /// `m * ks <= table.len()` and that every code byte is `< ks`.
    #[target_feature(enable = "avx2")]
    #[inline]
    // lint: allow(L002) target_feature helper, reached only from dispatch-gated kernels in this module
    unsafe fn adc_lanes_avx2(
        table: &[f32],
        ks: usize,
        m: usize,
        n: usize,
        out: &mut [f32],
        code: impl Fn(usize) -> *const u8,
    ) {
        let base = table.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let (c0, c1, c2, c3) = (code(i), code(i + 1), code(i + 2), code(i + 3));
            let mut acc = _mm_setzero_ps();
            let mut row = 0usize;
            for j in 0..m {
                let v = _mm_set_ps(
                    *base.add(row + *c3.add(j) as usize),
                    *base.add(row + *c2.add(j) as usize),
                    *base.add(row + *c1.add(j) as usize),
                    *base.add(row + *c0.add(j) as usize),
                );
                acc = _mm_add_ps(acc, v);
                row += ks;
            }
            _mm_storeu_ps(op.add(i), acc);
            i += 4;
        }
        while i < n {
            let c = code(i);
            let mut s = 0.0f32;
            let mut row = 0usize;
            for j in 0..m {
                s += *base.add(row + *c.add(j) as usize);
                row += ks;
            }
            *op.add(i) = s;
            i += 1;
        }
    }

    /// Block ADC: slot `i`'s code is the `i`-th of `codes`.
    ///
    /// # Safety
    /// Requires AVX2; called only when `variant() == V_AVX2`. Caller
    /// guarantees `out.len() * m <= codes.len()`, `m * ks <= table.len()`
    /// and that every code byte is `< ks`.
    #[target_feature(enable = "avx2")]
    // lint: allow(L002) sound under dispatch: V_AVX2 is published only after runtime avx2+fma detection
    pub unsafe fn adc_block_avx2(table: &[f32], ks: usize, m: usize, codes: &[u8], out: &mut [f32]) {
        let cp = codes.as_ptr();
        adc_lanes_avx2(table, ks, m, out.len(), out, |i| cp.add(i * m));
    }

    /// Gathered ADC: slot `i`'s code is the `ids[i]`-th of `codes`.
    ///
    /// # Safety
    /// Requires AVX2; called only when `variant() == V_AVX2`. Caller
    /// guarantees `ids.len() <= out.len()`, `(id + 1) * m <= codes.len()`
    /// for every id, `m * ks <= table.len()` and that every code byte is
    /// `< ks`.
    #[target_feature(enable = "avx2")]
    // lint: allow(L002) sound under dispatch: V_AVX2 is published only after runtime avx2+fma detection
    pub unsafe fn adc_gather_avx2(table: &[f32], ks: usize, m: usize, codes: &[u8], ids: &[u32], out: &mut [f32]) {
        let cp = codes.as_ptr();
        adc_lanes_avx2(table, ks, m, ids.len(), out, |i| cp.add(*ids.get_unchecked(i) as usize * m));
    }

    /// Block squared-L2: the row loop lives inside the feature boundary
    /// so the per-row kernel inlines into it.
    ///
    /// # Safety
    /// Requires AVX2+FMA; called only when `variant() == V_AVX2`. Caller
    /// guarantees `out.len() * query.len() <= rows.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    // lint: allow(L002) sound under dispatch: V_AVX2 is published only after runtime avx2+fma detection
    pub unsafe fn sq_l2_block_avx2(query: &[f32], rows: &[f32], out: &mut [f32]) {
        let dim = query.len();
        for (i, o) in out.iter_mut().enumerate() {
            *o = sq_l2_avx2(query, rows.get_unchecked(i * dim..(i + 1) * dim));
        }
    }

    /// Eight code bytes at `p` as eight floats.
    ///
    /// # Safety
    /// Requires AVX2; `p` points at 8 readable bytes.
    #[target_feature(enable = "avx2")]
    #[inline]
    // lint: allow(L002) target_feature helper, reached only from dispatch-gated kernels in this module
    unsafe fn codes8_ps(p: *const u8) -> __m256 {
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(p.cast())))
    }

    /// Gathered 8-bit squared-L2: per row, two 8-lane chains of
    /// `d = shifted − step · code`, `acc += d²` as in [`sq_l2_avx2`],
    /// the rows looped over inside the feature boundary.
    ///
    /// # Safety
    /// Requires AVX2+FMA; called only when `variant() == V_AVX2`. Caller
    /// guarantees `step.len() == shifted.len()`, `ids.len() <= out.len()`
    /// and `(id + 1) * shifted.len() <= codes.len()` for every id.
    #[target_feature(enable = "avx2", enable = "fma")]
    // lint: allow(L002) sound under dispatch: V_AVX2 is published only after runtime avx2+fma detection
    pub unsafe fn sq8_l2_gather_avx2(shifted: &[f32], step: &[f32], codes: &[u8], ids: &[u32], out: &mut [f32]) {
        let dim = shifted.len();
        let (qp, tp) = (shifted.as_ptr(), step.as_ptr());
        for (o, &id) in out.iter_mut().zip(ids) {
            let row = codes.as_ptr().add(id as usize * dim);
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut j = 0;
            while j + 16 <= dim {
                let d0 = _mm256_fnmadd_ps(_mm256_loadu_ps(tp.add(j)), codes8_ps(row.add(j)), _mm256_loadu_ps(qp.add(j)));
                let d1 = _mm256_fnmadd_ps(
                    _mm256_loadu_ps(tp.add(j + 8)),
                    codes8_ps(row.add(j + 8)),
                    _mm256_loadu_ps(qp.add(j + 8)),
                );
                acc0 = _mm256_fmadd_ps(d0, d0, acc0);
                acc1 = _mm256_fmadd_ps(d1, d1, acc1);
                j += 16;
            }
            if j + 8 <= dim {
                let d = _mm256_fnmadd_ps(_mm256_loadu_ps(tp.add(j)), codes8_ps(row.add(j)), _mm256_loadu_ps(qp.add(j)));
                acc0 = _mm256_fmadd_ps(d, d, acc0);
                j += 8;
            }
            let mut sum = hsum256(_mm256_add_ps(acc0, acc1));
            while j < dim {
                let d = *qp.add(j) - *tp.add(j) * f32::from(*row.add(j));
                sum += d * d;
                j += 1;
            }
            *o = sum;
        }
    }
}

/// NEON kernels (aarch64; NEON is architecturally baseline there, so
/// dispatch needs no feature probe beyond the arch gate).
#[cfg(target_arch = "aarch64")]
mod neon {
    use core::arch::aarch64::*;

    /// Squared Euclidean distance, two FMA chains of 4 lanes.
    ///
    /// # Safety
    /// Requires NEON; called only when `variant() == V_NEON`.
    #[target_feature(enable = "neon")]
    // lint: allow(L002) sound under dispatch: V_NEON is published only on aarch64 where NEON is baseline
    pub unsafe fn sq_l2_neon(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let mut i = 0;
        while i + 8 <= n {
            let d0 = vsubq_f32(vld1q_f32(a.as_ptr().add(i)), vld1q_f32(b.as_ptr().add(i)));
            let d1 = vsubq_f32(
                vld1q_f32(a.as_ptr().add(i + 4)),
                vld1q_f32(b.as_ptr().add(i + 4)),
            );
            acc0 = vfmaq_f32(acc0, d0, d0);
            acc1 = vfmaq_f32(acc1, d1, d1);
            i += 8;
        }
        if i + 4 <= n {
            let d = vsubq_f32(vld1q_f32(a.as_ptr().add(i)), vld1q_f32(b.as_ptr().add(i)));
            acc0 = vfmaq_f32(acc0, d, d);
            i += 4;
        }
        let mut sum = vaddvq_f32(vaddq_f32(acc0, acc1));
        while i < n {
            let d = a[i] - b[i];
            sum += d * d;
            i += 1;
        }
        sum
    }

    /// Dot product, two FMA chains of 4 lanes.
    ///
    /// # Safety
    /// Requires NEON; called only when `variant() == V_NEON`.
    #[target_feature(enable = "neon")]
    // lint: allow(L002) sound under dispatch: V_NEON is published only on aarch64 where NEON is baseline
    pub unsafe fn dot_neon(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let mut i = 0;
        while i + 8 <= n {
            acc0 = vfmaq_f32(
                acc0,
                vld1q_f32(a.as_ptr().add(i)),
                vld1q_f32(b.as_ptr().add(i)),
            );
            acc1 = vfmaq_f32(
                acc1,
                vld1q_f32(a.as_ptr().add(i + 4)),
                vld1q_f32(b.as_ptr().add(i + 4)),
            );
            i += 8;
        }
        if i + 4 <= n {
            acc0 = vfmaq_f32(
                acc0,
                vld1q_f32(a.as_ptr().add(i)),
                vld1q_f32(b.as_ptr().add(i)),
            );
            i += 4;
        }
        let mut sum = vaddvq_f32(vaddq_f32(acc0, acc1));
        while i < n {
            sum += a[i] * b[i];
            i += 1;
        }
        sum
    }

    /// Block squared-L2: the row loop lives inside the feature boundary
    /// so the per-row kernel inlines into it.
    ///
    /// # Safety
    /// Requires NEON; called only when `variant() == V_NEON`. Caller
    /// guarantees `out.len() * query.len() <= rows.len()`.
    #[target_feature(enable = "neon")]
    // lint: allow(L002) sound under dispatch: V_NEON is published only on aarch64 where NEON is baseline
    pub unsafe fn sq_l2_block_neon(query: &[f32], rows: &[f32], out: &mut [f32]) {
        let dim = query.len();
        for (i, o) in out.iter_mut().enumerate() {
            *o = sq_l2_neon(query, rows.get_unchecked(i * dim..(i + 1) * dim));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vec(n: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    fn rel_err(got: f32, want: f32) -> f32 {
        (got - want).abs() / want.abs().max(1.0)
    }

    #[test]
    fn active_names_a_known_variant() {
        assert!(matches!(active(), "scalar" | "avx2fma" | "neon"));
    }

    #[test]
    fn scalar_env_override_forces_scalar() {
        // ci.sh runs the suite under EMBLOOKUP_KERNEL=scalar and =auto;
        // when the override is set it must win over detection.
        if std::env::var("EMBLOOKUP_KERNEL").is_ok_and(|v| v.trim() == "scalar") {
            assert_eq!(active(), "scalar");
        }
    }

    #[test]
    fn dispatched_matches_scalar_reference_across_tail_dims() {
        // odd dims exercise every remainder tail: 1 (all tail), 7
        // (sub-register), 63 (one short of two full AVX2 steps), 100
        let mut rng = StdRng::seed_from_u64(7);
        for &dim in &[1usize, 7, 63, 100] {
            let a = random_vec(dim, &mut rng);
            let b = random_vec(dim, &mut rng);
            let e = rel_err(sq_l2(&a, &b), scalar::sq_l2(&a, &b));
            assert!(e < 1e-5, "sq_l2 dim {dim}: rel err {e}");
            let e = rel_err(dot(&a, &b), scalar::dot(&a, &b));
            assert!(e < 1e-5, "dot dim {dim}: rel err {e}");
        }
    }

    #[test]
    fn gathered_adc_is_bit_exact_against_single_code() {
        // every length 0..=9 (quads plus each remainder), ids repeated and
        // descending; `ks = 256` takes the SIMD arm where there is one, a
        // smaller `ks` the checked scalar arm — both must sum in ascending
        // j so every slot matches per-code ADC to the bit, per the module
        // determinism contract.
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, ks) in &[(1usize, 256usize), (4, 256), (8, 256), (4, 16)] {
            let table = random_vec(m * ks, &mut rng);
            let rows = 40;
            let codes: Vec<u8> = (0..rows * m).map(|_| rng.gen_range(0..ks as u16) as u8).collect();
            for len in 0..=9usize {
                let random: Vec<u32> = (0..len).map(|_| rng.gen_range(0..rows as u32)).collect();
                let descending: Vec<u32> = (0..len as u32).map(|i| rows as u32 - 1 - i).collect();
                let repeated = vec![rows as u32 - 1; len];
                for ids in [random, descending, repeated] {
                    let mut out = vec![f32::NAN; len];
                    adc_gather(&table, ks, m, &codes, &ids, &mut out);
                    for (i, &id) in ids.iter().enumerate() {
                        let single = adc(&table, ks, &codes[id as usize * m..][..m]);
                        assert_eq!(
                            out[i].to_bits(),
                            single.to_bits(),
                            "m={m} ks={ks} ids={ids:?} slot {i}: gathered != single"
                        );
                    }
                }
            }
        }
    }

    // The `should_panic`s below hold under EMBLOOKUP_KERNEL=scalar and =auto alike
    // (ci.sh runs both): what keeps the SIMD arms' raw loads in bounds is
    // an `assert!` in the dispatcher, not a `debug_assert!`.

    #[test]
    #[should_panic(expected = "adc_gather: id out of range")]
    fn gathered_adc_rejects_an_id_past_the_codes() {
        let (table, codes) = (vec![0.0f32; 8 * 256], vec![0u8; 5 * 8]);
        adc_gather(&table, 256, 8, &codes, &[0, 4, 5], &mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "adc_block: bad shape")]
    fn block_adc_rejects_more_outputs_than_codes() {
        let (table, codes) = (vec![0.0f32; 8 * 256], vec![0u8; 8]);
        adc_block(&table, 256, 8, &codes, &mut [0.0; 64]);
    }

    #[test]
    #[should_panic(expected = "sq_l2_block: rows shorter")]
    fn block_sq_l2_rejects_more_outputs_than_rows() {
        sq_l2_block(&[0.0; 8], &[0.0; 8], &mut [0.0; 64]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_code_byte_past_a_short_table_row_is_a_checked_index() {
        // ks < 256: a byte can name a centroid the table does not have;
        // that must never reach the unchecked loads
        adc_block(&[0.0f32; 4], 4, 1, &[200, 1, 2, 3], &mut [0.0; 4]);
    }

    #[test]
    fn gathered_sq8_matches_the_scalar_reference_and_the_decoded_rows() {
        // dims: all tail, sub-register, one 8-lane step, one 16-lane step,
        // the serving dimension, and one past it; every list length 0..=9
        let mut rng = StdRng::seed_from_u64(23);
        for &dim in &[1usize, 7, 8, 16, 64, 65] {
            let rows = 40;
            let shifted = random_vec(dim, &mut rng);
            let mut step: Vec<f32> = (0..dim).map(|_| rng.gen_range(0.0..0.02f32)).collect();
            step[0] = 0.0; // a constant dimension
            let codes: Vec<u8> = (0..rows * dim).map(|_| rng.gen_range(0..256u16) as u8).collect();
            let decoded = |id: u32| -> Vec<f32> {
                let row = &codes[id as usize * dim..][..dim];
                row.iter().zip(&step).map(|(&c, &t)| t * f32::from(c)).collect()
            };
            for len in 0..=9usize {
                let random: Vec<u32> = (0..len).map(|_| rng.gen_range(0..rows as u32)).collect();
                let repeated = vec![rows as u32 - 1; len];
                for ids in [random, repeated] {
                    // a longer `out` keeps its tail
                    let mut out = vec![f32::NAN; len + 1];
                    sq8_l2_gather(&shifted, &step, &codes, &ids, &mut out);
                    assert!(out[len].is_nan(), "dim {dim}: wrote past ids.len()");
                    let mut want = vec![f32::NAN; len];
                    scalar::sq8_l2_gather(&shifted, &step, &codes, &ids, &mut want);
                    for (i, &id) in ids.iter().enumerate() {
                        let e = rel_err(out[i], want[i]);
                        assert!(e < 1e-5, "dim {dim} ids {ids:?} slot {i}: rel err {e} against scalar");
                        let e = rel_err(out[i], sq_l2(&shifted, &decoded(id)));
                        assert!(e < 1e-5, "dim {dim} ids {ids:?} slot {i}: rel err {e} against decode-then-sq_l2");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sq8_l2_gather: id out of range")]
    fn gathered_sq8_rejects_an_id_past_the_codes() {
        sq8_l2_gather(&[0.0; 64], &[0.0; 64], &[0u8; 5 * 64], &[0, 4, 5], &mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "sq8_l2_gather: id out of range")]
    fn gathered_sq8_rejects_a_row_the_codes_end_inside() {
        sq8_l2_gather(&[0.0; 64], &[0.0; 64], &[0u8; 2 * 64 - 1], &[1], &mut [0.0; 1]);
    }

    #[test]
    #[should_panic(expected = "sq8_l2_gather: bad shape")]
    fn gathered_sq8_rejects_a_step_of_another_length() {
        sq8_l2_gather(&[0.0; 64], &[0.0; 63], &[0u8; 64], &[0], &mut [0.0; 1]);
    }

    #[test]
    #[should_panic(expected = "sq8_l2_gather: bad shape")]
    fn gathered_sq8_rejects_fewer_outputs_than_ids() {
        sq8_l2_gather(&[0.0; 64], &[0.0; 64], &[0u8; 64], &[0, 0], &mut [0.0; 1]);
    }

    #[test]
    fn block_adc_is_bit_exact_against_single_code() {
        // 7 codes: one full quad plus a 3-code remainder, so both block
        // paths are exercised; both must match per-code ADC to the bit.
        let mut rng = StdRng::seed_from_u64(17);
        for &(m, ks) in &[(1usize, 4usize), (5, 16), (8, 256)] {
            let table = random_vec(m * ks, &mut rng);
            let n = 7;
            let codes: Vec<u8> = (0..n * m).map(|_| rng.gen_range(0..ks as u16) as u8).collect();
            let mut out = vec![0.0f32; n];
            adc_block(&table, ks, m, &codes, &mut out);
            for i in 0..n {
                let single = adc(&table, ks, &codes[i * m..(i + 1) * m]);
                assert_eq!(
                    out[i].to_bits(),
                    single.to_bits(),
                    "m={m} ks={ks} code {i}: block != single"
                );
            }
        }
    }

    #[test]
    fn block_sq_l2_matches_per_row() {
        // a multi-row kernel that rounds differently has to break this
        // test, not a codebook: k-means and PQ encoding assign through the
        // block form what they used to assign through the per-row form.
        // Dims 7, 8 and 64, and the dsub = 8 codebook shape (256 rows).
        let mut rng = StdRng::seed_from_u64(19);
        for &(dim, n) in &[(7usize, 9usize), (8, 9), (64, 9), (8, 256)] {
            let q = random_vec(dim, &mut rng);
            let rows = random_vec(n * dim, &mut rng);
            let mut out = vec![0.0f32; n];
            sq_l2_block(&q, &rows, &mut out);
            for i in 0..n {
                let row = &rows[i * dim..(i + 1) * dim];
                assert_eq!(out[i].to_bits(), sq_l2(&q, row).to_bits(), "dim {dim} row {i}: block != per-row");
                // what lets an edge remember its length and k-means++
                // measure from the centre: the kernel is symmetric to the bit
                assert_eq!(sq_l2(&q, row).to_bits(), sq_l2(row, &q).to_bits(), "dim {dim} row {i}: asymmetric");
            }
        }
    }

    #[test]
    fn adc_matches_naive_sum() {
        let mut rng = StdRng::seed_from_u64(13);
        let (m, ks) = (6, 16);
        let table = random_vec(m * ks, &mut rng);
        let code: Vec<u8> = (0..m).map(|_| rng.gen_range(0..ks as u16) as u8).collect();
        let naive: f32 = code
            .iter()
            .enumerate()
            .map(|(j, &c)| table[j * ks + c as usize])
            .sum();
        assert!(rel_err(adc(&table, ks, &code), naive) < 1e-6);
    }

    #[test]
    fn kernels_agree_on_known_values() {
        assert_eq!(sq_l2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }
}
