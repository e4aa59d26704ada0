//! Runtime-dispatched SIMD kernels — the single home for every hot loop
//! in the workspace: the distance kernels of all ANN backends, via
//! `emblookup-tensor` the blocked-matmul inner product and the encoder's
//! dense convolutions and matrix-vector products, and via
//! `emblookup-embed` the row arithmetic of SGNS training.
//!
//! # Dispatch
//!
//! The first kernel call resolves a kernel *variant* once per process
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
//! benchmarks can record it next to their numbers. A kernel without a
//! body for the resolved variant runs its [`scalar`] arm (`neon` has
//! bodies for `sq_l2`, `dot`, `sq_l2_block` and `sq_l2_columns` only).
//! [`prefetch`] is not a kernel and does not dispatch: it computes
//! nothing.
//!
//! # Determinism contract
//!
//! For a *fixed* variant, every kernel is a pure function of its inputs:
//! results are bit-identical across calls, threads, and pool widths.
//! Between variants there are three tiers:
//!
//! * **Rounding may differ** — `sq_l2`/`dot` (and the crate's own
//!   `sq8_l2_gather`): scalar and SIMD arms add in different orders and
//!   contract to FMA differently; tests bound the divergence at 1e-5
//!   relative error.
//! * **Bit-equal to the same variant's per-item kernel** —
//!   [`sq_l2_block`]: `out[i]` is that variant's `sq_l2(query, row i)`
//!   to the bit. The AVX2 arm's eight-row body at `query.len() == 8`
//!   keeps this by reducing its eight registers in the per-row
//!   horizontal sum's own addition tree. The crate's `sq_l2_columns`
//!   (points stored dimension-major, eight to a register) keeps it by
//!   adding each lane's squares in that same tree.
//! * **Bit-exact under every variant** — a lane *is* an output element
//!   and adds into it in the scalar loop's order, with no FMA: [`adc`]
//!   sums in ascending sub-quantizer order and [`adc_block`] (contiguous
//!   codes) and [`adc_gather`] (codes picked by id) accumulate each lane
//!   in that same order, so batched and per-code ADC agree exactly; and
//!   [`conv1d_plane`] and [`gemv_bias`] — the encoder's arithmetic — are
//!   bit-exact against `scalar::conv1d_plane` / `scalar::gemv_bias`, so an
//!   embedding does not depend on `EMBLOOKUP_KERNEL` and no index has to
//!   be rebuilt when the variant changes; and [`mean_rows`],
//!   [`out_row_step`] and [`sub_scaled_rows`] — SGNS's row arithmetic —
//!   are bit-exact against their scalar arms, so neither does a trained
//!   fastText table.
//!
//! # Preconditions
//!
//! The block kernels read through raw pointers: the lengths that keep
//! those reads in bounds are `assert!`ed in the safe dispatcher, once per
//! *block* call, in release builds too (with `checked_mul` where a
//! product of lengths could wrap). "Every code byte is `< ks`" holds
//! by construction at `ks >= 256`; a smaller `ks` takes the checked
//! scalar arm.
//!
//! # Adding an ISA path
//!
//! Add a `#[target_feature]`-gated module here (every other lib crate
//! forbids `unsafe_code`, so a feature-gated fn cannot be called outside
//! this module and the pool), a variant constant, a detection arm in
//! `detect()`, and a dispatch arm in each public wrapper. Every `unsafe`
//! block needs a `// SAFETY:` comment naming the dispatch-time feature
//! check that makes it sound (`clippy::undocumented_unsafe_blocks`).
//! Keep the loop over a block *inside* the feature boundary and its
//! accumulators in registers across it: a call into a
//! `#[target_feature]` function cannot inline into its safe dispatcher.

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
        // SAFETY: gated by dispatch: V_AVX2 is published only after is_x86_feature_detected verified avx2+fma
        return unsafe { x86::sq_l2_avx2(a, b) };
    }
    #[cfg(target_arch = "aarch64")]
    if variant() == V_NEON {
        // SAFETY: gated by dispatch: V_NEON implies NEON, which is baseline on aarch64
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
        // SAFETY: gated by dispatch: V_AVX2 is published only after is_x86_feature_detected verified avx2+fma
        return unsafe { x86::dot_avx2(a, b) };
    }
    #[cfg(target_arch = "aarch64")]
    if variant() == V_NEON {
        // SAFETY: gated by dispatch: V_NEON implies NEON, which is baseline on aarch64
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
        // SAFETY: gated by dispatch (V_AVX2 is published only after is_x86_feature_detected verified avx2+fma) and by the asserts above: every id's code lies inside `codes`, the table holds m rows of ks, and at ks >= 256 no code byte can leave its row
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
        // SAFETY: gated by dispatch (V_AVX2 is published only after is_x86_feature_detected verified avx2+fma) and by the assert above: `codes` holds out.len() codes, the table holds m rows of ks, and at ks >= 256 no code byte can leave its row
        return unsafe { x86::adc_block_avx2(table, ks, m, codes, out) };
    }
    scalar::adc_block(table, ks, m, codes, out);
}

/// Block squared-L2: distances from `query` to `out.len()` contiguous
/// rows of `query.len()` floats each, in a single dispatched call — the
/// k-means assignment shape (one point against a whole codebook).
/// `out[i]` is **bit-equal** to [`sq_l2`] of `query` and row `i` under
/// every variant — each arm runs its per-row kernel inside the block loop
/// — which is what lets k-means call this without re-blessing a
/// codebook; rounding may differ *between* variants
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
        // SAFETY: gated by dispatch: V_AVX2 is published only after is_x86_feature_detected verified avx2+fma
        return unsafe { x86::sq_l2_block_avx2(query, rows, out) };
    }
    #[cfg(target_arch = "aarch64")]
    if variant() == V_NEON {
        // SAFETY: gated by dispatch: V_NEON implies NEON, which is baseline on aarch64
        return unsafe { neon::sq_l2_block_neon(query, rows, out) };
    }
    scalar::sq_l2_block(query, rows, out);
}

/// Squared-L2 from `query` to `out.len()` points stored dimension-major:
/// coordinate `k` of point `c` at `columns[k * out.len() + c]` — how
/// [`crate::ProductQuantizer`] stores a codebook, so that its ADC table
/// and encoder read one contiguous run of centroids per dimension.
/// `out[c]` is **bit-equal** to [`sq_l2`] of `query` and point `c` under
/// every variant, so it is what [`sq_l2_block`] gives over the row-major
/// codebook: the AVX2 and scalar arms hold eight points in a register (or
/// an array) and add each point's squares in the tree that variant's
/// per-row kernel reduces a row in — no horizontal sum per point.
///
/// # Panics
/// Panics unless `columns.len() == query.len() * out.len()`.
#[inline]
pub(crate) fn sq_l2_columns(query: &[f32], columns: &[f32], out: &mut [f32]) {
    assert!(
        query.len().checked_mul(out.len()) == Some(columns.len()),
        "sq_l2_columns: columns is not [query.len()][out.len()]"
    );
    #[cfg(target_arch = "x86_64")]
    if variant() == V_AVX2 {
        // SAFETY: gated by dispatch (V_AVX2 is published only after is_x86_feature_detected verified avx2+fma) and by the assert above: columns holds query.len() rows of out.len() floats
        return unsafe { x86::sq_l2_columns_avx2(query, columns, out) };
    }
    #[cfg(target_arch = "aarch64")]
    if variant() == V_NEON {
        // SAFETY: gated by dispatch (V_NEON implies NEON, which is baseline on aarch64) and by the assert above: columns holds query.len() rows of out.len() floats
        return unsafe { neon::sq_l2_columns_neon(query, columns, out) };
    }
    scalar::sq_l2_columns(query, columns, out);
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
        // SAFETY: gated by dispatch (V_AVX2 is published only after is_x86_feature_detected verified avx2+fma) and by the asserts above: `step` holds dim floats, `out` a slot per id, and every id's dim-byte row lies inside `codes`
        return unsafe { x86::sq8_l2_gather_avx2(shifted, step, codes, ids, out) };
    }
    scalar::sq8_l2_gather(shifted, step, codes, ids, out);
}

/// One dense "same"-padded 1-D convolution layer over padded planes — the
/// encoder's dense layers (`emblookup-tensor`'s `conv1d_rows`). A plane is
/// `[C][l + k - 1]` row-major, each row `k / 2` zeros, its `l` samples,
/// `k / 2` zeros; `x` holds `C_in` rows, `y` `b.len()` rows, `w` is
/// `[C_out][C_in][k]`. Every sample of `y` is overwritten with
/// `b[co] + Σ w[co][ci][kk] · x[ci][t + kk]`, the terms added one by one
/// in lexicographic `(ci, kk)` order, each product rounded before its add
/// (no FMA); `y`'s halo is not touched. **Bit-exact against
/// `scalar::conv1d_plane` under every variant**: the SIMD arm gives every
/// output sample a lane of its own and adds into it in that same order.
///
/// # Panics
/// Panics if `k` is even, `l` is zero (or `l + k` overflows), `x` or `y` is
/// not a whole number of `l + k - 1`-float rows, `y` does not have
/// `b.len()` rows, or `w` is not `b.len() * C_in * k` long.
#[inline]
pub fn conv1d_plane(x: &[f32], w: &[f32], b: &[f32], y: &mut [f32], k: usize, l: usize) {
    assert!(k % 2 == 1 && (1..=usize::MAX - k).contains(&l), "conv1d_plane: k must be odd and l in 1..=usize::MAX - k");
    let stride = l + k - 1;
    assert!(x.len().is_multiple_of(stride), "conv1d_plane: x is not [C_in][l + k - 1]");
    assert!(b.len().checked_mul(stride) == Some(y.len()), "conv1d_plane: y is not [b.len()][l + k - 1]");
    let taps = (x.len() / stride).checked_mul(k).and_then(|t| t.checked_mul(b.len()));
    assert!(taps == Some(w.len()), "conv1d_plane: w is not [C_out][C_in][k]");
    #[cfg(target_arch = "x86_64")]
    if variant() == V_AVX2 {
        // SAFETY: gated by dispatch (V_AVX2 is published only after is_x86_feature_detected verified avx2+fma) and by the asserts above: x, y and w hold whole [C_in], [b.len()] and [b.len()][C_in] blocks of l + k - 1 and k floats
        return unsafe { x86::conv1d_plane_avx2(x, w, b, y, k, l) };
    }
    scalar::conv1d_plane(x, w, b, y, k, l);
}

/// Row-vector times matrix plus bias, `y = x W + bias` with `W` `[x.len()]
/// [y.len()]` row-major — the encoder's two fully-connected layers
/// (`emblookup-tensor`'s `Linear::infer_into`). Every output starts from
/// zero and takes `x[i] · W[i][j]` input by input in ascending `i`, inputs
/// that are exactly zero (either sign) skipped, each product rounded
/// before its add (no FMA), the bias last. **Bit-exact against
/// `scalar::gemv_bias` under every variant**: the SIMD arm gives every
/// output a lane of its own and adds into it in that same order.
///
/// # Panics
/// Panics unless `w.len() == x.len() * y.len()` and `bias.len() == y.len()`.
#[inline]
pub fn gemv_bias(x: &[f32], w: &[f32], bias: &[f32], y: &mut [f32]) {
    assert!(x.len().checked_mul(y.len()) == Some(w.len()), "gemv_bias: w is not [x.len()][y.len()]");
    assert!(bias.len() == y.len(), "gemv_bias: bias is not as long as y");
    #[cfg(target_arch = "x86_64")]
    if variant() == V_AVX2 {
        // SAFETY: gated by dispatch (V_AVX2 is published only after is_x86_feature_detected verified avx2+fma) and by the asserts above: w holds x.len() rows of y.len() floats and bias y.len()
        return unsafe { x86::gemv_bias_avx2(x, w, bias, y) };
    }
    scalar::gemv_bias(x, w, bias, y);
}

/// The mean of the rows of `table` that `ids` names, rows of `out.len()`
/// floats: every output starts from `+0.0`, takes the named rows' elements
/// in `ids` order (a repeated id counts twice) and is then multiplied by
/// `1 / ids.len()`; an empty list gives zeros — SGNS's hidden vector, a
/// word's n-gram mean. **Bit-exact against `scalar::mean_rows` under every
/// variant**: the SIMD arm gives every output a lane of its own and adds
/// into it in that same order, without FMA.
///
/// # Panics
/// Panics if `out` is empty or an id names a row past the end of `table`.
#[inline]
pub fn mean_rows(table: &[f32], ids: &[u32], out: &mut [f32]) {
    assert!(!out.is_empty(), "mean_rows: rows of zero floats");
    let rows = table.len() / out.len();
    assert!(ids.iter().all(|&id| (id as usize) < rows), "mean_rows: id out of range");
    #[cfg(target_arch = "x86_64")]
    if variant() == V_AVX2 {
        // SAFETY: gated by dispatch (V_AVX2 is published only after is_x86_feature_detected verified avx2+fma) and by the asserts above: every id's out.len()-float row lies inside `table`
        return unsafe { x86::mean_rows_avx2(table, ids, out) };
    }
    scalar::mean_rows(table, ids, out);
}

/// One SGNS output-row step: `grad[j] += err · row[j]`, then
/// `row[j] −= step · hidden[j]`, for every `j` — the gradient reads the row
/// before the row moves. Each product is rounded before its add (no FMA).
/// **Bit-exact against `scalar::out_row_step` under every variant**: one
/// lane per element, the same two operations in the same order.
///
/// # Panics
/// Panics unless `row`, `hidden` and `grad` have one length.
#[inline]
pub fn out_row_step(row: &mut [f32], hidden: &[f32], grad: &mut [f32], err: f32, step: f32) {
    assert!(hidden.len() == row.len() && grad.len() == row.len(), "out_row_step: row, hidden and grad differ in length");
    #[cfg(target_arch = "x86_64")]
    if variant() == V_AVX2 {
        // SAFETY: gated by dispatch (V_AVX2 is published only after is_x86_feature_detected verified avx2+fma) and by the assert above: the three slices have one length
        return unsafe { x86::out_row_step_avx2(row, hidden, grad, err, step) };
    }
    scalar::out_row_step(row, hidden, grad, err, step);
}

/// `row −= scale · grad` for every row of `table` that `ids` names, rows of
/// `grad.len()` floats, in `ids` order, so a repeated id moves twice — the
/// SGNS input-row update. Each product is rounded before its subtract (no
/// FMA). **Bit-exact against `scalar::sub_scaled_rows` under every
/// variant**: one lane per element, its updates in `ids` order.
///
/// # Panics
/// Panics if `grad` is empty or an id names a row past the end of `table`.
#[inline]
pub fn sub_scaled_rows(table: &mut [f32], ids: &[u32], scale: f32, grad: &[f32]) {
    assert!(!grad.is_empty(), "sub_scaled_rows: rows of zero floats");
    let rows = table.len() / grad.len();
    assert!(ids.iter().all(|&id| (id as usize) < rows), "sub_scaled_rows: id out of range");
    #[cfg(target_arch = "x86_64")]
    if variant() == V_AVX2 {
        // SAFETY: gated by dispatch (V_AVX2 is published only after is_x86_feature_detected verified avx2+fma) and by the asserts above: every id's grad.len()-float row lies inside `table`
        return unsafe { x86::sub_scaled_rows_avx2(table, ids, scale, grad) };
    }
    scalar::sub_scaled_rows(table, ids, scale, grad);
}

/// Cache-line size [`prefetch`] steps by.
const LINE: usize = 64;

/// Asks the CPU to bring every 64-byte line `data` spans into L1 (a T0
/// prefetch per line) and returns at once: for a read known one step
/// before it is made — a beam entry's neighbour row when it is admitted,
/// a token's n-gram rows before they are summed. It reads nothing and
/// changes no value, so it is not a dispatched variant and
/// `EMBLOOKUP_KERNEL` does not gate it; on targets other than x86_64 it
/// does nothing.
#[inline]
pub fn prefetch<T>(data: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        let (first, lines) = line_span(data);
        for i in 0..lines {
            // SAFETY: a prefetch is a hint that never faults and reads nothing the program sees; SSE (all `_mm_prefetch` needs) is baseline on x86_64
            unsafe { core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(first.wrapping_add(i * LINE)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

/// The first 64-byte line `data` touches and how many lines it spans
/// (zero for an empty slice).
#[inline]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn line_span<T>(data: &[T]) -> (*const i8, usize) {
    let start = data.as_ptr().cast::<i8>();
    let bytes = std::mem::size_of_val(data);
    if bytes == 0 {
        return (start, 0);
    }
    let lead = start as usize % LINE;
    (start.wrapping_sub(lead), (lead + bytes).div_ceil(LINE))
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
    pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
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
    pub(crate) fn adc(table: &[f32], ks: usize, code: &[u8]) -> f32 {
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
    pub(crate) fn adc_block(table: &[f32], ks: usize, m: usize, codes: &[u8], out: &mut [f32]) {
        for (o, code) in out.iter_mut().zip(codes.chunks_exact(m)) {
            *o = adc(table, ks, code);
        }
    }

    /// Block squared-L2 (reference): one row at a time.
    #[inline]
    pub(crate) fn sq_l2_block(query: &[f32], rows: &[f32], out: &mut [f32]) {
        let dim = query.len();
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(dim)) {
            *o = sq_l2(query, row);
        }
    }

    /// Dimension-major squared-L2: [`sq_l2`] eight points at a time, each
    /// point's lane taking dimension `k` into accumulator `k % 4` while `k`
    /// is in a whole quad, into the remainder's sum after.
    #[inline]
    pub(crate) fn sq_l2_columns(query: &[f32], columns: &[f32], out: &mut [f32]) {
        let n = out.len();
        let quads = query.len() / 4 * 4;
        let neutral: f32 = std::iter::empty::<f32>().sum();
        for (b, out) in out.chunks_mut(8).enumerate() {
            let (mut s, mut rest) = ([[0.0f32; 8]; 4], [neutral; 8]);
            for (k, &q) in query.iter().enumerate() {
                let acc = if k < quads { &mut s[k % 4] } else { &mut rest };
                for (a, &x) in acc.iter_mut().zip(&columns[k * n + 8 * b..][..out.len()]) {
                    let d = q - x;
                    *a += d * d;
                }
            }
            for (l, o) in out.iter_mut().enumerate() {
                *o = (s[0][l] + s[1][l]) + (s[2][l] + s[3][l]) + rest[l];
            }
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

    /// Dense conv layer over padded planes (reference, and the arm of
    /// every variant without a SIMD body): bias first, then `(ci, kk)` in
    /// lexicographic order, multiply then add — the order of
    /// `emblookup-tensor`'s `conv1d_forward`, whose skipped terms
    /// (out-of-range taps, empty channels, zero weights) appear here as
    /// `+ w·0`, which changes no finite sum.
    #[inline]
    pub(crate) fn conv1d_plane(x: &[f32], w: &[f32], b: &[f32], y: &mut [f32], k: usize, l: usize) {
        let (stride, pad) = (l + k - 1, k / 2);
        let c_in = x.len() / stride;
        for (co, (yrow, &bias)) in y.chunks_exact_mut(stride).zip(b).enumerate() {
            let orow = &mut yrow[pad..pad + l];
            orow.fill(bias);
            let taps = &w[co * c_in * k..(co + 1) * c_in * k];
            for (xrow, wrow) in x.chunks_exact(stride).zip(taps.chunks_exact(k)) {
                for (kk, &wv) in wrow.iter().enumerate() {
                    for (o, &xv) in orow.iter_mut().zip(&xrow[kk..kk + l]) {
                        *o += wv * xv;
                    }
                }
            }
        }
    }

    /// `y = x W + bias` (reference): from zero, input by input with zero
    /// inputs skipped, the bias last — the order of the row-vector
    /// `Tensor::matmul`.
    #[inline]
    pub(crate) fn gemv_bias(x: &[f32], w: &[f32], bias: &[f32], y: &mut [f32]) {
        y.fill(0.0);
        if y.is_empty() {
            return;
        }
        for (&a, wrow) in x.iter().zip(w.chunks_exact(y.len())) {
            // exact-zero sparsity skip, as in `matmul`: ReLU leaves many inputs exactly zero
            if a == 0.0 {
                continue;
            }
            for (o, &wv) in y.iter_mut().zip(wrow) {
                *o += a * wv;
            }
        }
        for (o, &b) in y.iter_mut().zip(bias) {
            *o += b;
        }
    }

    /// Mean of the named rows (reference): from `+0.0`, row by row in
    /// `ids` order, then times `1 / ids.len()`.
    #[inline]
    pub(crate) fn mean_rows(table: &[f32], ids: &[u32], out: &mut [f32]) {
        out.fill(0.0);
        if ids.is_empty() {
            return;
        }
        let dim = out.len();
        for &id in ids {
            for (o, &x) in out.iter_mut().zip(&table[id as usize * dim..][..dim]) {
                *o += x;
            }
        }
        let inv = 1.0 / ids.len() as f32;
        for o in out.iter_mut() {
            *o *= inv;
        }
    }

    /// SGNS output-row step (reference), over zipped slices so it has no
    /// bounds check and runs at the baseline vector width.
    #[inline]
    pub(crate) fn out_row_step(row: &mut [f32], hidden: &[f32], grad: &mut [f32], err: f32, step: f32) {
        for ((g, o), &h) in grad.iter_mut().zip(row.iter_mut()).zip(hidden) {
            *g += err * *o;
            *o -= step * h;
        }
    }

    /// Scaled row updates (reference): row by row in `ids` order.
    #[inline]
    pub(crate) fn sub_scaled_rows(table: &mut [f32], ids: &[u32], scale: f32, grad: &[f32]) {
        let dim = grad.len();
        for &id in ids {
            for (r, &g) in table[id as usize * dim..][..dim].iter_mut().zip(grad) {
                *r -= scale * g;
            }
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
    pub(super) unsafe fn sq_l2_avx2(a: &[f32], b: &[f32]) -> f32 {
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
    pub(super) unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
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
    pub(super) unsafe fn adc_block_avx2(table: &[f32], ks: usize, m: usize, codes: &[u8], out: &mut [f32]) {
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
    pub(super) unsafe fn adc_gather_avx2(table: &[f32], ks: usize, m: usize, codes: &[u8], ids: &[u32], out: &mut [f32]) {
        let cp = codes.as_ptr();
        adc_lanes_avx2(table, ks, m, ids.len(), out, |i| cp.add(*ids.get_unchecked(i) as usize * m));
    }

    /// Block squared-L2: the row loop lives inside the feature boundary
    /// so the per-row kernel inlines into it. At `query.len() == 8` — one
    /// register per row: k-means assignment while PQ trains at the
    /// paper's `dsub` — rows go eight at a time through
    /// [`hsum8x256`], whose lane `r` is `hsum256` of row `r`'s register to
    /// the bit, so every slot still equals [`sq_l2_avx2`] of its row.
    ///
    /// # Safety
    /// Requires AVX2+FMA; called only when `variant() == V_AVX2`. Caller
    /// guarantees `out.len() * query.len() <= rows.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn sq_l2_block_avx2(query: &[f32], rows: &[f32], out: &mut [f32]) {
        let dim = query.len();
        let mut i = 0;
        if dim == 8 {
            let q = _mm256_loadu_ps(query.as_ptr());
            let (rp, op) = (rows.as_ptr(), out.as_mut_ptr());
            // what `sq_l2_avx2` hands `hsum256` for an 8-float row: d² fused onto zero
            let sq = |r: usize| {
                let d = _mm256_sub_ps(q, _mm256_loadu_ps(rp.add(r * 8)));
                _mm256_fmadd_ps(d, d, _mm256_setzero_ps())
            };
            while i + 8 <= out.len() {
                let v = [sq(i), sq(i + 1), sq(i + 2), sq(i + 3), sq(i + 4), sq(i + 5), sq(i + 6), sq(i + 7)];
                _mm256_storeu_ps(op.add(i), hsum8x256(v));
                i += 8;
            }
        }
        for (i, o) in out.iter_mut().enumerate().skip(i) {
            *o = sq_l2_avx2(query, rows.get_unchecked(i * dim..(i + 1) * dim));
        }
    }

    /// Eight [`hsum256`]s at once: lane `r` of the result is the
    /// horizontal sum of `v[r]`, added in `hsum256`'s own tree — `lo + hi`,
    /// then elements `0 + 2` and `1 + 3`, then `0 + 1` — so it is
    /// bit-equal to `hsum256(v[r])`. Rows `r` and `r + 4` share a register
    /// from the first step on, which is what leaves the sums in lane order:
    /// 14 shuffles and 7 adds where eight `hsum256`s pay 24 and 24.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the caller's dispatch check).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn hsum8x256(v: [__m256; 8]) -> __m256 {
        // [lo(a) + hi(a) | lo(b) + hi(b)]
        let fold = |a: __m256, b: __m256| {
            _mm256_add_ps(_mm256_permute2f128_ps(a, b, 0x20), _mm256_permute2f128_ps(a, b, 0x31))
        };
        // per 128-bit half [a0 + a2, a1 + a3, b0 + b2, b1 + b3]
        let pairs = |a: __m256, b: __m256| {
            _mm256_add_ps(_mm256_shuffle_ps(a, b, 0b01_00_01_00), _mm256_shuffle_ps(a, b, 0b11_10_11_10))
        };
        let p04_15 = pairs(fold(v[0], v[4]), fold(v[1], v[5]));
        let p26_37 = pairs(fold(v[2], v[6]), fold(v[3], v[7]));
        // per half [a0 + a1, a2 + a3, b0 + b1, b2 + b3]: rows 0..4 | rows 4..8
        _mm256_add_ps(
            _mm256_shuffle_ps(p04_15, p26_37, 0b10_00_10_00),
            _mm256_shuffle_ps(p04_15, p26_37, 0b11_01_11_01),
        )
    }

    /// Dimension-major squared-L2: eight points per register, each lane
    /// running [`sq_l2_avx2`]'s own arithmetic for its point, so every slot
    /// equals `sq_l2_avx2` of its point. Each step is a full register of
    /// points where the row-major form pays a horizontal sum per point.
    /// The 4- and 8-float sub-spaces of the serving tiers get a body
    /// compiled for their width ([`sq_l2_8_narrow`]), any other width the
    /// general one ([`sq_l2_8_columns`]). The last, partial group of points
    /// is read and written through a lane mask.
    ///
    /// # Safety
    /// Requires AVX2+FMA; called only when `variant() == V_AVX2`. Caller
    /// guarantees `columns.len() == query.len() * out.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn sq_l2_columns_avx2(query: &[f32], columns: &[f32], out: &mut [f32]) {
        let (n, cp) = (out.len(), columns.as_ptr());
        match query.len() {
            4 => {
                let q = broadcast::<4>(query);
                in_groups_of_8(out, |c, mask| sq_l2_8_narrow(&q, cp.add(c), n, mask));
            }
            8 => {
                let q = broadcast::<8>(query);
                in_groups_of_8(out, |c, mask| sq_l2_8_narrow(&q, cp.add(c), n, mask));
            }
            _ => in_groups_of_8(out, |c, mask| sq_l2_8_columns(query, cp.add(c), n, mask)),
        }
    }

    /// Stores `group(c, mask)` — the values of slots `c..c + 8`, read
    /// through `mask` when it is set — over `out`, eight slots at a time;
    /// the last, partial group with a lane mask that neither `group` nor
    /// the store goes past.
    ///
    /// # Safety
    /// Requires AVX2; `group` is sound for every group of `out`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn in_groups_of_8(out: &mut [f32], group: impl Fn(usize, Option<__m256i>) -> __m256) {
        let (n, op) = (out.len(), out.as_mut_ptr());
        let mut c = 0;
        while c + 8 <= n {
            _mm256_storeu_ps(op.add(c), group(c, None));
            c += 8;
        }
        if c < n {
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((n - c) as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
            _mm256_maskstore_ps(op.add(c), mask, group(c, Some(mask)));
        }
    }

    /// The `D` floats of `query`, each broadcast to a register.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn broadcast<const D: usize>(query: &[f32]) -> [__m256; D] {
        std::array::from_fn(|k| _mm256_set1_ps(query[k]))
    }

    /// Eight floats from `p`, or the lanes `mask` sets (the others read
    /// as zero and touch no memory).
    ///
    /// # Safety
    /// Requires AVX2; the lanes read lie in one allocation.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load8(p: *const f32, mask: Option<__m256i>) -> __m256 {
        match mask {
            None => _mm256_loadu_ps(p),
            Some(mask) => _mm256_maskload_ps(p, mask),
        }
    }

    /// [`sq_l2_8_columns`] at a width `D < 16` known to the compiler, the
    /// query broadcast once by the caller: below 16 floats `sq_l2_avx2`'s
    /// second chain is +0 and adding it changes no lane (a sum of squares
    /// is never −0), and its fused add of `d·d` onto +0 is the one
    /// rounding `d·d` is.
    ///
    /// # Safety
    /// Requires AVX2; `load8(col + k * n, mask)` is sound for `k < D`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn sq_l2_8_narrow<const D: usize>(q: &[__m256; D], col: *const f32, n: usize, mask: Option<__m256i>) -> __m256 {
        let sq = |k: usize| {
            let d = _mm256_sub_ps(q[k], load8(col.add(k * n), mask));
            _mm256_mul_ps(d, d)
        };
        // below 8 floats the tree's sum is +0 too
        let (mut sum, head) = if D >= 8 {
            let pair = |a: usize, b: usize| _mm256_add_ps(sq(a), sq(b));
            (_mm256_add_ps(_mm256_add_ps(pair(0, 4), pair(2, 6)), _mm256_add_ps(pair(1, 5), pair(3, 7))), 8)
        } else {
            (_mm256_setzero_ps(), 0)
        };
        for k in head..D {
            sum = _mm256_add_ps(sum, sq(k));
        }
        sum
    }

    /// The eight points at `col` (coordinate `k` at `col + k * n`) at any
    /// `query.len()`, in `sq_l2_avx2`'s order lane by lane: each whole
    /// 16-float step fused into sixteen accumulators (the two chains'
    /// lanes), a whole 8-float step after that into the first eight, the
    /// chains added, the eight summed in [`hsum256`]'s tree, the tail
    /// added in order.
    ///
    /// # Safety
    /// Requires AVX2+FMA; `load8(col + k * n, mask)` is sound for every
    /// `k < query.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn sq_l2_8_columns(query: &[f32], col: *const f32, n: usize, mask: Option<__m256i>) -> __m256 {
        let dim = query.len();
        let d = |k: usize| _mm256_sub_ps(_mm256_set1_ps(query[k]), load8(col.add(k * n), mask));
        let (mut acc0, mut acc1) = ([_mm256_setzero_ps(); 8], [_mm256_setzero_ps(); 8]);
        let mut k = 0;
        while k + 16 <= dim {
            for l in 0..8 {
                let (d0, d1) = (d(k + l), d(k + 8 + l));
                acc0[l] = _mm256_fmadd_ps(d0, d0, acc0[l]);
                acc1[l] = _mm256_fmadd_ps(d1, d1, acc1[l]);
            }
            k += 16;
        }
        if k + 8 <= dim {
            for (l, acc) in acc0.iter_mut().enumerate() {
                let d0 = d(k + l);
                *acc = _mm256_fmadd_ps(d0, d0, *acc);
            }
            k += 8;
        }
        let pair = |a: usize, b: usize| _mm256_add_ps(_mm256_add_ps(acc0[a], acc1[a]), _mm256_add_ps(acc0[b], acc1[b]));
        let mut sum = _mm256_add_ps(_mm256_add_ps(pair(0, 4), pair(2, 6)), _mm256_add_ps(pair(1, 5), pair(3, 7)));
        while k < dim {
            let dk = d(k);
            sum = _mm256_add_ps(sum, _mm256_mul_ps(dk, dk));
            k += 1;
        }
        sum
    }

    /// `CH` output channels × `V` vectors of eight samples of one conv
    /// layer: the `CH * V` accumulators start at the bias and stay in
    /// registers across every `(ci, kk)` tap, each `x` vector loaded once
    /// for all `CH` channels; `acc + w·x` unfused, one lane per sample.
    ///
    /// # Safety
    /// Requires AVX2. `x` points at sample `t` of input row 0 (tap 0),
    /// `w` / `b` at the first of the `CH` channels' taps / biases, `y` at
    /// sample `t` of its output row; rows are `stride` floats apart, a
    /// channel's taps `c_in * k`, and `8 * V` samples from `t` exist.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn conv_tile_avx2<const CH: usize, const V: usize>(
        x: *const f32,
        w: *const f32,
        b: *const f32,
        y: *mut f32,
        (c_in, k, stride): (usize, usize, usize),
    ) {
        let mut acc = [[_mm256_setzero_ps(); V]; CH];
        for (c, a) in acc.iter_mut().enumerate() {
            *a = [_mm256_set1_ps(*b.add(c)); V];
        }
        for ci in 0..c_in {
            for kk in 0..k {
                let mut xv = [_mm256_setzero_ps(); V];
                for (v, xv) in xv.iter_mut().enumerate() {
                    *xv = _mm256_loadu_ps(x.add(ci * stride + kk + 8 * v));
                }
                for (c, a) in acc.iter_mut().enumerate() {
                    let wv = _mm256_set1_ps(*w.add((c * c_in + ci) * k + kk));
                    for (a, &xv) in a.iter_mut().zip(&xv) {
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(wv, xv));
                    }
                }
            }
        }
        for (c, a) in acc.iter().enumerate() {
            for (v, &a) in a.iter().enumerate() {
                _mm256_storeu_ps(y.add(c * stride + 8 * v), a);
            }
        }
    }

    /// `CH` output channels of one conv layer, all `l` samples: tiles of
    /// 32, then of 8, then one sample at a time in the same order.
    ///
    /// # Safety
    /// Requires AVX2. `x` is the input plane, `w` / `b` / `y` point at the
    /// first of the `CH` channels' taps / bias / padded output row.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn conv_channels_avx2<const CH: usize>(
        x: *const f32,
        w: *const f32,
        b: *const f32,
        y: *mut f32,
        (c_in, k, l): (usize, usize, usize),
    ) {
        let stride = l + k - 1;
        let y = y.add(k / 2);
        let mut t = 0;
        while t + 32 <= l {
            conv_tile_avx2::<CH, 4>(x.add(t), w, b, y.add(t), (c_in, k, stride));
            t += 32;
        }
        while t + 8 <= l {
            conv_tile_avx2::<CH, 1>(x.add(t), w, b, y.add(t), (c_in, k, stride));
            t += 8;
        }
        while t < l {
            for c in 0..CH {
                let mut s = *b.add(c);
                for ci in 0..c_in {
                    for kk in 0..k {
                        s += *w.add((c * c_in + ci) * k + kk) * *x.add(ci * stride + t + kk);
                    }
                }
                *y.add(c * stride + t) = s;
            }
            t += 1;
        }
    }

    /// Dense conv layer over padded planes, the whole layer inside the
    /// feature boundary: output channels two at a time (eight accumulators
    /// per 32-sample tile), a single-channel pass for an odd `C_out`.
    ///
    /// # Safety
    /// Requires AVX2; called only when `variant() == V_AVX2`. Caller
    /// guarantees `k` odd, `x.len() == C_in * (l + k - 1)`,
    /// `y.len() == b.len() * (l + k - 1)` and `w.len() == b.len() * C_in * k`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv1d_plane_avx2(x: &[f32], w: &[f32], b: &[f32], y: &mut [f32], k: usize, l: usize) {
        let stride = l + k - 1;
        let (c_in, c_out) = (x.len() / stride, b.len());
        let (xp, wp, bp, yp) = (x.as_ptr(), w.as_ptr(), b.as_ptr(), y.as_mut_ptr());
        let mut co = 0;
        while co + 2 <= c_out {
            conv_channels_avx2::<2>(xp, wp.add(co * c_in * k), bp.add(co), yp.add(co * stride), (c_in, k, l));
            co += 2;
        }
        if co < c_out {
            conv_channels_avx2::<1>(xp, wp.add(co * c_in * k), bp.add(co), yp.add(co * stride), (c_in, k, l));
        }
    }

    /// Inputs [`gemv_bias_avx2`] gathers per pass: its stack list of
    /// nonzero-input indices has this many one-byte slots.
    const GATHER: usize = 256;

    /// `V` vectors of eight outputs of `y += x W` from column `j`, over
    /// the inputs `nz` names: the accumulators start at `y`'s partial sums
    /// and stay in registers across the list, `acc + x·w` unfused.
    ///
    /// # Safety
    /// Requires AVX2. `x` and `w` are read at every index in `nz` (`w` in
    /// rows of `n` floats), `y` holds `n` floats, and `j + 8 * V <= n`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn gemv_cols_avx2<const V: usize>(x: *const f32, nz: &[u8], w: *const f32, y: *mut f32, n: usize, j: usize) {
        let mut acc = [_mm256_setzero_ps(); V];
        for (v, acc) in acc.iter_mut().enumerate() {
            *acc = _mm256_loadu_ps(y.add(j + 8 * v));
        }
        for &i in nz {
            let i = i as usize;
            let av = _mm256_set1_ps(*x.add(i));
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_add_ps(*acc, _mm256_mul_ps(av, _mm256_loadu_ps(w.add(i * n + j + 8 * v))));
            }
        }
        for (v, &acc) in acc.iter().enumerate() {
            _mm256_storeu_ps(y.add(j + 8 * v), acc);
        }
    }

    /// `y = x W + bias`, [`GATHER`] inputs per pass: the pass first lists
    /// its nonzero inputs' indices — a store per input and a count that
    /// grows only past a nonzero one, so a ReLU layer's zeros cost no
    /// mispredicted branch — then runs column blocks of 64 outputs (eight
    /// accumulators), of 8, and one output at a time over the list, each
    /// carrying its sums in `y` from pass to pass. The terms and their
    /// order are `scalar::gemv_bias`'s; the bias is added last.
    ///
    /// # Safety
    /// Requires AVX2; called only when `variant() == V_AVX2`. Caller
    /// guarantees `w.len() == x.len() * y.len()` and
    /// `bias.len() == y.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemv_bias_avx2(x: &[f32], w: &[f32], bias: &[f32], y: &mut [f32]) {
        let n = y.len();
        y.fill(0.0);
        let yp = y.as_mut_ptr();
        let mut list = [0u8; GATHER];
        for (pass, xs) in x.chunks(GATHER).enumerate() {
            let (xp, wp) = (xs.as_ptr(), w.as_ptr().add(pass * GATHER * n));
            let mut len = 0;
            for (i, &a) in xs.iter().enumerate() {
                // `len <= i < GATHER`: the slot exists
                *list.get_unchecked_mut(len) = i as u8;
                // exact-zero sparsity skip, as in `scalar::gemv_bias`
                len += usize::from(a != 0.0);
            }
            let nz = list.get_unchecked(..len);
            let mut j = 0;
            while j + 64 <= n {
                gemv_cols_avx2::<8>(xp, nz, wp, yp, n, j);
                j += 64;
            }
            while j + 8 <= n {
                gemv_cols_avx2::<1>(xp, nz, wp, yp, n, j);
                j += 8;
            }
            while j < n {
                let mut s = *yp.add(j);
                for &i in nz {
                    s += *xp.add(i as usize) * *wp.add(i as usize * n + j);
                }
                *yp.add(j) = s;
                j += 1;
            }
        }
        for (o, &b) in y.iter_mut().zip(bias) {
            *o += b;
        }
    }

    /// `V` vectors of eight columns of the mean: the accumulators start at
    /// `+0.0` and stay in registers across every named row.
    ///
    /// # Safety
    /// Requires AVX2. `col + id * dim + 8 * V` floats are readable for
    /// every id and `out` holds `8 * V` floats.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mean_cols_avx2<const V: usize>(col: *const f32, dim: usize, ids: &[u32], inv: f32, out: *mut f32) {
        let mut acc = [_mm256_setzero_ps(); V];
        for &id in ids {
            let row = col.add(id as usize * dim);
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_add_ps(*acc, _mm256_loadu_ps(row.add(8 * v)));
            }
        }
        let inv = _mm256_set1_ps(inv);
        for (v, &acc) in acc.iter().enumerate() {
            _mm256_storeu_ps(out.add(8 * v), _mm256_mul_ps(acc, inv));
        }
    }

    /// Mean of the named rows, the whole list per column block (64
    /// columns in eight accumulators, then 8, then one at a time), each
    /// lane adding its rows in `ids` order as `scalar::mean_rows` does.
    ///
    /// # Safety
    /// Requires AVX2; called only when `variant() == V_AVX2`. Caller
    /// guarantees `(id + 1) * out.len() <= table.len()` for every id.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mean_rows_avx2(table: &[f32], ids: &[u32], out: &mut [f32]) {
        if ids.is_empty() {
            out.fill(0.0);
            return;
        }
        let dim = out.len();
        let (tp, op) = (table.as_ptr(), out.as_mut_ptr());
        let inv = 1.0 / ids.len() as f32;
        let mut j = 0;
        while j + 64 <= dim {
            mean_cols_avx2::<8>(tp.add(j), dim, ids, inv, op.add(j));
            j += 64;
        }
        while j + 8 <= dim {
            mean_cols_avx2::<1>(tp.add(j), dim, ids, inv, op.add(j));
            j += 8;
        }
        for j in j..dim {
            let mut s = 0.0f32;
            for &id in ids {
                s += *tp.add(id as usize * dim + j);
            }
            *op.add(j) = s * inv;
        }
    }

    /// SGNS output-row step, eight elements a step: `grad + err·row`, then
    /// `row − step·hidden`, unfused.
    ///
    /// # Safety
    /// Requires AVX2; called only when `variant() == V_AVX2`. Caller
    /// guarantees the three slices have one length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn out_row_step_avx2(row: &mut [f32], hidden: &[f32], grad: &mut [f32], err: f32, step: f32) {
        let n = row.len();
        let (rp, hp, gp) = (row.as_mut_ptr(), hidden.as_ptr(), grad.as_mut_ptr());
        let (e, s) = (_mm256_set1_ps(err), _mm256_set1_ps(step));
        let mut j = 0;
        while j + 8 <= n {
            let o = _mm256_loadu_ps(rp.add(j));
            _mm256_storeu_ps(gp.add(j), _mm256_add_ps(_mm256_loadu_ps(gp.add(j)), _mm256_mul_ps(e, o)));
            _mm256_storeu_ps(rp.add(j), _mm256_sub_ps(o, _mm256_mul_ps(s, _mm256_loadu_ps(hp.add(j)))));
            j += 8;
        }
        while j < n {
            *gp.add(j) += err * *rp.add(j);
            *rp.add(j) -= step * *hp.add(j);
            j += 1;
        }
    }

    /// `V` vectors of eight columns of the scaled row updates: `scale ·
    /// grad` is taken once into registers — the product every row's
    /// update rounds — and subtracted from each named row in `ids` order.
    ///
    /// # Safety
    /// Requires AVX2. `col + id * dim + 8 * V` floats are writable for
    /// every id and `grad` holds `8 * V` floats.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn sub_scaled_cols_avx2<const V: usize>(col: *mut f32, dim: usize, ids: &[u32], scale: f32, grad: *const f32) {
        let scale = _mm256_set1_ps(scale);
        let mut step = [_mm256_setzero_ps(); V];
        for (v, step) in step.iter_mut().enumerate() {
            *step = _mm256_mul_ps(scale, _mm256_loadu_ps(grad.add(8 * v)));
        }
        for &id in ids {
            let row = col.add(id as usize * dim);
            for (v, &step) in step.iter().enumerate() {
                _mm256_storeu_ps(row.add(8 * v), _mm256_sub_ps(_mm256_loadu_ps(row.add(8 * v)), step));
            }
        }
    }

    /// Scaled row updates per column block (64 columns, then 8, then one
    /// at a time), each lane moving by its rows in `ids` order as
    /// `scalar::sub_scaled_rows` does.
    ///
    /// # Safety
    /// Requires AVX2; called only when `variant() == V_AVX2`. Caller
    /// guarantees `(id + 1) * grad.len() <= table.len()` for every id.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sub_scaled_rows_avx2(table: &mut [f32], ids: &[u32], scale: f32, grad: &[f32]) {
        let dim = grad.len();
        let (tp, gp) = (table.as_mut_ptr(), grad.as_ptr());
        let mut j = 0;
        while j + 64 <= dim {
            sub_scaled_cols_avx2::<8>(tp.add(j), dim, ids, scale, gp.add(j));
            j += 64;
        }
        while j + 8 <= dim {
            sub_scaled_cols_avx2::<1>(tp.add(j), dim, ids, scale, gp.add(j));
            j += 8;
        }
        for j in j..dim {
            let step = scale * *gp.add(j);
            for &id in ids {
                *tp.add(id as usize * dim + j) -= step;
            }
        }
    }

    /// Eight code bytes at `p` as eight floats.
    ///
    /// # Safety
    /// Requires AVX2; `p` points at 8 readable bytes.
    #[target_feature(enable = "avx2")]
    #[inline]
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
    pub(super) unsafe fn sq8_l2_gather_avx2(shifted: &[f32], step: &[f32], codes: &[u8], ids: &[u32], out: &mut [f32]) {
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
    pub(super) unsafe fn sq_l2_neon(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let bp = b.as_ptr();
        sq_l2_neon_by(&a[..n], |i| vld1q_f32(bp.add(i)), |i| *bp.add(i))
    }

    /// [`sq_l2_neon`] of `a` and the point whose coordinates `b4(i)`
    /// (four from `i`) and `b1(i)` read, in that kernel's order.
    ///
    /// # Safety
    /// Requires NEON. `b4(i)` and `b1(i)` are sound reads for every
    /// `i < a.len()` they are asked for.
    #[target_feature(enable = "neon")]
    #[inline]
    unsafe fn sq_l2_neon_by(a: &[f32], b4: impl Fn(usize) -> float32x4_t, b1: impl Fn(usize) -> f32) -> f32 {
        let n = a.len();
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let mut i = 0;
        while i + 8 <= n {
            let d0 = vsubq_f32(vld1q_f32(a.as_ptr().add(i)), b4(i));
            let d1 = vsubq_f32(vld1q_f32(a.as_ptr().add(i + 4)), b4(i + 4));
            acc0 = vfmaq_f32(acc0, d0, d0);
            acc1 = vfmaq_f32(acc1, d1, d1);
            i += 8;
        }
        if i + 4 <= n {
            let d = vsubq_f32(vld1q_f32(a.as_ptr().add(i)), b4(i));
            acc0 = vfmaq_f32(acc0, d, d);
            i += 4;
        }
        let mut sum = vaddvq_f32(vaddq_f32(acc0, acc1));
        while i < n {
            let d = a[i] - b1(i);
            sum += d * d;
            i += 1;
        }
        sum
    }

    /// Dimension-major squared-L2, a point at a time: [`sq_l2_neon`]'s
    /// arithmetic over the point's strided coordinates.
    ///
    /// # Safety
    /// Requires NEON; called only when `variant() == V_NEON`. Caller
    /// guarantees `columns.len() == query.len() * out.len()`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn sq_l2_columns_neon(query: &[f32], columns: &[f32], out: &mut [f32]) {
        let n = out.len();
        let cp = columns.as_ptr();
        for (c, o) in out.iter_mut().enumerate() {
            let at = |k: usize| *cp.add(k * n + c);
            let quad = |k: usize| {
                let v = [at(k), at(k + 1), at(k + 2), at(k + 3)];
                vld1q_f32(v.as_ptr())
            };
            *o = sq_l2_neon_by(query, quad, at);
        }
    }

    /// Dot product, two FMA chains of 4 lanes.
    ///
    /// # Safety
    /// Requires NEON; called only when `variant() == V_NEON`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot_neon(a: &[f32], b: &[f32]) -> f32 {
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
    pub(super) unsafe fn sq_l2_block_neon(query: &[f32], rows: &[f32], out: &mut [f32]) {
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
        // test, not a codebook: k-means assigns through the block form
        // what it used to assign through the per-row form.
        // Dims 7, 8 and 64, and at dim 8 — where the AVX2 arm reduces eight
        // rows together — every count around a multiple of eight up to the
        // dsub = 8 codebook shape (256 rows) and one past it.
        let mut rng = StdRng::seed_from_u64(19);
        let dim8 = [0usize, 1, 7, 8, 9, 255, 256, 257].map(|n| (8usize, n));
        for &(dim, n) in [(7usize, 9usize), (64, 9)].iter().chain(&dim8) {
            let q = random_vec(dim, &mut rng);
            let rows = random_vec(n * dim, &mut rng);
            let mut out = vec![f32::NAN; n];
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
    fn columns_sq_l2_is_sq_l2_block_over_the_rows() {
        // the ADC table's shape: dsub 4, 8 and 16 (the serving tiers) and
        // each side of them, every width of a 16-float step; ks 1, 7, 16,
        // 100 and 256, so a full group, a masked group alone and after
        // full ones; once per shape with ±inf and NaN coordinates
        let mut rng = StdRng::seed_from_u64(37);
        for &dim in &[1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 64] {
            for &n in &[1usize, 7, 8, 16, 100, 256] {
                for special in [false, true] {
                    let q = random_vec(dim, &mut rng);
                    let mut rows = random_vec(n * dim, &mut rng);
                    if special {
                        for v in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                            let at = rng.gen_range(0..rows.len());
                            rows[at] = v;
                        }
                    }
                    let columns: Vec<f32> = (0..dim).flat_map(|k| (0..n).map(|c| rows[c * dim + k]).collect::<Vec<_>>()).collect();
                    let (mut got, mut want) = (vec![f32::NAN; n], vec![f32::NAN; n]);
                    sq_l2_columns(&q, &columns, &mut got);
                    sq_l2_block(&q, &rows, &mut want);
                    let mut scalar_got = vec![f32::NAN; n];
                    scalar::sq_l2_columns(&q, &columns, &mut scalar_got);
                    for c in 0..n {
                        let what = format!("dim {dim} n {n} point {c} special {special}");
                        assert_same(got[c], want[c], &what);
                        assert_same(scalar_got[c], scalar::sq_l2(&q, &rows[c * dim..(c + 1) * dim]), &what);
                    }
                }
            }
        }
    }

    #[test]
    fn columns_sq_l2_writes_only_its_points() {
        // 3 points after a full group of 8: the masked store leaves the
        // slice's neighbours alone
        let mut rng = StdRng::seed_from_u64(41);
        let (dim, n) = (8usize, 11usize);
        let (q, columns) = (random_vec(dim, &mut rng), random_vec(dim * n, &mut rng));
        let mut buf = vec![f32::NAN; n + 5];
        sq_l2_columns(&q, &columns, &mut buf[..n]);
        assert!(buf[..n].iter().all(|v| v.is_finite()) && buf[n..].iter().all(|v| v.is_nan()));
    }

    #[test]
    #[should_panic(expected = "sq_l2_columns: columns is not")]
    fn columns_sq_l2_rejects_columns_of_another_shape() {
        sq_l2_columns(&[0.0; 8], &[0.0; 8 * 7], &mut [0.0; 8]);
    }

    /// `[C][l]` samples as a padded plane.
    fn to_plane(samples: &[f32], k: usize, l: usize) -> Vec<f32> {
        let mut plane = vec![0.0f32; samples.len() / l * (l + k - 1)];
        for (prow, srow) in plane.chunks_exact_mut(l + k - 1).zip(samples.chunks_exact(l)) {
            prow[k / 2..][..l].copy_from_slice(srow);
        }
        plane
    }

    /// Equal bits, or both NaN: which operand's payload a NaN keeps is
    /// the one thing an arm may choose.
    fn assert_same(got: f32, want: f32, what: &str) {
        assert!(got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()), "{what}: {got} != {want}");
    }

    #[test]
    fn conv1d_plane_is_bit_exact_against_the_scalar_arm() {
        // every tile tail (l), channel tail (c_out) and width (k); inputs
        // as after a ReLU — exact zeros, one empty channel — with a -0.0
        // bias, and once per shape with ±inf and NaN samples
        let mut rng = StdRng::seed_from_u64(29);
        for &l in &[1usize, 5, 8, 31, 32, 33, 40, 64] {
            for &c_in in &[1usize, 3, 8, 9] {
                for &c_out in &[1usize, 2, 3, 8] {
                    for &k in &[1usize, 3, 5] {
                        for special in [false, true] {
                            let mut samples: Vec<f32> = random_vec(c_in * l, &mut rng).iter().map(|v| v.max(0.0)).collect();
                            samples[..l].fill(0.0);
                            if special {
                                for v in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                                    let at = rng.gen_range(0..samples.len());
                                    samples[at] = v;
                                }
                            }
                            let x = to_plane(&samples, k, l);
                            let w = random_vec(c_out * c_in * k, &mut rng);
                            let mut b = random_vec(c_out, &mut rng);
                            b[0] = -0.0;
                            // dirty between the halos, which must stay zero
                            let mut got = to_plane(&vec![f32::NAN; c_out * l], k, l);
                            let mut want = got.clone();
                            conv1d_plane(&x, &w, &b, &mut got, k, l);
                            scalar::conv1d_plane(&x, &w, &b, &mut want, k, l);
                            let what = format!("l {l} c_in {c_in} c_out {c_out} k {k} special {special}");
                            for (row, wrow) in got.chunks_exact(l + k - 1).zip(want.chunks_exact(l + k - 1)) {
                                let mut halo = row[..k / 2].iter().chain(&row[k / 2 + l..]);
                                assert!(halo.all(|v| v.to_bits() == 0), "{what}: halo written");
                                for (&g, &w) in row.iter().zip(wrow) {
                                    assert_same(g, w, &what);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gemv_bias_is_bit_exact_against_the_scalar_arm() {
        // every column-block tail (n), and input counts on each side of the
        // AVX2 arm's 256-input gather pass; about half the inputs exact
        // zeros of either sign, as after a ReLU, and once per shape with a
        // NaN input
        let mut rng = StdRng::seed_from_u64(31);
        for &n in &[1usize, 7, 8, 63, 64, 65, 128, 136] {
            for &n_in in &[0usize, 1, 13, 96, 255, 256, 257] {
                for special in [false, true] {
                    let mut x: Vec<f32> = (0..n_in)
                        .map(|_| match rng.gen_range(0..4) {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.gen_range(0.01..2.0),
                        })
                        .collect();
                    let mut w = random_vec(n_in * n, &mut rng);
                    // an infinite weight, and a whole row of inf or NaN, on
                    // skipped inputs must stay unread
                    if n_in > 0 {
                        let z = rng.gen_range(0..n_in);
                        (x[0], x[z]) = (-0.0, 0.0);
                        w[0] = f32::INFINITY;
                        w[z * n..(z + 1) * n].fill(if special { f32::NAN } else { f32::NEG_INFINITY });
                    }
                    if special && n_in > 0 {
                        x[n_in / 2] = f32::NAN;
                    }
                    let bias = random_vec(n, &mut rng);
                    let (mut got, mut want) = (vec![f32::NAN; n], vec![f32::NAN; n]);
                    gemv_bias(&x, &w, &bias, &mut got);
                    scalar::gemv_bias(&x, &w, &bias, &mut want);
                    for (&g, &w) in got.iter().zip(&want) {
                        assert_same(g, w, &format!("n {n} in {n_in} special {special}"));
                    }
                    assert!(special || got.iter().all(|v| v.is_finite()));
                }
            }
        }
    }

    #[test]
    fn sgns_row_kernels_are_bit_exact_against_the_scalar_arms() {
        // every column-block tail (1, 7, 8, 9, 63, 64, 65, 200); empty,
        // single, repeated and long id lists; and once per width with ±0,
        // subnormals, ±inf and NaN in the rows, the gradient and the
        // hidden vector — NaN-ness, not payload, must agree
        let specials = [0.0, -0.0, f32::from_bits(1), -f32::from_bits(0x0040_0000), f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let mut rng = StdRng::seed_from_u64(43);
        for &dim in &[1usize, 7, 8, 9, 63, 64, 65, 200] {
            for special in [false, true] {
                let rows = 12u32;
                let (mut table, mut grad, mut hidden) =
                    (random_vec(rows as usize * dim, &mut rng), random_vec(dim, &mut rng), random_vec(dim, &mut rng));
                if special {
                    for (i, &v) in specials.iter().enumerate() {
                        let at = rng.gen_range(0..table.len());
                        table[at] = v;
                        grad[i % dim] = specials[(i + 3) % specials.len()];
                        hidden[(i + 1) % dim] = specials[(i + 5) % specials.len()];
                    }
                }
                let long: Vec<u32> = (0..20).map(|_| rng.gen_range(0..rows)).collect();
                for ids in [vec![], vec![rows - 1], vec![3, 3, 7, 0, 3], long] {
                    let what = format!("dim {dim} special {special} ids {ids:?}");
                    let (mut got, mut want) = (vec![f32::NAN; dim], vec![f32::NAN; dim]);
                    mean_rows(&table, &ids, &mut got);
                    scalar::mean_rows(&table, &ids, &mut want);
                    for (&g, &w) in got.iter().zip(&want) {
                        assert_same(g, w, &format!("mean_rows {what}"));
                    }
                    // the scale of a pair's input update, and one whose
                    // products are subnormal
                    for scale in [0.05f32 / 3.0, 1e-38] {
                        let (mut got, mut want) = (table.clone(), table.clone());
                        sub_scaled_rows(&mut got, &ids, scale, &grad);
                        scalar::sub_scaled_rows(&mut want, &ids, scale, &grad);
                        for (&g, &w) in got.iter().zip(&want) {
                            assert_same(g, w, &format!("sub_scaled_rows scale {scale} {what}"));
                        }
                    }
                }
                for (err, step) in [(0.37f32, 0.0185f32), (-0.62, -0.031), (-0.0, 0.0), (1e-39, 1e-40), (f32::NAN, f32::INFINITY)] {
                    let what = format!("out_row_step dim {dim} special {special} err {err}");
                    let (mut got_row, mut want_row) = (table[..dim].to_vec(), table[..dim].to_vec());
                    let (mut got_grad, mut want_grad) = (grad.clone(), grad.clone());
                    out_row_step(&mut got_row, &hidden, &mut got_grad, err, step);
                    scalar::out_row_step(&mut want_row, &hidden, &mut want_grad, err, step);
                    for (&g, &w) in got_row.iter().chain(&got_grad).zip(want_row.iter().chain(&want_grad)) {
                        assert_same(g, w, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn sgns_row_kernels_compute_what_they_name() {
        let table = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut mean = [f32::NAN; 2];
        mean_rows(&table, &[0, 2, 2, 2], &mut mean);
        assert_eq!(mean, [4.0, 5.0]);
        mean_rows(&table, &[], &mut mean);
        assert_eq!(mean.map(f32::to_bits), [0, 0], "an empty list is +0.0, not -0.0");
        let mut moved = table;
        sub_scaled_rows(&mut moved, &[1, 1], 0.5, &[2.0, -4.0]);
        assert_eq!(moved, [1.0, 2.0, 1.0, 8.0, 5.0, 6.0]);
        let (mut row, mut grad) = ([1.0f32, -2.0], [0.5f32, 0.5]);
        out_row_step(&mut row, &[4.0, 8.0], &mut grad, 2.0, 0.25);
        assert_eq!((row, grad), ([0.0, -4.0], [2.5, -3.5]), "the gradient reads the row before it moves");
    }

    #[test]
    #[should_panic(expected = "mean_rows: id out of range")]
    fn mean_rows_rejects_an_id_past_the_table() {
        mean_rows(&[0.0; 2 * 64 - 1], &[0, 1], &mut [0.0; 64]);
    }

    #[test]
    #[should_panic(expected = "sub_scaled_rows: id out of range")]
    fn sub_scaled_rows_rejects_an_id_past_the_table() {
        sub_scaled_rows(&mut [0.0; 3 * 8], &[3], 1.0, &[0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "out_row_step: row, hidden and grad differ")]
    fn out_row_step_rejects_slices_of_other_lengths() {
        out_row_step(&mut [0.0; 64], &[0.0; 64], &mut [0.0; 63], 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "conv1d_plane: x is not")]
    fn conv1d_plane_rejects_a_short_input_plane() {
        conv1d_plane(&[0.0; 2 * 10 - 1], &[0.0; 2 * 2 * 3], &[0.0; 2], &mut [0.0; 2 * 10], 3, 8);
    }

    #[test]
    #[should_panic(expected = "conv1d_plane: y is not")]
    fn conv1d_plane_rejects_a_short_output_plane() {
        conv1d_plane(&[0.0; 2 * 10], &[0.0; 2 * 2 * 3], &[0.0; 2], &mut [0.0; 2 * 10 - 1], 3, 8);
    }

    #[test]
    #[should_panic(expected = "conv1d_plane: y is not")]
    fn conv1d_plane_rejects_a_short_bias() {
        conv1d_plane(&[0.0; 2 * 10], &[0.0; 2 * 2 * 3], &[0.0; 1], &mut [0.0; 2 * 10], 3, 8);
    }

    #[test]
    #[should_panic(expected = "conv1d_plane: k must be odd")]
    fn conv1d_plane_rejects_an_even_kernel() {
        conv1d_plane(&[0.0; 2 * 9], &[0.0; 2 * 2 * 2], &[0.0; 2], &mut [0.0; 2 * 9], 2, 8);
    }

    #[test]
    #[should_panic(expected = "conv1d_plane: w is not")]
    fn conv1d_plane_rejects_weights_of_another_shape() {
        conv1d_plane(&[0.0; 2 * 10], &[0.0; 2 * 3 * 3], &[0.0; 2], &mut [0.0; 2 * 10], 3, 8);
    }

    #[test]
    #[should_panic(expected = "gemv_bias: w is not")]
    fn gemv_bias_rejects_weights_of_another_shape() {
        gemv_bias(&[0.0; 13], &[0.0; 13 * 64 - 1], &[0.0; 64], &mut [0.0; 64]);
    }

    #[test]
    #[should_panic(expected = "gemv_bias: bias is not")]
    fn gemv_bias_rejects_a_short_bias() {
        gemv_bias(&[0.0; 13], &[0.0; 13 * 64], &[0.0; 63], &mut [0.0; 64]);
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
    fn prefetch_spans_every_line_and_changes_nothing() {
        // a buffer whose first element sits on a line boundary, so every
        // offset below is known relative to a line
        #[repr(C, align(64))]
        struct Lines([u8; 4 * LINE]);
        let buf = Lines(std::array::from_fn(|i| i as u8));
        let bytes = &buf.0[..];
        let words: Vec<u32> = (0..100).collect();
        let floats: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();

        // empty, one element, an unaligned tail, several lines
        for (slice, lines) in [(&bytes[..0], 0), (&bytes[..1], 1), (&bytes[63..64], 1), (&bytes[63..65], 2), (bytes, 4)] {
            assert_eq!(line_span(slice).1, lines, "{} bytes at {}", slice.len(), slice.as_ptr() as usize % LINE);
            assert_eq!(line_span(slice).0 as usize % LINE, 0);
            prefetch(slice);
        }
        assert_eq!(line_span(&bytes[5..200]), (bytes.as_ptr().cast::<i8>(), 4));
        for slice in [&words[..0], &words[..1], &words[3..7], &words[..]] {
            let (first, lines) = line_span(slice);
            let (lo, hi) = (slice.as_ptr() as usize, slice.as_ptr() as usize + 4 * slice.len());
            assert!(slice.is_empty() || (first as usize <= lo && hi <= first as usize + lines * LINE));
            assert!(lines == 0 || hi > first as usize + (lines - 1) * LINE, "a line too many");
            prefetch(slice);
        }
        for slice in [&floats[..0], &floats[..1], &floats[17..], &floats[..]] {
            assert_eq!(line_span(slice).1 == 0, slice.is_empty());
            prefetch(slice);
        }
        // zero-sized elements span nothing
        assert_eq!(line_span(&[(); 8]).1, 0);
        prefetch(&[(); 8]);
        assert!(buf.0.iter().enumerate().all(|(i, &b)| b == i as u8));
        assert!(words.iter().enumerate().all(|(i, &w)| w == i as u32));
        assert!(floats.iter().enumerate().all(|(i, &f)| f == i as f32 * 0.5));
    }

    #[test]
    fn kernels_agree_on_known_values() {
        assert_eq!(sq_l2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }
}
