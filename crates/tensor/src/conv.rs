//! Shared 1-D convolution kernels: the autograd graph's tensor op and its
//! backward, and the slice kernels over padded planes that the graph-free
//! encoder runs — forward at inference and in training, and the training
//! pass's backward (input, weight and bias gradients of a plane layer and
//! of the one-hot first layer), each summing in the tensor op's order so
//! that embeddings and gradients are the tensor path's bits. The forward's
//! dense loop is `emblookup_ann::kernels`' dispatched `conv1d_plane`,
//! bit-exact under every kernel variant; the backward kernels are plain
//! loops here, with no variant to differ.
//!
//! The tensor op's loops are arranged as shifted slice operations
//! (`out[t] += w * x[t + k - pad]` over a precomputed valid range) so the
//! inner loop is a branch-free multiply, then add, that the compiler can
//! vectorize. No loop here is a fused multiply-add: Rust does not contract
//! `a * b + c`, and the bit-exact contract between the kernel variants
//! rests on each product being rounded before its add.

use crate::tensor::Tensor;

/// Computes the valid output range `[t0, t1)` for kernel offset `kk`:
/// positions where `t + kk - pad` falls inside `[0, l)`.
#[inline]
fn valid_range(kk: usize, pad: usize, l: usize, l_out: usize) -> (usize, usize, isize) {
    let shift = kk as isize - pad as isize;
    let t0 = if shift < 0 { (-shift) as usize } else { 0 };
    let t1_signed = l as isize - shift;
    let t1 = t1_signed.clamp(0, l_out as isize) as usize;
    (t0, t1.max(t0), shift)
}

/// Forward convolution: input `[C_in, L]`, weight `[C_out, C_in, K]`,
/// bias `[C_out]`, zero padding, stride 1 → `[C_out, L + 2*pad - K + 1]`.
///
/// # Panics
/// Panics on shape mismatches (see the message for the offending dims).
pub(crate) fn conv1d_forward(x: &Tensor, w: &Tensor, b: &Tensor, pad: usize) -> Tensor {
    assert_eq!(x.rank(), 2, "conv1d input must be [C_in, L], got {:?}", x.shape());
    assert_eq!(w.rank(), 3, "conv1d weight must be [C_out, C_in, K], got {:?}", w.shape());
    let (c_in, l) = (x.shape()[0], x.shape()[1]);
    let (c_out, w_cin, k) = (w.shape()[0], w.shape()[1], w.shape()[2]);
    assert_eq!(c_in, w_cin, "conv1d channel mismatch: input {c_in}, weight {w_cin}");
    assert_eq!(b.len(), c_out, "conv1d bias len {} != C_out {}", b.len(), c_out);
    assert!(
        l + 2 * pad >= k,
        "conv1d kernel {k} larger than padded input {}",
        l + 2 * pad
    );
    let l_out = l + 2 * pad - k + 1;
    let mut out = Tensor::zeros(&[c_out, l_out]);
    let xd = x.data();
    let wd = w.data();
    let od = out.data_mut();
    if let Some(cols) = column_onehot(xd, c_in, l) {
        // One-hot fast path: each input column holds a single nonzero
        // (the first conv layer sees one-hot character columns), so the
        // convolution degenerates to gathering k weight taps per column —
        // C_out * L * K work instead of C_out * C_in * L * K.
        for co in 0..c_out {
            let orow = &mut od[co * l_out..(co + 1) * l_out];
            let bias = b.data()[co];
            for o in orow.iter_mut() {
                *o = bias;
            }
            let wrow = &wd[co * c_in * k..(co + 1) * c_in * k];
            for (u, &(row, val)) in cols.iter().enumerate() {
                if row == u32::MAX {
                    continue;
                }
                let wbase = row as usize * k;
                // input column u feeds output t where t + kk - pad == u
                for kk in 0..k.min(u + pad + 1) {
                    let t = u + pad - kk;
                    if t < l_out {
                        orow[t] += val * wrow[wbase + kk];
                    }
                }
            }
        }
        return out;
    }
    let occupied = channel_occupancy(xd, c_in, l);
    for co in 0..c_out {
        let orow = &mut od[co * l_out..(co + 1) * l_out];
        let bias = b.data()[co];
        for o in orow.iter_mut() {
            *o = bias;
        }
        for ci in 0..c_in {
            if !occupied[ci] {
                continue;
            }
            let xrow = &xd[ci * l..(ci + 1) * l];
            let wbase = co * c_in * k + ci * k;
            for kk in 0..k {
                let wv = wd[wbase + kk];
                // lint: allow(L007) exact-zero sparsity skip; any nonzero (or NaN) takes the dense path
                if wv == 0.0 {
                    continue;
                }
                let (t0, t1, shift) = valid_range(kk, pad, l, l_out);
                let xs = &xrow[(t0 as isize + shift) as usize..(t1 as isize + shift) as usize];
                for (o, &xv) in orow[t0..t1].iter_mut().zip(xs) {
                    *o += wv * xv;
                }
            }
        }
    }
    out
}

/// Marks input channels with at least one nonzero sample. The first conv
/// layer sees one-hot character rows, so on a typical mention only a
/// handful of the alphabet-sized channel set is occupied — every other
/// channel contributes nothing to the output (or to `gw`) and its
/// `c_out * k` kernel taps can be skipped wholesale.
#[inline]
fn channel_occupancy(xd: &[f32], c_in: usize, l: usize) -> Vec<bool> {
    (0..c_in)
        // lint: allow(L007) exact-zero occupancy test; NaN counts as occupied and takes the dense path
        .map(|ci| xd[ci * l..(ci + 1) * l].iter().any(|&v| v != 0.0))
        .collect()
}

/// Detects a column-wise one-hot input: every time column holds at most one
/// nonzero sample. Returns the `(channel, value)` per column (`u32::MAX`
/// marks an all-zero column), or `None` as soon as any column has two
/// nonzeros — for dense activations that bail-out triggers within the first
/// couple of rows, so the probe costs roughly one row scan. Narrow inputs
/// skip the probe: the dense kernel is already cheap there.
#[inline]
fn column_onehot(xd: &[f32], c_in: usize, l: usize) -> Option<Vec<(u32, f32)>> {
    if c_in < 8 {
        return None;
    }
    let mut cols = vec![(u32::MAX, 0.0f32); l];
    for ci in 0..c_in {
        let xrow = &xd[ci * l..(ci + 1) * l];
        for (t, &v) in xrow.iter().enumerate() {
            // lint: allow(L007) exact-zero sparsity test; a NaN column entry stays on this path and propagates through the gather exactly like the dense sum
            if v != 0.0 {
                if cols[t].0 != u32::MAX {
                    return None;
                }
                cols[t] = (ci as u32, v);
            }
        }
    }
    Some(cols)
}

// ---------------------------------------------------------------------
// Slice kernels of the graph-free encoder pass. A plane is `[C][L + K - 1]`
// row-major: each row carries `K / 2` zeros on either side of its `L`
// samples (K odd), so tap `kk` of output `t` reads padded position
// `t + kk` with no edge cases. A kernel writes the `L` samples of every
// output row and never touches its halo. Each adds in the order
// `conv1d_forward` adds — that is what makes the encoder's output
// bit-identical to the tensor path — so the terms `conv1d_forward` skips
// (out-of-range taps, empty channels, zero weights) appear here as `+ w·0`,
// which changes no finite sum.
// ---------------------------------------------------------------------

/// One "same"-padded layer over a padded plane: `x` is `[C_in][L + K - 1]`,
/// `w` `[C_out][C_in][K]`, `b` `[C_out]`, `y` `[C_out][L + K - 1]`. Like
/// `conv1d_forward` it gathers when no input column has two nonzeros (and
/// the input is not narrow) and runs the dense sum otherwise; the two sum
/// in different orders, so the choice is part of the result. The dense sum
/// is `emblookup_ann::kernels::conv1d_plane`, bit-exact against its scalar
/// arm under every kernel variant.
pub(crate) fn conv1d_rows(x: &[f32], w: &[f32], b: &[f32], y: &mut [f32], k: usize, l: usize) {
    if gathers(x, k, l) {
        let (stride, pad) = (l + k - 1, k / 2);
        let c_in = x.len() / stride;
        fill_bias(b, y, k, l);
        for u in 0..l {
            for ci in column_nonzeros(x, k, l, u) {
                scatter_sample(w, y, (c_in, k, l), (u, ci, x[ci * stride + pad + u]));
            }
        }
        return;
    }
    // dense: bias first, then (ci, kk) in lexicographic order, multiply then add
    emblookup_ann::kernels::conv1d_plane(x, w, b, y, k, l);
}

/// The first layer: its input plane is one-hot, given as the row of each
/// occupied column in column order, and is never built — every output is
/// the bias plus one weight tap per character in reach, ascending in time,
/// which is the gather `conv1d_forward` performs on the one-hot matrix.
pub(crate) fn conv1d_rows_onehot(
    rows: impl Iterator<Item = usize>,
    w: &[f32],
    b: &[f32],
    y: &mut [f32],
    k: usize,
    l: usize,
) {
    let c_in = w.len() / (b.len() * k);
    fill_bias(b, y, k, l);
    for (u, ci) in rows.take(l).enumerate() {
        assert!(ci < c_in, "one-hot row {ci} outside {c_in} input channels");
        scatter_sample(w, y, (c_in, k, l), (u, ci, 1.0));
    }
}

/// Whether [`conv1d_rows`] (like `conv1d_forward`) gathers on this plane —
/// and so whether [`conv1d_rows_grad_weight`] sums in the gather's order:
/// it is wide (8 or more channels) and no column holds two nonzero
/// samples, the test `column_onehot` makes. A dense plane fails it in its
/// first column.
fn gathers(x: &[f32], k: usize, l: usize) -> bool {
    x.len() / (l + k - 1) >= 8 && (0..l).all(|u| column_nonzeros(x, k, l, u).nth(1).is_none())
}

/// The channels whose sample at time `u` of plane `x` is nonzero, in
/// ascending order.
fn column_nonzeros(x: &[f32], k: usize, l: usize, u: usize) -> impl Iterator<Item = usize> + '_ {
    let (stride, pad) = (l + k - 1, k / 2);
    // lint: allow(L007) exact-zero sparsity test, NaN counts as occupied — the test `column_onehot` makes
    (0..x.len() / stride).filter(move |&ci| x[ci * stride + pad + u] != 0.0)
}

fn fill_bias(b: &[f32], y: &mut [f32], k: usize, l: usize) {
    for (yrow, &bias) in y.chunks_exact_mut(l + k - 1).zip(b) {
        yrow[k / 2..][..l].fill(bias);
    }
}

/// Adds what one input sample — value `val` of channel `ci` at time `u` —
/// contributes to every output row: tap `kk` lands on output `u + pad - kk`.
/// Called for `u = 0, 1, …` it sums each output in ascending `u`.
#[inline]
fn scatter_sample(
    w: &[f32],
    y: &mut [f32],
    (c_in, k, l): (usize, usize, usize),
    (u, ci, val): (usize, usize, f32),
) {
    let (stride, pad) = (l + k - 1, k / 2);
    for (co, yrow) in y.chunks_exact_mut(stride).enumerate() {
        let taps = &w[(co * c_in + ci) * k..][..k];
        for (kk, &wv) in taps.iter().enumerate() {
            let at = u + k - 1 - kk; // padded position of output `u + pad - kk`
            if (pad..pad + l).contains(&at) {
                yrow[at] += val * wv;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Backward slice kernels of the training pass, over the same planes: `gy`
// is a layer's output gradient as a plane with a zero halo. Each adds in
// the order `conv1d_backward_masked` adds for the same input — the
// weight gradient by the gather when `conv1d_forward` gathered and by the
// four-chain reduction otherwise, the bias gradient as the row's `sum()` —
// so a layer's gradients are the tape's bits. They are *added* into the
// parameter's accumulator, which is the tape's `accum` (the first
// contribution copied, the next added) for an accumulator that starts at
// `+0.0`: no contribution is `-0.0`, since each is a sum begun at `+0.0`.
// ---------------------------------------------------------------------

/// Adds each output row's gradient sum, `Σ_t gy[co][t]`, into `gb[co]`.
pub(crate) fn conv1d_rows_grad_bias(gy: &[f32], gb: &mut [f32], k: usize, l: usize) {
    for (g, gyrow) in gb.iter_mut().zip(gy.chunks_exact(l + k - 1)) {
        *g += gyrow[k / 2..][..l].iter().sum::<f32>();
    }
}

/// Input gradient of [`conv1d_rows`]: overwrites every sample of `gx`
/// (`[C_in][L + K - 1]`, its halo untouched) with `0.0 + Σ gy[co][t] ·
/// w[co][ci][kk]` over the outputs `t = u + K/2 − kk` that sample `u` fed,
/// the terms in lexicographic `(co, kk)` order, each product rounded
/// before its add — the order `conv1d_backward_masked` adds in. The terms
/// it skips (taps past either end, zero weights) read the halo here and
/// add `±0`, which changes no finite sum begun at `+0.0`.
pub(crate) fn conv1d_rows_grad_input(gy: &[f32], w: &[f32], gx: &mut [f32], k: usize, l: usize) {
    let (stride, pad) = (l + k - 1, k / 2);
    let c_in = gx.len() / stride;
    for (ci, gxrow) in gx.chunks_exact_mut(stride).enumerate() {
        let orow = &mut gxrow[pad..pad + l];
        orow.fill(0.0);
        for (co, gyrow) in gy.chunks_exact(stride).enumerate() {
            for (kk, &wv) in w[(co * c_in + ci) * k..][..k].iter().enumerate() {
                // tap `kk` of output `u + pad - kk` sits `k - 1 - kk` into the padded row
                for (o, &g) in orow.iter_mut().zip(&gyrow[k - 1 - kk..][..l]) {
                    *o += g * wv;
                }
            }
        }
    }
}

/// Weight gradient of [`conv1d_rows`] for input plane `x`, added into `gw`
/// (`[C_out][C_in][K]`). Where the forward gathered, each weight's
/// contributions are summed from `+0.0` over the input columns in
/// ascending time and the sum added once, as the tape's gather builds a
/// fresh tensor. Otherwise each weight's sum over the outputs whose input
/// sample exists is the tape's dense reduction: four chains over those
/// outputs from the first, reduced as `(s0 + s1) + (s2 + s3)`, plus the
/// left-over products summed in order; an all-zero input channel adds
/// `+0.0` here where the tape skips it.
pub(crate) fn conv1d_rows_grad_weight(x: &[f32], gy: &[f32], gw: &mut [f32], k: usize, l: usize) {
    let (stride, pad) = (l + k - 1, k / 2);
    let c_in = x.len() / stride;
    if !gathers(x, k, l) {
        for (co, gyrow) in gy.chunks_exact(stride).enumerate() {
            let grow = &gyrow[pad..pad + l];
            for (ci, xrow) in x.chunks_exact(stride).enumerate() {
                for (kk, tap) in gw[(co * c_in + ci) * k..][..k].iter_mut().enumerate() {
                    // outputs t0..t1 read input samples inside 0..l
                    let (t0, t1) = (pad.saturating_sub(kk), (l + pad).saturating_sub(kk).min(l));
                    if t1 <= t0 {
                        continue;
                    }
                    let (g, xs) = (&grow[t0..t1], &xrow[t0 + kk..t1 + kk]);
                    let mut s = [0.0f32; 4];
                    let (mut cg, mut cx) = (g.chunks_exact(4), xs.chunks_exact(4));
                    for (qg, qx) in (&mut cg).zip(&mut cx) {
                        for (j, s) in s.iter_mut().enumerate() {
                            *s += qg[j] * qx[j];
                        }
                    }
                    let rest: f32 = cg.remainder().iter().zip(cx.remainder()).map(|(&g, &xv)| g * xv).sum();
                    *tap += (s[0] + s[1]) + (s[2] + s[3]) + rest;
                }
            }
        }
        return;
    }
    for (row, taps) in gw.chunks_exact_mut(k).enumerate() {
        let (co, ci) = (row / c_in, row % c_in);
        let (xrow, grow) = (&x[ci * stride + pad..][..l], &gy[co * stride + pad..][..l]);
        for (kk, tap) in taps.iter_mut().enumerate() {
            let mut v = 0.0f32;
            for (u, &xv) in xrow.iter().enumerate() {
                // lint: allow(L007) the gather's exact-zero test: only a column's nonzero sample is gathered
                if xv != 0.0 && (kk..l + kk).contains(&(u + pad)) {
                    v += grow[u + pad - kk] * xv;
                }
            }
            *tap += v;
        }
    }
}

/// Weight gradient of [`conv1d_rows_onehot`] (the bias gradient is
/// [`conv1d_rows_grad_bias`]; the one-hot input is a constant and gets no
/// gradient). `cells` names the one-hot input's ones as `row * L +
/// column`, ascending — each row's columns together, in time order. A
/// weight's contributions, `gy · 1.0` per column holding its row, are
/// summed from `+0.0` in that order and added once into `gw`: the gather
/// the tape runs on the one-hot matrix.
///
/// # Panics
/// Panics if a row is not below the layer's input channel count.
pub(crate) fn conv1d_rows_onehot_grad(cells: &[u32], gy: &[f32], gw: &mut [f32], k: usize, l: usize) {
    let (stride, pad) = (l + k - 1, k / 2);
    let c_in = gw.len() / (gy.len() / stride * k);
    debug_assert!(cells.is_sorted(), "one-hot cells out of order");
    for cols in cells.chunk_by(|a, b| a / l as u32 == b / l as u32) {
        let row = cols[0] as usize / l;
        assert!(row < c_in, "one-hot row {row} outside {c_in} input channels");
        for (co, gyrow) in gy.chunks_exact(stride).enumerate() {
            for (kk, tap) in gw[(co * c_in + row) * k..][..k].iter_mut().enumerate() {
                let mut v = 0.0f32;
                for &cell in cols {
                    // output u + pad − kk, at padded position u + 2·pad − kk
                    let at = cell as usize % l + 2 * pad;
                    if (kk + pad..l + pad + kk).contains(&at) {
                        v += gyrow[at - kk]; // the one-hot sample is 1.0
                    }
                }
                *tap += v;
            }
        }
    }
}

/// Gradients of the forward convolution. Returns `(gx, gw, gb)`.
#[cfg(test)]
pub(crate) fn conv1d_backward(
    x: &Tensor,
    w: &Tensor,
    gy: &Tensor,
    pad: usize,
) -> (Tensor, Tensor, Tensor) {
    let (gx, gw, gb) = conv1d_backward_masked(x, w, gy, pad, true, true);
    (
        gx.unwrap_or_else(|| Tensor::zeros(x.shape())),
        gw.unwrap_or_else(|| Tensor::zeros(w.shape())),
        gb,
    )
}

/// Gradients of the forward convolution with per-output masking: `gx` and
/// `gw` are only computed when requested, so the autograd tape can skip
/// the input gradient entirely when the conv reads a constant leaf (the
/// first layer's one-hot characters — its `gx` is the single most
/// expensive useless tensor of a training step). `gb` is always produced.
pub(crate) fn conv1d_backward_masked(
    x: &Tensor,
    w: &Tensor,
    gy: &Tensor,
    pad: usize,
    need_gx: bool,
    need_gw: bool,
) -> (Option<Tensor>, Option<Tensor>, Tensor) {
    let (c_in, l) = (x.shape()[0], x.shape()[1]);
    let (c_out, _, k) = (w.shape()[0], w.shape()[1], w.shape()[2]);
    let l_out = gy.shape()[1];
    let xd = x.data();
    let wd = w.data();
    let gyd = gy.data();

    let mut gb = Tensor::zeros(&[c_out]);
    for co in 0..c_out {
        gb.data_mut()[co] = gyd[co * l_out..(co + 1) * l_out].iter().sum();
    }

    let gw = need_gw.then(|| conv1d_grad_weight(xd, c_in, l, w.shape(), gyd, l_out, pad));

    let gx = need_gx.then(|| {
        let mut gx = Tensor::zeros(x.shape());
        let gxd = gx.data_mut();
        for co in 0..c_out {
            let grow = &gyd[co * l_out..(co + 1) * l_out];
            for ci in 0..c_in {
                let gxrow = &mut gxd[ci * l..(ci + 1) * l];
                let wbase = co * c_in * k + ci * k;
                for kk in 0..k {
                    let (t0, t1, shift) = valid_range(kk, pad, l, l_out);
                    if t1 <= t0 {
                        continue;
                    }
                    let xs0 = (t0 as isize + shift) as usize;
                    let xs1 = (t1 as isize + shift) as usize;
                    let wv = wd[wbase + kk];
                    // lint: allow(L007) exact-zero sparsity skip mirroring the forward pass
                    if wv != 0.0 {
                        for (gx_v, &g) in gxrow[xs0..xs1].iter_mut().zip(&grow[t0..t1]) {
                            *gx_v += g * wv;
                        }
                    }
                }
            }
        }
        gx
    });

    (gx, gw, gb)
}

/// Weight gradient `gw[co,ci,kk] = Σ_t gy[co,t] * x[ci, t + kk - pad]`,
/// choosing between the one-hot gather (scatter one tap per nonzero input
/// column) and the dense occupancy-gated unrolled reduction.
fn conv1d_grad_weight(
    xd: &[f32],
    c_in: usize,
    l: usize,
    w_shape: &[usize],
    gyd: &[f32],
    l_out: usize,
    pad: usize,
) -> Tensor {
    let (c_out, k) = (w_shape[0], w_shape[2]);
    let mut gw = Tensor::zeros(w_shape);
    let gwd = gw.data_mut();
    if let Some(cols) = column_onehot(xd, c_in, l) {
        for co in 0..c_out {
            let grow = &gyd[co * l_out..(co + 1) * l_out];
            let gwrow = &mut gwd[co * c_in * k..(co + 1) * c_in * k];
            for (u, &(row, val)) in cols.iter().enumerate() {
                if row == u32::MAX {
                    continue;
                }
                let wbase = row as usize * k;
                for kk in 0..k.min(u + pad + 1) {
                    let t = u + pad - kk;
                    if t < l_out {
                        gwrow[wbase + kk] += grow[t] * val;
                    }
                }
            }
        }
        return gw;
    }
    let occupied = channel_occupancy(xd, c_in, l);
    for co in 0..c_out {
        let grow = &gyd[co * l_out..(co + 1) * l_out];
        for ci in 0..c_in {
            if !occupied[ci] {
                continue;
            }
            let xrow = &xd[ci * l..(ci + 1) * l];
            let wbase = co * c_in * k + ci * k;
            for kk in 0..k {
                let (t0, t1, shift) = valid_range(kk, pad, l, l_out);
                if t1 <= t0 {
                    continue;
                }
                let xs0 = (t0 as isize + shift) as usize;
                let xs1 = (t1 as isize + shift) as usize;
                // the unrolled reduction keeps four sums in flight (the
                // compiler cannot reassociate a single float accumulator)
                let mut cg = grow[t0..t1].chunks_exact(4);
                let mut cx = xrow[xs0..xs1].chunks_exact(4);
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for (kg, kx) in (&mut cg).zip(&mut cx) {
                    s0 += kg[0] * kx[0];
                    s1 += kg[1] * kx[1];
                    s2 += kg[2] * kx[2];
                    s3 += kg[3] * kx[3];
                }
                let rest: f32 = cg
                    .remainder()
                    .iter()
                    .zip(cx.remainder())
                    .map(|(&g, &xv)| g * xv)
                    .sum();
                gwd[wbase + kk] += (s0 + s1) + (s2 + s3) + rest;
            }
        }
    }
    gw
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference O(everything) implementation for differential testing.
    fn conv_reference(x: &Tensor, w: &Tensor, b: &Tensor, pad: usize) -> Tensor {
        let (c_in, l) = (x.shape()[0], x.shape()[1]);
        let (c_out, _, k) = (w.shape()[0], w.shape()[1], w.shape()[2]);
        let l_out = l + 2 * pad - k + 1;
        let mut out = Tensor::zeros(&[c_out, l_out]);
        for co in 0..c_out {
            for t in 0..l_out {
                let mut acc = b.data()[co];
                for ci in 0..c_in {
                    for kk in 0..k {
                        let src = t + kk;
                        if src < pad || src - pad >= l {
                            continue;
                        }
                        acc += w.data()[co * c_in * k + ci * k + kk] * x.data()[ci * l + src - pad];
                    }
                }
                out.data_mut()[co * l_out + t] = acc;
            }
        }
        out
    }

    #[test]
    fn matches_reference_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(1);
        for (c_in, l, c_out, k, pad) in
            [(3, 7, 2, 3, 1), (5, 12, 8, 3, 1), (1, 4, 1, 3, 1), (4, 9, 6, 5, 2), (2, 5, 3, 1, 0)]
        {
            let x = Tensor::uniform(&[c_in, l], -1.0, 1.0, &mut rng);
            let w = Tensor::uniform(&[c_out, c_in, k], -1.0, 1.0, &mut rng);
            let b = Tensor::uniform(&[c_out], -0.5, 0.5, &mut rng);
            let fast = conv1d_forward(&x, &w, &b, pad);
            let slow = conv_reference(&x, &w, &b, pad);
            assert_eq!(fast.shape(), slow.shape());
            for (a, bb) in fast.data().iter().zip(slow.data()) {
                assert!((a - bb).abs() < 1e-5, "mismatch {a} vs {bb} at {c_in},{l},{c_out},{k},{pad}");
            }
        }
    }

    /// `[C, L]` tensor → padded plane.
    fn to_plane(x: &Tensor, k: usize) -> Vec<f32> {
        let (c, l) = (x.shape()[0], x.shape()[1]);
        let mut plane = vec![0.0f32; c * (l + k - 1)];
        for (prow, xrow) in plane.chunks_exact_mut(l + k - 1).zip(x.data().chunks_exact(l)) {
            prow[k / 2..][..l].copy_from_slice(xrow);
        }
        plane
    }

    /// Checks a plane kernel's output against `conv1d_forward` bit for bit
    /// and against `conv_reference` within rounding, and that the halo of
    /// `y` — handed in dirty between the halos — is still zero.
    fn check_plane(run: impl Fn(&mut [f32]), x: &Tensor, w: &Tensor, b: &Tensor, what: &str) {
        let (l, c_out, k) = (x.shape()[1], w.shape()[0], w.shape()[2]);
        let (stride, pad) = (l + k - 1, k / 2);
        let mut y = to_plane(&Tensor::full(&[c_out, l], f32::NAN), k);
        run(&mut y);
        let fast = conv1d_forward(x, w, b, pad);
        let slow = conv_reference(x, w, b, pad);
        for (co, yrow) in y.chunks_exact(stride).enumerate() {
            assert!(yrow[..pad].iter().chain(&yrow[pad + l..]).all(|v| v.to_bits() == 0), "{what}: halo written");
            for t in 0..l {
                let got = yrow[pad + t];
                assert_eq!(got.to_bits(), fast.data()[co * l + t].to_bits(), "{what}: [{co},{t}] vs forward");
                assert!((got - slow.data()[co * l + t]).abs() < 1e-5, "{what}: [{co},{t}] vs reference");
            }
        }
    }

    #[test]
    fn plane_kernels_match_forward_bitwise_and_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        for (c_in, l, c_out, k) in [(8, 32, 8, 3), (6, 16, 6, 3), (3, 7, 2, 5), (9, 5, 4, 1), (8, 1, 3, 3)] {
            let w = Tensor::uniform(&[c_out, c_in, k], -1.0, 1.0, &mut rng);
            let b = Tensor::uniform(&[c_out], -0.5, 0.5, &mut rng);
            // dense activations, as after a ReLU: some exact zeros, one empty channel
            let mut dense = Tensor::uniform(&[c_in, l], -1.0, 1.0, &mut rng);
            for v in dense.data_mut() {
                *v = v.max(0.0);
            }
            dense.data_mut()[..l].fill(0.0);
            // at most one nonzero per column, some columns empty: gathers when c_in >= 8
            let mut sparse = Tensor::zeros(&[c_in, l]);
            for t in (0..l).filter(|t| t % 4 != 3) {
                sparse.data_mut()[((t * 5 + 2) % c_in) * l + t] = 0.25 + t as f32;
            }
            for (x, what) in [(&dense, "dense"), (&sparse, "sparse"), (&Tensor::zeros(&[c_in, l]), "empty")] {
                let plane = to_plane(x, k);
                let what = format!("{what} {c_in}x{l}->{c_out} k{k}");
                check_plane(|y| conv1d_rows(&plane, w.data(), b.data(), y, k, l), x, &w, &b, &what);
            }
            // one-hot columns for the first `filled` times, rows in any order
            if c_in < 8 {
                continue; // `conv1d_forward` gathers wide inputs only, and an alphabet is wide
            }
            for filled in [0, 1, l / 2, l] {
                let rows: Vec<usize> = (0..filled).map(|t| (t * 7 + 3) % c_in).collect();
                let mut onehot = Tensor::zeros(&[c_in, l]);
                for (t, &r) in rows.iter().enumerate() {
                    onehot.data_mut()[r * l + t] = 1.0;
                }
                let what = format!("onehot {filled}/{l} of {c_in}->{c_out} k{k}");
                let run = |y: &mut [f32]| conv1d_rows_onehot(rows.iter().copied(), w.data(), b.data(), y, k, l);
                check_plane(run, &onehot, &w, &b, &what);
            }
        }
    }

    /// The slice backward kernels against `conv1d_backward` bit for bit:
    /// dense planes, planes the forward gathers on, and one-hot inputs
    /// given as sorted cells, each added into an accumulator that already
    /// holds the tensor result once — the tape's `accum` of a second
    /// mention.
    #[test]
    fn plane_backward_kernels_match_the_tensor_backward_bitwise() {
        let mut rng = StdRng::seed_from_u64(23);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (c_in, l, c_out, k) in [(8, 32, 8, 3), (6, 16, 6, 3), (3, 7, 2, 5), (9, 5, 4, 1), (46, 12, 8, 3)] {
            let pad = k / 2;
            let w = Tensor::uniform(&[c_out, c_in, k], -1.0, 1.0, &mut rng);
            let mut gy = Tensor::uniform(&[c_out, l], -1.0, 1.0, &mut rng);
            gy.data_mut()[..l / 2].fill(0.0);
            let mut dense = Tensor::uniform(&[c_in, l], -1.0, 1.0, &mut rng);
            dense.data_mut().iter_mut().for_each(|v| *v = v.max(0.0));
            let mut sparse = Tensor::zeros(&[c_in, l]);
            for t in (0..l).filter(|t| t % 4 != 3) {
                sparse.data_mut()[((t * 5 + 2) % c_in) * l + t] = 0.25 + t as f32;
            }
            let gy_plane = to_plane(&gy, k);
            for (x, what) in [(&dense, "dense"), (&sparse, "sparse")] {
                let what = format!("{what} {c_in}x{l}->{c_out} k{k}");
                let (gx, gw, gb) = conv1d_backward(x, &w, &gy, pad);
                let mut got_x = to_plane(&Tensor::full(&[c_in, l], f32::NAN), k);
                conv1d_rows_grad_input(&gy_plane, w.data(), &mut got_x, k, l);
                assert_eq!(bits(&got_x), bits(&to_plane(&gx, k)), "{what}: input gradient");
                let (mut got_w, mut got_b) = (gw.data().to_vec(), gb.data().to_vec());
                conv1d_rows_grad_weight(&to_plane(x, k), &gy_plane, &mut got_w, k, l);
                conv1d_rows_grad_bias(&gy_plane, &mut got_b, k, l);
                let (mut want_w, mut want_b) = (gw.clone(), gb.clone());
                want_w.axpy(1.0, &gw);
                want_b.axpy(1.0, &gb);
                assert_eq!(bits(&got_w), bits(want_w.data()), "{what}: weight gradient");
                assert_eq!(bits(&got_b), bits(want_b.data()), "{what}: bias gradient");
            }
            if c_in < 8 {
                continue;
            }
            // one-hot columns with repeated rows, the rest empty
            let rows: Vec<usize> = (0..l - 2).map(|t| (t * 7 + 3) % 5).collect();
            let mut onehot = Tensor::zeros(&[c_in, l]);
            for (t, &r) in rows.iter().enumerate() {
                onehot.data_mut()[r * l + t] = 1.0;
            }
            let mut cells: Vec<u32> = rows.iter().enumerate().map(|(t, &r)| (r * l + t) as u32).collect();
            cells.sort_unstable();
            let (_, gw, _) = conv1d_backward(&onehot, &w, &gy, pad);
            let mut got = gw.data().to_vec();
            conv1d_rows_onehot_grad(&cells, &gy_plane, &mut got, k, l);
            let mut want = gw.clone();
            want.axpy(1.0, &gw);
            assert_eq!(bits(&got), bits(want.data()), "onehot {c_in}x{l}: weight gradient");
        }
    }

    /// Naive per-element backward for differential testing.
    fn backward_reference(x: &Tensor, w: &Tensor, gy: &Tensor, pad: usize) -> (Tensor, Tensor, Tensor) {
        let (c_in, l) = (x.shape()[0], x.shape()[1]);
        let (c_out, _, k) = (w.shape()[0], w.shape()[1], w.shape()[2]);
        let l_out = gy.shape()[1];
        let mut gx = Tensor::zeros(x.shape());
        let mut gw = Tensor::zeros(w.shape());
        let mut gb = Tensor::zeros(&[c_out]);
        for co in 0..c_out {
            for t in 0..l_out {
                let g = gy.data()[co * l_out + t];
                gb.data_mut()[co] += g;
                for ci in 0..c_in {
                    for kk in 0..k {
                        let src = t + kk;
                        if src < pad || src - pad >= l {
                            continue;
                        }
                        gw.data_mut()[co * c_in * k + ci * k + kk] += g * x.data()[ci * l + src - pad];
                        gx.data_mut()[ci * l + src - pad] += g * w.data()[co * c_in * k + ci * k + kk];
                    }
                }
            }
        }
        (gx, gw, gb)
    }

    #[test]
    fn backward_matches_reference_with_zero_channels() {
        let mut rng = StdRng::seed_from_u64(9);
        for (c_in, l, c_out, k, pad) in [(5, 9, 4, 3, 1), (3, 6, 2, 5, 2), (6, 11, 3, 3, 1)] {
            let mut x = Tensor::uniform(&[c_in, l], -1.0, 1.0, &mut rng);
            // zero out alternating channels to exercise the occupancy skip
            for ci in (0..c_in).step_by(2) {
                for v in &mut x.data_mut()[ci * l..(ci + 1) * l] {
                    *v = 0.0;
                }
            }
            let w = Tensor::uniform(&[c_out, c_in, k], -1.0, 1.0, &mut rng);
            let l_out = l + 2 * pad - k + 1;
            let gy = Tensor::uniform(&[c_out, l_out], -1.0, 1.0, &mut rng);
            let (gx, gw, gb) = conv1d_backward(&x, &w, &gy, pad);
            let (rx, rw, rb) = backward_reference(&x, &w, &gy, pad);
            for (name, fast, slow) in [("gx", &gx, &rx), ("gw", &gw, &rw), ("gb", &gb, &rb)] {
                for (a, b) in fast.data().iter().zip(slow.data()) {
                    assert!((a - b).abs() < 1e-4, "{name} mismatch {a} vs {b} at {c_in},{l},{c_out},{k},{pad}");
                }
            }
        }
    }

    #[test]
    fn onehot_fast_path_matches_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        // column-one-hot input shaped like the first layer's character
        // encoding, with empty columns and non-unit values
        let (c_in, l, c_out, k, pad) = (24usize, 13usize, 5, 3, 1);
        let mut x = Tensor::zeros(&[c_in, l]);
        for t in 0..l {
            if t % 5 == 4 {
                continue;
            }
            let ci = (t * 7 + 3) % c_in;
            x.data_mut()[ci * l + t] = 0.25 + t as f32 * 0.5;
        }
        let w = Tensor::uniform(&[c_out, c_in, k], -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(&[c_out], -0.5, 0.5, &mut rng);
        let fast = conv1d_forward(&x, &w, &b, pad);
        let slow = conv_reference(&x, &w, &b, pad);
        for (a, bb) in fast.data().iter().zip(slow.data()) {
            assert!((a - bb).abs() < 1e-5, "fwd mismatch {a} vs {bb}");
        }
        let l_out = l + 2 * pad - k + 1;
        let gy = Tensor::uniform(&[c_out, l_out], -1.0, 1.0, &mut rng);
        let (gx, gw, gb) = conv1d_backward(&x, &w, &gy, pad);
        let (rx, rw, rb) = backward_reference(&x, &w, &gy, pad);
        for (name, fast, slow) in [("gx", &gx, &rx), ("gw", &gw, &rw), ("gb", &gb, &rb)] {
            for (a, b) in fast.data().iter().zip(slow.data()) {
                assert!((a - b).abs() < 1e-4, "{name} mismatch {a} vs {b}");
            }
        }
        // masked call skips the unwanted outputs entirely
        let (no_gx, no_gw, gb2) = conv1d_backward_masked(&x, &w, &gy, pad, false, false);
        assert!(no_gx.is_none() && no_gw.is_none());
        assert_eq!(gb.data(), gb2.data());
    }

    #[test]
    fn backward_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::uniform(&[3, 10], -1.0, 1.0, &mut rng);
        let w = Tensor::uniform(&[4, 3, 3], -1.0, 1.0, &mut rng);
        let gy = Tensor::uniform(&[4, 10], -1.0, 1.0, &mut rng);
        let (gx, gw, gb) = conv1d_backward(&x, &w, &gy, 1);
        assert_eq!(gx.shape(), &[3, 10]);
        assert_eq!(gw.shape(), &[4, 3, 3]);
        assert_eq!(gb.shape(), &[4]);
    }
}
