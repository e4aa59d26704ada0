//! Neural-network layers built on the autograd [`Graph`].
//!
//! Each layer registers its weights in a [`ParamStore`] at construction and
//! exposes two paths:
//!
//! * `forward(...)` — records operations on a training [`Graph`], binding
//!   its parameters through [`Bindings`] so the optimizer can update them;
//! * `infer(...)` (where provided) — a graph-free forward pass for the hot
//!   bulk-embedding path used when indexing millions of entities, and, for
//!   the EmbLookup encoder's layers, its slice form with a `backward_*`
//!   twin: the encoder trains on these, one record per mention, adding its
//!   gradients into a [`GradBuffer`] in the order the graph's backward
//!   pass would.

use crate::graph::{Graph, Var};
use crate::optim::GradBuffer;
use crate::params::{Bindings, ParamId, ParamStore};
use crate::tensor::Tensor;
use rand::Rng;

/// Fully-connected layer `y = x W + b` with Xavier-uniform initialization.
pub struct Linear {
    w: ParamId,
    b: ParamId,
    /// Input feature count.
    pub in_dim: usize,
    /// Output feature count.
    pub out_dim: usize,
}

impl Linear {
    /// Registers a `[in_dim, out_dim]` weight and `[out_dim]` bias.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let bound = (6.0 / (in_dim + out_dim) as f32).sqrt();
        let w = store.register(
            format!("{name}.w"),
            Tensor::uniform(&[in_dim, out_dim], -bound, bound, rng),
        );
        let b = store.register(format!("{name}.b"), Tensor::zeros(&[out_dim]));
        Linear { w, b, in_dim, out_dim }
    }

    /// Applies the layer to `[n, in_dim]` (or `[in_dim]`, treated as one row).
    pub fn forward(
        &self,
        g: &mut Graph,
        bindings: &mut Bindings,
        store: &ParamStore,
        x: Var,
    ) -> Var {
        let x2 = if g.value(x).rank() == 1 {
            g.reshape(x, &[1, self.in_dim])
        } else {
            x
        };
        let w = bindings.bind(g, store, self.w);
        let b = bindings.bind(g, store, self.b);
        let y = g.matmul(x2, w);
        g.add_bias(y, b)
    }

    /// Graph-free forward for inference on `[n, in_dim]` or `[in_dim]`.
    pub fn infer(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        if x.rank() == 1 {
            let mut y = vec![0.0f32; self.out_dim];
            self.infer_into(store, x.data(), &mut y);
            return Tensor::from_vec(&[self.out_dim], y);
        }
        let mut y = x.matmul(store.get(self.w));
        for row in y.data_mut().chunks_exact_mut(self.out_dim) {
            for (o, &bias) in row.iter_mut().zip(store.get(self.b).data()) {
                *o += bias;
            }
        }
        y
    }

    /// [`Linear::infer`] for one row, slice to slice: `y = x W + b` with
    /// the sums in the order the row-vector `matmul` runs them — from
    /// zero, input by input with zero inputs skipped, the bias last — so
    /// the two agree bit for bit.
    ///
    /// # Panics
    /// Panics unless `x` has `in_dim` and `y` `out_dim` elements.
    pub fn infer_into(&self, store: &ParamStore, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.in_dim, "linear input len {} != in_dim {}", x.len(), self.in_dim);
        assert_eq!(y.len(), self.out_dim, "linear output len {} != out_dim {}", y.len(), self.out_dim);
        emblookup_ann::kernels::gemv_bias(x, store.get(self.w).data(), store.get(self.b).data(), y);
    }

    /// Writes the first `inputs` rows of the weight, transposed, into `wt`
    /// (`[out_dim][inputs]`): what [`Linear::backward_into`] reads to form
    /// the gradient of those inputs. The weight is fixed for a training
    /// step, so a step transposes it once.
    ///
    /// # Panics
    /// Panics if `inputs > in_dim`.
    pub fn transpose_into(&self, store: &ParamStore, inputs: usize, wt: &mut Vec<f32>) {
        assert!(inputs <= self.in_dim, "transposing {inputs} of {} weight rows", self.in_dim);
        let w = store.get(self.w).data();
        wt.clear();
        wt.extend((0..self.out_dim).flat_map(|j| (0..inputs).map(move |i| w[i * self.out_dim + j])));
    }

    /// Backward of [`Linear::infer_into`] for one row `x` with output
    /// gradient `gy`: overwrites `gx` with the gradient of `x`'s first
    /// `gx.len()` inputs, `gy · Wᵀ` over `wt` from
    /// [`Linear::transpose_into`] at `gx.len()`, and adds `xᵀ · gy` and
    /// `gy` into the weight's and the bias's slots of `grads`. Every sum
    /// runs in the order the tape's row-vector `matmul`, its transposed
    /// product and `add_bias` run it — zero inputs skipped, products
    /// rounded before their adds — so the gradients are the tape's bits.
    ///
    /// # Panics
    /// Panics unless `x` has `in_dim`, `gy` `out_dim` and `wt`
    /// `out_dim * gx.len()` elements.
    pub fn backward_into(&self, store: &ParamStore, wt: &[f32], x: &[f32], gy: &[f32], gx: &mut [f32], grads: &mut GradBuffer) {
        assert_eq!(x.len(), self.in_dim, "linear input len {} != in_dim {}", x.len(), self.in_dim);
        assert_eq!(gy.len(), self.out_dim, "linear gradient len {} != out_dim {}", gy.len(), self.out_dim);
        assert_eq!(wt.len(), self.out_dim * gx.len(), "transposed weight is not [out_dim][gx.len()]");
        // gy · Wᵀ: every input's gradient from +0.0, output gradient by
        // output gradient ascending, exact zeros skipped
        gx.fill(0.0);
        // exact-zero sparsity skip, as the row-vector `matmul` skips
        for (&g, wrow) in gy.iter().zip(wt.chunks_exact(gx.len().max(1))).filter(|(&g, _)| g != 0.0) {
            for (o, &wv) in gx.iter_mut().zip(wrow) {
                *o += g * wv;
            }
        }
        // xᵀ · gy: a zero input's row is +0.0, which changes no accumulator
        // begun at +0.0
        let gw = grads.slot(self.w, store.get(self.w).shape());
        // exact-zero sparsity skip, as the row-vector `matmul` skips
        for (&xi, row) in x.iter().zip(gw.chunks_exact_mut(self.out_dim)).filter(|(&xi, _)| xi != 0.0) {
            for (acc, &g) in row.iter_mut().zip(gy) {
                *acc += xi * g;
            }
        }
        for (acc, &g) in grads.slot(self.b, store.get(self.b).shape()).iter_mut().zip(gy) {
            *acc += g;
        }
    }
}

/// 1-D convolution layer over `[C_in, L]` inputs with "same" padding.
pub struct Conv1dLayer {
    w: ParamId,
    b: ParamId,
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count (the paper's "kernels", default 8).
    pub out_channels: usize,
    /// Kernel width (the paper uses 3).
    pub kernel: usize,
    /// Zero padding applied to both ends of the time axis.
    pub pad: usize,
}

impl Conv1dLayer {
    /// Registers a `[out, in, k]` kernel and `[out]` bias, with padding
    /// chosen to preserve the input length for odd kernels ("same").
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = (in_channels * kernel) as f32;
        let bound = (3.0 / fan_in).sqrt();
        let w = store.register(
            format!("{name}.w"),
            Tensor::uniform(&[out_channels, in_channels, kernel], -bound, bound, rng),
        );
        let b = store.register(format!("{name}.b"), Tensor::zeros(&[out_channels]));
        Conv1dLayer {
            w,
            b,
            in_channels,
            out_channels,
            kernel,
            pad: kernel / 2,
        }
    }

    /// Applies the convolution on the graph.
    pub fn forward(
        &self,
        g: &mut Graph,
        bindings: &mut Bindings,
        store: &ParamStore,
        x: Var,
    ) -> Var {
        let w = bindings.bind(g, store, self.w);
        let b = bindings.bind(g, store, self.b);
        g.conv1d(x, w, b, self.pad)
    }

    /// Graph-free forward on a `[C_in, L]` tensor.
    pub fn infer(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        assert_eq!(
            x.shape()[0],
            self.in_channels,
            "conv infer channel mismatch: input {:?}, expected {}",
            x.shape(),
            self.in_channels
        );
        crate::conv::conv1d_forward(x, store.get(self.w), store.get(self.b), self.pad)
    }

    /// [`Conv1dLayer::infer`] plane to plane, for odd kernels. A plane is
    /// `[C][len + kernel - 1]` row-major, every row holding `pad` zeros,
    /// its `len` samples, `pad` zeros; `y`'s samples are overwritten with
    /// exactly the values `infer` returns for `x`'s, its zeros are left
    /// alone.
    ///
    /// # Panics
    /// Panics if either plane's size disagrees with the layer and `len`.
    pub fn infer_rows(&self, store: &ParamStore, x: &[f32], y: &mut [f32], len: usize) {
        assert_eq!(x.len(), self.plane_len(self.in_channels, len), "conv input plane size");
        assert_eq!(y.len(), self.plane_len(self.out_channels, len), "conv output plane size");
        let (w, b) = (store.get(self.w).data(), store.get(self.b).data());
        crate::conv::conv1d_rows(x, w, b, y, self.kernel, len);
    }

    /// [`Conv1dLayer::infer_rows`] for a one-hot input that is never
    /// built: `rows` yields, column by column from the first, the row
    /// holding the `1.0`; columns past its end are empty.
    ///
    /// # Panics
    /// Panics if `y`'s size disagrees with the layer and `len`, or a row
    /// is not below `in_channels`.
    pub fn infer_onehot(
        &self,
        store: &ParamStore,
        rows: impl Iterator<Item = usize>,
        y: &mut [f32],
        len: usize,
    ) {
        assert_eq!(y.len(), self.plane_len(self.out_channels, len), "conv output plane size");
        let (w, b) = (store.get(self.w).data(), store.get(self.b).data());
        crate::conv::conv1d_rows_onehot(rows, w, b, y, self.kernel, len);
    }

    /// Backward of [`Conv1dLayer::infer_rows`] on input plane `x`, with
    /// output gradient `gy` as a plane whose halo is zero: overwrites the
    /// samples of the input-gradient plane `gx` (its halo is left alone)
    /// and adds the weight and bias gradients into `grads`, each sum in
    /// the tape's order — the tape's bits.
    ///
    /// # Panics
    /// Panics if a plane's size disagrees with the layer and `len`.
    pub fn backward_rows(&self, store: &ParamStore, x: &[f32], gy: &[f32], gx: &mut [f32], grads: &mut GradBuffer, len: usize) {
        let (inputs, outputs) = (self.plane_len(self.in_channels, len), self.plane_len(self.out_channels, len));
        assert!(x.len() == inputs && gx.len() == inputs, "conv input plane size");
        assert_eq!(gy.len(), outputs, "conv output plane size");
        let w = store.get(self.w);
        crate::conv::conv1d_rows_grad_input(gy, w.data(), gx, self.kernel, len);
        crate::conv::conv1d_rows_grad_weight(x, gy, grads.slot(self.w, w.shape()), self.kernel, len);
        crate::conv::conv1d_rows_grad_bias(gy, grads.slot(self.b, &[self.out_channels]), self.kernel, len);
    }

    /// Backward of [`Conv1dLayer::infer_onehot`]: `cells` names the one-hot
    /// input's ones as `row * len + column`, ascending; adds the weight and
    /// bias gradients into `grads` (the one-hot input gets none).
    ///
    /// # Panics
    /// Panics if `gy`'s size disagrees with the layer and `len`, or a row
    /// is not below `in_channels`.
    pub fn backward_onehot(&self, store: &ParamStore, cells: &[u32], gy: &[f32], grads: &mut GradBuffer, len: usize) {
        assert_eq!(gy.len(), self.plane_len(self.out_channels, len), "conv output plane size");
        crate::conv::conv1d_rows_onehot_grad(cells, gy, grads.slot(self.w, store.get(self.w).shape()), self.kernel, len);
        crate::conv::conv1d_rows_grad_bias(gy, grads.slot(self.b, &[self.out_channels]), self.kernel, len);
    }

    /// Elements of a `channels`-row plane over `len` samples.
    fn plane_len(&self, channels: usize, len: usize) -> usize {
        assert!(!self.kernel.is_multiple_of(2), "conv planes need an odd kernel, got {}", self.kernel);
        channels * (len + self.kernel - 1)
    }
}

/// Single LSTM cell; unrolled over time by [`Lstm`].
///
/// Gate layout inside the stacked `[4*hidden]` pre-activation vector is
/// `[input, forget, cell-candidate, output]`.
pub struct LstmCell {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    /// Input feature count.
    pub in_dim: usize,
    /// Hidden state width.
    pub hidden: usize,
}

impl LstmCell {
    /// Registers the cell's three parameter tensors.
    pub(crate) fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Self {
        let bound = (1.0 / hidden as f32).sqrt();
        let wx = store.register(
            format!("{name}.wx"),
            Tensor::uniform(&[in_dim, 4 * hidden], -bound, bound, rng),
        );
        let wh = store.register(
            format!("{name}.wh"),
            Tensor::uniform(&[hidden, 4 * hidden], -bound, bound, rng),
        );
        // forget-gate bias initialized to 1: standard trick for gradient flow
        let mut bias = Tensor::zeros(&[4 * hidden]);
        for j in hidden..2 * hidden {
            bias.data_mut()[j] = 1.0;
        }
        let b = store.register(format!("{name}.b"), bias);
        LstmCell { wx, wh, b, in_dim, hidden }
    }

    /// One step: consumes `x_t` `[in_dim]`, `(h, c)` `[hidden]` each;
    /// returns the next `(h, c)`.
    pub(crate) fn step(
        &self,
        g: &mut Graph,
        bindings: &mut Bindings,
        store: &ParamStore,
        x_t: Var,
        h: Var,
        c: Var,
    ) -> (Var, Var) {
        let hdim = self.hidden;
        let wx = bindings.bind(g, store, self.wx);
        let wh = bindings.bind(g, store, self.wh);
        let b = bindings.bind(g, store, self.b);

        let x_row = g.reshape(x_t, &[1, self.in_dim]);
        let h_row = g.reshape(h, &[1, hdim]);
        let xg = g.matmul(x_row, wx);
        let hg = g.matmul(h_row, wh);
        let pre = g.add(xg, hg);
        let pre = g.add_bias(pre, b);
        let pre = g.reshape(pre, &[4 * hdim]);

        let i_pre = g.slice(pre, 0, hdim);
        let f_pre = g.slice(pre, hdim, hdim);
        let c_pre = g.slice(pre, 2 * hdim, hdim);
        let o_pre = g.slice(pre, 3 * hdim, hdim);

        let i = g.sigmoid(i_pre);
        let f = g.sigmoid(f_pre);
        let chat = g.tanh(c_pre);
        let o = g.sigmoid(o_pre);

        let fc = g.mul(f, c);
        let ic = g.mul(i, chat);
        let c_next = g.add(fc, ic);
        let c_act = g.tanh(c_next);
        let h_next = g.mul(o, c_act);
        (h_next, c_next)
    }
}

/// LSTM encoder: runs [`LstmCell`] over a sequence and returns the last
/// hidden state (optionally projected).
pub struct Lstm {
    cell: LstmCell,
}

impl Lstm {
    /// Builds an LSTM with the given input/hidden dimensions.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Self {
        Lstm {
            cell: LstmCell::new(store, name, in_dim, hidden, rng),
        }
    }

    /// Encodes a sequence of `[in_dim]` vectors, returning the final hidden
    /// state `[hidden]`.
    ///
    /// # Panics
    /// Panics on an empty sequence.
    pub fn encode(
        &self,
        g: &mut Graph,
        bindings: &mut Bindings,
        store: &ParamStore,
        inputs: &[Var],
    ) -> Var {
        assert!(!inputs.is_empty(), "LSTM over empty sequence");
        let mut h = g.leaf(Tensor::zeros(&[self.cell.hidden]));
        let mut c = g.leaf(Tensor::zeros(&[self.cell.hidden]));
        for &x_t in inputs {
            let (h2, c2) = self.cell.step(g, bindings, store, x_t, h, c);
            h = h2;
            c = c2;
        }
        h
    }
}

/// Layer normalization with learned gain/offset.
pub(crate) struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
}

impl LayerNorm {
    /// Registers `[dim]` gamma (ones) and beta (zeros).
    pub(crate) fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.register(format!("{name}.gamma"), Tensor::ones(&[dim]));
        let beta = store.register(format!("{name}.beta"), Tensor::zeros(&[dim]));
        LayerNorm { gamma, beta }
    }

    /// Normalizes over the last axis of `[n, dim]` (or `[dim]`).
    pub(crate) fn forward(
        &self,
        g: &mut Graph,
        bindings: &mut Bindings,
        store: &ParamStore,
        x: Var,
    ) -> Var {
        let gamma = bindings.bind(g, store, self.gamma);
        let beta = bindings.bind(g, store, self.beta);
        g.layer_norm(x, gamma, beta)
    }
}

/// Single-head self-attention + feed-forward transformer block, used by the
/// "BERT-mini" embedding baseline of Table VII.
pub struct TransformerBlock {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    ff1: Linear,
    ff2: Linear,
    ln1: LayerNorm,
    ln2: LayerNorm,
    /// Model width.
    pub dim: usize,
}

impl TransformerBlock {
    /// Builds a block of width `dim` with a `2*dim` feed-forward inner layer.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        TransformerBlock {
            wq: Linear::new(store, &format!("{name}.wq"), dim, dim, rng),
            wk: Linear::new(store, &format!("{name}.wk"), dim, dim, rng),
            wv: Linear::new(store, &format!("{name}.wv"), dim, dim, rng),
            wo: Linear::new(store, &format!("{name}.wo"), dim, dim, rng),
            ff1: Linear::new(store, &format!("{name}.ff1"), dim, 2 * dim, rng),
            ff2: Linear::new(store, &format!("{name}.ff2"), 2 * dim, dim, rng),
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), dim),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), dim),
            dim,
        }
    }

    /// Applies the block to token matrix `x` of shape `[T, dim]`.
    pub fn forward(
        &self,
        g: &mut Graph,
        bindings: &mut Bindings,
        store: &ParamStore,
        x: Var,
    ) -> Var {
        let q = self.wq.forward(g, bindings, store, x);
        let k = self.wk.forward(g, bindings, store, x);
        let v = self.wv.forward(g, bindings, store, x);
        let kt = g.transpose(k);
        let scores = g.matmul(q, kt);
        let scaled = g.scale(scores, 1.0 / (self.dim as f32).sqrt());
        let attn = g.softmax_rows(scaled);
        let ctx = g.matmul(attn, v);
        let proj = self.wo.forward(g, bindings, store, ctx);
        let res1 = g.add(x, proj);
        let norm1 = self.ln1.forward(g, bindings, store, res1);

        let ff = self.ff1.forward(g, bindings, store, norm1);
        let ff = g.relu(ff);
        let ff = self.ff2.forward(g, bindings, store, ff);
        let res2 = g.add(norm1, ff);
        self.ln2.forward(g, bindings, store, res2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_matches_infer() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "l", 4, 3, &mut rng);
        let x = Tensor::uniform(&[2, 4], -1.0, 1.0, &mut rng);

        let mut g = Graph::new();
        let mut b = Bindings::new();
        let xv = g.leaf(x.clone());
        let yv = layer.forward(&mut g, &mut b, &store, xv);
        let graph_out = g.value(yv).clone();
        let infer_out = layer.infer(&store, &x);
        assert_eq!(graph_out.shape(), infer_out.shape());
        for (a, b) in graph_out.data().iter().zip(infer_out.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn linear_vector_input_gives_vector_output() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "l", 4, 3, &mut rng);
        let x = Tensor::uniform(&[4], -1.0, 1.0, &mut rng);
        let y = layer.infer(&store, &x);
        assert_eq!(y.shape(), &[3]);
    }

    #[test]
    fn linear_infer_into_is_the_row_vector_matmul_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "l", 13, 9, &mut rng);
        *store.get_mut(layer.b) = Tensor::uniform(&[9], -1.0, 1.0, &mut rng);
        let mut x = Tensor::uniform(&[13], -1.0, 1.0, &mut rng);
        for i in [0, 4, 12] {
            x.data_mut()[i] = 0.0; // the skipped inputs
        }
        let mut want = x.clone().reshape(&[1, 13]).matmul(store.get(layer.w));
        for (o, &b) in want.data_mut().iter_mut().zip(store.get(layer.b).data()) {
            *o += b;
        }
        let mut got = vec![f32::NAN; 9];
        layer.infer_into(&store, x.data(), &mut got);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(want.data()));
        assert_eq!(bits(layer.infer(&store, &x).data()), bits(want.data()));
    }

    #[test]
    fn conv_planes_match_infer_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let (c_in, c_out, k, l) = (10, 4, 3, 12);
        let layer = Conv1dLayer::new(&mut store, "c", c_in, c_out, k, &mut rng);
        *store.get_mut(layer.b) = Tensor::uniform(&[c_out], -1.0, 1.0, &mut rng);
        let stride = l + k - 1;
        let samples = |plane: &[f32]| -> Vec<u32> {
            plane.chunks_exact(stride).flat_map(|r| &r[k / 2..][..l]).map(|v| v.to_bits()).collect()
        };
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let rows = [3usize, 9, 0, 3, 7];
        let mut onehot = Tensor::zeros(&[c_in, l]);
        for (t, &r) in rows.iter().enumerate() {
            onehot.set2(r, t, 1.0);
        }
        let mut y = vec![0.0f32; c_out * stride];
        layer.infer_onehot(&store, rows.iter().copied(), &mut y, l);
        assert_eq!(samples(&y), bits(&layer.infer(&store, &onehot)));

        let x = Tensor::uniform(&[c_in, l], -1.0, 1.0, &mut rng);
        let mut plane = vec![0.0f32; c_in * stride];
        for (prow, xrow) in plane.chunks_exact_mut(stride).zip(x.data().chunks_exact(l)) {
            prow[k / 2..][..l].copy_from_slice(xrow);
        }
        layer.infer_rows(&store, &plane, &mut y, l);
        assert_eq!(samples(&y), bits(&layer.infer(&store, &x)));
    }

    #[test]
    fn conv_forward_matches_infer() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let layer = Conv1dLayer::new(&mut store, "c", 5, 8, 3, &mut rng);
        let x = Tensor::uniform(&[5, 12], -1.0, 1.0, &mut rng);

        let mut g = Graph::new();
        let mut b = Bindings::new();
        let xv = g.leaf(x.clone());
        let yv = layer.forward(&mut g, &mut b, &store, xv);
        let graph_out = g.value(yv).clone();
        let infer_out = layer.infer(&store, &x);
        assert_eq!(graph_out.shape(), &[8, 12]); // same padding
        for (a, b) in graph_out.data().iter().zip(infer_out.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn lstm_encode_produces_hidden_vector() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "lstm", 6, 10, &mut rng);
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let seq: Vec<Var> = (0..5)
            .map(|_| g.leaf(Tensor::uniform(&[6], -1.0, 1.0, &mut rng)))
            .collect();
        let h = lstm.encode(&mut g, &mut b, &store, &seq);
        assert_eq!(g.value(h).shape(), &[10]);
        assert!(g.value(h).all_finite());
    }

    #[test]
    fn lstm_trains_to_separate_two_sequences() {
        // tiny sanity check: LSTM learns to output different scores for two
        // fixed sequences under a margin-style objective
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "lstm", 3, 8, &mut rng);
        let head_rng = &mut rng;
        let head = Linear::new(&mut store, "head", 8, 1, head_rng);
        let seq_a: Vec<Tensor> = (0..4)
            .map(|i| Tensor::vector(&[i as f32, 1.0, 0.0]))
            .collect();
        let seq_b: Vec<Tensor> = (0..4)
            .map(|i| Tensor::vector(&[-(i as f32), 0.0, 1.0]))
            .collect();
        let mut opt = Adam::new(0.05);
        let mut last_loss = f32::INFINITY;
        for _ in 0..40 {
            let mut g = Graph::new();
            let mut b = Bindings::new();
            let va: Vec<Var> = seq_a.iter().map(|t| g.leaf(t.clone())).collect();
            let vb: Vec<Var> = seq_b.iter().map(|t| g.leaf(t.clone())).collect();
            let ha = lstm.encode(&mut g, &mut b, &store, &va);
            let hb = lstm.encode(&mut g, &mut b, &store, &vb);
            let sa = head.forward(&mut g, &mut b, &store, ha);
            let sb = head.forward(&mut g, &mut b, &store, hb);
            // want sa - sb to exceed 1
            let diff = g.sub(sb, sa);
            let shifted = g.add_scalar(diff, 1.0);
            let loss_t = g.relu(shifted);
            let loss = g.sum_all(loss_t);
            g.backward(loss);
            last_loss = g.value(loss).item();
            opt.step(&mut store, &g, &b);
        }
        assert!(last_loss < 0.1, "LSTM failed to learn margin, loss {last_loss}");
    }

    #[test]
    fn transformer_block_preserves_shape_and_is_finite() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let block = TransformerBlock::new(&mut store, "t", 8, &mut rng);
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let x = g.leaf(Tensor::uniform(&[5, 8], -1.0, 1.0, &mut rng));
        let y = block.forward(&mut g, &mut b, &store, x);
        assert_eq!(g.value(y).shape(), &[5, 8]);
        assert!(g.value(y).all_finite());
    }

    #[test]
    fn transformer_block_backward_reaches_all_params() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let block = TransformerBlock::new(&mut store, "t", 6, &mut rng);
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let x = g.leaf(Tensor::uniform(&[3, 6], -1.0, 1.0, &mut rng));
        let y = block.forward(&mut g, &mut b, &store, x);
        let sq = g.mul(y, y);
        let loss = g.sum_all(sq);
        g.backward(loss);
        for (_, var) in b.iter() {
            assert!(g.grad(var).is_some(), "a transformer parameter got no gradient");
        }
    }
}
