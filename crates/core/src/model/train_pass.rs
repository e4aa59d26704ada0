//! The encoder's one forward pass and its backward pass.
//!
//! [`EmbLookupModel::encode`] runs one mention through the slice kernels —
//! the one-hot gather, the plane convolutions, the segment max, the
//! fastText leg, two matrix-vector products — and keeps what the backward
//! pass reads in an [`EncodeScratch`]: every conv layer's post-ReLU plane,
//! the segment-max argmaxes, the one-hot cells, the fused vector, the
//! hidden layer, the embedding and its norm. Lookup runs it as a step of
//! one mention and reads the embedding; training encodes a micro-batch's
//! mentions as one step, and [`EmbLookupModel::backprop`] takes the loss's
//! gradient of an embedding back through l2-normalize, `fuse2`, `fuse1`,
//! the segment max and the conv stack into a [`GradBuffer`].
//!
//! Every forward sum runs in the order the tensor path
//! (`Conv1dLayer::infer`, `Linear::infer`, `FastText::embed`) runs it, so
//! the embedding is that path's bits. Every backward step adds in the
//! order the tape's op adds (`emblookup-tensor`'s `Graph::backward`), so a
//! micro-batch whose mentions are backpropagated in reverse
//! first-appearance order — the order the tape's reverse sweep reaches
//! them — leaves every parameter gradient the tape's bits.

use super::{relu, EmbLookupModel};
use emblookup_tensor::optim::GradBuffer;

/// Activation records of the mentions one step has encoded, and the
/// working memory of their backward passes: one per thread. A fresh one
/// is empty; [`EncodeScratch::clear`] starts a step and keeps the memory,
/// so a warm scratch allocates nothing per mention. The records are only
/// valid for the weights they were made with, and every mention of a step
/// must be encoded by one model; steps may change models.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    /// Per mention: every conv layer's post-ReLU plane, the fused vector
    /// (pooled maxima ++ fastText), the post-ReLU hidden layer, the
    /// embedding and its pre-normalization norm. Grows to the largest step
    /// seen and is laid out for `layout`: every plane's halo is zero.
    acts: Vec<f32>,
    /// Per mention: the segment-max argmaxes, the character count and
    /// the one-hot matrix's ones as `row * max_len + column`, in column
    /// order until [`EmbLookupModel::backprop`] sorts them.
    index: Vec<u32>,
    /// Mentions encoded since the last [`EncodeScratch::clear`], and where
    /// their activations lie.
    mentions: usize,
    layout: Layout,
    /// The fastText leg's token buffer and token vector.
    token: String,
    token_vec: Vec<f32>,
    /// Two gradient planes, then the embedding's, the hidden layer's and
    /// the pooled maxima's gradients.
    grads: Vec<f32>,
    /// `fuse1`'s pooled rows and `fuse2`'s weight, transposed: filled by
    /// the step's first backward pass.
    fuse1_t: Vec<f32>,
    fuse2_t: Vec<f32>,
}

impl EncodeScratch {
    /// Forgets every record — the start of a step.
    pub fn clear(&mut self) {
        self.mentions = 0;
        self.fuse1_t.clear();
        self.fuse2_t.clear();
    }
}

/// Where one mention's activations lie in its record.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Layout {
    /// Samples per plane row and `K / 2`.
    stride: usize,
    pad: usize,
    /// Floats in one conv layer's plane, and in all of them.
    plane: usize,
    planes: usize,
    /// Pooled maxima (`kernels * segments`).
    pooled: usize,
    /// Floats / indices in one record.
    acts: usize,
    index: usize,
}

impl Layout {
    fn of(model: &EmbLookupModel) -> Self {
        let c = &model.config;
        let (stride, pad) = (c.max_len + c.kernel_size - 1, c.kernel_size / 2);
        let plane = c.kernels * stride;
        let planes = c.conv_layers * plane;
        let pooled = c.kernels * c.pool_segments;
        Layout {
            stride,
            pad,
            plane,
            planes,
            pooled,
            acts: planes + pooled + c.fasttext_dim + c.fusion_hidden + c.embedding_dim + 1,
            index: pooled + 1 + c.max_len,
        }
    }
}

impl EmbLookupModel {
    /// Encodes `s` and returns its embedding, keeping the activations its
    /// backward pass reads as record number `n`, the `n`-th mention since
    /// `scratch` was cleared. The encoder's only forward pass: lookup runs
    /// it on a cleared scratch and reads the embedding.
    ///
    /// # Panics
    /// Panics if an earlier mention of the step went through a model of
    /// another shape.
    pub fn encode<'s>(&self, s: &str, scratch: &'s mut EncodeScratch) -> &'s [f32] {
        let c = &self.config;
        let lay = Layout::of(self);
        let n = scratch.mentions;
        if n == 0 && scratch.layout != lay {
            // the layers write samples only and read the `pad` zeros around
            // them: zeroed here, and by `resize` for each new record, every
            // halo of this layout stays zero until the layout changes
            scratch.acts.fill(0.0);
            scratch.layout = lay;
        }
        assert_eq!(scratch.layout, lay, "a step's mentions go through one model");
        scratch.mentions += 1;
        scratch.acts.resize(scratch.acts.len().max((n + 1) * lay.acts), 0.0);
        scratch.index.resize(scratch.index.len().max((n + 1) * lay.index), 0);
        scratch.token_vec.resize(c.fasttext_dim, 0.0);
        let rec = &mut scratch.acts[n * lay.acts..][..lay.acts];
        let (planes, rest) = rec.split_at_mut(lay.planes);
        let (fused, rest) = rest.split_at_mut(lay.pooled + c.fasttext_dim);
        let (hidden, rest) = rest.split_at_mut(c.fusion_hidden);
        let (out, norm) = rest.split_at_mut(c.embedding_dim);
        let (argmax, cells) = scratch.index[n * lay.index..][..lay.index].split_at_mut(lay.pooled);
        let (count, cells) = cells.split_at_mut(1);

        let (first, mut rest) = planes.split_at_mut(lay.plane);
        let mut ones = 0;
        // each character's one-hot row, recorded as the first layer reads it
        let rows = self.onehot.indices(s).zip(cells.iter_mut()).enumerate().map(|(u, (row, cell))| {
            *cell = (row * c.max_len + u) as u32;
            ones += 1;
            row
        });
        self.convs[0].infer_onehot(&self.store, rows, first, c.max_len);
        count[0] = ones;
        relu(first);
        let mut x: &[f32] = first;
        for conv in &self.convs[1..] {
            let (y, next) = rest.split_at_mut(lay.plane);
            conv.infer_rows(&self.store, x, y, c.max_len);
            relu(y);
            (x, rest) = (y, next);
        }
        // segmented max over time with the tape's argmax: the first sample
        // of the segment that no later one exceeds
        let (segments, chunk) = (c.pool_segments, c.max_len / c.pool_segments);
        let maxima = fused[..lay.pooled].chunks_exact_mut(segments).zip(argmax.chunks_exact_mut(segments));
        for (row, (maxima, argmax)) in x.chunks_exact(lay.stride).zip(maxima) {
            let row = &row[lay.pad..][..c.max_len];
            for (seg, (m, arg)) in maxima.iter_mut().zip(argmax).enumerate() {
                let lo = seg * chunk;
                let hi = if seg + 1 == segments { c.max_len } else { lo + chunk };
                let (mut best_i, mut best_v) = (lo, row[lo]);
                for (i, &v) in row.iter().enumerate().take(hi).skip(lo + 1) {
                    if v > best_v {
                        (best_i, best_v) = (i, v);
                    }
                }
                (*m, *arg) = (best_v, best_i as u32);
            }
        }
        self.semantic.embed_into(s, &mut scratch.token, &mut scratch.token_vec, &mut fused[lay.pooled..]);

        self.fuse1.infer_into(&self.store, fused, hidden);
        relu(hidden);
        self.fuse2.infer_into(&self.store, hidden, out);
        norm[0] = out.iter().map(|x| x * x).sum::<f32>().sqrt();
        if c.l2_normalize && norm[0] > 1e-12 {
            for v in out.iter_mut() {
                *v /= norm[0];
            }
        }
        out
    }

    /// Backpropagates `grad`, the loss's gradient of record `n`'s
    /// embedding, through the encoder and adds every parameter's gradient
    /// into `grads`. Called for a step's records in reverse order, from an
    /// empty `grads`, it leaves the gradients the tape's backward sweep
    /// leaves, bit for bit.
    ///
    /// # Panics
    /// Panics if `n` is not a record of `scratch` or `grad` is not
    /// `embedding_dim` long.
    pub fn backprop(&self, n: usize, grad: &[f32], scratch: &mut EncodeScratch, grads: &mut GradBuffer) {
        let c = &self.config;
        let lay = Layout::of(self);
        assert!(n < scratch.mentions, "record {n} of {}", scratch.mentions);
        assert_eq!(grad.len(), c.embedding_dim, "embedding gradient len {} != dim {}", grad.len(), c.embedding_dim);
        if scratch.fuse2_t.is_empty() {
            self.fuse1.transpose_into(&self.store, lay.pooled, &mut scratch.fuse1_t);
            self.fuse2.transpose_into(&self.store, c.fusion_hidden, &mut scratch.fuse2_t);
        }
        let rec = &scratch.acts[n * lay.acts..][..lay.acts];
        let (planes, rest) = rec.split_at(lay.planes);
        let (fused, rest) = rest.split_at(lay.pooled + c.fasttext_dim);
        let (hidden, rest) = rest.split_at(c.fusion_hidden);
        let (out, norm) = rest.split_at(c.embedding_dim);
        let norm = norm[0];
        let index = &mut scratch.index[n * lay.index..][..lay.index];
        let (argmax, cells) = index.split_at_mut(lay.pooled);
        let ones = cells[0] as usize;
        let cells = &mut cells[1..][..ones];
        // the one-hot gradient reads the ones in row order
        cells.sort_unstable();

        // the vectors are overwritten before they are read; the planes are
        // zeroed below, since the max-pool writes a few samples of one and
        // every halo must be zero
        scratch.grads.resize(2 * lay.plane + c.embedding_dim + c.fusion_hidden + lay.pooled, 0.0);
        let (gplanes, rest) = scratch.grads.split_at_mut(2 * lay.plane);
        let (g_out, rest) = rest.split_at_mut(c.embedding_dim);
        let (g_hidden, g_pooled) = rest.split_at_mut(c.fusion_hidden);

        if c.l2_normalize && norm > 1e-12 {
            let dot: f32 = grad.iter().zip(out).map(|(&g, &y)| g * y).sum();
            for ((o, &g), &y) in g_out.iter_mut().zip(grad).zip(out) {
                *o = (g - y * dot) / norm;
            }
        } else {
            g_out.copy_from_slice(grad);
        }
        self.fuse2.backward_into(&self.store, &scratch.fuse2_t, hidden, g_out, g_hidden, grads);
        relu_grad(g_hidden, hidden);
        self.fuse1.backward_into(&self.store, &scratch.fuse1_t, fused, g_hidden, g_pooled, grads);

        gplanes.fill(0.0);
        let (mut gy, mut gx) = gplanes.split_at_mut(lay.plane);
        for (slot, (&at, &g)) in argmax.iter().zip(g_pooled.iter()).enumerate() {
            // the tape adds the maximum's gradient into a zero plane
            gy[slot / c.pool_segments * lay.stride + lay.pad + at as usize] = 0.0 + g;
        }
        let plane = |layer: usize| &planes[layer * lay.plane..][..lay.plane];
        relu_grad(gy, plane(c.conv_layers - 1));
        for layer in (1..c.conv_layers).rev() {
            self.convs[layer].backward_rows(&self.store, plane(layer - 1), gy, gx, grads, c.max_len);
            relu_grad(gx, plane(layer - 1));
            std::mem::swap(&mut gy, &mut gx);
        }
        self.convs[0].backward_onehot(&self.store, cells, gy, grads, c.max_len);
    }
}

/// ReLU's backward: the gradient passes where the activation is positive.
fn relu_grad(g: &mut [f32], y: &[f32]) {
    for (g, &y) in g.iter_mut().zip(y) {
        *g = if y > 0.0 { *g } else { 0.0 };
    }
}
