//! Reverse-mode automatic differentiation on a flat tape.
//!
//! A [`Graph`] is a tape of nodes. Every operation computes its value
//! eagerly when the node is appended, and records which parent nodes it read
//! so that [`Graph::backward`] can run the tape in reverse and accumulate
//! gradients. Because nodes are appended in topological order by
//! construction, the backward pass is a single reverse sweep — no sorting.
//!
//! The op set is exactly what EmbLookup's models need (CNN encoder, LSTM
//! and attention baselines, triplet / cross-entropy losses); it is not a
//! general tensor algebra.

use crate::conv::{conv1d_backward_masked, conv1d_forward};
use crate::tensor::Tensor;
use std::borrow::Cow;

/// Handle to a node on a [`Graph`] tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Operation recorded on the tape. Parents are stored as [`Var`]s.
/// (The `AddScalar` constant is carried for `Debug` output even though the
/// backward pass never reads it — the gradient of `x + c` ignores `c`.)
#[derive(Debug, Clone)]
#[expect(dead_code, reason = "`AddScalar`'s constant is read only by `Debug`")]
enum Op {
    /// Input or parameter leaf; `backward` stops here.
    Leaf,
    /// Elementwise sum of two same-shape tensors.
    Add(Var, Var),
    /// `[m,n] + [n]`: the bias row is broadcast over the rows of the matrix.
    AddBias(Var, Var),
    /// Adds a compile-time constant to every element.
    AddScalar(Var, f32),
    /// Elementwise difference.
    Sub(Var, Var),
    /// Elementwise product.
    Mul(Var, Var),
    /// Multiplies every element by a constant.
    Scale(Var, f32),
    /// Rank-2 matrix product.
    Matmul(Var, Var),
    /// Rank-2 transpose.
    Transpose(Var),
    /// Elementwise `max(x, 0)`.
    Relu(Var),
    /// Elementwise logistic sigmoid.
    Sigmoid(Var),
    /// Elementwise hyperbolic tangent.
    Tanh(Var),
    /// Row-wise softmax of a rank-2 tensor.
    SoftmaxRows(Var),
    /// 1-D convolution: input `[C_in, L]`, weight `[C_out, C_in, K]`,
    /// bias `[C_out]`, zero padding `pad` on both sides, stride 1.
    Conv1d {
        input: Var,
        weight: Var,
        bias: Var,
        pad: usize,
    },
    /// Segmented max over time: `[C, L]` split into `s` equal time chunks,
    /// producing `[C * s]` (channel-major). Argmaxes cached in `aux`.
    MaxPoolSegments(Var, usize),
    /// Concatenation of rank-1 tensors into one rank-1 tensor.
    Concat(Vec<Var>),
    /// Contiguous slice of a rank-1 tensor.
    Slice(Var, usize, usize),
    /// Shape re-labeling; gradients pass straight through.
    Reshape(Var),
    /// Sum of all elements, producing a scalar.
    SumAll(Var),
    /// Mean of all elements, producing a scalar.
    MeanAll(Var),
    /// Gathers rows of a `[V, D]` matrix, producing `[n, D]`.
    /// Row indices are cached in the node's `aux`.
    Rows(Var),
    /// Mean over the rows of `[n, D]`, producing `[D]`.
    MeanRows(Var),
    /// Layer normalization over the last axis of `[n, D]` with learned
    /// `gamma`/`beta` of shape `[D]`.
    LayerNorm { x: Var, gamma: Var, beta: Var },
    /// Mean softmax cross-entropy of `[n, C]` logits against the class
    /// indices cached in `aux`; the softmax itself is cached in `cache`.
    CrossEntropyRows(Var),
    /// L2 normalization of a rank-1 vector; the input norm is cached.
    L2Normalize(Var),
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
    /// Integer side-channel (argmax positions, gather indices, targets).
    aux: Vec<u32>,
    /// Float side-channel (cached softmax, layernorm statistics).
    cache: Vec<f32>,
    /// Constant leaf: the backward pass never materializes a gradient for
    /// it, and whole gradient branches that reach only constants are
    /// skipped (see [`Graph::constant`]).
    no_grad: bool,
}

/// `v`'s value transposed. A leaf's transpose is kept in `cache` for the
/// rest of the backward pass — nothing writes a value during it, so the
/// reused tensor is the one a fresh transpose would give; any other node's
/// is computed where it is needed.
fn transposed<'c>(nodes: &[Node], cache: &'c mut Vec<(Var, Tensor)>, v: Var) -> Cow<'c, Tensor> {
    if !matches!(nodes[v.0].op, Op::Leaf) {
        return Cow::Owned(nodes[v.0].value.transpose());
    }
    let at = match cache.iter().position(|(leaf, _)| *leaf == v) {
        Some(at) => at,
        None => {
            cache.push((v, nodes[v.0].value.transpose()));
            cache.len() - 1
        }
    };
    Cow::Borrowed(&cache[at].1)
}

/// Visits every parent [`Var`] an op reads, in recorded order.
fn for_each_input(op: &Op, mut f: impl FnMut(Var)) {
    match op {
        Op::Leaf => {}
        Op::Add(a, b) | Op::AddBias(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Matmul(a, b) => {
            f(*a);
            f(*b);
        }
        Op::AddScalar(a, _)
        | Op::Scale(a, _)
        | Op::Transpose(a)
        | Op::Relu(a)
        | Op::Sigmoid(a)
        | Op::Tanh(a)
        | Op::SoftmaxRows(a)
        | Op::MaxPoolSegments(a, _)
        | Op::Slice(a, _, _)
        | Op::Reshape(a)
        | Op::SumAll(a)
        | Op::MeanAll(a)
        | Op::Rows(a)
        | Op::MeanRows(a)
        | Op::CrossEntropyRows(a)
        | Op::L2Normalize(a) => f(*a),
        Op::Conv1d { input, weight, bias, .. } => {
            f(*input);
            f(*weight);
            f(*bias);
        }
        Op::Concat(parts) => {
            for p in parts {
                f(*p);
            }
        }
        Op::LayerNorm { x, gamma, beta } => {
            f(*x);
            f(*gamma);
            f(*beta);
        }
    }
}

/// Epsilon used inside layer normalization.
const LN_EPS: f32 = 1e-5;

/// A tape of eagerly-evaluated operations supporting reverse-mode autodiff.
///
/// Typical use: create a graph per minibatch, push leaves for inputs and
/// parameters, build the loss, call [`Graph::backward`] on it, then read
/// parameter gradients with [`Graph::grad`].
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Per-node "gradient reaches a non-constant leaf" marks, rebuilt by
    /// every [`Graph::backward`] call; `accum` consults it to skip dead
    /// gradient branches.
    needs: Vec<bool>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph { nodes: Vec::new(), needs: Vec::new() }
    }

    /// Number of nodes currently on the tape.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.push_full(value, op, Vec::new(), Vec::new())
    }

    fn push_full(&mut self, value: Tensor, op: Op, aux: Vec<u32>, cache: Vec<f32>) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            aux,
            cache,
            no_grad: false,
        });
        Var(self.nodes.len() - 1)
    }

    /// Adds an input/parameter leaf holding `value`.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Adds a constant input leaf: like [`Graph::leaf`], but declares that
    /// no gradient is wanted. The backward pass prunes every gradient
    /// branch that reaches only constants — for EmbLookup's model this
    /// skips the first conv layer's input gradient (a dense
    /// `[|A|, L]` tensor flowing into the one-hot characters) and the
    /// frozen fastText vector, the two biggest dead computations of a
    /// training step. [`Graph::grad`] returns `None` for constants.
    pub fn constant(&mut self, value: Tensor) -> Var {
        let v = self.push(value, Op::Leaf);
        self.nodes[v.0].no_grad = true;
        v
    }

    /// Borrows the value computed at `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Borrows the gradient accumulated at `v`, if backward reached it.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Elementwise sum. Panics on shape mismatch.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        self.push(value, Op::Add(a, b))
    }

    /// Broadcast add of a `[n]` bias over the rows of a `[m,n]` matrix
    /// (or an `[n]` vector, treated as a single row).
    pub(crate) fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let xt = &self.nodes[x.0].value;
        let bt = &self.nodes[bias.0].value;
        let n = bt.len();
        assert_eq!(
            xt.cols(),
            n,
            "add_bias: matrix cols {} != bias len {}",
            xt.cols(),
            n
        );
        let mut out = xt.clone();
        for row in 0..xt.rows() {
            for j in 0..n {
                out.data_mut()[row * n + j] += bt.data()[j];
            }
        }
        self.push(out, Op::AddBias(x, bias))
    }

    /// Adds the constant `c` to every element.
    pub(crate) fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let value = self.nodes[a.0].value.map(|x| x + c);
        self.push(value, Op::AddScalar(a, c))
    }

    /// Elementwise difference. Panics on shape mismatch.
    pub(crate) fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.sub(&self.nodes[b.0].value);
        self.push(value, Op::Sub(a, b))
    }

    /// Elementwise product. Panics on shape mismatch. `mul(x, x)` squares.
    pub(crate) fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.mul(&self.nodes[b.0].value);
        self.push(value, Op::Mul(a, b))
    }

    /// Multiplies every element by `s`.
    pub(crate) fn scale(&mut self, a: Var, s: f32) -> Var {
        let mut value = self.nodes[a.0].value.clone();
        value.scale_mut(s);
        self.push(value, Op::Scale(a, s))
    }

    /// Rank-2 matrix product.
    pub(crate) fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(value, Op::Matmul(a, b))
    }

    /// Rank-2 transpose.
    pub(crate) fn transpose(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.transpose();
        self.push(value, Op::Transpose(a))
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|x| x.max(0.0));
        self.push(value, Op::Relu(a))
    }

    /// Elementwise logistic sigmoid.
    pub(crate) fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(value, Op::Sigmoid(a))
    }

    /// Elementwise tanh.
    pub(crate) fn tanh(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|x| x.tanh());
        self.push(value, Op::Tanh(a))
    }

    /// Row-wise softmax of a rank-2 tensor (rank-1 treated as one row).
    pub(crate) fn softmax_rows(&mut self, a: Var) -> Var {
        let x = &self.nodes[a.0].value;
        let (rows, cols) = (x.rows(), x.cols());
        let mut out = x.clone();
        for r in 0..rows {
            let row = &mut out.data_mut()[r * cols..(r + 1) * cols];
            softmax_in_place(row);
        }
        self.push(out, Op::SoftmaxRows(a))
    }

    /// 1-D convolution with zero padding and stride 1.
    ///
    /// * `input` — `[C_in, L]`
    /// * `weight` — `[C_out, C_in, K]`
    /// * `bias` — `[C_out]`
    ///
    /// Output is `[C_out, L + 2*pad - K + 1]`.
    ///
    /// # Panics
    /// Panics on any dimension mismatch or if the kernel does not fit.
    pub(crate) fn conv1d(&mut self, input: Var, weight: Var, bias: Var, pad: usize) -> Var {
        let x = &self.nodes[input.0].value;
        let w = &self.nodes[weight.0].value;
        let b = &self.nodes[bias.0].value;
        let out = conv1d_forward(x, w, b, pad);
        self.push(out, Op::Conv1d { input, weight, bias, pad })
    }

    /// Segmented max pooling: splits the time axis of `[C, L]` into
    /// `segments` equal chunks (the last takes the remainder) and takes the
    /// max per (channel, chunk), producing `[C * segments]` channel-major.
    ///
    /// # Panics
    /// Panics unless the input is rank-2 with `L >= segments >= 1`.
    pub fn max_pool_segments(&mut self, a: Var, segments: usize) -> Var {
        let x = &self.nodes[a.0].value;
        assert_eq!(x.rank(), 2, "max_pool_segments needs [C, L], got {:?}", x.shape());
        assert!(segments >= 1, "segments must be >= 1");
        let (c, l) = (x.shape()[0], x.shape()[1]);
        assert!(l >= segments, "time axis {l} shorter than {segments} segments");
        let chunk = l / segments;
        let mut out = Tensor::zeros(&[c * segments]);
        let mut arg = Vec::with_capacity(c * segments);
        for ch in 0..c {
            let row = &x.data()[ch * l..(ch + 1) * l];
            for s in 0..segments {
                let lo = s * chunk;
                let hi = if s + 1 == segments { l } else { lo + chunk };
                let (mut best_i, mut best_v) = (lo, row[lo]);
                for (i, &v) in row.iter().enumerate().take(hi).skip(lo + 1) {
                    if v > best_v {
                        best_v = v;
                        best_i = i;
                    }
                }
                out.data_mut()[ch * segments + s] = best_v;
                arg.push(best_i as u32);
            }
        }
        self.push_full(out, Op::MaxPoolSegments(a, segments), arg, Vec::new())
    }

    /// Concatenates rank-1 tensors into one rank-1 tensor.
    pub fn concat(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let mut data = Vec::new();
        for &p in parts {
            let t = &self.nodes[p.0].value;
            data.extend_from_slice(t.data());
        }
        let n = data.len();
        self.push(Tensor::from_vec(&[n], data), Op::Concat(parts.to_vec()))
    }

    /// Takes `len` elements of a rank-1 tensor starting at `start`.
    pub(crate) fn slice(&mut self, a: Var, start: usize, len: usize) -> Var {
        let t = &self.nodes[a.0].value;
        assert!(
            start + len <= t.len(),
            "slice {}..{} out of bounds for len {}",
            start,
            start + len,
            t.len()
        );
        let data = t.data()[start..start + len].to_vec();
        self.push(Tensor::from_vec(&[len], data), Op::Slice(a, start, len))
    }

    /// Re-labels a node's value with a new shape of equal element count.
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let value = self.nodes[a.0].value.clone().reshape(shape);
        self.push(value, Op::Reshape(a))
    }

    /// Sum of all elements, producing a scalar node.
    pub(crate) fn sum_all(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.nodes[a.0].value.sum());
        self.push(value, Op::SumAll(a))
    }

    /// Mean of all elements, producing a scalar node.
    pub(crate) fn mean_all(&mut self, a: Var) -> Var {
        let t = &self.nodes[a.0].value;
        assert!(!t.is_empty(), "mean_all of empty tensor");
        let value = Tensor::scalar(t.sum() / t.len() as f32);
        self.push(value, Op::MeanAll(a))
    }

    /// Gathers rows of a `[V, D]` matrix into `[indices.len(), D]`.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn rows(&mut self, table: Var, indices: &[u32]) -> Var {
        let t = &self.nodes[table.0].value;
        assert_eq!(t.rank(), 2, "rows() needs a [V, D] table, got {:?}", t.shape());
        let (v, d) = (t.shape()[0], t.shape()[1]);
        let mut data = Vec::with_capacity(indices.len() * d);
        for &i in indices {
            assert!((i as usize) < v, "row index {i} out of bounds for table with {v} rows");
            data.extend_from_slice(t.row(i as usize));
        }
        self.push_full(
            Tensor::from_vec(&[indices.len(), d], data),
            Op::Rows(table),
            indices.to_vec(),
            Vec::new(),
        )
    }

    /// Mean over the rows of `[n, D]`, producing `[D]`.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let t = &self.nodes[a.0].value;
        assert_eq!(t.rank(), 2, "mean_rows needs rank-2, got {:?}", t.shape());
        let (n, d) = (t.shape()[0], t.shape()[1]);
        assert!(n > 0, "mean_rows of empty matrix");
        let mut out = vec![0.0f32; d];
        for r in 0..n {
            for (o, &x) in out.iter_mut().zip(t.row(r)) {
                *o += x;
            }
        }
        for o in &mut out {
            *o /= n as f32;
        }
        self.push(Tensor::from_vec(&[d], out), Op::MeanRows(a))
    }

    /// Layer normalization over the last axis of `[n, D]` (or `[D]`).
    pub(crate) fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        let t = &self.nodes[x.0].value;
        let g = &self.nodes[gamma.0].value;
        let b = &self.nodes[beta.0].value;
        let (n, d) = (t.rows(), t.cols());
        assert_eq!(g.len(), d, "layer_norm gamma len {} != D {}", g.len(), d);
        assert_eq!(b.len(), d, "layer_norm beta len {} != D {}", b.len(), d);
        let mut out = t.clone();
        // cache: per row [mean, inv_std] followed by normalized values
        let mut cache = Vec::with_capacity(n * (2 + d));
        for r in 0..n {
            let row = &mut out.data_mut()[r * d..(r + 1) * d];
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / d as f32;
            let inv_std = 1.0 / (var + LN_EPS).sqrt();
            cache.push(mean);
            cache.push(inv_std);
            for (j, v) in row.iter_mut().enumerate() {
                let xhat = (*v - mean) * inv_std;
                cache.push(xhat);
                *v = g.data()[j] * xhat + b.data()[j];
            }
        }
        self.push_full(out, Op::LayerNorm { x, gamma, beta }, Vec::new(), cache)
    }

    /// Mean softmax cross-entropy of `[n, C]` logits against `targets`.
    ///
    /// # Panics
    /// Panics if `targets.len()` differs from the number of logit rows or a
    /// target class is out of range.
    pub fn cross_entropy_rows(&mut self, logits: Var, targets: &[u32]) -> Var {
        let t = &self.nodes[logits.0].value;
        let (n, c) = (t.rows(), t.cols());
        assert_eq!(targets.len(), n, "targets len {} != rows {}", targets.len(), n);
        let mut cache = Vec::with_capacity(n * c);
        let mut loss = 0.0f32;
        for (r, &target) in targets.iter().enumerate() {
            let mut row = t.data()[r * c..(r + 1) * c].to_vec();
            softmax_in_place(&mut row);
            let y = target as usize;
            assert!(y < c, "target class {y} out of range {c}");
            loss -= row[y].max(1e-12).ln();
            cache.extend_from_slice(&row);
        }
        loss /= n as f32;
        self.push_full(
            Tensor::scalar(loss),
            Op::CrossEntropyRows(logits),
            targets.to_vec(),
            cache,
        )
    }

    /// Scales a rank-1 vector to unit Euclidean norm (common practice in
    /// deep metric learning; a zero vector passes through unchanged).
    pub fn l2_normalize(&mut self, a: Var) -> Var {
        let x = &self.nodes[a.0].value;
        let norm = x.norm();
        let value = if norm > 1e-12 {
            x.map(|v| v / norm)
        } else {
            x.clone()
        };
        self.push_full(value, Op::L2Normalize(a), Vec::new(), vec![norm])
    }

    /// Runs the backward pass from the scalar node `root`.
    ///
    /// Gradients accumulate: a variable used several times receives the sum
    /// of the gradients flowing through every use.
    ///
    /// # Panics
    /// Panics if `root` is not a scalar.
    pub fn backward(&mut self, root: Var) {
        assert_eq!(
            self.nodes[root.0].value.len(),
            1,
            "backward root must be scalar, got {:?}",
            self.nodes[root.0].value.shape()
        );
        for node in &mut self.nodes {
            node.grad = None;
        }
        // A node's gradient is worth computing only if some non-constant
        // leaf sits in its input subtree; the tape is topologically
        // ordered, so one ascending sweep settles every mark.
        self.needs.clear();
        self.needs.resize(self.nodes.len(), false);
        for i in 0..self.nodes.len() {
            let mut needed = match &self.nodes[i].op {
                Op::Leaf => !self.nodes[i].no_grad,
                _ => false,
            };
            if !needed {
                for_each_input(&self.nodes[i].op, |v| needed |= self.needs[v.0]);
            }
            self.needs[i] = needed;
        }
        self.nodes[root.0].grad = Some(Tensor::full(self.nodes[root.0].value.shape(), 1.0));
        // a weight is one leaf however many products read it: its transpose
        // is taken on the first backward product and reused by the rest
        let mut leaf_transposes: Vec<(Var, Tensor)> = Vec::new();

        for i in (0..self.nodes.len()).rev() {
            let Some(gy) = self.nodes[i].grad.clone() else {
                continue;
            };
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    self.accum(a, &gy);
                    self.accum(b, &gy);
                }
                Op::AddBias(x, bias) => {
                    self.accum(x, &gy);
                    let n = self.nodes[bias.0].value.len();
                    let mut gb = Tensor::zeros(&[n]);
                    for r in 0..gy.rows() {
                        for j in 0..n {
                            gb.data_mut()[j] += gy.data()[r * n + j];
                        }
                    }
                    // bias may be stored as [n] even when gy is [1, n]
                    let gb = gb.reshape(self.nodes[bias.0].value.shape());
                    self.accum(bias, &gb);
                }
                Op::AddScalar(a, _) => self.accum(a, &gy),
                Op::Sub(a, b) => {
                    self.accum(a, &gy);
                    if self.needs[b.0] {
                        let neg = gy.map(|x| -x);
                        self.accum(b, &neg);
                    }
                }
                Op::Mul(a, b) => {
                    if self.needs[a.0] {
                        let ga = gy.mul(&self.nodes[b.0].value);
                        self.accum(a, &ga);
                    }
                    if self.needs[b.0] {
                        let gb = gy.mul(&self.nodes[a.0].value);
                        self.accum(b, &gb);
                    }
                }
                Op::Scale(a, s) => {
                    let mut g = gy.clone();
                    g.scale_mut(s);
                    self.accum(a, &g);
                }
                Op::Matmul(a, b) => {
                    if self.needs[a.0] {
                        let ga = gy.matmul(&transposed(&self.nodes, &mut leaf_transposes, b));
                        self.accum(a, &ga);
                    }
                    if self.needs[b.0] {
                        let gb = transposed(&self.nodes, &mut leaf_transposes, a).matmul(&gy);
                        self.accum(b, &gb);
                    }
                }
                Op::Transpose(a) => {
                    let g = gy.transpose();
                    self.accum(a, &g);
                }
                Op::Relu(a) => {
                    let g = gy.zip_with(&self.nodes[i].value, |g, y| if y > 0.0 { g } else { 0.0 });
                    self.accum(a, &g);
                }
                Op::Sigmoid(a) => {
                    let g = gy.zip_with(&self.nodes[i].value, |g, y| g * y * (1.0 - y));
                    self.accum(a, &g);
                }
                Op::Tanh(a) => {
                    let g = gy.zip_with(&self.nodes[i].value, |g, y| g * (1.0 - y * y));
                    self.accum(a, &g);
                }
                Op::SoftmaxRows(a) => {
                    let y = &self.nodes[i].value;
                    let (rows, cols) = (y.rows(), y.cols());
                    let mut g = Tensor::zeros(y.shape());
                    for r in 0..rows {
                        let yrow = &y.data()[r * cols..(r + 1) * cols];
                        let grow = &gy.data()[r * cols..(r + 1) * cols];
                        let dot: f32 = yrow.iter().zip(grow).map(|(&y, &g)| y * g).sum();
                        for j in 0..cols {
                            g.data_mut()[r * cols + j] = yrow[j] * (grow[j] - dot);
                        }
                    }
                    self.accum(a, &g);
                }
                Op::Conv1d { input, weight, bias, pad } => {
                    self.conv1d_backward(i, input, weight, bias, pad, &gy);
                }
                Op::MaxPoolSegments(a, segments) => {
                    let arg = self.nodes[i].aux.clone();
                    let x_shape = self.nodes[a.0].value.shape().to_vec();
                    let l = x_shape[1];
                    let mut g = Tensor::zeros(&x_shape);
                    for (slot, &pos) in arg.iter().enumerate() {
                        let ch = slot / segments;
                        g.data_mut()[ch * l + pos as usize] += gy.data()[slot];
                    }
                    self.accum(a, &g);
                }
                Op::Concat(parts) => {
                    let mut offset = 0;
                    for p in parts {
                        let len = self.nodes[p.0].value.len();
                        if self.needs[p.0] {
                            let g = Tensor::from_vec(
                                self.nodes[p.0].value.shape(),
                                gy.data()[offset..offset + len].to_vec(),
                            );
                            self.accum(p, &g);
                        }
                        offset += len;
                    }
                }
                Op::Reshape(a) => {
                    let g = gy.clone().reshape(self.nodes[a.0].value.shape());
                    self.accum(a, &g);
                }
                Op::Slice(a, start, len) => {
                    let mut g = Tensor::zeros(self.nodes[a.0].value.shape());
                    g.data_mut()[start..start + len].copy_from_slice(gy.data());
                    self.accum(a, &g);
                }
                Op::SumAll(a) => {
                    let g = Tensor::full(self.nodes[a.0].value.shape(), gy.item());
                    self.accum(a, &g);
                }
                Op::MeanAll(a) => {
                    let n = self.nodes[a.0].value.len() as f32;
                    let g = Tensor::full(self.nodes[a.0].value.shape(), gy.item() / n);
                    self.accum(a, &g);
                }
                Op::Rows(table) => {
                    let indices = self.nodes[i].aux.clone();
                    let d = self.nodes[table.0].value.cols();
                    let mut g = Tensor::zeros(self.nodes[table.0].value.shape());
                    for (r, &idx) in indices.iter().enumerate() {
                        for j in 0..d {
                            g.data_mut()[idx as usize * d + j] += gy.data()[r * d + j];
                        }
                    }
                    self.accum(table, &g);
                }
                Op::MeanRows(a) => {
                    let shape = self.nodes[a.0].value.shape().to_vec();
                    let (n, d) = (shape[0], shape[1]);
                    let mut g = Tensor::zeros(&shape);
                    for r in 0..n {
                        for j in 0..d {
                            g.data_mut()[r * d + j] = gy.data()[j] / n as f32;
                        }
                    }
                    self.accum(a, &g);
                }
                Op::LayerNorm { x, gamma, beta } => {
                    self.layer_norm_backward(i, x, gamma, beta, &gy);
                }
                Op::L2Normalize(a) => {
                    let norm = self.nodes[i].cache[0];
                    if norm > 1e-12 {
                        let y = &self.nodes[i].value;
                        let dot: f32 = gy.data().iter().zip(y.data()).map(|(&g, &yv)| g * yv).sum();
                        let g = gy.zip_with(y, |g, yv| (g - yv * dot) / norm);
                        self.accum(a, &g);
                    } else {
                        self.accum(a, &gy);
                    }
                }
                Op::CrossEntropyRows(logits) => {
                    let targets = self.nodes[i].aux.clone();
                    let softmax = self.nodes[i].cache.clone();
                    let shape = self.nodes[logits.0].value.shape().to_vec();
                    let (n, c) = (self.nodes[logits.0].value.rows(), self.nodes[logits.0].value.cols());
                    let scale = gy.item() / n as f32;
                    let mut g = Tensor::zeros(&shape);
                    for r in 0..n {
                        for j in 0..c {
                            let mut v = softmax[r * c + j];
                            if j == targets[r] as usize {
                                v -= 1.0;
                            }
                            g.data_mut()[r * c + j] = v * scale;
                        }
                    }
                    self.accum(logits, &g);
                }
            }
        }
    }

    fn conv1d_backward(&mut self, _node: usize, input: Var, weight: Var, bias: Var, pad: usize, gy: &Tensor) {
        // The input-gradient pass is the single most expensive arm of the
        // backward sweep; when the conv input is a `constant` leaf (one-hot
        // character planes) `needs` lets us skip it entirely.
        let need_gx = self.needs[input.0];
        let need_gw = self.needs[weight.0];
        let x = self.nodes[input.0].value.clone();
        let w = self.nodes[weight.0].value.clone();
        let (gx, gw, gb) = conv1d_backward_masked(&x, &w, gy, pad, need_gx, need_gw);
        let gb = gb.reshape(self.nodes[bias.0].value.shape());
        if let Some(gx) = gx {
            self.accum(input, &gx);
        }
        if let Some(gw) = gw {
            self.accum(weight, &gw);
        }
        self.accum(bias, &gb);
    }

    fn layer_norm_backward(&mut self, node: usize, x: Var, gamma: Var, beta: Var, gy: &Tensor) {
        let cache = self.nodes[node].cache.clone();
        let xv = self.nodes[x.0].value.clone();
        let g = self.nodes[gamma.0].value.clone();
        let (n, d) = (xv.rows(), xv.cols());
        let mut gx = Tensor::zeros(xv.shape());
        let mut ggamma = Tensor::zeros(&[d]);
        let mut gbeta = Tensor::zeros(&[d]);
        let stride = 2 + d;
        for r in 0..n {
            let inv_std = cache[r * stride + 1];
            let xhat = &cache[r * stride + 2..r * stride + 2 + d];
            let gyrow = &gy.data()[r * d..(r + 1) * d];
            // dL/dxhat_j = gy_j * gamma_j
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            for j in 0..d {
                let dxh = gyrow[j] * g.data()[j];
                sum_dxhat += dxh;
                sum_dxhat_xhat += dxh * xhat[j];
                ggamma.data_mut()[j] += gyrow[j] * xhat[j];
                gbeta.data_mut()[j] += gyrow[j];
            }
            for j in 0..d {
                let dxh = gyrow[j] * g.data()[j];
                gx.data_mut()[r * d + j] =
                    inv_std / d as f32 * (d as f32 * dxh - sum_dxhat - xhat[j] * sum_dxhat_xhat);
            }
        }
        let ggamma = ggamma.reshape(self.nodes[gamma.0].value.shape());
        let gbeta = gbeta.reshape(self.nodes[beta.0].value.shape());
        self.accum(x, &gx);
        self.accum(gamma, &ggamma);
        self.accum(beta, &gbeta);
    }

    fn accum(&mut self, v: Var, g: &Tensor) {
        // Dead-branch pruning: `backward` rebuilds `needs` before the reverse
        // sweep, so a node whose subtree contains only `constant` leaves never
        // materializes a gradient.
        if !self.needs[v.0] {
            return;
        }
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.axpy(1.0, g),
            slot @ None => *slot = Some(g.clone()),
        }
    }
}

/// Numerically-stable in-place softmax of one row.
fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    for x in row.iter_mut() {
        *x /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central-difference gradient check for a scalar function of one leaf.
    fn check_grad(
        shape: &[usize],
        build: impl Fn(&mut Graph, Var) -> Var,
        seed: u64,
        tol: f32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x0 = Tensor::uniform(shape, -0.9, 0.9, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(x0.clone());
        let loss = build(&mut g, x);
        g.backward(loss);
        let analytic = g.grad(x).expect("no grad reached leaf").clone();

        let eps = 1e-3f32;
        for i in 0..x0.len() {
            let mut plus = x0.clone();
            plus.data_mut()[i] += eps;
            let mut minus = x0.clone();
            minus.data_mut()[i] -= eps;
            let f = |t: Tensor| {
                let mut g = Graph::new();
                let x = g.leaf(t);
                let loss = build(&mut g, x);
                g.value(loss).item()
            };
            let numeric = (f(plus) - f(minus)) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() < tol * (1.0 + numeric.abs()),
                "grad mismatch at {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_sum_of_relu() {
        check_grad(&[6], |g, x| {
            let r = g.relu(x);
            g.sum_all(r)
        }, 1, 1e-2);
    }

    #[test]
    fn grad_sigmoid_tanh_chain() {
        check_grad(&[5], |g, x| {
            let s = g.sigmoid(x);
            let t = g.tanh(s);
            g.sum_all(t)
        }, 2, 1e-2);
    }

    #[test]
    fn grad_matmul() {
        check_grad(&[3, 4], |g, x| {
            let mut rng = StdRng::seed_from_u64(99);
            let w = g.leaf(Tensor::uniform(&[4, 2], -1.0, 1.0, &mut rng));
            let y = g.matmul(x, w);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        }, 3, 1e-2);
    }

    #[test]
    fn grad_matmul_rhs() {
        // gradient with respect to the right operand
        check_grad(&[4, 2], |g, x| {
            let mut rng = StdRng::seed_from_u64(98);
            let a = g.leaf(Tensor::uniform(&[3, 4], -1.0, 1.0, &mut rng));
            let y = g.matmul(a, x);
            g.sum_all(y)
        }, 4, 1e-2);
    }

    #[test]
    fn a_weight_read_by_many_products_gets_the_per_product_gradients_bit_for_bit() {
        // the trainer's shape: one weight leaf, a row vector per mention,
        // and the weight also on the left of one product; every gradient
        // must be what a fresh transpose per product gives
        let mut rng = StdRng::seed_from_u64(12);
        let w0 = Tensor::uniform(&[9, 5], -1.0, 1.0, &mut rng);
        let xs: Vec<Tensor> = (0..4).map(|_| Tensor::uniform(&[1, 9], -1.0, 1.0, &mut rng)).collect();
        let r0 = Tensor::uniform(&[5, 9], -1.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let w = g.leaf(w0.clone());
        let x: Vec<Var> = xs.iter().map(|t| g.leaf(t.clone())).collect();
        let r = g.leaf(r0.clone());
        let mut total = None;
        for &xi in &x {
            let y = g.matmul(xi, w);
            let sq = g.mul(y, y);
            let l = g.sum_all(sq);
            total = Some(total.map_or(l, |acc| g.add(acc, l)));
        }
        let rw = g.matmul(r, w);
        let l = g.sum_all(rw);
        let root = g.add(total.expect("four mentions"), l);
        g.backward(root);

        // by hand, in the sweep's order: `r · w` was recorded last
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let ones = Tensor::full(&[5, 5], 1.0);
        let mut gw = r0.transpose().matmul(&ones);
        for (xi, &at) in xs.iter().zip(&x).rev() {
            let gy = xi.matmul(&w0).map(|v| v + v);
            assert_eq!(bits(g.grad(at).expect("x grad")), bits(&gy.matmul(&w0.transpose())));
            gw.axpy(1.0, &xi.transpose().matmul(&gy));
        }
        assert_eq!(bits(g.grad(w).expect("w grad")), bits(&gw));
        assert_eq!(bits(g.grad(r).expect("r grad")), bits(&ones.matmul(&w0.transpose())));
    }

    #[test]
    fn grad_conv1d_input() {
        check_grad(&[3, 7], |g, x| {
            let mut rng = StdRng::seed_from_u64(5);
            let w = g.leaf(Tensor::uniform(&[2, 3, 3], -1.0, 1.0, &mut rng));
            let b = g.leaf(Tensor::uniform(&[2], -0.1, 0.1, &mut rng));
            let y = g.conv1d(x, w, b, 1);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        }, 6, 1e-2);
    }

    #[test]
    fn grad_conv1d_weight() {
        check_grad(&[2, 3, 3], |g, w| {
            let mut rng = StdRng::seed_from_u64(7);
            let x = g.leaf(Tensor::uniform(&[3, 7], -1.0, 1.0, &mut rng));
            let b = g.leaf(Tensor::zeros(&[2]));
            let y = g.conv1d(x, w, b, 1);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        }, 8, 1e-2);
    }

    #[test]
    fn grad_conv1d_bias() {
        check_grad(&[2], |g, b| {
            let mut rng = StdRng::seed_from_u64(9);
            let x = g.leaf(Tensor::uniform(&[3, 5], -1.0, 1.0, &mut rng));
            let w = g.leaf(Tensor::uniform(&[2, 3, 3], -1.0, 1.0, &mut rng));
            let y = g.conv1d(x, w, b, 1);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        }, 10, 1e-2);
    }

    #[test]
    fn constant_leaves_skip_gradients_without_changing_param_grads() {
        // Build the same conv -> concat -> matmul network twice: once with the
        // data inputs as ordinary leaves, once as constants. Parameter
        // gradients must be bit-identical; constants must receive no gradient.
        let mut rng = StdRng::seed_from_u64(42);
        let x0 = Tensor::uniform(&[3, 7], -1.0, 1.0, &mut rng);
        let sem0 = Tensor::uniform(&[4], -1.0, 1.0, &mut rng);
        let w0 = Tensor::uniform(&[2, 3, 3], -1.0, 1.0, &mut rng);
        let b0 = Tensor::uniform(&[2], -0.1, 0.1, &mut rng);
        let m0 = Tensor::uniform(&[6, 3], -1.0, 1.0, &mut rng);

        let run = |as_constant: bool| {
            let mut g = Graph::new();
            let x = if as_constant { g.constant(x0.clone()) } else { g.leaf(x0.clone()) };
            let sem = if as_constant { g.constant(sem0.clone()) } else { g.leaf(sem0.clone()) };
            let w = g.leaf(w0.clone());
            let b = g.leaf(b0.clone());
            let m = g.leaf(m0.clone());
            let y = g.conv1d(x, w, b, 1);
            let pooled = g.max_pool_segments(y, 1);
            let cat = g.concat(&[pooled, sem]);
            let row = g.reshape(cat, &[1, 6]);
            let out = g.matmul(row, m);
            let sq = g.mul(out, out);
            let loss = g.sum_all(sq);
            g.backward(loss);
            let grads: Vec<Vec<f32>> = [w, b, m]
                .iter()
                .map(|&v| g.grad(v).expect("param grad missing").data().to_vec())
                .collect();
            let data_grads =
                (g.grad(x).is_some(), g.grad(sem).is_some());
            (grads, data_grads)
        };

        let (leaf_grads, leaf_has) = run(false);
        let (const_grads, const_has) = run(true);
        assert_eq!(leaf_has, (true, true), "leaf inputs should receive grads");
        assert_eq!(const_has, (false, false), "constants must receive no grad");
        for (a, b) in leaf_grads.iter().zip(&const_grads) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "param grads must be bit-identical");
            }
        }
    }

    #[test]
    fn grad_max_pool_time() {
        check_grad(&[3, 6], |g, x| {
            let y = g.max_pool_segments(x, 1);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        }, 11, 1e-2);
    }

    #[test]
    fn grad_softmax_rows() {
        check_grad(&[2, 4], |g, x| {
            let y = g.softmax_rows(x);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        }, 12, 1e-2);
    }

    #[test]
    fn grad_layer_norm() {
        check_grad(&[2, 5], |g, x| {
            let mut rng = StdRng::seed_from_u64(13);
            let gamma = g.leaf(Tensor::uniform(&[5], 0.5, 1.5, &mut rng));
            let beta = g.leaf(Tensor::uniform(&[5], -0.5, 0.5, &mut rng));
            let y = g.layer_norm(x, gamma, beta);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        }, 14, 2e-2);
    }

    #[test]
    fn grad_layer_norm_gamma() {
        check_grad(&[5], |g, gamma| {
            let mut rng = StdRng::seed_from_u64(15);
            let x = g.leaf(Tensor::uniform(&[2, 5], -1.0, 1.0, &mut rng));
            let beta = g.leaf(Tensor::zeros(&[5]));
            let y = g.layer_norm(x, gamma, beta);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        }, 16, 1e-2);
    }

    #[test]
    fn grad_cross_entropy() {
        check_grad(&[3, 4], |g, x| {
            g.cross_entropy_rows(x, &[0, 2, 1])
        }, 17, 1e-2);
    }

    #[test]
    fn grad_mean_rows() {
        check_grad(&[8], |g, x| {
            let m = g.reshape(x, &[2, 4]);
            let mean = g.mean_rows(m);
            let sq = g.mul(mean, mean);
            g.sum_all(sq)
        }, 18, 1e-2);
    }

    #[test]
    fn grad_rows_gather() {
        check_grad(&[4, 3], |g, table| {
            let picked = g.rows(table, &[1, 1, 3]);
            let sq = g.mul(picked, picked);
            g.sum_all(sq)
        }, 19, 1e-2);
    }

    #[test]
    fn grad_add_bias() {
        check_grad(&[3], |g, bias| {
            let mut rng = StdRng::seed_from_u64(20);
            let x = g.leaf(Tensor::uniform(&[2, 3], -1.0, 1.0, &mut rng));
            let y = g.add_bias(x, bias);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        }, 21, 1e-2);
    }

    #[test]
    fn grad_shared_variable_accumulates() {
        // f(x) = sum(x*x) -> df/dx = 2x even though x appears twice in Mul
        let mut g = Graph::new();
        let x = g.leaf(Tensor::vector(&[3.0, -2.0]));
        let sq = g.mul(x, x);
        let loss = g.sum_all(sq);
        g.backward(loss);
        let grad = g.grad(x).unwrap();
        assert_eq!(grad.data(), &[6.0, -4.0]);
    }

    #[test]
    fn grad_triplet_style_loss() {
        // relu(d(a,p) - d(a,n) + margin) built from primitive ops
        check_grad(&[4], |g, a| {
            let mut rng = StdRng::seed_from_u64(30);
            let p = g.leaf(Tensor::uniform(&[4], -1.0, 1.0, &mut rng));
            let n = g.leaf(Tensor::uniform(&[4], -1.0, 1.0, &mut rng));
            let dp = g.sub(a, p);
            let dp2 = g.mul(dp, dp);
            let dap = g.sum_all(dp2);
            let dn = g.sub(a, n);
            let dn2 = g.mul(dn, dn);
            let dan = g.sum_all(dn2);
            let diff = g.sub(dap, dan);
            let margined = g.add_scalar(diff, 0.3);
            g.relu(margined)
        }, 31, 1e-2);
    }

    #[test]
    fn conv1d_shape_same_padding() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[4, 10]));
        let w = g.leaf(Tensor::zeros(&[8, 4, 3]));
        let b = g.leaf(Tensor::zeros(&[8]));
        let y = g.conv1d(x, w, b, 1);
        assert_eq!(g.value(y).shape(), &[8, 10]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]));
        let y = g.softmax_rows(x);
        let v = g.value(y);
        for r in 0..2 {
            let s: f32 = v.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_small() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(&[1, 3], vec![20.0, 0.0, 0.0]));
        let loss = g.cross_entropy_rows(x, &[0]);
        assert!(g.value(loss).item() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "backward root must be scalar")]
    fn backward_rejects_non_scalar() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[3]));
        g.backward(x);
    }

    #[test]
    fn slice_and_concat_round_trip() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::vector(&[1.0, 2.0, 3.0, 4.0]));
        let a = g.slice(x, 0, 2);
        let b = g.slice(x, 2, 2);
        let back = g.concat(&[a, b]);
        assert_eq!(g.value(back).data(), &[1.0, 2.0, 3.0, 4.0]);
    }
}

#[cfg(test)]
mod l2_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn l2_normalize_unit_norm() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::vector(&[3.0, 4.0]));
        let y = g.l2_normalize(x);
        assert!((g.value(y).norm() - 1.0).abs() < 1e-6);
        assert!((g.value(y).data()[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_zero_vector_passes_through() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::vector(&[0.0, 0.0]));
        let y = g.l2_normalize(x);
        assert_eq!(g.value(y).data(), &[0.0, 0.0]);
    }

    #[test]
    fn l2_normalize_gradient_check() {
        let mut rng = StdRng::seed_from_u64(77);
        let x0 = Tensor::uniform(&[5], 0.2, 1.0, &mut rng);
        let build = |g: &mut Graph, x: Var| {
            let n = g.l2_normalize(x);
            let t = g.leaf(Tensor::vector(&[0.9, 0.1, -0.3, 0.2, 0.4]));
            let d = g.sub(n, t);
            let sq = g.mul(d, d);
            g.sum_all(sq)
        };
        let mut g = Graph::new();
        let x = g.leaf(x0.clone());
        let loss = build(&mut g, x);
        g.backward(loss);
        let analytic = g.grad(x).unwrap().clone();
        let eps = 1e-3f32;
        for i in 0..x0.len() {
            let mut plus = x0.clone();
            plus.data_mut()[i] += eps;
            let mut minus = x0.clone();
            minus.data_mut()[i] -= eps;
            let f = |t: Tensor| {
                let mut g = Graph::new();
                let x = g.leaf(t);
                let loss = build(&mut g, x);
                g.value(loss).item()
            };
            let numeric = (f(plus) - f(minus)) / (2.0 * eps);
            assert!(
                (analytic.data()[i] - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
                "grad mismatch at {i}: {} vs {numeric}",
                analytic.data()[i]
            );
        }
    }
}

#[cfg(test)]
mod segment_pool_tests {
    use super::*;

    #[test]
    fn segments_cover_chunks() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(&[1, 6], vec![1.0, 5.0, 2.0, 9.0, 0.0, 3.0]));
        let y = g.max_pool_segments(x, 2);
        assert_eq!(g.value(y).data(), &[5.0, 9.0]);
        let y3 = g.max_pool_segments(x, 3);
        assert_eq!(g.value(y3).data(), &[5.0, 9.0, 3.0]);
    }

    #[test]
    fn gradient_flows_to_argmax_only() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(&[1, 4], vec![1.0, 5.0, 2.0, 9.0]));
        let y = g.max_pool_segments(x, 2);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().data(), &[0.0, 1.0, 0.0, 1.0]);
    }
}
