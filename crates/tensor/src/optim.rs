//! The Adam optimizer, operating on a [`ParamStore`] after a backward pass.

use crate::graph::Graph;
use crate::params::{Bindings, ParamId, ParamStore};
use crate::tensor::Tensor;

/// Gradients for a set of parameters, indexed by [`ParamId`] — the bridge
/// between micro-batch backward passes (each on its own graph, possibly
/// computed on the compute pool) and a single optimizer update. Merging
/// buffers in a fixed order makes the combined gradient independent of
/// which thread produced which micro-batch.
#[derive(Default)]
pub struct GradBuffer {
    grads: Vec<Option<Tensor>>,
}

impl GradBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        GradBuffer { grads: Vec::new() }
    }

    /// Collects every bound parameter's gradient from a finished graph.
    pub fn from_graph(graph: &Graph, bindings: &Bindings) -> Self {
        let mut buf = Self::new();
        for (id, var) in bindings.iter() {
            if let Some(g) = graph.grad(var) {
                buf.accumulate(id, g);
            }
        }
        buf
    }

    /// Adds `g` into the slot for `id` (element-wise), creating it on
    /// first touch.
    pub(crate) fn accumulate(&mut self, id: ParamId, g: &Tensor) {
        if self.grads.len() <= id.0 {
            self.grads.resize_with(id.0 + 1, || None);
        }
        match &mut self.grads[id.0] {
            Some(t) => t.axpy(1.0, g),
            slot => *slot = Some(g.clone()),
        }
    }

    /// The gradient accumulator of parameter `id`, a tensor of `shape`
    /// created at `+0.0` on first touch — for backward passes that add
    /// each contribution in place instead of handing over a tensor.
    /// Adding into `+0.0` is [`GradBuffer::accumulate`]'s copy for every
    /// contribution but `-0.0`.
    ///
    /// # Panics
    /// Panics if the slot exists with another shape.
    pub(crate) fn slot(&mut self, id: ParamId, shape: &[usize]) -> &mut [f32] {
        if self.grads.len() <= id.0 {
            self.grads.resize_with(id.0 + 1, || None);
        }
        let t = self.grads[id.0].get_or_insert_with(|| Tensor::zeros(shape));
        assert_eq!(t.shape(), shape, "gradient slot {} has shape {:?}, not {shape:?}", id.0, t.shape());
        t.data_mut()
    }

    /// Adds every gradient of `other` into `self`. Slots combine in
    /// ascending [`ParamId`] order, so folding micro-batch buffers in a
    /// fixed sequence yields a deterministic result.
    pub fn merge(&mut self, other: &GradBuffer) {
        for (i, g) in other.grads.iter().enumerate() {
            if let Some(g) = g {
                self.accumulate(ParamId(i), g);
            }
        }
    }

    /// Scales every stored gradient by `s` (e.g. `1 / batch_len` to turn
    /// summed micro-batch losses into a mean).
    pub fn scale(&mut self, s: f32) {
        for g in self.grads.iter_mut().flatten() {
            g.scale_mut(s);
        }
    }

    /// Iterates stored `(id, gradient)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.grads
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|g| (ParamId(i), g)))
    }
}

/// Exponential decay of Adam's first moment.
const BETA1: f32 = 0.9;
/// Exponential decay of Adam's second moment.
const BETA2: f32 = 0.999;
/// Adam's numerical stabilizer.
const EPS: f32 = 1e-8;
/// Every gradient tensor is clipped to this L2 norm before it reaches the
/// moments.
const CLIP_NORM: f32 = 5.0;

/// Adam optimizer (Kingma & Ba) with bias correction, matching the paper's
/// training setup ("we use the Adam optimizer"): β₁ = 0.9, β₂ = 0.999,
/// ε = 1e-8, each gradient tensor clipped to L2 norm 5.
pub struct Adam {
    /// Learning rate (paper-scale default `1e-3`).
    pub lr: f32,
    step: u64,
    moments: Vec<Option<(Tensor, Tensor)>>,
}

impl Adam {
    /// Adam at learning rate `lr`, before its first step.
    pub fn new(lr: f32) -> Self {
        Adam { lr, step: 0, moments: Vec::new() }
    }

    fn moment_slot(&mut self, id: ParamId, shape: &[usize]) -> &mut (Tensor, Tensor) {
        if self.moments.len() <= id.0 {
            self.moments.resize_with(id.0 + 1, || None);
        }
        self.moments[id.0]
            .get_or_insert_with(|| (Tensor::zeros(shape), Tensor::zeros(shape)))
    }

    /// Applies one update step from the gradients accumulated in `graph`
    /// for every parameter recorded in `bindings`.
    pub fn step(&mut self, store: &mut ParamStore, graph: &Graph, bindings: &Bindings) {
        let grads = GradBuffer::from_graph(graph, bindings);
        self.step_grads(store, &grads);
    }

    /// Applies one update step from pre-collected gradients — the entry
    /// point for micro-batch training, where several graphs' gradients
    /// are merged into one [`GradBuffer`] before a single update.
    pub fn step_grads(&mut self, store: &mut ParamStore, grads: &GradBuffer) {
        self.step += 1;
        let t = self.step as f32;
        let bc1 = 1.0 - BETA1.powf(t);
        let bc2 = 1.0 - BETA2.powf(t);
        let lr = self.lr;
        for (id, grad) in grads.iter() {
            let mut g = grad.clone();
            let n = g.norm();
            if n > CLIP_NORM {
                g.scale_mut(CLIP_NORM / n);
            }
            let (m, v) = self.moment_slot(id, g.shape());
            let param = store.get_mut(id);
            let pd = param.data_mut();
            for (i, p) in pd.iter_mut().enumerate() {
                let gi = g.data()[i];
                let mi = BETA1 * m.data()[i] + (1.0 - BETA1) * gi;
                let vi = BETA2 * v.data()[i] + (1.0 - BETA2) * gi * gi;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                *p -= lr * mhat / (vhat.sqrt() + EPS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Minimizes f(x) = sum((x - target)^2) and checks convergence.
    fn converges(optimizer: &mut Adam, iters: usize) -> f32 {
        let mut store = ParamStore::new();
        let x = store.register("x", Tensor::vector(&[5.0, -3.0, 0.5]));
        let target = Tensor::vector(&[1.0, 2.0, 3.0]);
        for _ in 0..iters {
            let mut graph = Graph::new();
            let mut bindings = Bindings::new();
            let xv = bindings.bind(&mut graph, &store, x);
            let t = graph.leaf(target.clone());
            let d = graph.sub(xv, t);
            let sq = graph.mul(d, d);
            let loss = graph.sum_all(sq);
            graph.backward(loss);
            optimizer.step(&mut store, &graph, &bindings);
        }
        store.get(x).sub(&target).norm()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.2);
        assert!(converges(&mut opt, 300) < 1e-2);
    }

    #[test]
    fn clipping_bounds_update() {
        let mut store = ParamStore::new();
        let x = store.register("x", Tensor::vector(&[512.0]));
        let mut graph = Graph::new();
        let mut bindings = Bindings::new();
        let xv = bindings.bind(&mut graph, &store, x);
        let sq = graph.mul(xv, xv);
        let loss = graph.sum_all(sq);
        graph.backward(loss);
        let mut opt = Adam::new(1.0);
        opt.step(&mut store, &graph, &bindings);
        // the gradient is 1024, clipped to norm 5 before the moments see it
        let (m, v) = opt.moments[x.0].as_ref().unwrap();
        assert_eq!(m.data(), &[(1.0 - BETA1) * CLIP_NORM]);
        assert_eq!(v.data(), &[(1.0 - BETA2) * CLIP_NORM * CLIP_NORM]);
    }

    #[test]
    fn step_grads_from_merged_microbatches_matches_single_graph() {
        // two half-batches summed then scaled must update exactly like
        // one graph whose loss already averaged the same terms
        let targets = [Tensor::vector(&[2.0, -1.0]), Tensor::vector(&[4.0, 3.0])];
        let run = |micro: bool| -> Vec<f32> {
            let mut store = ParamStore::new();
            let x = store.register("x", Tensor::vector(&[0.0, 0.0]));
            let mut opt = Adam::new(0.5);
            if micro {
                let mut total = GradBuffer::new();
                for target in &targets {
                    let mut graph = Graph::new();
                    let mut bindings = Bindings::new();
                    let xv = bindings.bind(&mut graph, &store, x);
                    let t = graph.leaf(target.clone());
                    let d = graph.sub(xv, t);
                    let sq = graph.mul(d, d);
                    let loss = graph.sum_all(sq);
                    graph.backward(loss);
                    total.merge(&GradBuffer::from_graph(&graph, &bindings));
                }
                total.scale(1.0 / targets.len() as f32);
                opt.step_grads(&mut store, &total);
            } else {
                let mut graph = Graph::new();
                let mut bindings = Bindings::new();
                let xv = bindings.bind(&mut graph, &store, x);
                let mut halves = Vec::new();
                for target in &targets {
                    let t = graph.leaf(target.clone());
                    let d = graph.sub(xv, t);
                    let sq = graph.mul(d, d);
                    halves.push(graph.sum_all(sq));
                }
                let sum = graph.add(halves[0], halves[1]);
                let half = graph.leaf(Tensor::scalar(0.5));
                let loss = graph.mul(sum, half);
                graph.backward(loss);
                opt.step(&mut store, &graph, &bindings);
            }
            store.get(x).data().to_vec()
        };
        let a = run(true);
        let b = run(false);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6, "micro {a:?} vs single {b:?}");
        }
    }

    #[test]
    fn adam_handles_missing_grad() {
        let mut store = ParamStore::new();
        let used = store.register("used", Tensor::vector(&[1.0]));
        let unused = store.register("unused", Tensor::vector(&[7.0]));
        let mut graph = Graph::new();
        let mut bindings = Bindings::new();
        let uv = bindings.bind(&mut graph, &store, used);
        let _nv = bindings.bind(&mut graph, &store, unused);
        let sq = graph.mul(uv, uv);
        let loss = graph.sum_all(sq);
        graph.backward(loss);
        let mut opt = Adam::new(0.1);
        opt.step(&mut store, &graph, &bindings);
        // untouched parameter keeps its value
        assert_eq!(store.get(unused).data(), &[7.0]);
        assert_ne!(store.get(used).data(), &[1.0]);
    }
}
