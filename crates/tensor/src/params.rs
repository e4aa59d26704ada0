//! Named parameter storage shared between layers and optimizers.
//!
//! Layers own [`ParamId`]s into a [`ParamStore`]; during a training step the
//! layer binds each parameter into the current [`crate::graph::Graph`]
//! as a leaf and records the binding in a [`Bindings`] list so the optimizer
//! can pull gradients back out after `backward`.

use crate::graph::{Graph, Var};
use crate::tensor::Tensor;

/// Handle to a parameter tensor inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// Owns every trainable tensor of a model, addressable by [`ParamId`].
#[derive(Default)]
pub struct ParamStore {
    params: Vec<Tensor>,
    names: Vec<String>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new parameter under `name` and returns its id.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.params.push(value);
        self.names.push(name.into());
        ParamId(self.params.len() - 1)
    }

    /// Borrows a parameter's current value.
    pub(crate) fn get(&self, id: ParamId) -> &Tensor {
        &self.params[id.0]
    }

    /// Mutably borrows a parameter's value (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0]
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameter is registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    #[cfg(test)]
    pub(crate) fn num_weights(&self) -> usize {
        self.params.iter().map(Tensor::len).sum()
    }

    /// Iterates over `(id, name, tensor)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.params
            .iter()
            .zip(self.names.iter())
            .enumerate()
            .map(|(i, (t, n))| (ParamId(i), n.as_str(), t))
    }

    /// Serializes all parameters to a flat byte buffer (shape-prefixed,
    /// little-endian f32). Names are not stored; loading requires a store
    /// with an identical registration order.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.params.len() as u64).to_le_bytes());
        for t in &self.params {
            out.extend_from_slice(&(t.shape().len() as u64).to_le_bytes());
            for &d in t.shape() {
                out.extend_from_slice(&(d as u64).to_le_bytes());
            }
            for &x in t.data() {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        out
    }

    /// Restores parameter values from [`ParamStore::to_bytes`] output.
    ///
    /// # Errors
    /// Returns a description of the first structural mismatch encountered
    /// (truncated buffer, wrong parameter count, or shape mismatch).
    pub fn load_bytes(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut cur = 0usize;
        let read_u64 = |cur: &mut usize| -> Result<u64, String> {
            let end = *cur + 8;
            let slice = bytes.get(*cur..end).ok_or("truncated buffer")?;
            *cur = end;
            Ok(u64::from_le_bytes(slice.try_into().map_err(|_| "truncated buffer")?))
        };
        let count = read_u64(&mut cur)? as usize;
        if count != self.params.len() {
            return Err(format!(
                "parameter count mismatch: stored {count}, expected {}",
                self.params.len()
            ));
        }
        for i in 0..count {
            let rank = read_u64(&mut cur)?;
            // the stored rank is a count nothing vouches for: compare it
            // before reserving for it
            if rank != self.params[i].shape().len() as u64 {
                return Err(format!(
                    "rank mismatch for parameter {i} ({}): stored {rank}, expected {}",
                    self.names[i],
                    self.params[i].shape().len()
                ));
            }
            let mut shape = Vec::with_capacity(self.params[i].shape().len());
            for _ in 0..rank {
                shape.push(read_u64(&mut cur)? as usize);
            }
            if shape != self.params[i].shape() {
                return Err(format!(
                    "shape mismatch for parameter {i} ({}): stored {:?}, expected {:?}",
                    self.names[i],
                    shape,
                    self.params[i].shape()
                ));
            }
            let n: usize = shape.iter().product();
            let mut data = Vec::with_capacity(n);
            for _ in 0..n {
                let end = cur + 4;
                let slice = bytes.get(cur..end).ok_or("truncated buffer")?;
                cur = end;
                data.push(f32::from_le_bytes(slice.try_into().map_err(|_| "truncated buffer")?));
            }
            self.params[i] = Tensor::from_vec(&shape, data);
        }
        Ok(())
    }
}

/// Records which graph leaf each bound parameter occupies for one step.
///
/// Binding is memoized: binding the same parameter twice (an LSTM cell
/// re-used across time steps, a layer shared across the three legs of a
/// triplet) returns the same leaf, so gradients from every use accumulate
/// on one node and the optimizer applies exactly one update per parameter.
#[derive(Default)]
pub struct Bindings {
    bound: Vec<(ParamId, Var)>,
    memo: std::collections::HashMap<usize, Var>,
}

impl Bindings {
    /// Creates an empty binding list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds parameter `id` into `graph` as a leaf and records the pairing.
    /// Re-binding an already-bound parameter returns its existing leaf.
    pub fn bind(&mut self, graph: &mut Graph, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&var) = self.memo.get(&id.0) {
            return var;
        }
        let var = graph.leaf(store.get(id).clone());
        self.bound.push((id, var));
        self.memo.insert(id.0, var);
        var
    }

    /// Iterates over recorded `(parameter, leaf)` pairs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ParamId, Var)> + '_ {
        self.bound.iter().copied()
    }

    /// Number of bound parameters.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.bound.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::zeros(&[2, 2]));
        assert_eq!(store.name(id), "w");
        assert_eq!(store.get(id).shape(), &[2, 2]);
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_weights(), 4);
    }

    #[test]
    fn serialization_round_trip() {
        let mut store = ParamStore::new();
        store.register("a", Tensor::vector(&[1.0, -2.5, 3.25]));
        store.register("b", Tensor::from_vec(&[2, 2], vec![0.5; 4]));
        let bytes = store.to_bytes();

        let mut fresh = ParamStore::new();
        let a = fresh.register("a", Tensor::zeros(&[3]));
        let b = fresh.register("b", Tensor::zeros(&[2, 2]));
        fresh.load_bytes(&bytes).unwrap();
        assert_eq!(fresh.get(a).data(), &[1.0, -2.5, 3.25]);
        assert_eq!(fresh.get(b).data(), &[0.5; 4]);
    }

    #[test]
    fn load_rejects_wrong_shape() {
        let mut store = ParamStore::new();
        store.register("a", Tensor::zeros(&[3]));
        let bytes = store.to_bytes();
        let mut fresh = ParamStore::new();
        fresh.register("a", Tensor::zeros(&[4]));
        let err = fresh.load_bytes(&bytes).unwrap_err();
        assert!(err.contains("shape mismatch"), "{err}");
    }

    #[test]
    fn load_rejects_truncated() {
        let mut store = ParamStore::new();
        store.register("a", Tensor::zeros(&[3]));
        let bytes = store.to_bytes();
        let mut fresh = ParamStore::new();
        fresh.register("a", Tensor::zeros(&[3]));
        assert!(fresh.load_bytes(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn bindings_record_pairs() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::vector(&[1.0, 2.0]));
        let mut graph = Graph::new();
        let mut bindings = Bindings::new();
        let var = bindings.bind(&mut graph, &store, id);
        assert_eq!(graph.value(var).data(), &[1.0, 2.0]);
        assert_eq!(bindings.iter().next(), Some((id, var)));
    }
}

#[cfg(test)]
mod memo_tests {
    use super::*;

    #[test]
    fn rebinding_returns_same_leaf() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::vector(&[1.0]));
        let mut graph = Graph::new();
        let mut bindings = Bindings::new();
        let v1 = bindings.bind(&mut graph, &store, id);
        let v2 = bindings.bind(&mut graph, &store, id);
        assert_eq!(v1, v2);
        assert_eq!(bindings.len(), 1);
        assert_eq!(graph.len(), 1);
    }

    #[test]
    fn shared_binding_accumulates_gradient() {
        // f(w) = sum(w) + sum(w) through two separate forward uses of the
        // same bound parameter -> df/dw = 2
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::vector(&[3.0]));
        let mut graph = Graph::new();
        let mut bindings = Bindings::new();
        let v1 = bindings.bind(&mut graph, &store, id);
        let v2 = bindings.bind(&mut graph, &store, id);
        let s1 = graph.sum_all(v1);
        let s2 = graph.sum_all(v2);
        let total = graph.add(s1, s2);
        graph.backward(total);
        let (pid, var) = bindings.iter().next().unwrap();
        assert_eq!(pid, id);
        assert_eq!(graph.grad(var).unwrap().data(), &[2.0]);
    }
}
