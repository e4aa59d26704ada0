//! # emblookup-tensor
//!
//! Minimal deep-learning substrate for the EmbLookup reproduction: dense
//! `f32` tensors, a tape-based reverse-mode autograd, the layers EmbLookup's
//! models need (linear, conv1d, LSTM, transformer block, layer norm), Adam /
//! SGD optimizers and the triplet loss of the paper.
//!
//! The crate intentionally implements only the op set the paper's models
//! exercise — it replaces PyTorch for this reproduction, not in general.
//!
//! ## Example
//!
//! ```
//! use emblookup_tensor::{Graph, Tensor, loss};
//!
//! let mut g = Graph::new();
//! let anchor = g.leaf(Tensor::vector(&[0.0, 0.0]));
//! let positive = g.leaf(Tensor::vector(&[0.2, 0.0]));
//! let negative = g.leaf(Tensor::vector(&[0.9, 0.4]));
//! let l = loss::triplet(&mut g, anchor, positive, negative, 0.5);
//! g.backward(l);
//! assert!(g.grad(anchor).is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conv;
pub mod graph;
pub mod loss;
pub mod nn;
pub mod optim;
pub mod params;
pub mod tensor;

pub use graph::{Graph, Var};
pub use params::{Bindings, ParamId, ParamStore};
pub use tensor::Tensor;

// Property tests need the external `proptest` crate, unavailable in
// offline builds; enable with `--features proptest-tests` when vendored.
#[cfg(all(test, feature = "proptest-tests"))]
mod proptests {
    use crate::graph::Graph;
    use crate::tensor::Tensor;
    use proptest::prelude::*;

    fn tensor_1d(len: usize) -> impl Strategy<Value = Tensor> {
        proptest::collection::vec(-5.0f32..5.0, len).prop_map(move |v| Tensor::vector(&v))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn add_is_commutative(a in tensor_1d(6), b in tensor_1d(6)) {
            let mut g = Graph::new();
            let va = g.leaf(a);
            let vb = g.leaf(b);
            let ab = g.add(va, vb);
            let ba = g.add(vb, va);
            prop_assert_eq!(g.value(ab).data(), g.value(ba).data());
        }

        #[test]
        fn relu_is_idempotent(a in tensor_1d(8)) {
            let mut g = Graph::new();
            let v = g.leaf(a);
            let r1 = g.relu(v);
            let r2 = g.relu(r1);
            prop_assert_eq!(g.value(r1).data(), g.value(r2).data());
        }

        #[test]
        fn softmax_rows_are_distributions(data in proptest::collection::vec(-8.0f32..8.0, 12)) {
            let mut g = Graph::new();
            let v = g.leaf(Tensor::from_vec(&[3, 4], data));
            let sm = g.softmax_rows(v);
            for r in 0..3 {
                let row = g.value(sm).row(r);
                prop_assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x)));
                let s: f32 = row.iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-4);
            }
        }

        #[test]
        fn l2_normalize_gives_unit_norm(a in tensor_1d(5)) {
            prop_assume!(a.norm() > 1e-3);
            let mut g = Graph::new();
            let v = g.leaf(a);
            let n = g.l2_normalize(v);
            prop_assert!((g.value(n).norm() - 1.0).abs() < 1e-4);
        }

        #[test]
        fn matmul_distributes_over_add(
            a in proptest::collection::vec(-2.0f32..2.0, 6),
            b in proptest::collection::vec(-2.0f32..2.0, 6),
            w in proptest::collection::vec(-2.0f32..2.0, 6),
        ) {
            let mut g = Graph::new();
            let va = g.leaf(Tensor::from_vec(&[2, 3], a));
            let vb = g.leaf(Tensor::from_vec(&[2, 3], b));
            let vw = g.leaf(Tensor::from_vec(&[3, 2], w));
            let sum = g.add(va, vb);
            let lhs = g.matmul(sum, vw);
            let ma = g.matmul(va, vw);
            let mb = g.matmul(vb, vw);
            let rhs = g.add(ma, mb);
            for (x, y) in g.value(lhs).data().iter().zip(g.value(rhs).data()) {
                prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
            }
        }

        #[test]
        fn triplet_loss_is_nonnegative(
            a in tensor_1d(4), p in tensor_1d(4), n in tensor_1d(4), margin in 0.0f32..2.0,
        ) {
            let mut g = Graph::new();
            let va = g.leaf(a);
            let vp = g.leaf(p);
            let vn = g.leaf(n);
            let l = crate::loss::triplet(&mut g, va, vp, vn, margin);
            prop_assert!(g.value(l).item() >= 0.0);
        }

        #[test]
        fn backward_never_produces_nan(
            data in proptest::collection::vec(-3.0f32..3.0, 10),
        ) {
            let mut g = Graph::new();
            let x = g.leaf(Tensor::vector(&data));
            let s = g.sigmoid(x);
            let t = g.tanh(s);
            let sq = g.mul(t, t);
            let loss = g.mean_all(sq);
            g.backward(loss);
            prop_assert!(g.grad(x).unwrap().all_finite());
        }
    }
}
