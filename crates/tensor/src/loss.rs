//! Loss builders on top of the autograd graph.

use crate::graph::{Graph, Var};

/// Squared Euclidean distance between two same-shape embedding nodes.
pub(crate) fn sq_distance(g: &mut Graph, a: Var, b: Var) -> Var {
    let d = g.sub(a, b);
    let d2 = g.mul(d, d);
    g.sum_all(d2)
}

/// Triplet loss for one `(anchor, positive, negative)` sample:
/// `max(0, ‖f(a) − f(p)‖² − ‖f(a) − f(n)‖² + margin)` — Equation (3) of the
/// EmbLookup paper.
pub fn triplet(g: &mut Graph, anchor: Var, positive: Var, negative: Var, margin: f32) -> Var {
    let d_ap = sq_distance(g, anchor, positive);
    let d_an = sq_distance(g, anchor, negative);
    let diff = g.sub(d_ap, d_an);
    let shifted = g.add_scalar(diff, margin);
    g.relu(shifted)
}

/// Mean of a batch of scalar loss nodes.
///
/// # Panics
/// Panics on an empty batch.
pub fn batch_mean(g: &mut Graph, losses: &[Var]) -> Var {
    assert!(!losses.is_empty(), "batch_mean of zero losses");
    let cat = g.concat(losses);
    g.mean_all(cat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn triplet_zero_when_negative_is_far() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::vector(&[0.0, 0.0]));
        let p = g.leaf(Tensor::vector(&[0.1, 0.0]));
        let n = g.leaf(Tensor::vector(&[5.0, 5.0]));
        let l = triplet(&mut g, a, p, n, 0.5);
        assert_eq!(g.value(l).item(), 0.0);
    }

    #[test]
    fn triplet_positive_when_negative_is_close() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::vector(&[0.0, 0.0]));
        let p = g.leaf(Tensor::vector(&[1.0, 0.0]));
        let n = g.leaf(Tensor::vector(&[0.1, 0.0]));
        let l = triplet(&mut g, a, p, n, 0.5);
        // d_ap = 1.0, d_an = 0.01 -> loss = 1 - 0.01 + 0.5
        assert!((g.value(l).item() - 1.49).abs() < 1e-5);
    }

    #[test]
    fn triplet_respects_margin_boundary() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::vector(&[0.0]));
        let p = g.leaf(Tensor::vector(&[1.0])); // d_ap = 1
        let n = g.leaf(Tensor::vector(&[1.2247449])); // d_an = 1.5
        let l = triplet(&mut g, a, p, n, 0.5);
        // exactly at the margin: loss == 0
        assert!(g.value(l).item().abs() < 1e-4);
    }

    #[test]
    fn batch_mean_averages() {
        let mut g = Graph::new();
        let l1 = g.leaf(Tensor::scalar(1.0));
        let l2 = g.leaf(Tensor::scalar(3.0));
        let m = batch_mean(&mut g, &[l1, l2]);
        assert_eq!(g.value(m).item(), 2.0);
    }
}

/// Contrastive-style loss on a triplet (the paper's future work mentions
/// "evaluating other loss functions"): pulls the positive with `d(a,p)²`
/// and pushes the negative with `max(0, margin − d(a,n))²`, the classic
/// Hadsell-Chopra-LeCun form applied to both pairs of the triplet.
pub fn contrastive_triplet(
    g: &mut Graph,
    anchor: Var,
    positive: Var,
    negative: Var,
    margin: f32,
) -> Var {
    let d_ap = sq_distance(g, anchor, positive);
    // hinge on the *distance* (not squared): margin - d(a,n)
    let d_an = sq_distance(g, anchor, negative);
    // use sqrt-free surrogate: max(0, margin^2 - d(a,n)^2) keeps the op set
    // small and has the same zero set
    let neg_d = g.scale(d_an, -1.0);
    let hinge = g.add_scalar(neg_d, margin * margin);
    let pushed = g.relu(hinge);
    g.add(d_ap, pushed)
}

#[cfg(test)]
mod contrastive_tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn zero_when_positive_coincides_and_negative_is_far() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::vector(&[0.0, 0.0]));
        let p = g.leaf(Tensor::vector(&[0.0, 0.0]));
        let n = g.leaf(Tensor::vector(&[9.0, 9.0]));
        let l = contrastive_triplet(&mut g, a, p, n, 1.0);
        assert_eq!(g.value(l).item(), 0.0);
    }

    #[test]
    fn penalizes_close_negative_even_with_perfect_positive() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::vector(&[0.0]));
        let p = g.leaf(Tensor::vector(&[0.0]));
        let n = g.leaf(Tensor::vector(&[0.1]));
        let l = contrastive_triplet(&mut g, a, p, n, 1.0);
        // margin² - d² = 1 - 0.01
        assert!((g.value(l).item() - 0.99).abs() < 1e-5);
    }

    #[test]
    fn penalizes_distant_positive_unconditionally() {
        // unlike triplet loss, contrastive keeps pulling the positive even
        // when the negative is already far
        let mut g = Graph::new();
        let a = g.leaf(Tensor::vector(&[0.0]));
        let p = g.leaf(Tensor::vector(&[2.0]));
        let n = g.leaf(Tensor::vector(&[50.0]));
        let l = contrastive_triplet(&mut g, a, p, n, 1.0);
        assert!((g.value(l).item() - 4.0).abs() < 1e-4);
    }
}
