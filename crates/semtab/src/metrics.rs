//! Evaluation metrics: precision, recall and the F-score the paper reports.

/// Precision/recall/F1 over a set of predictions against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PrF {
    /// Correct predictions.
    pub correct: usize,
    /// Total predictions made.
    pub predicted: usize,
    /// Total ground-truth items.
    pub truth: usize,
}

impl PrF {
    /// Records one prediction outcome. `predicted = false` models an
    /// abstention (no candidate found).
    pub fn record(&mut self, predicted: bool, correct: bool) {
        self.truth += 1;
        if predicted {
            self.predicted += 1;
            if correct {
                self.correct += 1;
            }
        }
    }

    /// Precision (1.0 when nothing was predicted).
    pub fn precision(&self) -> f64 {
        if self.predicted == 0 {
            return 1.0;
        }
        self.correct as f64 / self.predicted as f64
    }

    /// Recall (1.0 when there is no ground truth).
    pub fn recall(&self) -> f64 {
        if self.truth == 0 {
            return 1.0;
        }
        self.correct as f64 / self.truth as f64
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        // lint: allow(L007) p and r are ratios in [0, 1]; exact zero is the only divide-by-zero guard needed
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let mut m = PrF::default();
        for _ in 0..10 {
            m.record(true, true);
        }
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.f1(), 1.0);
    }

    #[test]
    fn abstentions_hurt_recall_not_precision() {
        let mut m = PrF::default();
        m.record(true, true);
        m.record(false, false);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 0.5);
        assert!((m.f1() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn wrong_predictions_hurt_both() {
        let mut m = PrF::default();
        m.record(true, true);
        m.record(true, false);
        assert_eq!(m.precision(), 0.5);
        assert_eq!(m.recall(), 0.5);
        assert_eq!(m.f1(), 0.5);
    }

    #[test]
    fn empty_tally_is_safe() {
        let m = PrF::default();
        assert_eq!(m.f1(), 1.0); // vacuous truth
    }
}
