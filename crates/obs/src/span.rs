//! RAII stage timers: `let _s = Span::enter("index.build");` records the
//! elapsed time into the global histogram of the same name when dropped.

use crate::hist::Histogram;
use crate::registry::global;
use std::sync::Arc;
use std::time::Instant;

/// A running stage timer. Dropping it records the duration.
#[must_use = "a Span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    start: Instant,
    hist: Arc<Histogram>,
}

impl Span {
    /// Starts a span recording into the global registry's histogram
    /// `name` on drop.
    pub fn enter(name: &str) -> Span {
        Span { hist: global().histogram(name), start: Instant::now() }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn span_records_into_named_histogram() {
        {
            let _s = Span::enter("test.span.one");
            std::thread::sleep(Duration::from_millis(2));
        }
        let snap = global().snapshot();
        let h = snap.histogram("test.span.one").expect("histogram registered");
        assert_eq!(h.count, 1);
        assert!(h.max() >= 2_000_000, "recorded {} ns", h.max());
    }

    #[test]
    fn nested_spans_record_independently() {
        {
            let _outer = Span::enter("test.span.outer");
            let _inner = Span::enter("test.span.inner");
        }
        let snap = global().snapshot();
        assert_eq!(snap.histogram("test.span.outer").unwrap().count, 1);
        assert_eq!(snap.histogram("test.span.inner").unwrap().count, 1);
    }
}
