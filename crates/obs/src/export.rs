//! Renderings of a [`MetricsSnapshot`]: Prometheus text exposition and
//! an aligned human-readable table.

use crate::fmt::fmt_nanos;
use crate::registry::MetricsSnapshot;

/// Maps a dotted metric name to a Prometheus-legal identifier.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 10);
    out.push_str("emblookup_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

impl MetricsSnapshot {
    /// Prometheus text exposition format. Counters become `_total`
    /// counters, gauges become gauges, histograms become summaries with
    /// `quantile` labels — durations are exported in seconds, following
    /// the Prometheus convention.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE {p}_total counter\n{p}_total {value}\n"));
        }
        for (name, value) in &self.gauges {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE {p} gauge\n{p} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let p = prom_name(name);
            let secs = |ns: u64| ns as f64 / 1e9;
            out.push_str(&format!("# TYPE {p}_seconds summary\n"));
            if h.count == 0 {
                // Never-recorded histogram: an explicit zero count, but
                // no quantile/sum lines that would report 0 as an
                // observed value.
                out.push_str(&format!("{p}_seconds_count 0\n"));
                continue;
            }
            // Exemplars (OpenMetrics-style `# {trace_id="…"} value`
            // suffix): the p99 line points at the slowest traced
            // request, the p50 line at the most recent one.
            let quantiles = [
                (0.5, h.p50(), h.exemplar_last()),
                (0.9, h.p90(), None),
                (0.99, h.p99(), h.exemplar_max()),
            ];
            for (q, v, exemplar) in quantiles {
                out.push_str(&format!("{p}_seconds{{quantile=\"{q}\"}} {}", secs(v)));
                if let Some(ex) = exemplar {
                    out.push_str(&format!(
                        " # {{trace_id=\"{}\"}} {}",
                        crate::trace::format_trace_id(ex.trace_id),
                        secs(ex.value)
                    ));
                }
                out.push('\n');
            }
            out.push_str(&format!("{p}_seconds_sum {}\n", secs(h.sum)));
            out.push_str(&format!("{p}_seconds_count {}\n", h.count));
        }
        out
    }

    /// Aligned text table: histograms with percentiles first, then
    /// counters and gauges. The format the bench bins print.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "{:<38} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "histogram", "count", "p50", "p90", "p99", "max", "total"
            ));
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "{:<38} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                    name,
                    h.count,
                    fmt_nanos(h.p50()),
                    fmt_nanos(h.p90()),
                    fmt_nanos(h.p99()),
                    fmt_nanos(h.max()),
                    fmt_nanos(h.sum),
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("{:<38} {:>9}\n", "counter", "value"));
            for (name, value) in &self.counters {
                out.push_str(&format!("{:<38} {:>9}\n", name, value));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!("{:<38} {:>9}\n", "gauge", "value"));
            for (name, value) in &self.gauges {
                out.push_str(&format!("{:<38} {:>9.3}\n", name, value));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::names::Name;
    use crate::registry::MetricsRegistry;

    fn sample() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter(Name("lookup.queries")).add(150);
        reg.gauge(Name("index.entities")).set(600.0);
        let h = reg.histogram(Name("lookup.latency"));
        h.record(1_000);
        h.record(2_000);
        h.record(4_000);
        reg
    }

    #[test]
    fn prometheus_golden_output() {
        let text = sample().snapshot().to_prometheus();
        let expected_lines = [
            "# TYPE emblookup_lookup_queries_total counter",
            "emblookup_lookup_queries_total 150",
            "# TYPE emblookup_index_entities gauge",
            "emblookup_index_entities 600",
            "# TYPE emblookup_lookup_latency_seconds summary",
            "emblookup_lookup_latency_seconds_count 3",
        ];
        for line in expected_lines {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
        assert!(
            text.contains("emblookup_lookup_latency_seconds{quantile=\"0.5\"}"),
            "no quantile line:\n{text}"
        );
        // sum of 7µs exported in seconds
        assert!(text.contains("emblookup_lookup_latency_seconds_sum 0.000007"), "{text}");
    }

    #[test]
    fn table_lists_all_metrics() {
        let table = sample().snapshot().render_table();
        assert!(table.contains("lookup.latency"), "{table}");
        assert!(table.contains("lookup.queries"), "{table}");
        assert!(table.contains("index.entities"), "{table}");
        assert!(table.contains("p99"), "{table}");
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.snapshot().render_table(), "");
        assert_eq!(reg.snapshot().to_prometheus(), "");
    }

    #[test]
    fn empty_histogram_exports_count_zero_without_quantiles() {
        let reg = MetricsRegistry::new();
        let _ = reg.histogram(Name("lookup.latency"));
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("# TYPE emblookup_lookup_latency_seconds summary"), "{prom}");
        assert!(prom.contains("emblookup_lookup_latency_seconds_count 0"), "{prom}");
        assert!(!prom.contains("quantile"), "empty histogram leaked quantiles:\n{prom}");
    }

    #[test]
    fn exemplars_render_on_quantile_lines() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram(Name("lookup.latency"));
        h.record_with_exemplar(1_000, 0xAB);
        h.record_with_exemplar(9_000, 0xCD);
        let prom = reg.snapshot().to_prometheus();
        assert!(
            prom.contains("quantile=\"0.99\"}") && prom.contains("# {trace_id=\"00000000000000cd\"} 0.000009"),
            "p99 line must carry the max exemplar:\n{prom}"
        );
    }
}
