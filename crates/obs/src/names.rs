//! The single registry of metric and span names used across the
//! workspace.
//!
//! Every counter/gauge/histogram/span name that production code emits is
//! declared here once, as a [`Name`]. The registration calls
//! ([`MetricsRegistry::counter`](crate::MetricsRegistry::counter),
//! [`Span::enter`](crate::Span::enter),
//! [`TraceSpan::child`](crate::TraceSpan::child), …) take a `Name`, and
//! only this crate can build one, so a dashboard watching
//! `lookup.latency` can't silently drift from the code emitting it.
//!
//! Dynamically scoped families (`lookup.latency.<scope>`) go through
//! [`MetricsRegistry::histogram_scoped`](crate::MetricsRegistry::histogram_scoped),
//! so the prefix still comes from this module.

/// A registered metric or span name.
///
/// The field is private to `emblookup-obs`, so the constants below are
/// the only `Name`s a caller can pass; a string literal does not
/// compile:
///
/// ```compile_fail
/// emblookup_obs::global().counter("x");
/// ```
///
/// ```compile_fail
/// let _ = emblookup_obs::names::Name("x");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name(pub(crate) &'static str);

impl Name {
    /// The dotted metric name, for reading a snapshot by name.
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

macro_rules! names {
    ($($(#[$doc:meta])* $ident:ident => $value:literal),* $(,)?) => {
        $($(#[$doc])* pub const $ident: Name = Name($value);)*

        /// Every registered name, in declaration order.
        pub const ALL: &[Name] = &[$($ident),*];
    };
}

names! {
    /// Span/histogram timing the full train→index pipeline.
    TRAIN_TOTAL => "train.total",
    /// Span/histogram timing fastText pre-training.
    TRAIN_FASTTEXT => "train.fasttext",
    /// Span/histogram timing triplet mining.
    TRAIN_MINING => "train.mining",
    /// Span/histogram timing the two-phase triplet training loop.
    TRAIN_TRIPLET => "train.triplet",
    /// Histogram of one micro-batch's encoder forward passes (one sample
    /// per micro-batch).
    TRAIN_TRIPLET_ENCODE => "train.triplet.encode",
    /// Histogram of one micro-batch's loss tape and encoder backward
    /// passes (one sample per micro-batch).
    TRAIN_TRIPLET_BACKPROP => "train.triplet.backprop",
    /// Histogram of per-epoch wall time.
    TRAIN_EPOCH_DURATION => "train.epoch.duration",
    /// Counter of completed training epochs.
    TRAIN_EPOCHS => "train.epochs",
    /// Counter of mined triplets.
    MINING_TRIPLETS => "mining.triplets",
    /// Span/histogram timing an entity-index build.
    INDEX_BUILD => "index.build",
    /// Span/histogram timing the label-embedding pass of an index build.
    INDEX_BUILD_EMBED => "index.build.embed",
    /// Span/histogram timing an HNSW graph construction.
    INDEX_BUILD_GRAPH => "index.build.graph",
    /// Span/histogram timing quantizer training (PQ codebooks, IVF
    /// coarse centroids).
    INDEX_BUILD_QUANTIZER => "index.build.quantizer",
    /// Span/histogram timing the PQ encoding of every indexed row.
    INDEX_BUILD_ENCODE => "index.build.encode",
    /// Gauge: entities in the current index.
    INDEX_ENTITIES => "index.entities",
    /// Gauge: approximate index size in bytes.
    INDEX_NBYTES => "index.nbytes",
    /// Histogram of single-query lookup latency (embed + ANN search).
    LOOKUP_LATENCY => "lookup.latency",
    /// Histogram of whole-batch bulk lookup wall time.
    LOOKUP_BULK => "lookup.bulk",
    /// Counter of queries served through the bulk path.
    LOOKUP_BULK_QUERIES => "lookup.bulk.queries",
    /// Histogram of per-query latency attributed inside a bulk batch
    /// (batch wall time divided across its queries).
    LOOKUP_LATENCY_BULK => "lookup.latency.bulk",
    /// Counter of flat-scan searches.
    ANN_FLAT_SEARCHES => "ann.flat.searches",
    /// Counter of vectors visited by flat scans.
    ANN_FLAT_VISITED => "ann.flat.visited_nodes",
    /// Counter of HNSW searches.
    ANN_HNSW_SEARCHES => "ann.hnsw.searches",
    /// Counter of graph nodes visited by HNSW searches.
    ANN_HNSW_VISITED => "ann.hnsw.visited_nodes",
    /// Counter of IVF searches.
    ANN_IVF_SEARCHES => "ann.ivf.searches",
    /// Counter of vectors visited by IVF searches.
    ANN_IVF_VISITED => "ann.ivf.visited_nodes",
    /// Counter of PQ searches.
    ANN_PQ_SEARCHES => "ann.pq.searches",
    /// Counter of codes visited by PQ searches.
    ANN_PQ_VISITED => "ann.pq.visited_nodes",
    /// Counter of PQ-fused HNSW searches.
    ANN_HNSWPQ_SEARCHES => "ann.hnswpq.searches",
    /// Counter of graph nodes visited by PQ-fused HNSW searches.
    ANN_HNSWPQ_VISITED => "ann.hnswpq.visited_nodes",
    /// Counter of HTTP requests received by the serving layer.
    SERVE_REQUESTS => "serve.requests",
    /// Counter of lookup requests admitted past admission control.
    SERVE_ADMITTED => "serve.admitted",
    /// Counter of lookup requests shed with `429` by the bounded injector.
    SERVE_SHED => "serve.shed",
    /// Gauge: lookup requests waiting in the serving pool's injector.
    SERVE_QUEUE_DEPTH => "serve.queue.depth",
    /// Histogram of served request wall time (admission to response).
    SERVE_LATENCY => "serve.latency",
    /// Counter of requests answered `500` (contained per-request failure).
    SERVE_ERRORS => "serve.errors",
    /// Counter of requests answered `504` (deadline exhausted).
    SERVE_DEADLINE_EXCEEDED => "serve.deadline.exceeded",
    /// Counter of lookups served by the exact capped flat rung of the
    /// degradation ladder.
    SERVE_DEGRADED_FLAT => "serve.degraded.flat",
    /// Counter of lookups served by the q-gram string-similarity rung of
    /// the degradation ladder.
    SERVE_DEGRADED_QGRAM => "serve.degraded.qgram",
    /// Counter of per-request panics contained by the serving layer.
    SERVE_PANICS => "serve.panics",
    /// Counter of TCP connections accepted by the serving layer.
    SERVE_CONNECTIONS => "serve.connections",
    /// Gauge: index shards currently admitted to scatter-gather (breaker
    /// not open).
    SERVE_SHARDS_LIVE => "serve.shards.live",
    /// Counter of responses assembled from a strict subset of shards.
    SERVE_PARTIAL => "serve.partial",
    /// Counter of per-shard circuit-breaker open transitions (including
    /// re-opens after a failed half-open probe).
    SERVE_BREAKER_OPENED => "serve.breaker.opened",
    /// Counter of half-open probe attempts sent to an ejected shard.
    SERVE_BREAKER_PROBES => "serve.breaker.probes",
    /// Counter of shards re-admitted after a successful half-open probe.
    SERVE_BREAKER_READMITTED => "serve.breaker.readmitted",
    /// Counter of lookups pinned to the string rung by the whole-service
    /// overload breaker.
    SERVE_OVERLOAD_PINNED => "serve.overload.pinned",
    /// Counter of tasks executed by the compute pool.
    POOL_TASKS => "pool.tasks",
    /// Gauge: tasks currently queued in the compute pool.
    POOL_QUEUE_DEPTH => "pool.queue.depth",
    /// Trace span: root of one served HTTP request.
    SPAN_SERVE_REQUEST => "serve.request",
    /// Trace span: root of one traced library-level lookup.
    SPAN_LOOKUP_REQUEST => "lookup.request",
    /// Trace span: admission / budget stage of a request.
    SPAN_STAGE_ADMIT => "stage.admit",
    /// Trace span: request-body decode stage.
    SPAN_STAGE_DECODE => "stage.decode",
    /// Trace span: query-embedding encode stage.
    SPAN_STAGE_ENCODE => "stage.encode",
    /// Trace span: ANN / fallback search stage.
    SPAN_STAGE_SEARCH => "stage.search",
    /// Trace span: result ranking + response assembly stage.
    SPAN_STAGE_RANK => "stage.rank",
    /// Trace span: one shard's slice of a scatter-gather search.
    SPAN_STAGE_SHARD => "stage.shard",
    /// Counter of traces stored in the flight recorder.
    TRACE_RECORDED => "trace.recorded",
    /// Counter of traces promoted to the tail-sampled retained buffer.
    TRACE_RETAINED => "trace.retained",
    /// Counter of traces dropped to flight-recorder slot contention.
    TRACE_DROPPED => "trace.dropped",
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique() {
        let mut values = HashSet::new();
        for name in ALL {
            assert!(values.insert(name.as_str()), "duplicate metric name {name:?}");
        }
    }

    #[test]
    fn names_are_dotted_lowercase() {
        for name in ALL {
            let value = name.as_str();
            assert!(
                value
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "bad metric name {value}"
            );
            assert!(!value.starts_with('.') && !value.ends_with('.'));
        }
    }
}
