//! Per-backend search counters, recorded into the global obs registry.
//!
//! Handles are resolved once per process through `OnceLock`, so the hot
//! search paths only ever touch a relaxed atomic — never the registry
//! lock. Counters follow the `ann.<backend>.<what>` naming scheme:
//! `searches` counts queries, `visited_nodes` counts how many stored
//! vectors/codes a query actually examined (the work metric behind the
//! flat-vs-ANN comparisons).

use emblookup_obs::names;
use emblookup_obs::{global, Counter};
use std::sync::{Arc, OnceLock};

macro_rules! static_counter {
    ($(#[$doc:meta])* $name:ident, $metric:expr) => {
        $(#[$doc])*
        pub(crate) fn $name() -> &'static Counter {
            static C: OnceLock<Arc<Counter>> = OnceLock::new();
            C.get_or_init(|| global().counter($metric))
        }
    };
}

static_counter!(flat_searches, names::ANN_FLAT_SEARCHES);
static_counter!(flat_visited, names::ANN_FLAT_VISITED);
static_counter!(hnsw_searches, names::ANN_HNSW_SEARCHES);
static_counter!(hnsw_visited, names::ANN_HNSW_VISITED);
static_counter!(ivf_searches, names::ANN_IVF_SEARCHES);
static_counter!(ivf_visited, names::ANN_IVF_VISITED);
static_counter!(pq_searches, names::ANN_PQ_SEARCHES);
static_counter!(pq_visited, names::ANN_PQ_VISITED);
static_counter!(hnswpq_searches, names::ANN_HNSWPQ_SEARCHES);
static_counter!(hnswpq_visited, names::ANN_HNSWPQ_VISITED);
