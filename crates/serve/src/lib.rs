//! # emblookup-serve
//!
//! The hardened serving layer for EmbLookup: a zero-dependency
//! HTTP/1.1 server that keeps answering — degraded if it must — under
//! overload, deadline pressure, and injected faults.
//!
//! | Endpoint | Behaviour |
//! |---|---|
//! | `POST /lookup` | single-query lookup through the degradation ladder |
//! | `POST /lookup/bulk` | batched lookup, full fidelity or `504` |
//! | `GET /healthz` | liveness, answered inline |
//! | `GET /metrics` | Prometheus text exposition of the server's registry |
//! | `GET /debug/traces` | retained (tail-sampled) span trees + recent trace ids |
//! | `GET /debug/traces/chrome` | retained traces as Chrome `trace_event` JSON (Perfetto) |
//! | `GET /debug/traces/<id>` | one trace by 16-hex-digit id, retained or still in the ring |
//!
//! Five robustness mechanisms compose:
//!
//! * **Admission control** — a request runs on the connection thread
//!   that read it, after passing a gate: at most
//!   [`ServeConfig::workers`] compute at once, at most
//!   [`ServeConfig::queue_cap`] wait (the wait counts against the
//!   deadline), and the rest are shed with `429` + `Retry-After`
//!   instead of queueing without bound.
//! * **Deadlines** — every request carries a budget (header
//!   `x-emblookup-deadline-ms` or the config default), checked at stage
//!   boundaries; exhaustion yields `504` naming the stage.
//! * **Degradation ladder** — as budget shrinks (or the primary backend
//!   errors/poisons), the answer steps down: PQ/ANN → exact flat search
//!   on a capped set → q-gram string similarity. The rung is tagged in
//!   the response and counted in `serve.degraded.*`.
//! * **Scatter-gather sharding** — the full rung searches one sharded
//!   index at every [`ServeConfig::shards`]: the caller's own index as
//!   a single shard at `1`, the entity set hash-partitioned into `N`
//!   shards at startup above. It fans out over every live shard (each
//!   under a slice of the request's budget) and merges per-shard top-k
//!   deterministically. The fan-out goes to the compute pool only when
//!   a task would hold at least eight index searches (a bulk request);
//!   a single `/lookup`'s shard searches cost less than the two thread
//!   wake-ups a pool task does, and run on the request's own thread.
//!   Connections are HTTP/1.1 keep-alive behind one read buffer each:
//!   one connection serves many requests in order, and may pipeline
//!   them.
//! * **Circuit breakers** — a per-shard breaker ejects a shard after
//!   consecutive failures and lets one probe request try it back in
//!   (every answer that consulted the shards carries
//!   `x-emblookup-shards: k/N`, `k < N` when a subset answered); a
//!   whole-service overload pin sends sustained deadline-miss storms to
//!   the q-gram rung, tagged `x-emblookup-overload: pinned`. Both are
//!   counted in requests, not wall time, so a replayed fault plan walks
//!   them the same way at any pool width.
//!
//! A deterministic fault-injection harness ([`faults`]) drives all of
//! this in tests: scripted or seeded-random stage latency, backend
//! errors, poisoned scores, and in-search panics, replayable
//! bit-for-bit. Faults are configured only through [`ServeConfig`] and
//! default to off.
//!
//! ```no_run
//! use emblookup_core::{EmbLookup, EmbLookupConfig};
//! use emblookup_kg::{generate, SynthKgConfig};
//! use emblookup_serve::{Server, ServeConfig};
//!
//! let synth = generate(SynthKgConfig::small(42));
//! let service = EmbLookup::train_on(&synth.kg, EmbLookupConfig::fast(42));
//! let server = Server::start(service, &synth.kg, ServeConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod faults;
mod gate;
mod health;
mod http;
mod ladder;
mod server;
mod traces;

pub use emblookup_obs::json;
pub use faults::{FaultConfig, StageFaults};
pub use server::Server;

/// Server configuration. The default is safe for production use:
/// faults off, bounded queue, conservative deadline.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; `"127.0.0.1:0"` picks a free port.
    pub addr: String,
    /// Requests computing at once (each on its own connection thread);
    /// `0` means [`emblookup_pool::default_threads`].
    pub workers: usize,
    /// Requests waiting for a slot: one that finds this many already
    /// waiting is shed with `429`, so `0` sheds every `POST`.
    pub queue_cap: usize,
    /// Deadline budget when the client sends no
    /// `x-emblookup-deadline-ms` header, in milliseconds. A header is
    /// clamped to 10 000.
    pub default_deadline_ms: u64,
    /// Fault injection plan; `None` (the default) injects nothing.
    pub faults: Option<FaultConfig>,
    /// Slow-trace threshold in milliseconds; `0` (the default) adapts
    /// to twice the `serve.latency` p99, re-read every 64th request
    /// (nothing is slow before the 64th).
    pub slow_trace_ms: u64,
    /// Number of index shards the full rung scatter-gathers. At `1`
    /// (the default; `0` means the same) the index of the service passed
    /// to `Server::start` is the single shard. Above `1` the server
    /// re-embeds the graph at startup, hash-partitions it and builds
    /// every shard with the model config's `compression`; the passed
    /// service's own index is then dropped.
    pub shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_cap: 64,
            default_deadline_ms: 250,
            faults: None,
            slow_trace_ms: 0,
            shards: 1,
        }
    }
}
