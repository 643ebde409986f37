//! # caf-serve — a cached, backpressured query-serving layer
//!
//! The audit pipeline in `caf-core` is batch-shaped: `repro` builds a
//! synthetic world, runs the campaign, and prints Table 2. This crate
//! puts the same pipeline behind a tiny std-only HTTP/1.1 server so a
//! reviewer (or the CI gate in `ci.sh`) can *query* scenarios instead
//! of re-running binaries:
//!
//! * `GET /healthz` — liveness probe.
//! * `GET /metrics` — a `caf-obs` [`RunReport`](caf_obs::RunReport)
//!   for the server process, gated in CI by `metrics_check --gate
//!   'slo.max_burn <= 0.5'` (the worst per-route SLO burn).
//! * `GET /v1/{serviceability,compliance,q3,table2}` — canonical
//!   artifact JSON, **byte-identical** to what
//!   `repro --artifacts DIR` writes for the same `(seed, scale)`
//!   scenario at any server worker count.
//! * `GET /quitquitquit` — graceful shutdown (the server is std-only
//!   and `forbid(unsafe_code)`, so there is no signal handler; see
//!   `DESIGN.md`).
//!
//! The heart is the [`cache::ScenarioCache`]: materialized scenario
//! bundles (world + audit dataset + analyses) keyed by the canonical
//! scenario parameters, with LRU eviction and **single-flight**
//! deduplication — N concurrent requests for the same uncached
//! scenario trigger exactly one computation; the other N−1 block on
//! the in-flight entry and share the result.
//!
//! Backpressure is explicit and bounded everywhere: a fixed worker
//! pool (sized via [`caf_exec::EngineConfig::share`]) drains a bounded
//! accept queue; when the queue is full the acceptor sheds load with
//! an immediate `503` instead of queueing unboundedly, and
//! single-flight joiners time out (also `503`) rather than waiting
//! forever on a stuck computation.
//!
//! Two persistence layers extend the cache beyond process lifetime and
//! RAM (both built on the `caf-snap` container format):
//!
//! * [`snapshot`] — versioned world snapshots on disk. With
//!   `--snapshot-dir`, the server writes a snapshot after each epoch
//!   advance and restores the newest compatible one at startup,
//!   serving its first byte-identical response in milliseconds instead
//!   of rebuilding the world.
//! * [`tier`] — a disk LRU tier under the in-memory cache. Evicted
//!   ready entries spill to disk keyed by scenario + epoch and are
//!   promoted back on the next request, so the working set can exceed
//!   the in-memory capacity without paying recomputation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod http;
pub mod scenario;
pub mod server;
pub mod snapshot;
pub mod tier;

pub use cache::{CacheOutcome, ScenarioCache};
pub use http::{Request, Response};
pub use scenario::{App, AppConfig};
pub use server::{Handler, ServeConfig, Server};
