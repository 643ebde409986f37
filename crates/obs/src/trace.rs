//! caf-trace — per-request traces and the flight recorder.
//!
//! A *trace* collects every span that closes while the trace is the
//! thread's current trace context, tagged with its offset from the
//! trace's start. Trace IDs are minted by the caller (the `caf-serve`
//! accept path) from a per-run seed plus an accept counter via
//! [`TraceId::derive`], so IDs are byte-stable across runs in tests.
//!
//! Propagation is explicit: the owner of a request calls
//! [`TraceCtx::enter`] to install the context in a thread-local slot,
//! captures [`current`] before handing work to a pool, and re-enters the
//! clone on each worker thread (`caf-exec` does this inside
//! `map_units_with`, its one executor loop).
//! Span recording ([`SpanGuard`](crate::span::SpanGuard) drop) then
//! files events into whichever trace is current on that thread.
//!
//! Completed traces land in a [`FlightRecorder`]: a fixed-capacity FIFO
//! ring of recent traces plus a *keep list* that always retains slow
//! requests (total over the threshold), errors (4xx) and 5xx (which
//! covers single-flight join timeouts — they surface as 503). Both sides
//! are bounded, eviction is oldest-first, and the whole structure is one
//! short-held mutex per finished request — nothing on the per-span path
//! beyond the thread-local lookup and a push under the trace's own lock.
//!
//! Tracing only ever *observes*: events are timings and labels, the
//! recorder is outside the artifact path, and the determinism contract
//! (byte-identical artifacts with tracing on or off) is pinned by
//! `crates/serve/tests/trace.rs`.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;

/// Hard cap on events buffered per trace; later events are counted in
/// `dropped_events` instead of growing the buffer without bound.
pub const MAX_TRACE_EVENTS: usize = 512;

/// A 64-bit per-request trace identifier, rendered as 16 lowercase hex
/// digits (the `X-Request-Id` header value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Derives the ID for the `seq`-th accepted request of a run seeded
    /// with `seed`. SplitMix64-style finalization: consecutive sequence
    /// numbers map to well-scattered IDs, and the mapping is a pure
    /// function of `(seed, seq)` so tests can predict IDs exactly.
    pub fn derive(seed: u64, seq: u64) -> TraceId {
        let mut z = seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        TraceId(z ^ (z >> 31))
    }

    /// The 16-hex-digit wire form.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One completed span inside a trace: its full `/`-joined path, offset
/// from the trace start, and duration (both microseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Full span path, e.g. `serve.route.v1.table2/cache.lookup`.
    pub path: String,
    /// Span open time as microseconds since the trace began.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

#[derive(Debug, Default)]
struct TraceState {
    events: Vec<TraceEvent>,
    annotations: Vec<(String, String)>,
    dropped_events: u64,
}

#[derive(Debug)]
struct TraceInner {
    id: TraceId,
    start: Instant,
    state: Mutex<TraceState>,
}

/// A live per-request trace context. Cheap to clone (`Arc`), `Send`, and
/// explicitly handed across thread boundaries: capture it with
/// [`current`] on the dispatching thread and [`TraceCtx::enter`] it on
/// each worker.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    inner: Arc<TraceInner>,
}

impl TraceCtx {
    /// Starts a new trace with the given ID; the clock starts now.
    pub fn new(id: TraceId) -> TraceCtx {
        TraceCtx {
            inner: Arc::new(TraceInner {
                id,
                start: Instant::now(),
                state: Mutex::new(TraceState::default()),
            }),
        }
    }

    /// This trace's ID.
    pub fn id(&self) -> TraceId {
        self.inner.id
    }

    /// Installs this trace as the current thread's trace context and
    /// returns a guard that restores the previous context on drop. The
    /// guard is `!Send` — it must drop on the thread that entered.
    pub fn enter(&self) -> TraceGuard {
        let prev = CURRENT.with(|slot| slot.borrow_mut().replace(self.clone()));
        TraceGuard {
            prev,
            restored: false,
            _not_send: PhantomData,
        }
    }

    /// Attaches (or appends) a `key`/`value` label. Rendering is
    /// last-writer-wins per key, so re-annotating refines earlier values
    /// (e.g. `cache: miss` after a provisional `cache: lookup`).
    pub fn annotate(&self, key: &str, value: &str) {
        let mut state = self.lock_state();
        state.annotations.push((key.to_string(), value.to_string()));
    }

    /// Microseconds elapsed since the trace began.
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.inner.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, TraceState> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn record_event(&self, path: &str, span_start: Instant, dur_ns: u64) {
        let start_us = u64::try_from(
            span_start
                .saturating_duration_since(self.inner.start)
                .as_micros(),
        )
        .unwrap_or(u64::MAX);
        let mut state = self.lock_state();
        if state.events.len() >= MAX_TRACE_EVENTS {
            state.dropped_events += 1;
            return;
        }
        state.events.push(TraceEvent {
            path: path.to_string(),
            start_us,
            dur_us: dur_ns / 1_000,
        });
    }
}

thread_local! {
    static CURRENT: RefCell<Option<TraceCtx>> = const { RefCell::new(None) };
}

/// The current thread's trace context, if a request is being traced.
/// Clone-captured here, then [`TraceCtx::enter`]ed on worker threads to
/// propagate the request identity across a dispatch boundary.
pub fn current() -> Option<TraceCtx> {
    CURRENT.with(|slot| slot.borrow().clone())
}

/// Annotates the current thread's trace, if any (see
/// [`TraceCtx::annotate`]). No-op when no trace is current.
pub fn annotate(key: &str, value: &str) {
    if let Some(ctx) = current() {
        ctx.annotate(key, value);
    }
}

/// Files a completed span into the current thread's trace, if any.
/// Called from `SpanGuard::drop`; spans therefore appear in event order
/// of *closing* (children before their parents).
pub(crate) fn record_span(path: &str, span_start: Instant, dur_ns: u64) {
    CURRENT.with(|slot| {
        if let Some(ctx) = slot.borrow().as_ref() {
            ctx.record_event(path, span_start, dur_ns);
        }
    });
}

/// Restores the previously-current trace context when dropped.
#[derive(Debug)]
pub struct TraceGuard {
    prev: Option<TraceCtx>,
    restored: bool,
    /// Thread-local slot semantics: dropping on another thread would
    /// clobber that thread's context.
    _not_send: PhantomData<*const ()>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if !self.restored {
            self.restored = true;
            let prev = self.prev.take();
            CURRENT.with(|slot| *slot.borrow_mut() = prev);
        }
    }
}

/// A finished trace as stored by the [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// The request's trace ID.
    pub id: TraceId,
    /// HTTP status of the response (0 when unknown).
    pub status: u16,
    /// End-to-end duration in microseconds — the root span's duration
    /// when present, otherwise wall time from trace start to finish.
    pub total_us: u64,
    /// All captured span events, in closing order.
    pub events: Vec<TraceEvent>,
    /// Last-writer-wins labels (`route`, `epoch`, `cache`, ...).
    pub annotations: BTreeMap<String, String>,
    /// Events discarded past [`MAX_TRACE_EVENTS`].
    pub dropped_events: u64,
    /// Why the keep list retained this trace (`slow`, `error`, `5xx`),
    /// or `None` if it only rode the recent ring.
    pub keep: Option<&'static str>,
}

#[derive(Debug, Default)]
struct RecorderState {
    recent: VecDeque<Arc<TraceRecord>>,
    keep: VecDeque<Arc<TraceRecord>>,
    finished: u64,
}

/// Bounded store of finished traces: a FIFO ring of the most recent
/// `capacity` traces plus an equally-bounded keep list for slow/error
/// traces. Shared behind an `Arc` between the server accept path and
/// the debug endpoint.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    slow_us: u64,
    state: Mutex<RecorderState>,
}

impl FlightRecorder {
    /// A recorder retaining up to `capacity` recent traces (and up to
    /// `capacity` kept traces) with a slow-request threshold of
    /// `slow_us` microseconds.
    pub fn new(capacity: usize, slow_us: u64) -> FlightRecorder {
        FlightRecorder {
            capacity,
            slow_us,
            state: Mutex::new(RecorderState::default()),
        }
    }

    /// Ring capacity (also the keep-list bound).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The slow-request threshold in microseconds.
    pub fn slow_us(&self) -> u64 {
        self.slow_us
    }

    /// Ingests a finished trace. `root_path` names the root span whose
    /// recorded duration becomes `total_us` (falling back to trace wall
    /// time when the root was never captured, e.g. telemetry off).
    pub fn finish(&self, ctx: &TraceCtx, status: u16, root_path: &str) {
        let fallback_total = ctx.elapsed_us();
        let (events, raw_annotations, dropped_events) = {
            let mut state = ctx.lock_state();
            (
                std::mem::take(&mut state.events),
                std::mem::take(&mut state.annotations),
                state.dropped_events,
            )
        };
        let total_us = events
            .iter()
            .find(|e| e.path == root_path)
            .map(|e| e.dur_us)
            .unwrap_or(fallback_total);
        let mut annotations = BTreeMap::new();
        for (k, v) in raw_annotations {
            annotations.insert(k, v);
        }
        let keep = if status >= 500 {
            Some("5xx")
        } else if status >= 400 {
            Some("error")
        } else if total_us >= self.slow_us {
            Some("slow")
        } else {
            None
        };
        let record = Arc::new(TraceRecord {
            id: ctx.id(),
            status,
            total_us,
            events,
            annotations,
            dropped_events,
            keep,
        });
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        state.finished += 1;
        if self.capacity == 0 {
            return;
        }
        if state.recent.len() >= self.capacity {
            state.recent.pop_front();
        }
        state.recent.push_back(Arc::clone(&record));
        if record.keep.is_some() {
            if state.keep.len() >= self.capacity {
                state.keep.pop_front();
            }
            state.keep.push_back(record);
        }
    }

    /// Total traces ever finished into this recorder.
    pub fn finished(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .finished
    }

    /// The recent ring, oldest first (test/introspection hook).
    pub fn recent(&self) -> Vec<Arc<TraceRecord>> {
        let state = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        state.recent.iter().cloned().collect()
    }

    /// The keep list, oldest first (test/introspection hook).
    pub fn kept(&self) -> Vec<Arc<TraceRecord>> {
        let state = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        state.keep.iter().cloned().collect()
    }

    /// Renders the recorder as canonical JSON (sorted keys throughout):
    /// the union of keep list and recent ring, de-duplicated by ID,
    /// optionally filtered by the `route` / `epoch` annotations, sorted
    /// by `total_us` descending (ties by ID) and truncated to `k`.
    pub fn debug_json(&self, route: Option<&str>, epoch: Option<&str>, k: usize) -> Json {
        let (recent, keep, finished) = {
            let state = self
                .state
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            (
                state.recent.iter().cloned().collect::<Vec<_>>(),
                state.keep.iter().cloned().collect::<Vec<_>>(),
                state.finished,
            )
        };
        let mut by_id: BTreeMap<u64, Arc<TraceRecord>> = BTreeMap::new();
        for record in keep.iter().chain(recent.iter()) {
            by_id.entry(record.id.0).or_insert_with(|| record.clone());
        }
        let mut traces: Vec<Arc<TraceRecord>> = by_id
            .into_values()
            .filter(|r| {
                let matches = |key: &str, want: Option<&str>| match want {
                    None => true,
                    Some(want) => r.annotations.get(key).is_some_and(|v| v == want),
                };
                matches("route", route) && matches("epoch", epoch)
            })
            .collect();
        traces.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.id.0.cmp(&b.id.0)));
        let matched = traces.len();
        traces.truncate(k);

        let trace_json = |r: &TraceRecord| -> Json {
            let mut ann = Vec::new();
            for (k, v) in &r.annotations {
                ann.push((k.clone(), Json::Str(v.clone())));
            }
            let events = r
                .events
                .iter()
                .map(|e| {
                    Json::Obj(vec![
                        ("dur_us".to_string(), Json::UInt(e.dur_us)),
                        ("path".to_string(), Json::Str(e.path.clone())),
                        ("start_us".to_string(), Json::UInt(e.start_us)),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("annotations".to_string(), Json::Obj(ann)),
                ("dropped_events".to_string(), Json::UInt(r.dropped_events)),
                ("events".to_string(), Json::Arr(events)),
                ("id".to_string(), Json::Str(r.id.to_hex())),
                (
                    "keep".to_string(),
                    match r.keep {
                        Some(reason) => Json::Str(reason.to_string()),
                        None => Json::Null,
                    },
                ),
                ("status".to_string(), Json::UInt(u64::from(r.status))),
                ("total_us".to_string(), Json::UInt(r.total_us)),
            ])
        };
        Json::Obj(vec![
            (
                "capacity".to_string(),
                Json::UInt(u64::try_from(self.capacity).unwrap_or(u64::MAX)),
            ),
            ("finished".to_string(), Json::UInt(finished)),
            (
                "matched".to_string(),
                Json::UInt(u64::try_from(matched).unwrap_or(u64::MAX)),
            ),
            ("slow_us".to_string(), Json::UInt(self.slow_us)),
            (
                "traces".to_string(),
                Json::Arr(traces.iter().map(|r| trace_json(r)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished_ctx(id: u64, status: u16, total_us: u64) -> (TraceCtx, u16) {
        let ctx = TraceCtx::new(TraceId(id));
        // Synthesize a root event so total_us is exact, not wall time.
        ctx.record_event("root", ctx.inner.start, total_us * 1_000);
        (ctx, status)
    }

    #[test]
    fn ids_are_deterministic_in_seed_and_seq() {
        let a = TraceId::derive(0xCAF_2024, 0);
        let b = TraceId::derive(0xCAF_2024, 0);
        let c = TraceId::derive(0xCAF_2024, 1);
        let d = TraceId::derive(0xCAF_2025, 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.to_hex().len(), 16);
        assert!(a.to_hex().chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn enter_restores_the_previous_context() {
        assert!(current().is_none());
        let outer = TraceCtx::new(TraceId(1));
        let inner = TraceCtx::new(TraceId(2));
        {
            let _g1 = outer.enter();
            assert_eq!(current().unwrap().id(), TraceId(1));
            {
                let _g2 = inner.enter();
                assert_eq!(current().unwrap().id(), TraceId(2));
            }
            assert_eq!(current().unwrap().id(), TraceId(1));
        }
        assert!(current().is_none());
    }

    #[test]
    fn spans_on_worker_threads_attach_via_explicit_handoff() {
        let _lock = crate::flag_lock();
        crate::set_enabled(true);
        let ctx = TraceCtx::new(TraceId::derive(7, 7));
        {
            let _g = ctx.enter();
            let handoff = current().expect("trace current on dispatch thread");
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let _g = handoff.enter();
                    let _span = crate::span("caf_obs_trace_test_worker");
                });
            });
            let _span = crate::span("caf_obs_trace_test_local");
        }
        crate::set_enabled(false);
        let state = ctx.lock_state();
        let paths: Vec<&str> = state.events.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"caf_obs_trace_test_worker"));
        assert!(paths.contains(&"caf_obs_trace_test_local"));
    }

    #[test]
    fn event_cap_counts_drops_instead_of_growing() {
        let ctx = TraceCtx::new(TraceId(3));
        for _ in 0..(MAX_TRACE_EVENTS + 5) {
            ctx.record_event("e", ctx.inner.start, 1_000);
        }
        let state = ctx.lock_state();
        assert_eq!(state.events.len(), MAX_TRACE_EVENTS);
        assert_eq!(state.dropped_events, 5);
    }

    #[test]
    fn ring_evicts_oldest_first_under_wraparound() {
        let recorder = FlightRecorder::new(4, u64::MAX);
        for id in 0..6u64 {
            let (ctx, status) = finished_ctx(id, 200, 10);
            recorder.finish(&ctx, status, "root");
        }
        let recent: Vec<u64> = recorder.recent().iter().map(|r| r.id.0).collect();
        assert_eq!(recent, vec![2, 3, 4, 5]);
        assert_eq!(recorder.finished(), 6);
        assert!(recorder.kept().is_empty());
    }

    #[test]
    fn keep_list_retains_slow_errors_and_5xx_past_the_ring() {
        let recorder = FlightRecorder::new(2, 500);
        let cases: Vec<(u64, u16, u64, Option<&str>)> = vec![
            (1, 200, 10, None),
            (2, 200, 900, Some("slow")),
            (3, 404, 10, Some("error")),
            (4, 503, 10, Some("5xx")),
            (5, 200, 10, None),
            (6, 200, 10, None),
        ];
        for &(id, status, total, _) in &cases {
            let (ctx, status) = finished_ctx(id, status, total);
            recorder.finish(&ctx, status, "root");
        }
        // Ring only holds the 2 newest; keep list still has 2..=4 (the
        // oldest kept would only fall off past `capacity` kept traces).
        let recent: Vec<u64> = recorder.recent().iter().map(|r| r.id.0).collect();
        assert_eq!(recent, vec![5, 6]);
        let kept: Vec<(u64, Option<&str>)> =
            recorder.kept().iter().map(|r| (r.id.0, r.keep)).collect();
        assert_eq!(kept, vec![(3, Some("error")), (4, Some("5xx"))]);
        // Capacity 2 keep list dropped the oldest kept trace (id 2).
        assert!(!kept.iter().any(|(id, _)| *id == 2));
    }

    #[test]
    fn debug_json_filters_sorts_and_truncates() {
        let recorder = FlightRecorder::new(8, u64::MAX);
        for (id, route, epoch, total) in [
            (1u64, "v1.table2", "0", 30u64),
            (2, "v1.table2", "1", 50),
            (3, "healthz", "0", 40),
        ] {
            let ctx = TraceCtx::new(TraceId(id));
            ctx.annotate("route", route);
            ctx.annotate("epoch", epoch);
            ctx.record_event("root", ctx.inner.start, total * 1_000);
            recorder.finish(&ctx, 200, "root");
        }
        let all = recorder.debug_json(None, None, 10).to_compact();
        // Sorted by total_us descending: 2 (50), 3 (40), 1 (30).
        let pos = |needle: &str| all.find(needle).expect(needle);
        assert!(pos(&TraceId(2).to_hex()) < pos(&TraceId(3).to_hex()));
        assert!(pos(&TraceId(3).to_hex()) < pos(&TraceId(1).to_hex()));

        let table2 = recorder
            .debug_json(Some("v1.table2"), None, 10)
            .to_compact();
        assert!(table2.contains(&TraceId(1).to_hex()));
        assert!(table2.contains(&TraceId(2).to_hex()));
        assert!(!table2.contains(&TraceId(3).to_hex()));

        let epoch0 = recorder
            .debug_json(Some("v1.table2"), Some("0"), 10)
            .to_compact();
        assert!(epoch0.contains(&TraceId(1).to_hex()));
        assert!(!epoch0.contains(&TraceId(2).to_hex()));
        assert!(epoch0.contains("\"matched\":1"));

        let top1 = recorder.debug_json(None, None, 1).to_compact();
        assert!(top1.contains(&TraceId(2).to_hex()));
        assert!(!top1.contains(&TraceId(1).to_hex()));
        assert!(top1.contains("\"matched\":3"));
    }

    #[test]
    fn debug_json_keys_are_sorted_and_parseable() {
        let recorder = FlightRecorder::new(2, 0);
        let ctx = TraceCtx::new(TraceId(9));
        ctx.annotate("route", "v1.q3");
        ctx.annotate("cache", "lookup");
        ctx.annotate("cache", "miss");
        ctx.record_event("root", ctx.inner.start, 2_000);
        recorder.finish(&ctx, 200, "root");
        let json = recorder.debug_json(None, None, 10);
        let compact = json.to_compact();
        // Last-writer-wins annotation rendering, sorted keys.
        assert!(compact.contains("\"annotations\":{\"cache\":\"miss\",\"route\":\"v1.q3\"}"));
        assert!(compact.contains("\"keep\":\"slow\""));
        let reparsed = crate::json::parse(&compact).expect("canonical JSON parses");
        assert_eq!(reparsed.to_compact(), compact);
        // Top-level key order is the sorted order.
        let keys = ["capacity", "finished", "matched", "slow_us", "traces"];
        let mut last = 0;
        for key in keys {
            let at = compact.find(&format!("\"{key}\"")).expect(key);
            assert!(at >= last, "key {key} out of sorted order");
            last = at;
        }
    }
}
