//! `serve_bench` — throughput/latency benchmark for the serving layer.
//!
//! Starts an in-process `caf-serve` on an ephemeral port, fires a
//! fixed number of concurrent HTTP clients at a single scenario, and
//! writes a one-line `caf-obs` run report to `BENCH_serve.json`
//! (validated by `metrics_check --schema-only` in CI):
//!
//! * `throughput_rps`, `p50_ms` / `p95_ms` / `p99_ms` over all
//!   requests (via `caf_stats::quantile`);
//! * `cold_ms` — wall time of the first, cache-missing request;
//! * `cache_hit_ratio` — warm fraction; the burst also sanity-checks
//!   the single-flight invariant (exactly one computation ran);
//! * `trace_overhead_pct` — warm p50 with the flight recorder attached
//!   vs. without, as a percentage (sub-noise differences clamp to 0);
//!   `metrics_check --gate 'meta.trace_overhead_pct <= 5.0'` gates it
//!   in CI.
//! * `snapshot_restore_ms` — restart-to-first-200 from a snapshot
//!   (fresh app + `--snapshot-dir`, byte-compared against the cold
//!   build).
//! * `restart_speedup` — `cold_ms / snapshot_restore_ms` as recorded,
//!   left out unless that restore time is positive; `metrics_check --gate
//!   'meta.restart_speedup >= 10.0'` gates it in CI.
//! * `disk_tier_hit_ratio` — fraction of cache misses that the disk
//!   LRU tier absorbed in an A/B/A eviction-promotion pass under a
//!   capacity-1 cache.
//!
//! `CAF_BENCH_DIR` overrides the output directory (CI points it at an
//! artifact dir so the committed baseline stays clean);
//! `CAF_BENCH_SERVE_QUICK=1` shrinks the run for smoke testing.

use caf_core::EngineConfig;
use caf_serve::{client, App, AppConfig, ServeConfig, Server};
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 0xCAF_2024;
const SCALE: u32 = 150;

/// Sequential warm requests against `path`, returning sorted per-request
/// latencies in milliseconds (the cache is already hot, so every request
/// measures the serve path, not the scenario build).
fn warm_latencies_ms(addr: std::net::SocketAddr, path: &str, n: usize) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        let (status, _body) = client::get(addr, path).expect("warm request");
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(status, 200);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    latencies
}

fn main() {
    let quick = std::env::var_os("CAF_BENCH_SERVE_QUICK").is_some();
    let clients: usize = if quick { 4 } else { 16 };
    let per_client: usize = if quick { 4 } else { 25 };

    caf_obs::set_enabled(true);
    let app = Arc::new(App::new(AppConfig {
        default_seed: SEED,
        default_scale: SCALE,
        engine: EngineConfig::auto(),
        ..AppConfig::default()
    }));
    let server = Server::start(
        ServeConfig {
            workers: clients,
            queue: clients * 2,
            ..ServeConfig::default()
        },
        Arc::clone(&app) as Arc<dyn caf_serve::Handler>,
    )
    .expect("bind ephemeral port");
    let addr = server.addr();
    let path = format!("/v1/table2?seed={SEED}&scale={SCALE}");

    // Cold request first: it pays the full scenario build.
    let cold_start = Instant::now();
    let (status, reference) = client::get(addr, &path).expect("cold request");
    let cold = cold_start.elapsed();
    assert_eq!(status, 200, "cold request failed");

    // Warm burst: `clients` threads, `per_client` sequential requests
    // each, all against the now-cached scenario.
    let burst_start = Instant::now();
    let reference = Arc::new(reference);
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let reference = Arc::clone(&reference);
            let path = path.clone();
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let start = Instant::now();
                    let (status, body) = client::get(addr, &path).expect("warm request");
                    latencies.push(start.elapsed().as_secs_f64() * 1e3);
                    assert_eq!(status, 200);
                    assert_eq!(body, *reference, "response bytes diverged");
                }
                latencies
            })
        })
        .collect();
    let mut latencies_ms: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = burst_start.elapsed();
    // Snapshot before the trace-overhead probe below adds extra hits.
    let stats = app.cache_stats();

    // Trace-overhead probe: warm p50 untraced (this server has no
    // recorder) vs. traced (same app, so the same hot cache, behind a
    // second listener with the flight recorder attached).
    let probes: usize = if quick { 20 } else { 200 };
    let plain = warm_latencies_ms(addr, &path, probes);
    server.shutdown();
    let traced_server = Server::start(
        ServeConfig {
            workers: clients,
            queue: clients * 2,
            trace_seed: SEED,
            recorder: Some(app.recorder()),
            ..ServeConfig::default()
        },
        Arc::clone(&app) as Arc<dyn caf_serve::Handler>,
    )
    .expect("bind traced listener");
    let traced = warm_latencies_ms(traced_server.addr(), &path, probes);
    traced_server.shutdown();
    // Snapshot phase: write a snapshot from a persistence-enabled app,
    // then measure restart-to-first-200 from it. The restored bytes
    // must equal the cold build's — a fast restart that serves wrong
    // bytes is not a restart.
    let snap_dir = std::env::temp_dir().join(format!("caf-bench-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);
    let persist_config = AppConfig {
        default_seed: SEED,
        default_scale: SCALE,
        engine: EngineConfig::auto(),
        snapshot_dir: Some(snap_dir.clone()),
        ..AppConfig::default()
    };
    {
        let writer = Server::start(
            ServeConfig::default(),
            Arc::new(App::new(persist_config.clone())) as Arc<dyn caf_serve::Handler>,
        )
        .expect("bind snapshot writer");
        let (status, _body) = client::get(writer.addr(), &path).expect("prime request");
        assert_eq!(status, 200);
        let (status, _body) = client::request(
            writer.addr(),
            "POST /v1/snapshot HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\
             Connection: close\r\n\r\n",
        )
        .expect("snapshot request");
        assert_eq!(status, 200, "snapshot write failed");
        writer.shutdown();
    }
    let restart_start = Instant::now();
    let restored = Arc::new(App::new(persist_config));
    let restored_server = Server::start(
        ServeConfig::default(),
        Arc::clone(&restored) as Arc<dyn caf_serve::Handler>,
    )
    .expect("bind restored listener");
    let (status, restored_body) = client::get(restored_server.addr(), &path).expect("restored");
    let snapshot_restore_ms = restart_start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(status, 200, "restored request failed");
    assert!(
        restored.snapshot_status().loaded,
        "restart did not restore the snapshot"
    );
    assert_eq!(
        restored_body, *reference,
        "snapshot-restored bytes diverged from the cold build"
    );
    restored_server.shutdown();
    let _ = std::fs::remove_dir_all(&snap_dir);

    // Disk-tier phase: a capacity-1 cache with the tier enabled.
    // Scenario A is computed, evicted by B (spilling to disk), then
    // requested again — the tier must promote it byte-identically.
    let tier_dir = std::env::temp_dir().join(format!("caf-bench-tier-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tier_dir);
    let tiered = Arc::new(App::new(AppConfig {
        default_seed: SEED,
        default_scale: SCALE,
        engine: EngineConfig::auto(),
        cache_capacity: 1,
        snapshot_dir: Some(tier_dir.clone()),
        ..AppConfig::default()
    }));
    let tier_server = Server::start(
        ServeConfig::default(),
        Arc::clone(&tiered) as Arc<dyn caf_serve::Handler>,
    )
    .expect("bind tiered listener");
    let tier_addr = tier_server.addr();
    let other = format!("/v1/table2?seed={SEED}&scale={}", SCALE + 1);
    let (status, tier_a1) = client::get(tier_addr, &path).expect("tier A");
    assert_eq!(status, 200);
    let (status, _b) = client::get(tier_addr, &other).expect("tier B");
    assert_eq!(status, 200);
    let (status, tier_a2) = client::get(tier_addr, &path).expect("tier A again");
    assert_eq!(status, 200);
    assert_eq!(tier_a1, tier_a2, "disk-tier promoted bytes diverged");
    let tier_stats = tiered.cache_stats();
    assert_eq!(
        (tier_stats.misses, tier_stats.disk_hits, tier_stats.spills),
        (2, 1, 2),
        "unexpected tier behavior: {tier_stats:?}"
    );
    let disk_tier_hit_ratio =
        tier_stats.disk_hits as f64 / (tier_stats.misses + tier_stats.disk_hits) as f64;
    tier_server.shutdown();
    let _ = std::fs::remove_dir_all(&tier_dir);

    let p50_plain = caf_stats::quantile(&plain, 0.50).expect("non-empty");
    let p50_traced = caf_stats::quantile(&traced, 0.50).expect("non-empty");
    // Differences under 50µs are scheduler noise on a localhost socket,
    // not tracing cost; clamp them (and any negative diff) to zero.
    let diff_ms = p50_traced - p50_plain;
    let trace_overhead_pct = if diff_ms <= 0.05 {
        0.0
    } else {
        diff_ms / p50_plain * 100.0
    };

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let quantile = |p: f64| caf_stats::quantile(&latencies_ms, p).expect("non-empty");
    let total = latencies_ms.len() as u64 + 1; // + the cold request
    let warm = stats.hits + stats.joins;
    assert_eq!(stats.misses, 1, "single-flight broken: {stats:?}");
    let hit_ratio = warm as f64 / total as f64;
    let throughput = latencies_ms.len() as f64 / wall.as_secs_f64();

    let mut meta = std::collections::BTreeMap::new();
    let mut put = |k: &str, v: String| {
        meta.insert(k.to_string(), v);
    };
    put("tool", "serve_bench".to_string());
    put("seed", SEED.to_string());
    put("scale", SCALE.to_string());
    put("workers", clients.to_string());
    put("clients", clients.to_string());
    put("requests_per_client", per_client.to_string());
    put("total_requests", total.to_string());
    let cold_ms = format!("{:.1}", cold.as_secs_f64() * 1e3);
    let restore_ms = format!("{snapshot_restore_ms:.1}");
    // The ratio of the two walls as recorded, at full precision, so the
    // restart gate reads exactly what the recorded values imply. Left out
    // unless the recorded restore time is positive, so that gate fails as
    // "missing" rather than on a meaningless ratio.
    let recorded = |ms: &str| ms.parse::<f64>().expect("a formatted wall parses");
    if recorded(&restore_ms) > 0.0 {
        let speedup = recorded(&cold_ms) / recorded(&restore_ms);
        put("restart_speedup", speedup.to_string());
    }
    put("cold_ms", cold_ms);
    put("wall_s", format!("{:.3}", wall.as_secs_f64()));
    put("throughput_rps", format!("{throughput:.1}"));
    put("p50_ms", format!("{:.2}", quantile(0.50)));
    put("p95_ms", format!("{:.2}", quantile(0.95)));
    put("p99_ms", format!("{:.2}", quantile(0.99)));
    put("cache_hit_ratio", format!("{hit_ratio:.3}"));
    put("trace_probe_requests", probes.to_string());
    put("trace_overhead_pct", format!("{trace_overhead_pct:.1}"));
    put("snapshot_restore_ms", restore_ms);
    put("disk_tier_hit_ratio", format!("{disk_tier_hit_ratio:.3}"));

    caf_bench::write_bench_report(
        "BENCH_serve.json",
        &caf_obs::RunReport::collect(meta),
        &format!(
            "{throughput:.0} req/s warm, p99 {:.2} ms, cold {:.0} ms, hit ratio {hit_ratio:.3}, \
             restore {snapshot_restore_ms:.1} ms, tier hit ratio {disk_tier_hit_ratio:.3}",
            quantile(0.99),
            cold.as_secs_f64() * 1e3,
        ),
    );
}
