//! Checkpointed, resumable campaigns.
//!
//! The BQT+ line of work (PAPERS.md) is explicit that plan-collection
//! campaigns die mid-flight — proxy bans, container evictions, site
//! changes — and must resume without re-querying completed addresses.
//! This module gives [`Campaign`] that property on top of the `caf-snap`
//! container format: a checkpoint is a snapshot holding the **completed
//! task spans** (with their records), a partial-stats integrity section,
//! and a META section pinning everything the records depend on. RNG
//! stream positions are *implicit*: every query's randomness is keyed by
//! `(seed, address, ISP)`, so "where the RNG was" is fully determined by
//! which tasks are done — the META section records the stream-keying
//! version so a future keying change invalidates old checkpoints instead
//! of silently diverging.
//!
//! Resume is byte-exact: a killed campaign reloaded from its checkpoint
//! runs only the missing task runs (via [`UnitPlan::build_subset`]) and
//! produces a [`CampaignResult`] equal — records, replayed proxy
//! telemetry, and stats — to an uninterrupted run of the same config.
//!
//! A checkpoint that does not match the campaign (different tasks,
//! retry budget, pool size, or format/stream version) or fails its
//! integrity check is treated as absent: the campaign starts fresh and
//! overwrites it. Only real I/O failures surface as errors.

use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use caf_exec::{CostHint, UnitPlan};
use caf_snap::{content_hash64, write_atomic, Snap, Snapshot, SnapshotBuilder, Writer};
use caf_synth::TruthTable;

use crate::campaign::{Campaign, CampaignConfig, CampaignResult, QueryTask};
use crate::outcome::QueryRecord;

/// Checkpoint format version; bump on any layout change.
const FORMAT_VERSION: u32 = 1;
/// Version of the keyed-RNG stream model the records were drawn under.
/// Queries derive their stream from `(seed, "bqt-query", address, ISP)`;
/// if that keying or the stream generator ever changes, bump this so
/// stale checkpoints are discarded rather than mixed with records from
/// the new streams. Version 2 is the `caf_exec::rng::Stream` generator.
const RNG_STREAM_VERSION: u32 = 2;

/// Section tags inside the checkpoint snapshot.
const SEC_META: u32 = 1;
const SEC_SPANS: u32 = 2;
const SEC_STATS: u32 = 3;

/// Where and how often a campaign checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding checkpoint files (created on demand).
    pub dir: PathBuf,
    /// Write a checkpoint after this many newly completed tasks
    /// (clamped to ≥ 1). Smaller is safer, larger is cheaper; the
    /// campaign bench reports the overhead as `checkpoint_overhead_pct`.
    pub every: usize,
}

impl CheckpointConfig {
    /// Creates a config checkpointing every `every` completed tasks.
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            every: every.max(1),
        }
    }

    /// The checkpoint file for a campaign seed.
    pub fn file_for(&self, seed: u64) -> PathBuf {
        self.dir.join(format!("campaign-{seed:016x}.ckpt"))
    }
}

/// Everything the stored records depend on. A checkpoint whose meta
/// disagrees with the running campaign is stale and ignored. (The
/// throttle policy and worker count shape stats and wall-clock only and
/// are recomputed at assembly, so they are deliberately *not* pinned.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CheckpointMeta {
    seed: u64,
    task_count: u64,
    /// `content_hash64` over the encoded task list and the knobs that
    /// feed the retry budget.
    task_hash: u64,
    max_attempts: u32,
    adaptive_retry: bool,
    proxy_pool_size: u64,
}

impl CheckpointMeta {
    pub(crate) fn for_campaign(config: &CampaignConfig, tasks: &[QueryTask]) -> CheckpointMeta {
        let mut w = Writer::new();
        for task in tasks {
            w.put(&task.address);
            w.put(&task.isp);
        }
        w.put_u32(config.max_attempts);
        w.put_bool(config.adaptive_retry);
        CheckpointMeta {
            seed: config.seed,
            task_count: tasks.len() as u64,
            task_hash: content_hash64(&w.into_bytes()),
            max_attempts: config.max_attempts,
            adaptive_retry: config.adaptive_retry,
            proxy_pool_size: config.proxy_pool_size as u64,
        }
    }

    fn encode(&self, w: &mut Writer) {
        w.put_u32(FORMAT_VERSION);
        w.put_u32(RNG_STREAM_VERSION);
        w.put_u64(self.seed);
        w.put_u64(self.task_count);
        w.put_u64(self.task_hash);
        w.put_u32(self.max_attempts);
        w.put_bool(self.adaptive_retry);
        w.put_u64(self.proxy_pool_size);
    }

    /// Decodes a META section; `None` on any version or shape mismatch.
    fn decode_matching(&self, bytes: &[u8]) -> Option<()> {
        let mut r = caf_snap::Reader::new(bytes);
        let format = r.u32().ok()?;
        let stream = r.u32().ok()?;
        if format != FORMAT_VERSION || stream != RNG_STREAM_VERSION {
            return None;
        }
        let stored = CheckpointMeta {
            seed: r.u64().ok()?,
            task_count: r.u64().ok()?,
            task_hash: r.u64().ok()?,
            max_attempts: r.u32().ok()?,
            adaptive_retry: r.bool().ok()?,
            proxy_pool_size: r.u64().ok()?,
        };
        (stored == *self).then_some(())
    }
}

/// Serializes the completed slots as a checkpoint snapshot.
fn encode_checkpoint(meta: &CheckpointMeta, slots: &[Option<QueryRecord>]) -> Vec<u8> {
    let completed = slots.iter().filter(|s| s.is_some()).count() as u64;
    let mut builder = SnapshotBuilder::new(meta.seed, 0, completed);
    builder.section(SEC_META, |w| meta.encode(w));
    builder.section(SEC_SPANS, |w| {
        let spans = completed_spans(slots);
        w.put_u64(spans.len() as u64);
        for run in spans {
            w.put_u64(run.start as u64);
            w.put_u64(run.len() as u64);
            for slot in &slots[run] {
                w.put(slot.as_ref().expect("span covers completed slots only"));
            }
        }
    });
    builder.section(SEC_STATS, |w| {
        // Partial tallies over completed records: a cheap integrity
        // check that the span payload decodes to what was written.
        let mut queries = 0u64;
        let mut attempts = 0u64;
        let mut errors = 0u64;
        let mut secs = 0.0f64;
        for record in slots.iter().flatten() {
            queries += 1;
            attempts += u64::from(record.attempts);
            errors += record.errors.len() as u64;
            secs += record.duration_secs;
        }
        w.put_u64(queries);
        w.put_u64(attempts);
        w.put_u64(errors);
        w.put_f64(secs);
    });
    builder.finish()
}

/// Loads a checkpoint into a slot vector. Returns `Ok(None)` when the
/// file is absent, stale (meta mismatch), malformed, or fails its
/// integrity check — all "start fresh" conditions, not errors.
fn load_checkpoint(
    path: &Path,
    meta: &CheckpointMeta,
    task_count: usize,
) -> io::Result<Option<Vec<Option<QueryRecord>>>> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let Ok(snapshot) = Snapshot::parse(&bytes) else {
        return Ok(stale());
    };
    let Some(meta_bytes) = snapshot.section(SEC_META) else {
        return Ok(stale());
    };
    if meta.decode_matching(meta_bytes).is_none() {
        return Ok(stale());
    }
    let Some(span_bytes) = snapshot.section(SEC_SPANS) else {
        return Ok(stale());
    };
    let mut slots: Vec<Option<QueryRecord>> = vec![None; task_count];
    let mut r = caf_snap::Reader::new(span_bytes);
    let Ok(span_count) = r.u64() else {
        return Ok(stale());
    };
    let mut queries = 0u64;
    let mut attempts = 0u64;
    let mut errors = 0u64;
    let mut secs = 0.0f64;
    for _ in 0..span_count {
        let (Ok(start), Ok(len)) = (r.u64(), r.u64()) else {
            return Ok(stale());
        };
        let (start, len) = (start as usize, len as usize);
        if start.checked_add(len).is_none_or(|end| end > task_count) {
            return Ok(stale());
        }
        for slot in slots.iter_mut().skip(start).take(len) {
            let Ok(record) = QueryRecord::decode(&mut r) else {
                return Ok(stale());
            };
            queries += 1;
            attempts += u64::from(record.attempts);
            errors += record.errors.len() as u64;
            secs += record.duration_secs;
            *slot = Some(record);
        }
    }
    // Integrity: the partial tallies must reproduce the STATS section.
    let Some(stat_bytes) = snapshot.section(SEC_STATS) else {
        return Ok(stale());
    };
    let mut sr = caf_snap::Reader::new(stat_bytes);
    let ok = sr.u64().ok() == Some(queries)
        && sr.u64().ok() == Some(attempts)
        && sr.u64().ok() == Some(errors)
        && sr.f64().ok().map(|s| (s - secs).abs() < 1e-9) == Some(true);
    if !ok {
        return Ok(stale());
    }
    Ok(Some(slots))
}

/// A stale checkpoint loads as "nothing completed" (`None`), counted in
/// telemetry so operators can see silently discarded files.
fn stale() -> Option<Vec<Option<QueryRecord>>> {
    caf_obs::count("caf.bqt.checkpoint.stale", 1);
    None
}

/// Shared sink the executor's shard closures report completions into;
/// periodically serializes the completed slots to disk.
///
/// Hot path: each record is snap-encoded exactly **once**, at completion
/// time and outside the lock. A flush then only walks the slot table,
/// concatenates the cached byte blobs, and sums the pre-extracted
/// tallies — `O(bytes)` memcpy instead of `O(records)` re-encoding, which
/// the campaign bench showed dominating checkpoint overhead on fast
/// (simulated) queries.
pub(crate) struct CheckpointSink {
    path: PathBuf,
    every: usize,
    meta: CheckpointMeta,
    state: Mutex<SinkState>,
}

/// One completed task: its encoded bytes plus the stats-section inputs,
/// so flushes never need the decoded [`QueryRecord`] again.
struct SlotEntry {
    bytes: Vec<u8>,
    attempts: u32,
    errors: u32,
    secs: f64,
}

impl SlotEntry {
    fn from_record(record: &QueryRecord) -> SlotEntry {
        let mut w = Writer::new();
        w.put(record);
        SlotEntry {
            bytes: w.into_bytes(),
            attempts: record.attempts,
            errors: record.errors.len() as u32,
            secs: record.duration_secs,
        }
    }
}

struct SinkState {
    slots: Vec<Option<SlotEntry>>,
    since_flush: usize,
    flushes: u64,
    error: Option<io::Error>,
}

impl CheckpointSink {
    fn new(
        path: PathBuf,
        every: usize,
        meta: CheckpointMeta,
        resumed: &[Option<QueryRecord>],
    ) -> CheckpointSink {
        let slots = resumed
            .iter()
            .map(|slot| slot.as_ref().map(SlotEntry::from_record))
            .collect();
        CheckpointSink {
            path,
            every: every.max(1),
            meta,
            state: Mutex::new(SinkState {
                slots,
                since_flush: 0,
                flushes: 0,
                error: None,
            }),
        }
    }

    /// Reports one completed shard. Fills the shared slots and, when the
    /// flush threshold is crossed, writes an atomic checkpoint. Called
    /// from executor worker threads; records are encoded before taking
    /// the lock, and the write happens under the lock so checkpoints
    /// always capture a consistent slot view.
    pub(crate) fn complete(&self, range: Range<usize>, records: &[QueryRecord]) {
        let entries: Vec<SlotEntry> = records.iter().map(SlotEntry::from_record).collect();
        let mut state = self
            .state
            .lock()
            .expect("a worker panicked while holding the checkpoint sink");
        for (i, entry) in range.clone().zip(entries) {
            state.slots[i] = Some(entry);
        }
        state.since_flush += range.len();
        if state.since_flush >= self.every {
            state.since_flush = 0;
            let bytes = encode_checkpoint_cached(&self.meta, &state.slots);
            match write_atomic(&self.path, &bytes) {
                Ok(()) => state.flushes += 1,
                Err(e) => {
                    if state.error.is_none() {
                        state.error = Some(e);
                    }
                }
            }
        }
    }

    /// Flush count and the first write error, consuming the sink.
    fn into_outcome(self) -> (u64, Option<io::Error>) {
        let state = self
            .state
            .into_inner()
            .expect("a worker panicked while holding the checkpoint sink");
        (state.flushes, state.error)
    }
}

/// [`encode_checkpoint`] over the sink's cached per-record bytes; the
/// output is byte-identical to encoding the decoded records because
/// `Writer::put_raw` of a record's cached encoding reproduces exactly
/// what `Writer::put` of the record writes.
fn encode_checkpoint_cached(meta: &CheckpointMeta, slots: &[Option<SlotEntry>]) -> Vec<u8> {
    let completed = slots.iter().filter(|s| s.is_some()).count() as u64;
    let mut builder = SnapshotBuilder::new(meta.seed, 0, completed);
    builder.section(SEC_META, |w| meta.encode(w));
    builder.section(SEC_SPANS, |w| {
        let spans = completed_spans(slots);
        w.put_u64(spans.len() as u64);
        for run in spans {
            w.put_u64(run.start as u64);
            w.put_u64(run.len() as u64);
            for slot in &slots[run] {
                let entry = slot.as_ref().expect("span covers completed slots only");
                w.put_raw(&entry.bytes);
            }
        }
    });
    builder.section(SEC_STATS, |w| {
        let mut queries = 0u64;
        let mut attempts = 0u64;
        let mut errors = 0u64;
        let mut secs = 0.0f64;
        for entry in slots.iter().flatten() {
            queries += 1;
            attempts += u64::from(entry.attempts);
            errors += u64::from(entry.errors);
            secs += entry.secs;
        }
        w.put_u64(queries);
        w.put_u64(attempts);
        w.put_u64(errors);
        w.put_f64(secs);
    });
    builder.finish()
}

/// Contiguous runs of completed slots, ascending.
fn completed_spans<T>(slots: &[Option<T>]) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < slots.len() {
        if slots[i].is_some() {
            let start = i;
            while i < slots.len() && slots[i].is_some() {
                i += 1;
            }
            spans.push(start..i);
        } else {
            i += 1;
        }
    }
    spans
}

impl Campaign {
    /// Seeds `checkpoint` with the given completed `spans` of `records`
    /// — exactly the file a campaign killed right after a flush at that
    /// epoch would have left behind. Useful for importing records from a
    /// prior run, and it is how the kill/resume tests construct
    /// interrupted states deterministically.
    pub fn seed_checkpoint(
        &self,
        tasks: &[QueryTask],
        records: &[QueryRecord],
        spans: &[Range<usize>],
        checkpoint: &CheckpointConfig,
    ) -> io::Result<()> {
        assert_eq!(records.len(), tasks.len(), "one record per task");
        fs::create_dir_all(&checkpoint.dir)?;
        let meta = CheckpointMeta::for_campaign(self.config(), tasks);
        let mut slots: Vec<Option<QueryRecord>> = vec![None; tasks.len()];
        for span in spans {
            for i in span.clone() {
                slots[i] = Some(records[i].clone());
            }
        }
        write_atomic(
            &checkpoint.file_for(self.config().seed),
            &encode_checkpoint(&meta, &slots),
        )
    }

    /// Runs the campaign with periodic checkpoints, resuming from an
    /// existing matching checkpoint in `checkpoint.dir` if one exists.
    /// The returned result is byte-identical to [`Campaign::run`] on the
    /// same config — resuming, re-running a finished campaign, or never
    /// having been interrupted all converge to the same
    /// [`CampaignResult`].
    ///
    /// On success the checkpoint file holds the *complete* run, so a
    /// subsequent call loads it and runs zero queries.
    pub fn run_with_checkpoints(
        &self,
        truth: &TruthTable,
        tasks: &[QueryTask],
        checkpoint: &CheckpointConfig,
    ) -> io::Result<CampaignResult> {
        let _span = caf_obs::span("bqt.campaign.checkpointed");
        fs::create_dir_all(&checkpoint.dir)?;
        let meta = CheckpointMeta::for_campaign(self.config(), tasks);
        let path = checkpoint.file_for(self.config().seed);
        let mut slots =
            load_checkpoint(&path, &meta, tasks.len())?.unwrap_or_else(|| vec![None; tasks.len()]);
        let resumed = slots.iter().filter(|s| s.is_some()).count();
        caf_obs::count("caf.bqt.checkpoint.resumed_tasks", resumed as u64);

        // The complement of the completed spans, in unit coordinates.
        let mut missing: Vec<Range<usize>> = Vec::new();
        let mut i = 0;
        while i < slots.len() {
            if slots[i].is_none() {
                let start = i;
                while i < slots.len() && slots[i].is_none() {
                    i += 1;
                }
                missing.push(start..i);
            } else {
                i += 1;
            }
        }

        if !missing.is_empty() {
            let hints = CostHint::PerElement(self.cost_hints(tasks));
            let plan = UnitPlan::build_subset(
                self.config().workers,
                &[hints],
                self.config().shard,
                &[missing],
            );
            let sink = CheckpointSink::new(path.clone(), checkpoint.every, meta.clone(), &slots);
            let shard_results = self.run_plan(truth, tasks, &plan, Some(&sink));
            let (flushes, error) = sink.into_outcome();
            caf_obs::count("caf.bqt.checkpoint.flushes", flushes);
            if let Some(e) = error {
                return Err(e);
            }
            for (range, records) in shard_results {
                for (i, record) in range.zip(records) {
                    slots[i] = Some(record);
                }
            }
        }

        let records: Vec<QueryRecord> = slots
            .into_iter()
            .map(|slot| slot.expect("every task completed or resumed"))
            .collect();
        // Final checkpoint: the finished run, so the next call is a
        // pure load.
        write_atomic(&path, &encode_checkpoint_full(&meta, &records))?;
        Ok(self.finish(records))
    }
}

/// [`encode_checkpoint`] over a fully completed record list.
fn encode_checkpoint_full(meta: &CheckpointMeta, records: &[QueryRecord]) -> Vec<u8> {
    let slots: Vec<Option<QueryRecord>> = records.iter().cloned().map(Some).collect();
    encode_checkpoint(meta, &slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_geo::UsState;
    use caf_synth::{SynthConfig, World};

    fn world() -> World {
        World::generate_states(
            SynthConfig {
                seed: 33,
                scale: 60,
            },
            &[UsState::Vermont],
        )
    }

    fn tasks_for(world: &World) -> Vec<QueryTask> {
        let vt = world.state(UsState::Vermont).unwrap();
        vt.usac
            .records
            .iter()
            .take(300)
            .map(|r| QueryTask {
                address: r.address.id,
                isp: r.isp,
            })
            .collect()
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("caf-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checkpointed_run_equals_plain_run() {
        let w = world();
        let tasks = tasks_for(&w);
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            ..CampaignConfig::default()
        });
        let plain = campaign.run(&w.truth, &tasks);
        let dir = tempdir("plain");
        let ckpt = CheckpointConfig::new(&dir, 50);
        let first = campaign
            .run_with_checkpoints(&w.truth, &tasks, &ckpt)
            .unwrap();
        assert_eq!(first, plain, "checkpointing must not perturb results");
        // Second call resumes from the complete checkpoint: zero queries,
        // same bytes.
        let second = campaign
            .run_with_checkpoints(&w.truth, &tasks, &ckpt)
            .unwrap();
        assert_eq!(second, plain);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_checkpoint_resumes_to_identical_result() {
        let w = world();
        let tasks = tasks_for(&w);
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            workers: 2,
            ..CampaignConfig::default()
        });
        let reference = campaign.run(&w.truth, &tasks);
        // Simulate a kill at an arbitrary epoch: hand-write a checkpoint
        // holding two completed spans of the reference run.
        let meta = CheckpointMeta::for_campaign(campaign.config(), &tasks);
        let mut slots: Vec<Option<QueryRecord>> = vec![None; tasks.len()];
        for i in (10..90).chain(150..260) {
            slots[i] = Some(reference.records[i].clone());
        }
        let dir = tempdir("partial");
        let ckpt = CheckpointConfig::new(&dir, 40);
        write_atomic(
            &ckpt.file_for(campaign.config().seed),
            &encode_checkpoint(&meta, &slots),
        )
        .unwrap();
        let resumed = campaign
            .run_with_checkpoints(&w.truth, &tasks, &ckpt)
            .unwrap();
        assert_eq!(
            resumed, reference,
            "resume must reproduce the uninterrupted run exactly"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_checkpoint_is_discarded_not_mixed() {
        let w = world();
        let tasks = tasks_for(&w);
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            ..CampaignConfig::default()
        });
        let reference = campaign.run(&w.truth, &tasks);
        // A checkpoint for a *different* retry budget must not be loaded.
        let other = CampaignConfig {
            max_attempts: 5,
            ..*campaign.config()
        };
        let stale_meta = CheckpointMeta::for_campaign(&other, &tasks);
        let slots: Vec<Option<QueryRecord>> = reference.records.iter().cloned().map(Some).collect();
        let dir = tempdir("stale");
        let ckpt = CheckpointConfig::new(&dir, 40);
        let path = ckpt.file_for(campaign.config().seed);
        write_atomic(&path, &encode_checkpoint(&stale_meta, &slots)).unwrap();
        let result = campaign
            .run_with_checkpoints(&w.truth, &tasks, &ckpt)
            .unwrap();
        assert_eq!(result, reference);
        // Garbage bytes are likewise discarded, not an error.
        write_atomic(&path, b"not a snapshot").unwrap();
        let result = campaign
            .run_with_checkpoints(&w.truth, &tasks, &ckpt)
            .unwrap();
        assert_eq!(result, reference);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_encoding_is_byte_identical_to_direct_encoding() {
        let w = world();
        let tasks = tasks_for(&w);
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            ..CampaignConfig::default()
        });
        let reference = campaign.run(&w.truth, &tasks);
        let meta = CheckpointMeta::for_campaign(campaign.config(), &tasks);
        let mut slots: Vec<Option<QueryRecord>> = vec![None; tasks.len()];
        for i in (5..70).chain(120..200) {
            slots[i] = Some(reference.records[i].clone());
        }
        let cached: Vec<Option<SlotEntry>> = slots
            .iter()
            .map(|slot| slot.as_ref().map(SlotEntry::from_record))
            .collect();
        assert_eq!(
            encode_checkpoint(&meta, &slots),
            encode_checkpoint_cached(&meta, &cached),
            "the sink's cached flush path must write the same bytes"
        );
    }

    #[test]
    fn checkpoint_roundtrip_preserves_spans() {
        let w = world();
        let tasks = tasks_for(&w);
        let campaign = Campaign::new(CampaignConfig {
            seed: w.config.seed,
            ..CampaignConfig::default()
        });
        let reference = campaign.run(&w.truth, &tasks);
        let meta = CheckpointMeta::for_campaign(campaign.config(), &tasks);
        let mut slots: Vec<Option<QueryRecord>> = vec![None; tasks.len()];
        for i in (0..40).chain(100..130).chain(250..tasks.len()) {
            slots[i] = Some(reference.records[i].clone());
        }
        let bytes = encode_checkpoint(&meta, &slots);
        let dir = tempdir("roundtrip");
        let path = dir.join("rt.ckpt");
        write_atomic(&path, &bytes).unwrap();
        let loaded = load_checkpoint(&path, &meta, tasks.len()).unwrap().unwrap();
        assert_eq!(loaded, slots);
        let _ = fs::remove_dir_all(&dir);
    }
}
