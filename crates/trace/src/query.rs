//! The query engine over indexed traces: conjunctive predicates, index
//! pruning so only candidate segments decode, and directory-wide scans
//! through an open-once [`Lake`].
//!
//! A [`Query`] combines time-range, bank, command-mix, and
//! marker-prefix predicates (all conjunctive) with per-segment min/max
//! matched-count bounds. Running one over a file first prunes segments
//! whose index metadata cannot match — wrong marker, disjoint bank
//! set, zero count for every wanted mnemonic, or time bounds outside
//! the range — then decodes only the survivors and counts events that
//! satisfy every predicate. [`QueryReport::segments_decoded`] against
//! [`QueryReport::segments`] shows how much work the index saved.

use crate::error::TraceError;
use crate::event::TraceEvent;
use crate::index::{event_bank, event_op_index, SegmentMeta, SEGMENT_MNEMONICS};
use crate::lake::IndexedTrace;
use dram_telemetry::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, Metadata};
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, SystemTime};

/// A conjunctive predicate over trace events plus per-segment count
/// bounds. Empty (`Query::default()`) matches every event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Query {
    /// Keep events at or after this timestamp (picoseconds, inclusive).
    /// With either time bound set, untimed events (markers,
    /// temperature changes) never match.
    pub from_ps: Option<u64>,
    /// Keep events at or before this timestamp (picoseconds, inclusive).
    pub to_ps: Option<u64>,
    /// Keep events addressing one of these banks. Events without a
    /// bank (`REF`, refresh windows, markers, temperature) never match
    /// a bank predicate.
    pub banks: Option<Vec<u32>>,
    /// Keep events whose mnemonic ([`SEGMENT_MNEMONICS`]) is in this
    /// set — the command-mix predicate.
    pub mnemonics: Option<Vec<String>>,
    /// Keep only segments whose opening marker label starts with this
    /// prefix (the unmarked leading segment has label `""`).
    pub marker_prefix: Option<String>,
    /// Report a segment only if at least this many events matched.
    /// Default 1 — segments with no matches are not hits. `0` lists
    /// every candidate segment and disables count-based pruning.
    pub min_count: Option<u64>,
    /// Report a segment only if at most this many events matched.
    pub max_count: Option<u64>,
}

impl Query {
    /// Whether a single event satisfies every per-event predicate.
    pub fn matches_event(&self, ev: &TraceEvent) -> bool {
        Matcher::new(self).matches(ev, event_op_index(ev))
    }

    /// Whether a segment's index metadata leaves any chance of a
    /// match; `false` means the segment can be skipped without
    /// decoding. With `min_count == Some(0)` every candidate segment
    /// must be reported, so only the marker predicate prunes.
    pub fn segment_may_match(&self, seg: &SegmentMeta) -> bool {
        if let Some(prefix) = &self.marker_prefix {
            if !seg.label.starts_with(prefix.as_str()) {
                return false;
            }
        }
        if self.min_count == Some(0) {
            return true;
        }
        if !seg.overlaps_ps(self.from_ps, self.to_ps) {
            return false;
        }
        if let Some(banks) = &self.banks {
            if !banks.iter().any(|b| seg.has_bank(*b)) {
                return false;
            }
        }
        if let Some(mnemonics) = &self.mnemonics {
            if mnemonics.iter().map(|m| seg.op_count(m)).sum::<u64>() == 0 {
                return false;
            }
        }
        true
    }

    /// Whether a segment's matched-event count is within the reporting
    /// bounds.
    fn count_in_bounds(&self, matched: u64) -> bool {
        matched >= self.min_count.unwrap_or(1) && self.max_count.is_none_or(|m| matched <= m)
    }
}

/// A query with its command-mix predicate resolved to op-counter slots
/// once, so the per-event test compares indices instead of mnemonic
/// strings.
struct Matcher<'q> {
    query: &'q Query,
    /// Wanted [`SEGMENT_MNEMONICS`] slots; an unknown mnemonic sets
    /// none, so it matches nothing.
    ops: Option<[bool; 10]>,
}

impl<'q> Matcher<'q> {
    fn new(query: &'q Query) -> Self {
        let ops = query
            .mnemonics
            .as_ref()
            .map(|wanted| SEGMENT_MNEMONICS.map(|m| wanted.iter().any(|w| w == m)));
        Matcher { query, ops }
    }

    /// Whether `ev`, counted under op slot `op`, satisfies every
    /// per-event predicate.
    fn matches(&self, ev: &TraceEvent, op: usize) -> bool {
        let q = self.query;
        if q.from_ps.is_some() || q.to_ps.is_some() {
            let Some(at) = ev.at() else { return false };
            let ps = at.as_ps();
            if q.from_ps.is_some_and(|f| ps < f) || q.to_ps.is_some_and(|t| ps > t) {
                return false;
            }
        }
        if let Some(banks) = &q.banks {
            match event_bank(ev) {
                Some(bank) if banks.contains(&bank) => {}
                _ => return false,
            }
        }
        self.ops.is_none_or(|ops| ops[op])
    }
}

/// One reported segment: where it is and what matched inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryHit {
    /// File the segment lives in (as given to the query).
    pub file: String,
    /// Segment index within its file.
    pub segment: usize,
    /// The segment's opening marker label (`""` for unmarked).
    pub label: String,
    /// Events in the segment.
    pub events: u64,
    /// Events that satisfied every predicate.
    pub matched: u64,
    /// Matched events per mnemonic, [`SEGMENT_MNEMONICS`] order.
    pub ops: [u64; 10],
    /// Smallest matched timestamp, if any matched event was timed.
    pub min_ps: Option<u64>,
    /// Largest matched timestamp, if any matched event was timed.
    pub max_ps: Option<u64>,
}

/// The outcome of running one query over one or many trace files.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryReport {
    /// Files scanned.
    pub files: usize,
    /// Segments across all files.
    pub segments: usize,
    /// Segments that had to be decoded (survived index pruning).
    pub segments_decoded: usize,
    /// Total matched events across all hits.
    pub matched: u64,
    /// Reported segments, in file order then segment order.
    pub hits: Vec<QueryHit>,
}

impl QueryReport {
    /// Whether the query matched anything (at least one hit).
    pub fn is_match(&self) -> bool {
        !self.hits.is_empty()
    }

    /// Renders the report as one deterministic JSON object (sorted
    /// hits, fixed key order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"files\":{},\"segments\":{},\"segments_decoded\":{},\"matched\":{},\"hits\":[",
            self.files, self.segments, self.segments_decoded, self.matched
        );
        for (i, hit) in self.hits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"file\":{},\"segment\":{},\"label\":{},\"events\":{},\"matched\":{}",
                json::string(&hit.file),
                hit.segment,
                json::string(&hit.label),
                hit.events,
                hit.matched
            );
            out.push_str(",\"ops\":{");
            let mut first = true;
            for (m, count) in SEGMENT_MNEMONICS.iter().zip(hit.ops) {
                if count == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{m}\":{count}");
            }
            out.push('}');
            if let (Some(min), Some(max)) = (hit.min_ps, hit.max_ps) {
                let _ = write!(out, ",\"min_ps\":{min},\"max_ps\":{max}");
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Runs a query over one already-opened trace, labeling hits with
/// `file`. Returns the hits plus how many segments were decoded.
pub fn query_indexed(
    file: &str,
    trace: &IndexedTrace,
    query: &Query,
) -> Result<(Vec<QueryHit>, usize), TraceError> {
    let matcher = Matcher::new(query);
    let mut hits = Vec::new();
    let mut decoded = 0usize;
    for (i, seg) in trace.segments().iter().enumerate() {
        if !query.segment_may_match(seg) {
            continue;
        }
        decoded += 1;
        let mut ops = [0u64; 10];
        let mut matched = 0u64;
        let mut min_ps = None;
        let mut max_ps = None;
        trace.for_each_event(i, |ev| {
            let op = event_op_index(&ev);
            if !matcher.matches(&ev, op) {
                return;
            }
            matched += 1;
            ops[op] += 1;
            if let Some(at) = ev.at() {
                let ps = at.as_ps();
                min_ps = Some(min_ps.map_or(ps, |m: u64| m.min(ps)));
                max_ps = Some(max_ps.map_or(ps, |m: u64| m.max(ps)));
            }
        })?;
        if query.count_in_bounds(matched) {
            hits.push(QueryHit {
                file: file.to_string(),
                segment: i,
                label: seg.label.clone(),
                events: seg.events,
                matched,
                ops,
                min_ps,
                max_ps,
            });
        }
    }
    Ok((hits, decoded))
}

/// Runs a query over raw container bytes (either version).
pub fn query_bytes(file: &str, bytes: &[u8], query: &Query) -> Result<QueryReport, TraceError> {
    let trace = IndexedTrace::from_bytes(bytes)?;
    let (hits, decoded) = query_indexed(file, &trace, query)?;
    Ok(QueryReport {
        files: 1,
        segments: trace.segments().len(),
        segments_decoded: decoded,
        matched: hits.iter().map(|h| h.matched).sum(),
        hits,
    })
}

/// Runs a query over a trace file or over every `*.trace` file in a
/// directory (sorted by name): one query over a fresh [`Lake`]. Errors
/// carry the offending path.
pub fn query_path(path: &Path, query: &Query) -> Result<QueryReport, String> {
    Lake::new(path).query(query)
}

/// How long a file's newest timestamp must age before a [`Lake`]
/// reuses its open, on any file system: a file left unchanged this long
/// after its last write is read once and then reused.
pub const SETTLE: Duration = Duration::from_secs(3);

/// The settle window for timestamps with sub-second resolution: well
/// above the clock tick file systems take timestamps from (at most
/// about 10 ms on Linux).
const FINE_SETTLE: Duration = Duration::from_millis(100);

/// What a file's metadata says about which version of it is on disk:
/// length and modification time, plus change time, device and inode on
/// unix. An in-place rewrite moves the times; a replace-by-rename moves
/// the inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    len: u64,
    modified: Option<SystemTime>,
    changed: Option<SystemTime>,
    node: Option<(u64, u64)>,
}

impl Stamp {
    #[cfg(unix)]
    fn of(meta: &Metadata) -> Stamp {
        use std::os::unix::fs::MetadataExt;
        let changed = u64::try_from(meta.ctime())
            .ok()
            .zip(u32::try_from(meta.ctime_nsec()).ok())
            .and_then(|(s, ns)| SystemTime::UNIX_EPOCH.checked_add(Duration::new(s, ns)));
        Stamp {
            len: meta.len(),
            modified: meta.modified().ok(),
            changed,
            node: Some((meta.dev(), meta.ino())),
        }
    }

    #[cfg(not(unix))]
    fn of(meta: &Metadata) -> Stamp {
        Stamp {
            len: meta.len(),
            modified: meta.modified().ok(),
            changed: None,
            node: None,
        }
    }

    /// Whether every change after `now` must produce a different stamp.
    /// File systems take timestamps from a clock that advances in ticks
    /// and round them down to their resolution, so a rewrite within the
    /// tick of the previous write can keep every field of the stamp.
    /// The newest timestamp must lie a tick plus one resolution step
    /// before `now`: [`FINE_SETTLE`], or [`SETTLE`] when it shows no
    /// sub-second part (whole-second file systems; FAT's steps are two
    /// seconds). Without a modification time a stamp never settles.
    fn settled(&self, now: SystemTime) -> bool {
        let Some(modified) = self.modified else {
            return false;
        };
        let newest = self.changed.map_or(modified, |c| c.max(modified));
        let whole_seconds = newest
            .duration_since(SystemTime::UNIX_EPOCH)
            .is_ok_and(|t| t.subsec_nanos() == 0);
        let window = if whole_seconds { SETTLE } else { FINE_SETTLE };
        now.duration_since(newest).is_ok_and(|age| age >= window)
    }
}

/// One file's verified open, as the [`Lake`] holds it.
#[derive(Debug)]
struct Held {
    stamp: Stamp,
    /// Whether the stamp was settled when the file was read; only then
    /// does an equal stamp later prove the bytes unchanged.
    settled: bool,
    trace: Arc<IndexedTrace>,
}

/// An open-once trace lake: a trace file, or every `*.trace` file in a
/// directory, queried repeatedly.
///
/// Each [`query`](Self::query) lists the directory again and stats every
/// listed file. A file whose stamp (length and modification time, plus
/// change time, device and inode on unix) equals the one it was read
/// under is answered from the [`IndexedTrace`] opened then; any other
/// file is read and fully verified through [`IndexedTrace::from_bytes`]
/// first. Entries for files no longer listed are dropped, and a file
/// that fails to open leaves no entry behind, so a report only ever
/// uses bytes that passed verification under the file's current stamp.
/// No lock is held across file I/O or decoding; concurrent queries may
/// open the same new version twice.
///
/// A same-length rewrite within one timestamp tick of the previous
/// write keeps the stamp, so an open is reused only if the file's
/// newest timestamp was already 100 ms old when the read began, or
/// [`SETTLE`] old for a timestamp with no sub-second part. A younger
/// file is read and verified again by the next query.
///
/// The lake holds each listed file's payload bytes, or its decoded
/// events for v1 and index-fallback opens.
#[derive(Debug)]
pub struct Lake {
    root: PathBuf,
    held: Mutex<BTreeMap<PathBuf, Held>>,
    opens: AtomicU64,
}

impl Lake {
    /// A lake over `root`; nothing is read until the first query.
    pub fn new(root: impl Into<PathBuf>) -> Lake {
        Lake {
            root: root.into(),
            held: Mutex::new(BTreeMap::new()),
            opens: AtomicU64::new(0),
        }
    }

    /// The file or directory the lake queries.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Files whose verified open the lake currently holds.
    pub fn files(&self) -> usize {
        self.lock().len()
    }

    /// Files read and verified since the lake was created, failed
    /// attempts included.
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    /// Runs a query over the lake's current files, in name order.
    /// Errors carry the offending path.
    pub fn query(&self, query: &Query) -> Result<QueryReport, String> {
        let files = collect_trace_files(&self.root)?;
        self.lock()
            .retain(|path, _| files.binary_search(path).is_ok());
        let mut report = QueryReport::default();
        for file in &files {
            let name = file.display().to_string();
            let trace = self.open(file).map_err(|e| format!("{name}: {e}"))?;
            let (hits, decoded) =
                query_indexed(&name, &trace, query).map_err(|e| format!("{name}: {e}"))?;
            report.files += 1;
            report.segments += trace.segments().len();
            report.segments_decoded += decoded;
            report.matched += hits.iter().map(|h| h.matched).sum::<u64>();
            report.hits.extend(hits);
        }
        Ok(report)
    }

    /// The verified open of `file`'s current version: the held one when
    /// its settled stamp still matches, otherwise a fresh read and
    /// verification that replaces it.
    fn open(&self, file: &Path) -> Result<Arc<IndexedTrace>, String> {
        let stamp = Stamp::of(&std::fs::metadata(file).map_err(|e| e.to_string())?);
        if let Some(held) = self.lock().get(file) {
            if held.settled && held.stamp == stamp {
                return Ok(Arc::clone(&held.trace));
            }
        }
        self.opens.fetch_add(1, Ordering::Relaxed);
        let opened = read_stamped(file).and_then(|(stamp, settled, bytes)| {
            let trace = IndexedTrace::from_bytes(&bytes).map_err(|e| e.to_string())?;
            Ok(Held {
                stamp,
                settled,
                trace: Arc::new(trace),
            })
        });
        let mut held = self.lock();
        match opened {
            Ok(entry) => {
                let trace = Arc::clone(&entry.trace);
                held.insert(file.to_path_buf(), entry);
                Ok(trace)
            }
            Err(e) => {
                held.remove(file);
                Err(e)
            }
        }
    }

    /// Locks the held opens. Every update is one insert, remove or
    /// retain, so the map is valid even after a panic elsewhere.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<PathBuf, Held>> {
        self.held.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Reads `file` through one handle, stamped before the first byte is
/// read: any later change yields a different stamp, provided the stamp
/// was settled (the flag returned with it).
fn read_stamped(file: &Path) -> Result<(Stamp, bool, Vec<u8>), String> {
    let now = SystemTime::now();
    let mut handle = File::open(file).map_err(|e| e.to_string())?;
    let stamp = Stamp::of(&handle.metadata().map_err(|e| e.to_string())?);
    let mut bytes = Vec::new();
    handle.read_to_end(&mut bytes).map_err(|e| e.to_string())?;
    Ok((stamp, stamp.settled(now), bytes))
}

/// Expands a path into the trace files it names: the file itself, or a
/// directory's `*.trace` entries sorted by name.
pub fn collect_trace_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if meta.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut files: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", path.display()))?;
        let p = entry.path();
        if p.is_file() && p.extension().is_some_and(|ext| ext == "trace") {
            files.push(p);
        }
    }
    if files.is_empty() {
        return Err(format!("{}: no .trace files found", path.display()));
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{Trace, TraceHeader};
    use dram_sim::chip::Command;
    use dram_sim::sink::CommandOutcome;
    use dram_sim::time::Time;

    fn sample_trace() -> Trace {
        sample_trace_on(0)
    }

    /// The sample trace with its warmup ACTs on `warmup_bank`; every bank
    /// below 128 encodes to the same number of bytes.
    fn sample_trace_on(warmup_bank: u32) -> Trace {
        let mut events = Vec::new();
        for (seg, (bank, span)) in [(warmup_bank, "span:warmup"), (1, "span:trr_window")]
            .into_iter()
            .enumerate()
        {
            let base_ns = 100 * seg as u64;
            events.push(TraceEvent::Marker { label: span.into() });
            for i in 0..5u64 {
                events.push(TraceEvent::Command {
                    cmd: Command::Activate {
                        bank,
                        row: i as u32,
                    },
                    at: Time::from_ns(base_ns + i * 10),
                    outcome: CommandOutcome::Accepted,
                });
            }
            events.push(TraceEvent::Command {
                cmd: Command::Refresh,
                at: Time::from_ns(base_ns + 90),
                outcome: CommandOutcome::Accepted,
            });
        }
        Trace {
            header: TraceHeader {
                profile_label: "test".into(),
                seed: 1,
                geometry_hash: 2,
                dossier_digest: None,
                dropped: 0,
                meta: vec![],
            },
            events,
        }
    }

    #[test]
    fn predicates_are_conjunctive_and_prune_segments() {
        let bytes = sample_trace().to_bytes_indexed();
        // Bank 1 ACTs inside the trr window, within a time range.
        let query = Query {
            from_ps: Some(Time::from_ns(100).as_ps()),
            to_ps: Some(Time::from_ns(130).as_ps()),
            banks: Some(vec![1]),
            mnemonics: Some(vec!["act".into()]),
            marker_prefix: Some("span:trr".into()),
            ..Query::default()
        };
        let report = query_bytes("t", &bytes, &query).expect("queries");
        assert_eq!(report.segments, 2);
        assert_eq!(report.segments_decoded, 1, "warmup segment must be pruned");
        assert_eq!(report.hits.len(), 1);
        let hit = &report.hits[0];
        assert_eq!(hit.label, "span:trr_window");
        assert_eq!(hit.matched, 4); // ACTs at 100, 110, 120, 130 ns
        assert_eq!(hit.ops[0], 4);
        assert_eq!(hit.min_ps, Some(Time::from_ns(100).as_ps()));
        assert_eq!(hit.max_ps, Some(Time::from_ns(130).as_ps()));
        assert_eq!(report.matched, 4);
        assert!(report.is_match());
    }

    #[test]
    fn bank_pruning_skips_disjoint_segments_without_decoding() {
        let bytes = sample_trace().to_bytes_indexed();
        let query = Query {
            banks: Some(vec![7]),
            ..Query::default()
        };
        let report = query_bytes("t", &bytes, &query).expect("queries");
        assert_eq!(report.segments_decoded, 0, "no segment addresses bank 7");
        assert!(!report.is_match());
        // REF has no bank, so a bank predicate never matches it.
        let ref_query = Query {
            banks: Some(vec![0]),
            mnemonics: Some(vec!["ref".into()]),
            ..Query::default()
        };
        let report = query_bytes("t", &bytes, &ref_query).expect("queries");
        assert_eq!(report.matched, 0);
    }

    #[test]
    fn min_count_zero_reports_every_candidate_segment() {
        let bytes = sample_trace().to_bytes_indexed();
        let query = Query {
            banks: Some(vec![0]),
            min_count: Some(0),
            ..Query::default()
        };
        let report = query_bytes("t", &bytes, &query).expect("queries");
        assert_eq!(report.segments_decoded, 2, "min_count=0 disables pruning");
        assert_eq!(report.hits.len(), 2);
        assert_eq!(report.hits[1].matched, 0);
        // max_count drops busy segments.
        let query = Query {
            max_count: Some(3),
            ..Query::default()
        };
        let report = query_bytes("t", &bytes, &query).expect("queries");
        assert!(report.hits.is_empty(), "both segments have 7 events");
    }

    #[test]
    fn queries_work_identically_on_v1_streams() {
        let trace = sample_trace();
        let query = Query {
            mnemonics: Some(vec!["act".into()]),
            marker_prefix: Some("span:trr".into()),
            ..Query::default()
        };
        let v1 = query_bytes("t", &trace.to_bytes(), &query).expect("v1");
        let v2 = query_bytes("t", &trace.to_bytes_indexed(), &query).expect("v2");
        assert_eq!(v1.hits, v2.hits);
        assert_eq!(v1.matched, v2.matched);
        // The v1 path had to decode everything; the v2 path skipped one.
        assert_eq!(v1.segments_decoded, 1); // marker pruning works on synthesized metadata too
        assert_eq!(v2.segments_decoded, 1);
    }

    #[test]
    fn directory_queries_scan_sorted_trace_files() {
        let dir = std::env::temp_dir().join(format!("dram_lake_query_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let trace = sample_trace();
        std::fs::write(dir.join("b.trace"), trace.to_bytes_indexed()).expect("write");
        std::fs::write(dir.join("a.trace"), trace.to_bytes()).expect("write");
        std::fs::write(dir.join("ignored.txt"), b"not a trace").expect("write");
        let query = Query {
            mnemonics: Some(vec!["act".into()]),
            ..Query::default()
        };
        let report = query_path(&dir, &query).expect("queries");
        assert_eq!(report.files, 2);
        assert_eq!(report.segments, 4);
        assert_eq!(report.matched, 20);
        assert!(report.hits[0].file.ends_with("a.trace"));
        assert!(report.hits[2].file.ends_with("b.trace"));
        // Unmatchable query: no hits, exit-1 signal for the CLI.
        let none = query_path(
            &dir,
            &Query {
                banks: Some(vec![9]),
                ..Query::default()
            },
        )
        .expect("queries");
        assert!(!none.is_match());
        let _ = std::fs::remove_dir_all(&dir);
        assert!(query_path(Path::new("/nonexistent/trace/dir"), &query).is_err());
    }

    #[test]
    fn report_json_is_deterministic_and_escaped() {
        let hit = QueryHit {
            file: "dir/a \"x\".trace".into(),
            segment: 1,
            label: "span:trr_window".into(),
            events: 7,
            matched: 4,
            ops: [4, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            min_ps: Some(100_000),
            max_ps: Some(130_000),
        };
        let report = QueryReport {
            files: 1,
            segments: 2,
            segments_decoded: 1,
            matched: 4,
            hits: vec![hit],
        };
        let json = report.to_json();
        assert_eq!(
            json,
            "{\"files\":1,\"segments\":2,\"segments_decoded\":1,\"matched\":4,\"hits\":[{\"file\":\"dir/a \\\"x\\\".trace\",\"segment\":1,\"label\":\"span:trr_window\",\"events\":7,\"matched\":4,\"ops\":{\"act\":4},\"min_ps\":100000,\"max_ps\":130000}]}"
        );
    }

    /// A fresh directory holding `files`.
    fn lake_dir(name: &str, files: &[(&str, Vec<u8>)]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dram_lake_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        for (file, bytes) in files {
            std::fs::write(dir.join(file), bytes).expect("write");
        }
        dir
    }

    /// [`lake_dir`], returned once every file's stamp has settled (or
    /// after twice [`SETTLE`], on a file system whose stamps never do).
    fn settled_dir(name: &str, files: &[(&str, Vec<u8>)]) -> PathBuf {
        let dir = lake_dir(name, files);
        let deadline = SystemTime::now() + SETTLE * 2;
        for (file, _) in files {
            let stamp = Stamp::of(&std::fs::metadata(dir.join(file)).expect("stat"));
            while !stamp.settled(SystemTime::now()) && SystemTime::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        dir
    }

    fn act_query() -> Query {
        Query {
            mnemonics: Some(vec!["act".into()]),
            ..Query::default()
        }
    }

    #[test]
    fn lake_reuses_unchanged_files_and_repeats_one_shot_reports() {
        let trace = sample_trace();
        let dir = settled_dir(
            "reuse",
            &[
                ("a.trace", trace.to_bytes()),
                ("b.trace", trace.to_bytes_indexed()),
            ],
        );
        let lake = Lake::new(&dir);
        let queries = [
            act_query(),
            Query {
                banks: Some(vec![1]),
                marker_prefix: Some("span:trr".into()),
                ..Query::default()
            },
            Query {
                min_count: Some(0),
                ..Query::default()
            },
        ];
        for round in 0..3 {
            for query in &queries {
                let fresh = query_path(&dir, query).expect("one-shot query");
                let held = lake.query(query).expect("lake query");
                assert_eq!(held.to_json(), fresh.to_json(), "round {round}");
            }
        }
        assert_eq!(lake.opens(), 2, "each unchanged file is read once");
        assert_eq!(lake.files(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lake_rereads_a_same_length_rewrite() {
        let dir = settled_dir("rewrite", &[("a.trace", sample_trace().to_bytes_indexed())]);
        let lake = Lake::new(&dir);
        let bank0 = Query {
            banks: Some(vec![0]),
            ..act_query()
        };
        assert_eq!(lake.query(&bank0).expect("queries").matched, 5);
        let path = dir.join("a.trace");
        let mtime = std::fs::metadata(&path).and_then(|m| m.modified());
        let moved = sample_trace_on(2).to_bytes_indexed();
        assert_eq!(moved.len(), sample_trace().to_bytes_indexed().len());
        std::fs::write(&path, &moved).expect("rewrite in place");
        if cfg!(unix) {
            // Restore the old modification time, as `cp -p` does: the
            // change time still moves.
            let file = std::fs::File::options().write(true).open(&path);
            file.and_then(|f| f.set_modified(mtime?))
                .expect("restore mtime");
        }
        let report = lake.query(&bank0).expect("queries");
        assert_eq!(
            report.matched, 0,
            "the rewritten file moved its ACTs to bank 2"
        );
        assert_eq!(
            report.to_json(),
            query_path(&dir, &bank0).expect("one-shot").to_json()
        );
        assert_eq!(lake.opens(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lake_rereads_a_file_until_its_stamp_settles() {
        let dir = lake_dir("young", &[("a.trace", sample_trace().to_bytes_indexed())]);
        // A modification time ahead of the clock keeps the stamp from
        // settling however long the queries take.
        let file = std::fs::File::options()
            .write(true)
            .open(dir.join("a.trace"))
            .expect("open");
        file.set_modified(SystemTime::now() + Duration::from_secs(3600))
            .expect("set mtime");
        let lake = Lake::new(&dir);
        let first = lake.query(&act_query()).expect("queries");
        assert_eq!(lake.query(&act_query()).expect("queries"), first);
        assert_eq!(lake.opens(), 2, "an unsettled open is never reused");
        assert_eq!(lake.files(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lake_drops_deleted_files_and_includes_added_ones() {
        let bytes = sample_trace().to_bytes_indexed();
        let dir = settled_dir(
            "listing",
            &[("a.trace", bytes.clone()), ("b.trace", bytes.clone())],
        );
        let lake = Lake::new(&dir);
        assert_eq!(lake.query(&act_query()).expect("queries").files, 2);
        std::fs::remove_file(dir.join("a.trace")).expect("delete");
        std::fs::write(dir.join("c.trace"), &bytes).expect("add");
        let report = lake.query(&act_query()).expect("queries");
        assert_eq!(
            report.to_json(),
            query_path(&dir, &act_query()).expect("one-shot").to_json()
        );
        assert_eq!(report.files, 2);
        assert!(report.hits.iter().all(|h| !h.file.ends_with("a.trace")));
        assert!(report.hits.iter().any(|h| h.file.ends_with("c.trace")));
        assert_eq!(lake.files(), 2, "the deleted file's open is dropped");
        assert_eq!(lake.opens(), 3, "only the added file is read");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lake_never_serves_a_held_version_after_a_corrupt_rewrite() {
        let good = sample_trace().to_bytes_indexed();
        let dir = settled_dir("corrupt", &[("a.trace", good.clone())]);
        let lake = Lake::new(&dir);
        let before = lake.query(&act_query()).expect("queries");
        assert!(before.is_match());
        let mut flipped = good.clone();
        flipped[sample_trace().to_bytes().len() - 3] ^= 0xff;
        std::fs::write(dir.join("a.trace"), &flipped).expect("rewrite in place");
        let one_shot = query_path(&dir, &act_query()).expect_err("corrupt payload");
        for _ in 0..2 {
            assert_eq!(
                lake.query(&act_query()).expect_err("corrupt payload"),
                one_shot
            );
            assert_eq!(lake.files(), 0, "the good version is no longer held");
        }
        assert_eq!(lake.opens(), 3, "a failed open is retried, never cached");
        std::fs::write(dir.join("a.trace"), &good).expect("restore");
        assert_eq!(lake.query(&act_query()).expect("queries"), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stamps_settle_after_a_window_set_by_timestamp_resolution() {
        let stamp = |newest: SystemTime| Stamp {
            len: 1,
            modified: Some(newest - Duration::from_secs(60)),
            changed: Some(newest),
            node: None,
        };
        let coarse = SystemTime::UNIX_EPOCH + Duration::from_secs(1_700_000_000);
        let fine = coarse + Duration::from_nanos(7);
        for (newest, window) in [(fine, FINE_SETTLE), (coarse, SETTLE)] {
            let s = stamp(newest);
            assert!(!s.settled(newest - Duration::from_secs(1)), "clock behind");
            assert!(!s.settled(newest + window - Duration::from_nanos(1)));
            assert!(s.settled(newest + window));
        }
        let untimed = Stamp {
            modified: None,
            ..stamp(fine)
        };
        assert!(!untimed.settled(fine + SETTLE * 10));
    }
}
