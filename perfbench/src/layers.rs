//! The traced per-layer pass: each layer's public entry points, called
//! in-process on the workload generators' inputs, each call in a span.
//!
//! Three passes, one per workload's mechanism. The miss pass submits
//! fresh keys to a [`Service`] whose runner calls the characterization
//! flows itself, so the core time inside each submit is a child span.
//! The hit pass decodes, looks up and renders hit requests, then runs
//! the daemon loop over them. The query pass records a lake and repeats
//! `query_path`'s steps (read, open, query, report) as separate spans.

use crate::gen::{self, Key};
use crate::spans::{self, Recorder};
use crate::stats::median;
use dram_sim::CommandSink;
use dram_telemetry::Registry;
use dram_trace::{IndexedTrace, QueryReport};
use dramscope_core::dossier::characterize_instrumented;
use dramscope_core::shard::{characterize_sharded, ShardConfig};
use dramscope_core::trace_run::{
    record_characterization_instrumented, record_characterization_sharded,
};
use dramscope_core::CoreError;
use dramscope_service::protocol::json_string;
use dramscope_service::{
    handle_connection_mode, parse_request, profiles, CacheStatus, ConnMode, JobOutput, JobSpec,
    Request, Service,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Fresh keys the miss pass submits: the first keys of the miss
/// workload, four of each profile.
const MISS_KEYS: usize = 16;
/// Hit requests timed call by call.
const HIT_REQUESTS: usize = 4000;
/// Hit requests pushed through the daemon loop in-process. Each keeps a
/// handler thread until the loop ends, so this stays well short of the
/// workload's count.
const LOOP_REQUESTS: usize = 2000;
/// Query requests timed step by step: twenty of each predicate.
const QUERY_REQUESTS: usize = 60;

/// A job's identity as the runner sees it: profile name and seed.
type Job = (String, u64);

/// Names and units of the per-layer metrics, in report order.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Resolves a generated key into the job the daemon would run for it.
pub fn job_spec(key: &Key) -> JobSpec {
    let (profile, opts) =
        profiles::named_job(key.profile).expect("generated keys name bundled test profiles");
    JobSpec {
        profile_name: key.profile.to_string(),
        profile,
        seed: key.seed,
        opts,
        sharded: key.sharded,
    }
}

/// Records the query workload's lake into `dir` with the program's own
/// recorder and indexed writer, one `.trace` file per key.
pub fn record_lake(dir: &Path, keys: &[Key], rec: &Recorder) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (i, key) in keys.iter().enumerate() {
        let spec = job_spec(key);
        let trace = rec
            .time("trace.record", None, i as u64, || {
                if key.sharded {
                    record_characterization_sharded(
                        &spec.profile,
                        key.seed,
                        spec.opts,
                        ShardConfig::default(),
                    )
                    .map(|(_, trace, _)| trace)
                } else {
                    record_characterization_instrumented(&spec.profile, key.seed, spec.opts)
                        .map(|(_, _, trace, _)| trace)
                }
            })
            .map_err(|e| format!("recording {}: {e}", key.profile))?;
        let bytes = rec.time("trace.encode", None, i as u64, || trace.to_bytes_indexed());
        let flow = if key.sharded { "-sharded" } else { "" };
        let path = dir.join(format!("{i}-{}{flow}.trace", key.profile));
        std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// The miss pass: fresh keys through `Service::submit` from two
/// submitter threads. The runner builds the same output as the
/// service's own, with the flow call inside a span, so a submit's self
/// time is the pool's queue wait plus the service's bookkeeping.
fn miss_pass(seed: u64, rec: &Arc<Recorder>, m: &mut Metrics) -> Result<f64, String> {
    let keys = gen::miss_keys(seed, MISS_KEYS);
    // (profile, seed) -> (request, submit span), so the runner on a pool
    // thread can parent its span on the submit that caused it.
    let parents: Arc<Mutex<HashMap<Job, (u64, usize)>>> = Arc::default();
    let phases: Arc<Mutex<Vec<(&'static str, f64)>>> = Arc::default();
    let acts: Arc<Mutex<Vec<u64>>> = Arc::default();
    let runner = {
        let (rec, parents, phases, acts) = (
            Arc::clone(rec),
            Arc::clone(&parents),
            Arc::clone(&phases),
            Arc::clone(&acts),
        );
        move |spec: &JobSpec,
              sink: Option<Box<dyn CommandSink + Send>>|
              -> Result<JobOutput, CoreError> {
            let (request, parent) = parents
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(&(spec.profile_name.clone(), spec.seed))
                .copied()
                .expect("every submitted key is registered first");
            if spec.sharded {
                let report = rec.time("core.sharded", Some(parent), request, || {
                    characterize_sharded(
                        &spec.profile,
                        spec.seed,
                        spec.opts,
                        ShardConfig::default(),
                    )
                });
                let dossier = report.dossier()?;
                return Ok(JobOutput {
                    label: dossier.label.clone(),
                    digest: dossier.digest(),
                    composition: dossier
                        .banks
                        .first()
                        .map(|(_, d)| d.composition.clone())
                        .unwrap_or_default(),
                    dossier: dossier.to_string(),
                    commands: report.results.iter().map(|r| r.stats.commands()).sum(),
                    bitflips: report.results.iter().map(|r| r.stats.bitflips()).sum(),
                    metrics: report.merged_metrics(),
                });
            }
            let (dossier, stats, metrics) =
                rec.time("core.characterize", Some(parent), request, || {
                    characterize_instrumented(&spec.profile, spec.seed, spec.opts, sink)
                })?;
            phases
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend(stats.phases.iter().map(|p| (p.name, p.wall_ms)));
            acts.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(stats.commands());
            Ok(JobOutput {
                label: dossier.label.clone(),
                digest: dossier.digest(),
                composition: dossier.composition.clone(),
                dossier: dossier.to_string(),
                commands: stats.commands(),
                bitflips: stats.bitflips(),
                metrics,
            })
        }
    };
    let service = Service::with_runner(0, Arc::new(runner));
    let outputs: Mutex<Vec<Arc<JobOutput>>> = Mutex::default();
    let submitted: Result<(), String> = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..2)
            .map(|submitter| {
                let (service, keys, parents, outputs) = (&service, &keys, &parents, &outputs);
                scope.spawn(move || -> Result<(), String> {
                    for (i, key) in keys.iter().enumerate().skip(submitter).step_by(2) {
                        let spec = job_spec(key);
                        let span = rec.open("service.submit_miss", None, i as u64);
                        parents
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .insert((spec.profile_name.clone(), spec.seed), (i as u64, span));
                        let submitted = service.submit(&spec, None);
                        rec.close(span);
                        let (output, status) = submitted.map_err(|e| e.to_string())?;
                        if status != CacheStatus::Miss {
                            return Err(format!("fresh key {i} answered {}", status.as_str()));
                        }
                        outputs
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(output);
                    }
                    Ok(())
                })
            })
            .collect();
        submitters
            .into_iter()
            .try_for_each(|s| s.join().map_err(|_| "a submitter panicked".to_string())?)
    });
    service.shutdown();
    submitted?;
    let outputs = outputs.into_inner().unwrap_or_else(PoisonError::into_inner);
    if outputs.len() != keys.len() {
        return Err(format!(
            "miss pass answered {} of {} keys",
            outputs.len(),
            keys.len()
        ));
    }
    // The service merges each job's registry into its own under its
    // lock; the same merge, timed here.
    let mut merged = Registry::new();
    for (i, output) in outputs.iter().enumerate() {
        rec.time("telemetry.merge", None, i as u64, || {
            merged.merge(&output.metrics)
        });
    }

    // The chip's share: replay each serial job's recorded stream.
    let mut events = Vec::new();
    for (i, key) in keys.iter().enumerate().filter(|(_, k)| !k.sharded) {
        let spec = job_spec(key);
        let (_, _, trace, _) =
            record_characterization_instrumented(&spec.profile, key.seed, spec.opts)
                .map_err(|e| e.to_string())?;
        let replay = rec
            .time("sim.replay", None, i as u64, || {
                dram_trace::replay_on_chip_trusted(&trace, &spec.profile)
            })
            .map_err(|e| e.to_string())?;
        events.push(replay.entry_calls);
    }

    let s = rec.spans();
    let ms = |name| median(&spans::durations_us(&s, name)) / 1e3;
    m.push(("core.characterize_ms", ms("core.characterize"), "ms"));
    m.push(("core.sharded_ms", ms("core.sharded"), "ms"));
    let phases = phases.lock().unwrap_or_else(PoisonError::into_inner);
    for (metric, phase) in [
        ("core.phase.structure_ms", "structure"),
        ("core.phase.power_ms", "power"),
        ("core.phase.retention_ms", "retention"),
        ("core.phase.remap_ms", "remap"),
        ("core.phase.trr_ecc_ms", "trr_ecc"),
    ] {
        let walls: Vec<f64> = phases
            .iter()
            .filter(|(n, _)| *n == phase)
            .map(|(_, w)| *w)
            .collect();
        m.push((metric, median(&walls), "ms"));
    }
    m.push(("sim.replay_ms", ms("sim.replay"), "ms"));
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    m.push(("sim.events_per_request", mean(&events), "count"));
    let acts = acts.lock().unwrap_or_else(PoisonError::into_inner);
    m.push(("sim.modelled_acts_per_request", mean(&acts), "count"));
    let overhead = median(&spans::self_times_us(&s, "service.submit_miss")) / 1e3;
    m.push(("service.miss_overhead_ms", overhead, "ms"));
    m.push((
        "telemetry.merge_us",
        median(&spans::durations_us(&s, "telemetry.merge")),
        "us",
    ));
    Ok(median(&spans::durations_us(&s, "service.submit_miss")))
}

/// The hit pass: decode, cache lookup and render of hit requests, once
/// with child spans and once with the request span alone, then the
/// pipelined daemon loop over the same lines.
fn hit_pass(seed: u64, rec: &Recorder, m: &mut Metrics) -> Result<f64, String> {
    let service = Service::new(0);
    let keys = gen::hit_keys(seed);
    for key in &keys {
        service
            .submit(&job_spec(key), None)
            .map_err(|e| e.to_string())?;
    }
    let lines: Vec<String> = gen::hit_order(seed, HIT_REQUESTS)
        .iter()
        .enumerate()
        .map(|(i, &k)| keys[k].request_line(&gen::request_id('h', i)))
        .collect();
    let plain = Recorder::default();
    for (pass, children) in [(&plain, false), (rec, true)] {
        for (i, line) in lines.iter().enumerate() {
            let request = i as u64;
            let root = pass.open("hit.request", None, request);
            let step = |name| children.then(|| pass.open(name, Some(root), request));
            let end = |id: Option<usize>| {
                if let Some(id) = id {
                    pass.close(id)
                }
            };
            let span = step("protocol.parse");
            let parsed = parse_request(line);
            end(span);
            let Ok(Request::Characterize(req)) = parsed else {
                return Err(format!("hit line {i} did not parse: {parsed:?}"));
            };
            let (profile, _) = profiles::named_job(&req.profile_name)
                .ok_or_else(|| format!("hit line {i} names an unknown profile"))?;
            let spec = JobSpec::new(&req, profile);
            let span = step("service.submit_hit");
            let submitted = service.submit(&spec, None);
            end(span);
            let (output, status) = submitted.map_err(|e| e.to_string())?;
            if status != CacheStatus::Hit {
                return Err(format!("hit line {i} answered {}", status.as_str()));
            }
            let span = step("protocol.render");
            std::hint::black_box(json_string(&output.dossier));
            end(span);
            pass.close(root);
        }
    }
    let input: String = lines[..LOOP_REQUESTS]
        .iter()
        .flat_map(|l| [l.as_str(), "\n"])
        .collect();
    let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
    let started = Instant::now();
    handle_connection_mode(&service, input.as_bytes(), &writer, ConnMode::Pipelined)
        .map_err(|e| e.to_string())?;
    let loop_us = started.elapsed().as_secs_f64() * 1e6 / LOOP_REQUESTS as f64;
    let written = writer.lock().unwrap_or_else(PoisonError::into_inner);
    let results = written
        .split(|&b| b == b'\n')
        .filter(|l| {
            l.starts_with(b"{\"resp\":\"result\"")
                && l.windows(13).any(|w| w == b"\"cache\":\"hit\"")
        })
        .count();
    if results != LOOP_REQUESTS {
        return Err(format!(
            "daemon loop answered {results} of {LOOP_REQUESTS} hits"
        ));
    }
    service.shutdown();

    let s = rec.spans();
    let us = |name| median(&spans::durations_us(&s, name));
    let (parse, submit, render) = (
        us("protocol.parse"),
        us("service.submit_hit"),
        us("protocol.render"),
    );
    m.push(("protocol.parse_us", parse, "us"));
    m.push(("service.submit_hit_us", submit, "us"));
    m.push(("protocol.render_us", render, "us"));
    m.push(("daemon.loop_us_per_request", loop_us, "us"));
    let bare = median(&spans::durations_us(&plain.spans(), "hit.request"));
    m.push(("bench.span_overhead_us", us("hit.request") - bare, "us"));
    Ok(parse + submit + render)
}

/// The query pass: record the lake, then run each request's read, open,
/// query and report steps as separate spans, checking every report
/// against `query_path`.
fn query_pass(seed: u64, dir: &Path, rec: &Recorder, m: &mut Metrics) -> Result<f64, String> {
    record_lake(dir, &gen::lake_keys(seed), rec)?;
    let files: Vec<PathBuf> = dram_trace::query::collect_trace_files(dir)?;
    let names: Vec<String> = files.iter().map(|f| f.display().to_string()).collect();
    let references: Vec<String> = (0..gen::PREDICATES.len())
        .map(|p| dram_trace::query_path(dir, &gen::predicate_query(p)).map(|r| r.to_json()))
        .collect::<Result<_, _>>()?;
    let mut decoded = [0usize; 3];
    let mut segments = [0usize; 3];
    let mut fallback_opens = 0usize;
    for (i, &p) in gen::query_order(seed, QUERY_REQUESTS).iter().enumerate() {
        let request = i as u64;
        let query = gen::predicate_query(p);
        let root = rec.open("query.request", None, request);
        let bytes = rec.time("trace.read", Some(root), request, || {
            files
                .iter()
                .map(std::fs::read)
                .collect::<Result<Vec<_>, _>>()
        });
        let bytes = bytes.map_err(|e| e.to_string())?;
        let opened = rec.time("trace.open", Some(root), request, || {
            bytes
                .iter()
                .map(|b| IndexedTrace::from_bytes(b))
                .collect::<Result<Vec<_>, _>>()
        });
        let opened = opened.map_err(|e| e.to_string())?;
        let answered = rec.time("trace.query", Some(root), request, || {
            opened
                .iter()
                .zip(&names)
                .map(|(t, name)| dram_trace::query::query_indexed(name, t, &query))
                .collect::<Result<Vec<_>, _>>()
        });
        let answered = answered.map_err(|e| e.to_string())?;
        let json = rec.time("trace.report_json", Some(root), request, || {
            let mut report = QueryReport {
                files: opened.len(),
                ..QueryReport::default()
            };
            for (trace, (hits, n)) in opened.iter().zip(answered) {
                report.segments += trace.segments().len();
                report.segments_decoded += n;
                report.matched += hits.iter().map(|h| h.matched).sum::<u64>();
                report.hits.extend(hits);
            }
            (report.to_json(), report.segments, report.segments_decoded)
        });
        rec.close(root);
        let (json, seg, dec) = json;
        if json != references[p] {
            return Err(format!("query pass request {i} disagrees with query_path"));
        }
        segments[p] += seg;
        decoded[p] += dec;
        fallback_opens =
            fallback_opens.max(opened.iter().filter(|t| t.fallback().is_some()).count());
    }

    let s = rec.spans();
    let us = |name| median(&spans::durations_us(&s, name));
    m.push(("trace.read_us", us("trace.read"), "us"));
    m.push(("trace.open_us", us("trace.open"), "us"));
    m.push(("trace.query_us", us("trace.query"), "us"));
    m.push(("trace.report_json_us", us("trace.report_json"), "us"));
    let ratio = |d: usize, s: usize| d as f64 / s.max(1) as f64;
    m.push((
        "trace.segments_decoded_ratio",
        ratio(decoded.iter().sum(), segments.iter().sum()),
        "ratio",
    ));
    for (p, name) in [
        "trace.segments_decoded_ratio.pruned",
        "trace.segments_decoded_ratio.marker",
        "trace.segments_decoded_ratio.scan",
    ]
    .into_iter()
    .enumerate()
    {
        m.push((name, ratio(decoded[p], segments[p]), "ratio"));
    }
    m.push(("trace.fallback_opens", fallback_opens as f64, "count"));
    m.push(("trace.record_ms", us("trace.record") / 1e3, "ms"));
    m.push(("trace.encode_ms", us("trace.encode") / 1e3, "ms"));
    Ok(us("query.request"))
}

/// What the passes measured, plus each workload's in-process handling
/// time per request (the part of a round trip the daemon's wire does
/// not add), microseconds.
#[derive(Debug)]
pub struct Layers {
    /// Per-layer metrics, in report order.
    pub metrics: Metrics,
    /// In-process handling of one miss request, microseconds.
    pub miss_handling_us: f64,
    /// In-process parse + cache lookup + render of one hit request.
    pub hit_handling_us: f64,
    /// In-process read + open + query + report of one query request.
    pub query_handling_us: f64,
    /// Every span of every pass.
    pub spans: Vec<(&'static str, Vec<spans::Span>)>,
}

/// Runs all three passes with inputs from the workload seed; the query
/// pass records its lake under `dir`.
pub fn run(seed: u64, dir: &Path) -> Result<Layers, String> {
    let mut metrics = Metrics::new();
    let miss_rec = Arc::new(Recorder::default());
    let miss_handling_us = miss_pass(seed, &miss_rec, &mut metrics)?;
    let hit_rec = Recorder::default();
    let hit_handling_us = hit_pass(seed, &hit_rec, &mut metrics)?;
    let query_rec = Recorder::default();
    let query_handling_us = query_pass(seed, dir, &query_rec, &mut metrics)?;
    Ok(Layers {
        metrics,
        miss_handling_us,
        hit_handling_us,
        query_handling_us,
        spans: vec![
            ("miss", miss_rec.spans()),
            ("hit", hit_rec.spans()),
            ("query", query_rec.spans()),
        ],
    })
}
