//! The characterization service: a job queue over [`FleetPool`] with
//! in-flight dedup and a content-addressed dossier cache.
//!
//! # Cache identity
//!
//! A job's identity is the quadruple
//! `(profile_digest, seed, geometry_digest, options_digest)` — every
//! input that can change a dossier byte, and nothing else. The profile
//! and geometry digests come from the stable FNV-1a identities in
//! `dram_sim::digest`; the options digest folds in the probe options
//! plus the sharded/serial flow choice (the two flows render different
//! dossier shapes, so they must not share cache entries). Two requests
//! with equal keys are guaranteed byte-identical dossiers, so the
//! second is served from cache without touching the pool.
//!
//! # In-flight dedup
//!
//! When an identical request arrives while the first is still running,
//! it does not enqueue a second simulation: it parks on the in-flight
//! entry's condvar and receives the same `Arc`'d output the moment the
//! runner finishes — one simulation, N responses.

use crate::cache::{self, CacheLimits, DiskProbe, DossierStore, Evicted};
use crate::protocol::CharacterizeRequest;
use dram_obs::{render_prometheus, EventBus, EventDraft};
use dram_sim::digest::fnv1a_64;
use dram_sim::{ChipProfile, CommandSink};
use dram_telemetry::{Key, Registry};
use dram_trace::Lake;
use dramscope_core::dossier::{characterize_instrumented, CharacterizeOptions};
use dramscope_core::shard::{characterize_sharded, ShardConfig};
use dramscope_core::{CoreError, FleetPool, PoolStats};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// The content address of one characterization job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DossierKey {
    /// FNV-1a digest of the full device profile.
    pub profile_digest: u64,
    /// The run seed.
    pub seed: u64,
    /// FNV-1a digest of the derived bank geometry.
    pub geometry_digest: u64,
    /// FNV-1a digest of the probe options plus the flow choice.
    pub options_digest: u64,
}

/// A fully resolved job: everything the runner needs, everything the
/// cache key is derived from.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The profile name as requested (for response echoes; not part of
    /// the cache key — two names resolving to one profile share cache).
    pub profile_name: String,
    /// The resolved device profile.
    pub profile: ChipProfile,
    /// The run seed.
    pub seed: u64,
    /// The probe options.
    pub opts: CharacterizeOptions,
    /// Run the per-bank sharded flow instead of the serial one.
    pub sharded: bool,
}

impl JobSpec {
    /// Builds a spec from a validated request plus its resolved profile.
    pub fn new(req: &CharacterizeRequest, profile: ChipProfile) -> Self {
        JobSpec {
            profile_name: req.profile_name.clone(),
            profile,
            seed: req.seed,
            opts: req.opts,
            sharded: req.sharded,
        }
    }

    /// Derives the job's content address.
    pub fn key(&self) -> DossierKey {
        let o = self.opts;
        let rendered = format!(
            "scan_rows={} with_swizzle={} probe_range={:?} retention_wait_ps={} sharded={}",
            o.scan_rows,
            o.with_swizzle,
            o.probe_range,
            o.retention_wait.as_ps(),
            self.sharded
        );
        DossierKey {
            profile_digest: self.profile.digest(),
            seed: self.seed,
            geometry_digest: self.profile.bank_geometry().digest(),
            options_digest: fnv1a_64(rendered.as_bytes()),
        }
    }
}

/// The byte-stable output of one characterization job, as cached and
/// as rendered into result responses.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// The device's public label.
    pub label: String,
    /// The full rendered dossier text.
    pub dossier: String,
    /// FNV-1a digest of the dossier text.
    pub digest: u64,
    /// The subarray composition line (first bank's, for sharded runs).
    pub composition: String,
    /// Total DRAM commands the run issued.
    pub commands: u64,
    /// Total bitflips the run resolved.
    pub bitflips: u64,
    /// The run's telemetry registry (merged into the service registry
    /// on completion; kept here for tests and library callers).
    pub metrics: Registry,
}

/// How a response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// The job ran a fresh simulation.
    Miss,
    /// The dossier was served from the content-addressed cache.
    Hit,
    /// The request joined an identical in-flight job and shares its run.
    Coalesced,
}

impl CacheStatus {
    /// The wire rendering of the marker.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Miss => "miss",
            CacheStatus::Hit => "hit",
            CacheStatus::Coalesced => "coalesced",
        }
    }
}

/// A service-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The service has been shut down; no new jobs are accepted.
    ShutDown,
    /// The characterization itself failed (including worker panics,
    /// which the pool isolates into [`CoreError::WorkerPanic`]).
    Job(CoreError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::ShutDown => write!(f, "service is shut down"),
            ServiceError::Job(e) => write!(f, "job failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A point-in-time snapshot of the service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests accepted by [`Service::submit`].
    pub submitted: u64,
    /// Responses served from the dossier cache.
    pub hits: u64,
    /// Requests that ran a fresh simulation.
    pub misses: u64,
    /// Requests that joined an in-flight identical job.
    pub coalesced: u64,
    /// Simulations actually executed (== `misses`; kept separate so the
    /// dedup invariant `submitted == hits + misses + coalesced` and the
    /// execution count are independently observable).
    pub executions: u64,
    /// Jobs that finished with an error (errors are never cached).
    pub errors: u64,
    /// Jobs currently running.
    pub in_flight: u64,
    /// Entries resident in the in-memory dossier cache.
    pub cache_entries: u64,
    /// Payload bytes resident in the in-memory dossier cache.
    pub cache_bytes: u64,
    /// Memory-tier entries evicted to honor the capacity bounds.
    pub evictions: u64,
    /// Cache hits served by lazily loading a persisted on-disk entry
    /// (a subset of `hits`).
    pub disk_hits: u64,
    /// On-disk entries that existed but failed to decode (corrupt or
    /// truncated files treated as misses and later rewritten).
    pub salvaged: u64,
    /// Trace files whose verified open the query lake holds.
    pub lake_files: u64,
    /// Trace files the query lake read and verified since start.
    pub lake_opens: u64,
}

/// The signature jobs run under: a job spec plus an optional command
/// sink for live progress markers, to a job output.
pub type RunnerFn = dyn Fn(&JobSpec, Option<Box<dyn CommandSink + Send>>) -> Result<JobOutput, CoreError>
    + Send
    + Sync;

/// One in-flight job: late arrivals park on `ready` until the runner
/// publishes into `slot`.
struct InFlight {
    slot: Mutex<Option<Result<Arc<JobOutput>, CoreError>>>,
    ready: Condvar,
}

impl InFlight {
    fn new() -> Self {
        InFlight {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Publishes the result and wakes every parked waiter. The slot
    /// mutex is recovered from poisoning (`PoisonError::into_inner`)
    /// rather than propagated: a panic on some other thread while it
    /// held this lock must not cascade into killing the waiters too —
    /// the slot's `Option` is valid either way.
    fn complete(&self, result: Result<Arc<JobOutput>, CoreError>) {
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.ready.notify_all();
    }

    /// Parks until [`complete`](Self::complete) publishes, recovering
    /// from a poisoned slot the same way.
    fn wait(&self) -> Result<Arc<JobOutput>, CoreError> {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl fmt::Debug for InFlight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InFlight").finish_non_exhaustive()
    }
}

#[derive(Default)]
struct Inner {
    cache: DossierStore,
    in_flight: BTreeMap<DossierKey, Arc<InFlight>>,
    stats: ServiceStats,
    telemetry: Registry,
    /// The pool's final counter snapshot, captured at shutdown so
    /// backlog gauges stay readable after the pool is gone.
    final_pool: Option<PoolStats>,
}

impl Inner {
    /// Records a batch of evictions in the counters; the caller emits
    /// the matching `cache.evict` events after releasing the lock.
    fn account_evictions(&mut self, evicted: &[Evicted]) {
        self.stats.evictions += evicted.len() as u64;
        self.stats.cache_entries = self.cache.len();
        self.stats.cache_bytes = self.cache.bytes();
    }
}

/// The characterization service.
///
/// Wraps a persistent [`FleetPool`] with the dossier cache and the
/// in-flight table. `&Service` is the whole API — it is `Sync`, so the
/// daemon shares one instance across connection threads via `Arc`.
pub struct Service {
    pool: Mutex<Option<FleetPool>>,
    runner: Arc<RunnerFn>,
    inner: Mutex<Inner>,
    events: EventBus,
    /// The trace lake `query` requests evaluate over; unset answers
    /// them with an error instead of guessing a path.
    lake: Mutex<Option<Arc<Lake>>>,
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service").finish_non_exhaustive()
    }
}

/// The default runner: the real characterization flows.
///
/// Serial jobs go through [`characterize_instrumented`] and honor the
/// progress sink. Sharded jobs fan out per bank inside
/// [`characterize_sharded`]'s own scoped pool — the per-bank chips are
/// built worker-side, so a single progress sink cannot observe them;
/// sharded runs simply emit no progress events.
fn real_runner(
    spec: &JobSpec,
    sink: Option<Box<dyn CommandSink + Send>>,
) -> Result<JobOutput, CoreError> {
    if spec.sharded {
        let report =
            characterize_sharded(&spec.profile, spec.seed, spec.opts, ShardConfig::default());
        let dossier = report.dossier()?;
        let text = dossier.to_string();
        Ok(JobOutput {
            label: dossier.label.clone(),
            digest: dossier.digest(),
            composition: dossier
                .banks
                .first()
                .map(|(_, d)| d.composition.clone())
                .unwrap_or_default(),
            dossier: text,
            commands: report.results.iter().map(|r| r.stats.commands()).sum(),
            bitflips: report.results.iter().map(|r| r.stats.bitflips()).sum(),
            metrics: report.merged_metrics(),
        })
    } else {
        let (dossier, stats, metrics) =
            characterize_instrumented(&spec.profile, spec.seed, spec.opts, sink)?;
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
}

impl Service {
    /// Builds a service over a fresh [`FleetPool`] with `workers`
    /// threads (`0` = the machine's available parallelism) and the real
    /// characterization runner.
    pub fn new(workers: usize) -> Self {
        Service::with_runner(workers, Arc::new(real_runner))
    }

    /// [`new`](Self::new) over a caller-supplied [`EventBus`] — the
    /// daemon uses this to attach an on-disk journal before serving.
    pub fn with_events(workers: usize, events: EventBus) -> Self {
        Service::with_runner_and_events(workers, Arc::new(real_runner), events)
    }

    /// Builds a service with an injected runner — tests use this to
    /// count how many simulations actually execute.
    pub fn with_runner(workers: usize, runner: Arc<RunnerFn>) -> Self {
        Service::with_runner_and_events(workers, runner, EventBus::default())
    }

    /// The fully general constructor: injected runner and event bus.
    /// The pool shares the bus, so job lifecycle events interleave with
    /// the service's cache events on one sequence.
    pub fn with_runner_and_events(workers: usize, runner: Arc<RunnerFn>, events: EventBus) -> Self {
        Service {
            pool: Mutex::new(Some(FleetPool::with_events(workers, events.clone()))),
            runner,
            inner: Mutex::new(Inner::default()),
            events,
            lake: Mutex::new(None),
        }
    }

    /// Locks the service state, recovering from poisoning: every
    /// mutation under this lock leaves the maps and counters valid at
    /// every step, so a panic on another thread while it held the lock
    /// records a poisoned flag and nothing worse — one crashed request
    /// must not take the whole daemon's state hostage.
    fn lock_inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Points `query` requests at a trace directory (or a single trace
    /// file), opened lazily as a [`Lake`]. Unset, the daemon answers
    /// queries with an error.
    pub fn set_trace_dir(&self, path: impl Into<std::path::PathBuf>) {
        *self.lake.lock().unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(Lake::new(path)));
    }

    /// The trace lake `query` requests evaluate over, if configured.
    pub(crate) fn lake(&self) -> Option<Arc<Lake>> {
        self.lake
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Points the dossier cache's persistence tier at `dir`, creating
    /// the directory if needed. Completed jobs are written there as
    /// `0x<key>` files (temp-file-then-rename) and later requests —
    /// including after a restart — load them lazily instead of
    /// re-simulating.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn set_cache_dir(&self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<()> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        self.lock_inner().cache.set_dir(dir);
        Ok(())
    }

    /// Bounds the in-memory cache tier (`0` = unbounded), evicting
    /// immediately if the store is already over the new limits.
    /// Eviction is a deterministic LRU on the hit sequence; evicted
    /// entries count in [`ServiceStats::evictions`] and are narrated
    /// as `cache.evict` events. Disk entries are unaffected.
    pub fn set_cache_limits(&self, max_entries: u64, max_bytes: u64) {
        let evicted = {
            let mut inner = self.lock_inner();
            let evicted = inner.cache.set_limits(CacheLimits {
                max_entries,
                max_bytes,
            });
            inner.account_evictions(&evicted);
            evicted
        };
        self.emit_evictions(&evicted);
    }

    /// Narrates a batch of evictions on the event bus.
    fn emit_evictions(&self, evicted: &[Evicted]) {
        for e in evicted {
            self.events.emit(
                EventDraft::info("cache.evict")
                    .field_str("key", &cache::key_file_name(&e.key))
                    .field_u64("bytes", e.bytes),
            );
        }
    }

    /// The service's event bus: every cache decision, job lifecycle
    /// transition, and drain lands here.
    pub fn events(&self) -> &EventBus {
        &self.events
    }

    /// Submits a job, blocking until its output is available.
    ///
    /// Equal-keyed submissions are memoized: the first runs a
    /// simulation on the pool ([`CacheStatus::Miss`]), identical
    /// requests arriving while it runs park and share its output
    /// ([`CacheStatus::Coalesced`]), and later ones are served from the
    /// cache ([`CacheStatus::Hit`]). Errors are never cached — a retry
    /// after a failure runs fresh.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShutDown`] after [`Service::shutdown`];
    /// [`ServiceError::Job`] when the characterization fails (worker
    /// panics arrive as `CoreError::WorkerPanic` — the pool isolates
    /// them, the daemon survives).
    pub fn submit(
        &self,
        spec: &JobSpec,
        sink: Option<Box<dyn CommandSink + Send>>,
    ) -> Result<(Arc<JobOutput>, CacheStatus), ServiceError> {
        self.submit_traced(spec, sink, None)
    }

    /// [`submit`](Self::submit) with a caller-supplied job correlation
    /// id: cache decision events and the pool's lifecycle events all
    /// carry it, so a journal can be filtered down to one request. When
    /// `job_id` is `None` the profile name stands in.
    pub fn submit_traced(
        &self,
        spec: &JobSpec,
        sink: Option<Box<dyn CommandSink + Send>>,
        job_id: Option<&str>,
    ) -> Result<(Arc<JobOutput>, CacheStatus), ServiceError> {
        let key = spec.key();
        let label = job_id.unwrap_or(&spec.profile_name).to_string();
        let cache_event = |kind: &str| {
            EventDraft::info(kind)
                .job(&label)
                .field_str("profile", &spec.profile_name)
                .field_u64("seed", spec.seed)
                .field_bool("sharded", spec.sharded)
        };
        // Phase 1: the memory tier and the in-flight table, under one
        // lock.
        let (flight, cache_dir) = {
            let mut inner = self.lock_inner();
            inner.stats.submitted += 1;
            if let Some(cached) = inner.cache.get(&key) {
                inner.stats.hits += 1;
                drop(inner);
                self.events.emit(cache_event("cache.hit"));
                return Ok((cached, CacheStatus::Hit));
            }
            if let Some(flight) = inner.in_flight.get(&key).map(Arc::clone) {
                inner.stats.coalesced += 1;
                drop(inner);
                self.events.emit(cache_event("cache.coalesced"));
                // Park outside the service lock: other keys keep flowing.
                return match flight.wait() {
                    Ok(output) => Ok((output, CacheStatus::Coalesced)),
                    Err(e) => Err(ServiceError::Job(e)),
                };
            }
            // This request owns the key from here: identical requests
            // arriving during the disk probe or the simulation park on
            // this slot. Whether it is a hit or a miss is settled below.
            inner.stats.in_flight += 1;
            let flight = Arc::new(InFlight::new());
            inner.in_flight.insert(key, Arc::clone(&flight));
            (flight, inner.cache.dir().cloned())
        };
        // From here on the slot must be resolved on *every* path — an
        // unwind included — or coalesced waiters would park forever and
        // every retry would join the dead slot instead of re-running.
        // `finish`/`finish_disk_hit` are the deliberate resolutions;
        // the guard's `Drop` is the backstop for unwinds.
        let guard = FlightGuard {
            service: self,
            key,
            label: label.clone(),
            flight,
            armed: true,
        };
        // Phase 2: the persistence tier, outside the state lock so
        // file IO cannot stall unrelated keys.
        if let Some(dir) = &cache_dir {
            match cache::probe_disk(dir, &key) {
                DiskProbe::Loaded(output) => {
                    self.events.emit(cache_event("cache.hit"));
                    self.events.emit(
                        EventDraft::info("cache.load")
                            .job(&label)
                            .field_str("key", &cache::key_file_name(&key)),
                    );
                    return Ok((guard.finish_disk_hit(output), CacheStatus::Hit));
                }
                DiskProbe::Salvage(reason) => {
                    self.lock_inner().stats.salvaged += 1;
                    self.events.emit(
                        EventDraft::warn("cache.salvage")
                            .job(&label)
                            .field_str("message", &reason),
                    );
                }
                DiskProbe::Absent => {}
            }
        }
        // Phase 3: a genuine miss — simulate on the pool.
        {
            let mut inner = self.lock_inner();
            inner.stats.misses += 1;
            inner.stats.executions += 1;
        }
        // Emitted before the pool's `job.queued` so a tail reads the
        // cache decision, then the lifecycle it caused.
        self.events.emit(cache_event("cache.miss"));

        let result = self.run_on_pool(spec, sink, &label);

        if let Err(e) = &result {
            self.events.emit(
                EventDraft::warn("job.error")
                    .job(&label)
                    .field_str("message", &e.to_string()),
            );
        }
        match guard.finish(result, cache_dir.as_deref()) {
            Ok(output) => Ok((output, CacheStatus::Miss)),
            Err(e) => Err(ServiceError::Job(e)),
        }
    }

    /// Ships the job to the pool and joins its handle. A missing pool
    /// (post-shutdown) surfaces as a `WorkerPanic`-free `CoreError` so
    /// in-flight waiters get a clean error, not a hang.
    fn run_on_pool(
        &self,
        spec: &JobSpec,
        sink: Option<Box<dyn CommandSink + Send>>,
        label: &str,
    ) -> Result<JobOutput, CoreError> {
        let handle = {
            let pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(pool) = pool.as_ref() else {
                return Err(CoreError::from("service is shut down".to_string()));
            };
            let runner = Arc::clone(&self.runner);
            let spec = spec.clone();
            pool.submit_labeled(label, move || runner(&spec, sink))
        };
        handle.join()?
    }

    /// Looks up the memory tier without submitting; does not touch
    /// counters or the LRU hit sequence.
    pub fn peek(&self, key: &DossierKey) -> Option<Arc<JobOutput>> {
        self.lock_inner().cache.peek(key)
    }

    /// Snapshots the live counters.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.lock_inner().stats;
        if let Some(lake) = self.lake() {
            stats.lake_files = lake.files() as u64;
            stats.lake_opens = lake.opens();
        }
        stats
    }

    /// Snapshots the pool's job counters and backlog gauges; after
    /// shutdown the final (fully drained) snapshot keeps being served.
    pub fn pool_stats(&self) -> PoolStats {
        let pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pool) = pool.as_ref() {
            return pool.stats();
        }
        drop(pool);
        self.lock_inner().final_pool.unwrap_or_default()
    }

    /// Renders the merged telemetry registry plus the service and pool
    /// counters in Prometheus text exposition format. Byte-stable for a
    /// given service state — nothing here consults a clock.
    pub fn metrics_prometheus(&self) -> String {
        let mut reg = self.telemetry();
        let s = self.stats();
        let p = self.pool_stats();
        reg.inc(Key::name("dramscoped_submitted_total"), s.submitted);
        reg.inc(Key::name("dramscoped_cache_hits_total"), s.hits);
        reg.inc(Key::name("dramscoped_cache_misses_total"), s.misses);
        reg.inc(Key::name("dramscoped_cache_coalesced_total"), s.coalesced);
        reg.inc(Key::name("dramscoped_executions_total"), s.executions);
        reg.inc(Key::name("dramscoped_errors_total"), s.errors);
        reg.inc(Key::name("dramscoped_jobs_panicked_total"), p.jobs_panicked);
        reg.inc(Key::name("dramscoped_cache_evictions_total"), s.evictions);
        reg.inc(Key::name("dramscoped_cache_disk_hits_total"), s.disk_hits);
        reg.inc(Key::name("dramscoped_cache_salvaged_total"), s.salvaged);
        reg.set_gauge(Key::name("dramscoped_in_flight"), s.in_flight as i64);
        reg.set_gauge(
            Key::name("dramscoped_cache_entries"),
            s.cache_entries as i64,
        );
        reg.set_gauge(Key::name("dramscoped_cache_bytes"), s.cache_bytes as i64);
        reg.set_gauge(Key::name("dramscoped_queue_depth"), p.queue_depth() as i64);
        reg.set_gauge(
            Key::name("dramscoped_jobs_running"),
            p.jobs_running() as i64,
        );
        reg.set_gauge(
            Key::name("dramscoped_uptime_jobs_completed"),
            p.jobs_completed as i64,
        );
        render_prometheus(&reg)
    }

    /// Clones the merged telemetry registry of every completed job.
    pub fn telemetry(&self) -> Registry {
        self.lock_inner().telemetry.clone()
    }

    /// Drains the pool deterministically: queued jobs run to
    /// completion, workers join, and later submissions fail with
    /// [`ServiceError::ShutDown`]. Idempotent.
    pub fn shutdown(&self) {
        let pool = self
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(pool) = pool {
            let final_stats = pool.shutdown_stats();
            self.lock_inner().final_pool = Some(final_stats);
            self.events.emit(
                EventDraft::info("service.drained")
                    .field_u64("jobs_completed", final_stats.jobs_completed)
                    .field_u64("jobs_panicked", final_stats.jobs_panicked),
            );
        }
    }
}

/// Resolves an owned in-flight slot on every exit path.
///
/// Between claiming a key's slot and publishing its result, the
/// submitting thread runs event emission, disk IO, and the pool
/// round-trip; if any of that unwound with the slot still in the
/// table, coalesced waiters would park forever and every retry would
/// join the dead slot instead of re-running. [`finish`](Self::finish)
/// and [`finish_disk_hit`](Self::finish_disk_hit) are the deliberate
/// resolutions; `Drop` is the backstop that turns an unexpected unwind
/// into a clean error for the waiters and an empty slot for retries.
struct FlightGuard<'a> {
    service: &'a Service,
    key: DossierKey,
    label: String,
    flight: Arc<InFlight>,
    armed: bool,
}

impl FlightGuard<'_> {
    /// Publishes a disk-loaded output: the memory tier adopts it, hit
    /// counters tick, and parked waiters receive it.
    fn finish_disk_hit(mut self, output: Arc<JobOutput>) -> Arc<JobOutput> {
        self.armed = false;
        let evicted = {
            let mut inner = self.service.lock_inner();
            inner.in_flight.remove(&self.key);
            inner.stats.in_flight = inner.stats.in_flight.saturating_sub(1);
            inner.stats.hits += 1;
            inner.stats.disk_hits += 1;
            let evicted = inner.cache.insert(self.key, Arc::clone(&output));
            inner.account_evictions(&evicted);
            evicted
        };
        self.service.emit_evictions(&evicted);
        self.flight.complete(Ok(Arc::clone(&output)));
        output
    }

    /// Publishes a simulation result: successes land in the memory
    /// tier and (best-effort) on disk, failures tick the error
    /// counter; waiters get the result either way. Errors are never
    /// cached, so a retry after a failure runs fresh.
    fn finish(
        mut self,
        result: Result<JobOutput, CoreError>,
        dir: Option<&std::path::Path>,
    ) -> Result<Arc<JobOutput>, CoreError> {
        self.armed = false;
        let (result, evicted) = {
            let mut inner = self.service.lock_inner();
            inner.in_flight.remove(&self.key);
            inner.stats.in_flight = inner.stats.in_flight.saturating_sub(1);
            match result {
                Ok(output) => {
                    let output = Arc::new(output);
                    inner.telemetry.merge(&output.metrics);
                    let evicted = inner.cache.insert(self.key, Arc::clone(&output));
                    inner.account_evictions(&evicted);
                    (Ok(output), evicted)
                }
                Err(e) => {
                    inner.stats.errors += 1;
                    (Err(e), Vec::new())
                }
            }
        };
        self.service.emit_evictions(&evicted);
        if let (Ok(output), Some(dir)) = (&result, dir) {
            if let Err(e) = cache::persist_entry(dir, &self.key, output) {
                // Persistence is best-effort: the in-memory entry is
                // live either way, and the next miss rewrites the file.
                self.service.events.emit(
                    EventDraft::warn("cache.persist_error")
                        .job(&self.label)
                        .field_str("message", &e.to_string()),
                );
            }
        }
        self.flight.complete(result.clone());
        result
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // The submitter unwound without resolving the slot.
        let mut inner = self.service.lock_inner();
        inner.in_flight.remove(&self.key);
        inner.stats.in_flight = inner.stats.in_flight.saturating_sub(1);
        inner.stats.errors += 1;
        drop(inner);
        self.flight.complete(Err(CoreError::WorkerPanic(format!(
            "job \"{}\" abandoned: submitter unwound before completing",
            self.label
        ))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    fn spec(name: &str, seed: u64) -> JobSpec {
        let (profile, opts) = profiles::named_job(name).expect("known name");
        JobSpec {
            profile_name: name.to_string(),
            profile,
            seed,
            opts,
            sharded: false,
        }
    }

    /// A runner that counts executions and fabricates a deterministic
    /// output from the spec, no simulation.
    fn counting_service(counter: Arc<AtomicU64>) -> Service {
        Service::with_runner(
            2,
            Arc::new(move |spec: &JobSpec, _sink| {
                counter.fetch_add(1, Ordering::SeqCst);
                let text = format!("dossier for {} seed {}", spec.profile_name, spec.seed);
                Ok(JobOutput {
                    label: spec.profile.label(),
                    digest: fnv1a_64(text.as_bytes()),
                    composition: "test".into(),
                    dossier: text,
                    commands: 1,
                    bitflips: 0,
                    metrics: Registry::new(),
                })
            }),
        )
    }

    #[test]
    fn keys_separate_every_input_dimension() {
        let base = spec("test_small", 1);
        let mut other_seed = base.clone();
        other_seed.seed = 2;
        let mut other_opts = base.clone();
        other_opts.opts.scan_rows += 1;
        let mut other_flow = base.clone();
        other_flow.sharded = true;
        let other_profile = spec("test_small_interleaved", 1);
        let keys = [
            base.key(),
            other_seed.key(),
            other_opts.key(),
            other_flow.key(),
            other_profile.key(),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        // Identity is content-addressed: a rebuilt spec agrees.
        assert_eq!(base.key(), spec("test_small", 1).key());
    }

    #[test]
    fn second_identical_submit_is_a_cache_hit() {
        let count = Arc::new(AtomicU64::new(0));
        let svc = counting_service(Arc::clone(&count));
        let job = spec("test_small", 42);
        let (first, s1) = svc.submit(&job, None).unwrap();
        let (second, s2) = svc.submit(&job, None).unwrap();
        assert_eq!(s1, CacheStatus::Miss);
        assert_eq!(s2, CacheStatus::Hit);
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(first.digest, second.digest);
        assert!(Arc::ptr_eq(&first, &second), "hit serves the cached Arc");
        let stats = svc.stats();
        assert_eq!((stats.hits, stats.misses, stats.executions), (1, 1, 1));
        assert_eq!(stats.cache_entries, 1);
    }

    #[test]
    fn concurrent_identical_submits_coalesce_to_one_execution() {
        let count = Arc::new(AtomicU64::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let runner_gate = Arc::clone(&gate);
        let runner_count = Arc::clone(&count);
        // A runner that blocks until released, so the second submit is
        // guaranteed to arrive while the first is still in flight.
        let svc = Arc::new(Service::with_runner(
            2,
            Arc::new(move |spec: &JobSpec, _sink| {
                runner_count.fetch_add(1, Ordering::SeqCst);
                let (lock, cv) = &*runner_gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(JobOutput {
                    label: spec.profile.label(),
                    digest: 0xd05,
                    composition: String::new(),
                    dossier: "d".into(),
                    commands: 0,
                    bitflips: 0,
                    metrics: Registry::new(),
                })
            }),
        ));
        let job = spec("test_small", 9);
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let job = job.clone();
                thread::spawn(move || svc.submit(&job, None).unwrap())
            })
            .collect();
        // Wait until one execution has started, then until the other
        // submission has parked on the in-flight entry.
        while count.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
        while svc.stats().coalesced == 0 {
            thread::yield_now();
        }
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let mut statuses: Vec<CacheStatus> =
            threads.into_iter().map(|t| t.join().unwrap().1).collect();
        statuses.sort_by_key(|s| s.as_str());
        assert_eq!(statuses, [CacheStatus::Coalesced, CacheStatus::Miss]);
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "one simulation, two responses"
        );
        let stats = svc.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.executions, 1);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn errors_are_not_cached_and_retry_runs_fresh() {
        let count = Arc::new(AtomicU64::new(0));
        let fail_count = Arc::clone(&count);
        let svc = Service::with_runner(
            1,
            Arc::new(move |_spec: &JobSpec, _sink| {
                let n = fail_count.fetch_add(1, Ordering::SeqCst);
                if n == 0 {
                    Err(CoreError::from("flaky".to_string()))
                } else {
                    Ok(JobOutput {
                        label: "ok".into(),
                        digest: 1,
                        composition: String::new(),
                        dossier: "ok".into(),
                        commands: 0,
                        bitflips: 0,
                        metrics: Registry::new(),
                    })
                }
            }),
        );
        let job = spec("test_small", 3);
        let err = svc.submit(&job, None).unwrap_err();
        assert!(matches!(err, ServiceError::Job(_)));
        let (_, status) = svc.submit(&job, None).unwrap();
        assert_eq!(status, CacheStatus::Miss, "failure was not memoized");
        assert_eq!(count.load(Ordering::SeqCst), 2);
        let stats = svc.stats();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.in_flight, 0, "erroring job removed its slot");
    }

    #[test]
    fn failed_jobs_always_clear_their_in_flight_slot() {
        // A panicking runner is the worst case: the error travels back
        // through catch_unwind, and the slot must still come out of the
        // table so a retry re-runs instead of parking on a dead slot.
        let svc = Service::with_runner(
            1,
            Arc::new(|_spec: &JobSpec, _sink| panic!("runner exploded")),
        );
        let job = spec("test_small", 11);
        assert!(svc.submit(&job, None).is_err());
        assert_eq!(svc.stats().in_flight, 0, "panicking job removed its slot");
        // If the slot had leaked, this would block forever on the dead
        // entry; instead it re-runs and errors again.
        assert!(svc.submit(&job, None).is_err());
        let stats = svc.stats();
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.errors, 2);
        assert_eq!(stats.executions, 2, "retry ran fresh");
    }

    #[test]
    fn entry_limit_evicts_least_recently_used_with_counters_and_events() {
        let count = Arc::new(AtomicU64::new(0));
        let svc = counting_service(Arc::clone(&count));
        svc.set_cache_limits(2, 0);
        let a = spec("test_small", 1);
        let b = spec("test_small", 2);
        let c = spec("test_small", 3);
        svc.submit(&a, None).unwrap();
        svc.submit(&b, None).unwrap();
        // Touch `a` so `b` becomes the least recently used entry.
        let (_, status) = svc.submit(&a, None).unwrap();
        assert_eq!(status, CacheStatus::Hit);
        svc.submit(&c, None).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.cache_entries, 2);
        assert!(stats.cache_bytes > 0);
        assert!(svc.peek(&a.key()).is_some(), "recently used entry kept");
        assert!(svc.peek(&b.key()).is_none(), "LRU entry evicted");
        assert!(svc.peek(&c.key()).is_some(), "newest entry kept");
        // The eviction narrated itself with the entry's key and size.
        let evict = svc
            .events()
            .since(0, 0)
            .events
            .into_iter()
            .find(|e| e.kind == "cache.evict")
            .expect("cache.evict event");
        assert_eq!(
            evict.fields["key"].as_str(),
            Some(cache::key_file_name(&b.key()).as_str())
        );
        assert!(evict.fields["bytes"].as_u64().unwrap() > 0);
        // An evicted key re-runs: it is a miss again.
        let (_, status) = svc.submit(&b, None).unwrap();
        assert_eq!(status, CacheStatus::Miss);
        assert_eq!(svc.stats().evictions, 2, "re-inserting evicted the LRU");
    }

    #[test]
    fn byte_limit_is_enforced_at_the_service_level() {
        let count = Arc::new(AtomicU64::new(0));
        let svc = counting_service(Arc::clone(&count));
        // One dossier is ~100 bytes as charged; a 1-byte budget still
        // keeps the newest entry rather than thrashing to empty.
        svc.set_cache_limits(0, 1);
        let a = spec("test_small", 1);
        let b = spec("test_small", 2);
        svc.submit(&a, None).unwrap();
        svc.submit(&b, None).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.cache_entries, 1, "over-budget LRU evicted");
        assert_eq!(stats.evictions, 1);
        assert!(svc.peek(&b.key()).is_some());
        // Tightening limits on a live service evicts immediately.
        svc.set_cache_limits(0, 0);
        svc.submit(&a, None).unwrap();
        svc.submit(&b, None).unwrap();
        assert_eq!(svc.stats().cache_entries, 2, "limits lifted");
    }

    #[test]
    fn disk_cache_survives_a_restart_with_identical_bytes() {
        let dir =
            std::env::temp_dir().join(format!("dramscope_svc_persist_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let job = spec("test_small", 42);

        let count1 = Arc::new(AtomicU64::new(0));
        let svc1 = counting_service(Arc::clone(&count1));
        svc1.set_cache_dir(&dir).unwrap();
        let (first, s1) = svc1.submit(&job, None).unwrap();
        assert_eq!(s1, CacheStatus::Miss);
        svc1.shutdown();

        // A fresh service on the same directory is a cold memory tier
        // but a warm disk tier: no re-simulation, identical dossier.
        let count2 = Arc::new(AtomicU64::new(0));
        let svc2 = counting_service(Arc::clone(&count2));
        svc2.set_cache_dir(&dir).unwrap();
        let (second, s2) = svc2.submit(&job, None).unwrap();
        assert_eq!(s2, CacheStatus::Hit);
        assert_eq!(count2.load(Ordering::SeqCst), 0, "served without running");
        assert_eq!(second.dossier, first.dossier, "byte-identical dossier");
        assert_eq!(second.digest, first.digest);
        let stats = svc2.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.executions, 0);
        // The loaded entry joined the memory tier: the next hit is
        // served without touching the disk counters again.
        let (_, s3) = svc2.submit(&job, None).unwrap();
        assert_eq!(s3, CacheStatus::Hit);
        assert_eq!(svc2.stats().disk_hits, 1);
        // The cache decision narrated the load.
        assert!(svc2
            .events()
            .since(0, 0)
            .events
            .iter()
            .any(|e| e.kind == "cache.load"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_disk_entry_salvages_to_a_miss_and_is_rewritten() {
        let dir =
            std::env::temp_dir().join(format!("dramscope_svc_salvage_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let job = spec("test_small", 7);
        let count1 = Arc::new(AtomicU64::new(0));
        let svc1 = counting_service(Arc::clone(&count1));
        svc1.set_cache_dir(&dir).unwrap();
        svc1.submit(&job, None).unwrap();
        svc1.shutdown();

        // Flip one payload byte: the checksum catches it on load.
        let path = dir.join(cache::key_file_name(&job.key()));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let count2 = Arc::new(AtomicU64::new(0));
        let svc2 = counting_service(Arc::clone(&count2));
        svc2.set_cache_dir(&dir).unwrap();
        let (_, status) = svc2.submit(&job, None).unwrap();
        assert_eq!(status, CacheStatus::Miss, "corruption is a miss");
        assert_eq!(count2.load(Ordering::SeqCst), 1, "job re-ran");
        let stats = svc2.stats();
        assert_eq!(stats.salvaged, 1);
        assert!(svc2
            .events()
            .since(0, 0)
            .events
            .iter()
            .any(|e| e.kind == "cache.salvage"));
        // The miss rewrote the entry: it now probes clean again.
        match cache::probe_disk(&dir, &job.key()) {
            DiskProbe::Loaded(output) => assert!(!output.dossier.is_empty()),
            other => panic!("expected rewritten entry, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_panics_are_isolated_as_job_errors() {
        let svc = Service::with_runner(
            1,
            Arc::new(|_spec: &JobSpec, _sink| panic!("runner exploded")),
        );
        let job = spec("test_small", 4);
        match svc.submit(&job, None) {
            Err(ServiceError::Job(CoreError::WorkerPanic(msg))) => {
                assert!(msg.contains("runner exploded"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // The pool survives; a healthy retry path still errors (same
        // runner) but the service itself keeps accepting work.
        assert!(svc.submit(&job, None).is_err());
        assert_eq!(svc.stats().errors, 2);
    }

    #[test]
    fn cache_decisions_emit_correlated_events() {
        let count = Arc::new(AtomicU64::new(0));
        let svc = counting_service(Arc::clone(&count));
        let job = spec("test_small", 42);
        svc.submit_traced(&job, None, Some("req-1")).unwrap();
        svc.submit_traced(&job, None, Some("req-2")).unwrap();
        let events = svc.events().since(0, 0).events;
        let trace: Vec<(String, String)> = events
            .iter()
            .map(|e| (e.kind.clone(), e.job_id.clone().unwrap_or_default()))
            .collect();
        let expect: Vec<(String, String)> = [
            ("cache.miss", "req-1"),
            ("job.queued", "req-1"),
            ("job.started", "req-1"),
            ("job.finished", "req-1"),
            ("cache.hit", "req-2"),
        ]
        .iter()
        .map(|(k, j)| (k.to_string(), j.to_string()))
        .collect();
        assert_eq!(trace, expect);
        // Cache events carry the request's identity fields.
        assert_eq!(events[0].fields["profile"].as_str(), Some("test_small"));
        assert_eq!(events[0].fields["seed"].as_u64(), Some(42));
        // Sequence numbers are strictly monotonic.
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    #[test]
    fn job_errors_emit_a_warn_event() {
        let svc = Service::with_runner(
            1,
            Arc::new(|_spec: &JobSpec, _sink| Err(CoreError::from("boom".to_string()))),
        );
        let job = spec("test_small", 3);
        svc.submit_traced(&job, None, Some("bad")).unwrap_err();
        let events = svc.events().since(0, 0).events;
        let err = events
            .iter()
            .find(|e| e.kind == "job.error")
            .expect("job.error emitted");
        assert_eq!(err.job_id.as_deref(), Some("bad"));
        assert!(err.fields["message"].as_str().unwrap().contains("boom"));
    }

    #[test]
    fn prometheus_metrics_carry_service_and_pool_gauges() {
        let count = Arc::new(AtomicU64::new(0));
        let svc = counting_service(Arc::clone(&count));
        let job = spec("test_small", 7);
        svc.submit(&job, None).unwrap();
        svc.submit(&job, None).unwrap();
        let text = svc.metrics_prometheus();
        assert!(text.contains("dramscoped_submitted_total 2"), "{text}");
        assert!(text.contains("dramscoped_cache_hits_total 1"), "{text}");
        assert!(text.contains("dramscoped_cache_misses_total 1"), "{text}");
        assert!(
            text.contains("dramscoped_uptime_jobs_completed 1"),
            "{text}"
        );
        assert!(text.contains("dramscoped_queue_depth 0"), "{text}");
        // Byte-stable: the same state renders the same exposition.
        assert_eq!(svc.metrics_prometheus(), text);
        // The final pool snapshot survives shutdown.
        svc.shutdown();
        assert_eq!(svc.pool_stats().jobs_completed, 1);
        assert!(svc
            .events()
            .since(0, 0)
            .events
            .iter()
            .any(|e| e.kind == "service.drained"));
    }

    #[test]
    fn shutdown_rejects_new_work_and_is_idempotent() {
        let count = Arc::new(AtomicU64::new(0));
        let svc = counting_service(Arc::clone(&count));
        let job = spec("test_small", 5);
        svc.submit(&job, None).unwrap();
        svc.shutdown();
        svc.shutdown();
        // The same key is still served from cache after shutdown...
        let (_, status) = svc.submit(&job, None).unwrap();
        assert_eq!(status, CacheStatus::Hit);
        // ...but a fresh key needs the pool, which is gone.
        let fresh = spec("test_small", 6);
        match svc.submit(&fresh, None) {
            Err(ServiceError::Job(e)) => {
                assert!(e.to_string().contains("shut down"), "{e}");
            }
            other => panic!("expected shutdown error, got {other:?}"),
        }
        assert!(svc.peek(&fresh.key()).is_none(), "failed submit not cached");
    }
}
