//! Parallel fleet characterization: run [`characterize`](crate::dossier::characterize) over a whole
//! device population concurrently.
//!
//! The paper characterizes 376 DDR4 chips and 4 HBM2 stacks (Table I);
//! this module is the reproduction's equivalent of wiring many devices
//! to many testbeds at once. Each profile gets its own simulated chip,
//! its own worker, and a deterministic seed derived from the fleet's
//! base seed and the profile's label — so a parallel run produces
//! byte-identical dossiers to a serial run of the same jobs.
//!
//! Failure isolation: a panic inside one worker (a simulator fault, a
//! violated invariant) is caught and reported as that profile's
//! [`CoreError::WorkerPanic`]; every other profile still completes.
//!
//! [`run_fleet`] and [`run_fleet_sharded`] — like the bank-sharded paths
//! in [`crate::shard`] and [`crate::trace_run`] — are task lists on one
//! crate-private task engine beside [`parallel_map`], which times each
//! task, isolates its panics and emits its `job.*` lifecycle events.
//!
//! # Example
//!
//! ```no_run
//! use dram_obs::EventBus;
//! use dramscope_core::fleet::{self, FleetConfig};
//!
//! let jobs = fleet::table1_jobs();
//! let report = fleet::run_fleet(&jobs, 0x5ca1e, FleetConfig::default(), None);
//! println!("{}", report.table());
//! println!("{}", report.json_lines());
//!
//! // The serial reference, narrating every job's lifecycle onto a bus.
//! let bus = EventBus::new(256);
//! let serial = fleet::run_fleet(&jobs, 0x5ca1e, FleetConfig { workers: 1 }, Some(&bus));
//! println!("{}", serial.summary_json());
//! ```

use crate::dossier::{CharacterizeOptions, ChipDossier, RunStats, Task};
use crate::error::CoreError;
use crate::shard::{BankResult, ShardedReport};
use dram_obs::{EventBus, EventDraft};
use dram_sim::rng::mix64;
use dram_sim::{ChipProfile, CommandSink};
use dram_telemetry::{json, Registry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Instant;

/// One unit of fleet work: a device profile plus its probe options.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// The device to characterize.
    pub profile: ChipProfile,
    /// Probe options (interior probe range, scan depth, swizzle).
    pub opts: CharacterizeOptions,
}

/// Configuration for [`run_fleet`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetConfig {
    /// Worker threads. `0` (the default) uses the machine's available
    /// parallelism, capped at the job count.
    pub workers: usize,
}

/// The outcome of characterizing one profile.
#[derive(Debug, Clone)]
pub struct ProfileResult {
    /// The profile's public label.
    pub label: String,
    /// The derived per-profile seed actually used.
    pub seed: u64,
    /// The dossier, or the error/panic that stopped this profile.
    pub outcome: Result<ChipDossier, CoreError>,
    /// Per-phase run statistics (empty when the worker panicked).
    pub stats: RunStats,
    /// Wall-clock time this whole job spent on its worker, milliseconds
    /// — characterization plus engine overhead, measured even when the
    /// job errored (zero only when the worker panicked, because the
    /// unwind destroys the job's clock). The sum across profiles is the
    /// serial-equivalent cost a parallel run's speedup is judged
    /// against.
    pub job_wall_ms: f64,
    /// Telemetry collected on the profile's primary testbed (empty when
    /// the worker failed). Deterministic for a given `(profile, seed)`.
    pub metrics: Registry,
}

impl ProfileResult {
    /// One JSON object (a single line, no trailing newline) describing
    /// this profile's run: status, per-phase wall/command/bitflip
    /// numbers, and the dossier fields on success.
    pub fn json_line(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        push_str_field(&mut s, "label", &self.label);
        s.push_str(&format!(",\"seed\":{}", self.seed));
        s.push_str(&format!(",\"wall_ms\":{:.3}", self.stats.wall_ms()));
        s.push_str(&format!(",\"job_wall_ms\":{:.3}", self.job_wall_ms));
        s.push_str(&format!(",\"commands\":{}", self.stats.commands()));
        s.push_str(&format!(",\"bitflips\":{}", self.stats.bitflips()));
        s.push_str(",\"phases\":[");
        for (i, p) in self.stats.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            push_str_field(&mut s, "name", p.name);
            s.push_str(&format!(
                ",\"wall_ms\":{:.3},\"commands\":{},\"bitflips\":{}}}",
                p.wall_ms, p.commands, p.bitflips
            ));
        }
        s.push(']');
        match &self.outcome {
            Ok(d) => {
                s.push_str(",\"status\":\"ok\",\"dossier\":{");
                push_str_field(&mut s, "composition", &d.composition);
                s.push_str(&format!(",\"edge_interval\":{}", opt_json(d.edge_interval)));
                s.push_str(&format!(
                    ",\"edge_interval_from_power\":{}",
                    opt_json(d.edge_interval_from_power)
                ));
                s.push_str(&format!(
                    ",\"coupled_distance\":{}",
                    opt_json(d.coupled_distance)
                ));
                s.push_str(&format!(
                    ",\"copy_inverted\":{}",
                    d.copy_inverted.map_or("null".into(), |b| b.to_string())
                ));
                s.push(',');
                push_str_field(&mut s, "polarity", &format!("{:?}", d.polarity));
                s.push(',');
                push_str_field(&mut s, "remap", &format!("{:?}", d.remap));
                s.push_str(&format!(",\"mats_per_rd\":{}", opt_json(d.mats_per_rd)));
                s.push_str(&format!(",\"mat_width\":{}", opt_json(d.mat_width)));
                s.push(',');
                push_str_field(&mut s, "trr", &format!("{:?}", d.trr));
                s.push(',');
                push_str_field(&mut s, "on_die_ecc", &format!("{:?}", d.on_die_ecc));
                s.push('}');
            }
            Err(e) => {
                s.push_str(",\"status\":\"error\",");
                push_str_field(&mut s, "error", &e.to_string());
            }
        }
        s.push('}');
        s
    }
}

fn opt_json(v: Option<u32>) -> String {
    v.map_or("null".into(), |x| x.to_string())
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&json::string(value));
}

/// Everything a fleet run produced, in job order.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-profile results, index-aligned with the submitted jobs.
    pub results: Vec<ProfileResult>,
    /// End-to-end wall time of the whole run, milliseconds.
    pub wall_ms: f64,
    /// Worker threads actually used.
    pub workers: usize,
}

impl FleetReport {
    /// The machine-readable run report: one JSON object per profile,
    /// newline-separated (JSON-lines).
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&r.json_line());
            out.push('\n');
        }
        out
    }

    /// A human-readable summary table (CSV via [`crate::report::Table`]).
    pub fn table(&self) -> String {
        let mut t = crate::report::Table::new(vec![
            "device",
            "status",
            "wall_ms",
            "job_ms",
            "commands",
            "bitflips",
            "composition",
        ]);
        for r in &self.results {
            let (status, composition) = match &r.outcome {
                Ok(d) => ("ok".to_string(), d.composition.clone()),
                Err(e) => (format!("error: {e}"), String::new()),
            };
            t.row(vec![
                r.label.clone(),
                status,
                format!("{:.1}", r.stats.wall_ms()),
                format!("{:.1}", r.job_wall_ms),
                r.stats.commands().to_string(),
                r.stats.bitflips().to_string(),
                composition,
            ]);
        }
        t.to_csv()
    }

    /// Total worker-side wall time across every job, milliseconds — what
    /// the run would have cost serially on one of this machine's cores.
    pub fn jobs_wall_ms(&self) -> f64 {
        self.results.iter().map(|r| r.job_wall_ms).sum()
    }

    /// Observed parallel speedup: summed per-job wall time over the
    /// run's end-to-end wall time. `≈ 1.0` on one worker (engine
    /// overhead can push it slightly below), approaching the worker
    /// count when jobs are long and balanced. `None` when the run's
    /// wall time rounds to zero.
    pub fn speedup(&self) -> Option<f64> {
        (self.wall_ms > 0.0).then(|| self.jobs_wall_ms() / self.wall_ms)
    }

    /// One JSON object summarizing the run as a whole: worker count
    /// actually used, job/ok counts, end-to-end and summed per-job wall
    /// times, and the observed parallel speedup (`null` when the run was
    /// too fast to time).
    pub fn summary_json(&self) -> String {
        let ok = self.results.iter().filter(|r| r.outcome.is_ok()).count();
        let speedup = self
            .speedup()
            .map_or("null".to_string(), |s| format!("{s:.2}"));
        format!(
            "{{\"workers\":{},\"jobs\":{},\"ok\":{},\"wall_ms\":{:.3},\"jobs_wall_ms\":{:.3},\"speedup\":{}}}",
            self.workers,
            self.results.len(),
            ok,
            self.wall_ms,
            self.jobs_wall_ms(),
            speedup
        )
    }

    /// `true` when every profile produced a dossier.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.outcome.is_ok())
    }

    /// Folds every profile's telemetry into one fleet-wide registry.
    ///
    /// Merging happens in job order regardless of which worker finished
    /// first, and counter/histogram merging is commutative anyway, so
    /// the merged snapshot is byte-identical between parallel and serial
    /// runs of the same jobs — the same determinism contract the
    /// dossiers obey.
    pub fn merged_metrics(&self) -> Registry {
        Registry::merged(self.results.iter().map(|r| &r.metrics))
    }
}

/// Derives the per-profile seed from the fleet's base seed and the
/// profile's label. Deterministic and order-independent: the same
/// `(base, label)` pair always gives the same seed, regardless of which
/// worker runs the job or in which order jobs complete.
pub fn derive_seed(base: u64, label: &str) -> u64 {
    let mut h = mix64(base ^ 0x000F_1EE7_C0DE);
    for b in label.bytes() {
        h = mix64(h ^ u64::from(b));
    }
    h
}

/// The Table I population: every preset profile paired with an interior
/// probe range inside a non-edge subarray of its layout.
pub fn table1_jobs() -> Vec<FleetJob> {
    // Probe ranges by subarray family (the range must sit inside the
    // second subarray, clear of the low-edge one): 640-row family →
    // (648, 704), 832-row family → (840, 896), 688-row family →
    // (696, 752). These mirror the per-device ranges the bench binaries
    // have always used.
    let ranged = |profile: ChipProfile, probe_range: (u32, u32)| FleetJob {
        opts: CharacterizeOptions {
            probe_range,
            ..CharacterizeOptions::default()
        },
        profile,
    };
    vec![
        ranged(ChipProfile::mfr_a_x4_2016(), (648, 704)),
        ranged(ChipProfile::mfr_a_x4_2017(), (648, 704)),
        ranged(ChipProfile::mfr_a_x4_2018(), (840, 896)),
        ranged(ChipProfile::mfr_a_x4_2021(), (840, 896)),
        ranged(ChipProfile::mfr_a_x8_2017(), (648, 704)),
        ranged(ChipProfile::mfr_a_x8_2018(), (840, 896)),
        ranged(ChipProfile::mfr_a_x8_2019(), (648, 704)),
        ranged(ChipProfile::mfr_b_x4_2019(), (840, 896)),
        ranged(ChipProfile::mfr_b_x8_2017(), (840, 896)),
        ranged(ChipProfile::mfr_b_x8_2018(), (840, 896)),
        ranged(ChipProfile::mfr_b_x8_2019(), (840, 896)),
        ranged(ChipProfile::mfr_c_x4_2018(), (696, 752)),
        ranged(ChipProfile::mfr_c_x4_2021(), (696, 752)),
        ranged(ChipProfile::mfr_c_x8_2016(), (696, 752)),
        ranged(ChipProfile::mfr_c_x8_2019(), (696, 752)),
        ranged(ChipProfile::hbm2_mfr_a(), (840, 896)),
    ]
}

/// Characterizes every job concurrently on a `std::thread::scope` worker
/// pool. Results come back in job order; a worker panic costs only the
/// offending profile. `workers: 1` is the serial reference: the same
/// jobs, seeds and execution order, one job at a time.
///
/// With `events`, every job emits `job.queued` / `job.started` /
/// `job.finished` (or `job.panicked`) onto the bus, correlated by the
/// profile label as `job_id`. The report — and every dossier in it — is
/// byte-identical with or without a bus; events are pure observation.
pub fn run_fleet(
    jobs: &[FleetJob],
    base_seed: u64,
    config: FleetConfig,
    events: Option<&EventBus>,
) -> FleetReport {
    let workers = effective_workers(config.workers, jobs.len());
    FleetReport::run(jobs, base_seed, workers, events, &|_| None)
}

impl FleetReport {
    /// Runs one whole-device task per job on the task engine, with the
    /// sink `attach` hands each job (by job index).
    fn run(
        jobs: &[FleetJob],
        base_seed: u64,
        workers: usize,
        events: Option<&EventBus>,
        attach: Attach<'_>,
    ) -> FleetReport {
        let started = Instant::now();
        let tasks: Vec<Task> = jobs
            .iter()
            .map(|job| {
                let seed = derive_seed(base_seed, &job.profile.label());
                Task::device(&job.profile, seed, job.opts)
            })
            .collect();
        let results = tasks
            .iter()
            .zip(run_tasks(&tasks, workers, events, attach))
            .map(|(task, r)| ProfileResult {
                label: task.profile.label(),
                seed: task.seed,
                outcome: r.outcome,
                stats: r.stats,
                job_wall_ms: r.bank_wall_ms,
                metrics: r.metrics,
            })
            .collect();
        FleetReport {
            results,
            wall_ms: ms_since(started),
            workers,
        }
    }
}

/// The worker count for `requested` workers (`0` = the machine's
/// available parallelism) over `tasks` tasks: at least one, at most one
/// per task.
pub(crate) fn effective_workers(requested: usize, tasks: usize) -> usize {
    let hw = thread::available_parallelism().map_or(1, |n| n.get());
    let w = if requested == 0 { hw } else { requested };
    w.clamp(1, tasks.max(1))
}

/// Everything a two-level sharded fleet run produced: one
/// [`ShardedReport`] per job, in job order, each with its banks in bank
/// order.
#[derive(Debug, Clone)]
pub struct ShardedFleetReport {
    /// Per-profile sharded reports, index-aligned with the submitted
    /// jobs. Each report's `wall_ms` is its summed per-bank worker time
    /// (a per-profile end-to-end time does not exist on a shared pool).
    pub profiles: Vec<ShardedReport>,
    /// End-to-end wall time of the whole run, milliseconds.
    pub wall_ms: f64,
    /// Worker threads actually used.
    pub workers: usize,
    /// Total `(profile, bank)` tasks scheduled.
    pub tasks: usize,
}

impl ShardedFleetReport {
    /// `true` when every bank of every profile produced a dossier.
    pub fn all_ok(&self) -> bool {
        self.profiles.iter().all(ShardedReport::all_ok)
    }

    /// Total worker-side wall time across every task, milliseconds.
    pub fn tasks_wall_ms(&self) -> f64 {
        self.profiles.iter().map(ShardedReport::banks_wall_ms).sum()
    }

    /// Observed parallel speedup: summed per-task wall time over the
    /// run's end-to-end wall time. `None` when the run's wall time
    /// rounds to zero.
    pub fn speedup(&self) -> Option<f64> {
        (self.wall_ms > 0.0).then(|| self.tasks_wall_ms() / self.wall_ms)
    }

    /// Folds every profile's every bank's telemetry into one fleet-wide
    /// registry, in job order then bank order — deterministic regardless
    /// of which worker finished which task first.
    pub fn merged_metrics(&self) -> Registry {
        Registry::merged(
            self.profiles
                .iter()
                .flat_map(|p| p.results.iter().map(|r| &r.metrics)),
        )
    }

    /// A human-readable per-(device, bank) summary table (CSV via
    /// [`crate::report::Table`]).
    pub fn table(&self) -> String {
        let mut t = crate::report::Table::new(vec![
            "device",
            "bank",
            "status",
            "wall_ms",
            "bank_ms",
            "commands",
            "composition",
        ]);
        for p in &self.profiles {
            for r in &p.results {
                let (status, composition) = match &r.outcome {
                    Ok(d) => ("ok".to_string(), d.composition.clone()),
                    Err(e) => (format!("error: {e}"), String::new()),
                };
                t.row(vec![
                    p.label.clone(),
                    r.bank.to_string(),
                    status,
                    format!("{:.1}", r.stats.wall_ms()),
                    format!("{:.1}", r.bank_wall_ms),
                    r.stats.commands().to_string(),
                    composition,
                ]);
            }
        }
        t.to_csv()
    }

    /// One JSON object summarizing the run as a whole.
    pub fn summary_json(&self) -> String {
        let ok = self
            .profiles
            .iter()
            .flat_map(|p| &p.results)
            .filter(|r| r.outcome.is_ok())
            .count();
        let speedup = self
            .speedup()
            .map_or("null".to_string(), |s| format!("{s:.2}"));
        format!(
            "{{\"workers\":{},\"jobs\":{},\"tasks\":{},\"ok\":{},\"wall_ms\":{:.3},\"tasks_wall_ms\":{:.3},\"speedup\":{}}}",
            self.workers,
            self.profiles.len(),
            self.tasks,
            ok,
            self.wall_ms,
            self.tasks_wall_ms(),
            speedup
        )
    }
}

/// The two-level scheduler: every `(profile, bank)` pair across all
/// jobs becomes one task on a single shared worker pool, so a fleet of
/// few (or one) big devices still saturates a multi-core machine —
/// per-bank sharding *inside* each device supplies the parallelism that
/// profile-level fan-out alone cannot.
///
/// Seeds derive per profile exactly as in [`run_fleet`]; every bank
/// shard of one profile runs against a fresh chip clone built from that
/// same seed (the clone-per-shard contract of [`crate::shard`]).
/// Results group back per profile in bank order, so the output is
/// byte-identical to running
/// [`characterize_sharded_serial`](crate::shard::characterize_sharded_serial) over the jobs one
/// at a time, regardless of worker count or completion order. A panic
/// costs only its own `(profile, bank)` task.
///
/// With `events`, every task emits the `job.*` lifecycle of
/// [`run_fleet`], correlated by the profile label as `job_id` and the
/// bank as `shard`.
pub fn run_fleet_sharded(
    jobs: &[FleetJob],
    base_seed: u64,
    config: FleetConfig,
    events: Option<&EventBus>,
) -> ShardedFleetReport {
    let started = Instant::now();
    let seeds: Vec<u64> = jobs
        .iter()
        .map(|job| derive_seed(base_seed, &job.profile.label()))
        .collect();
    let tasks: Vec<Task> = jobs
        .iter()
        .zip(&seeds)
        .flat_map(|(job, &seed)| Task::banks(&job.profile, seed, job.opts))
        .collect();
    let workers = effective_workers(config.workers, tasks.len());
    // Group the flat results back per profile, in bank order. The task
    // list is job-major, so each job's banks are contiguous.
    let mut results = run_tasks(&tasks, workers, events, &|_| None).into_iter();
    let profiles = jobs
        .iter()
        .zip(seeds)
        .map(|(job, seed)| {
            let results: Vec<BankResult> =
                results.by_ref().take(job.profile.banks as usize).collect();
            let wall_ms = results.iter().map(|r| r.bank_wall_ms).sum();
            ShardedReport {
                label: job.profile.label(),
                seed,
                results,
                wall_ms,
                shards: workers,
            }
        })
        .collect();
    ShardedFleetReport {
        profiles,
        wall_ms: ms_since(started),
        workers,
        tasks: tasks.len(),
    }
}

/// One boxed unit of pool work.
type PoolTask = Box<dyn FnOnce() + Send + 'static>;

/// Lifetime job counters shared between a [`FleetPool`] and its workers.
#[derive(Debug, Default)]
struct PoolCounters {
    queued: AtomicU64,
    started: AtomicU64,
    completed: AtomicU64,
    panicked: AtomicU64,
}

/// A point-in-time view of a [`FleetPool`]'s backlog and history,
/// derived from monotonic per-state counters so the derived gauges can
/// never go negative even when read mid-transition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs ever submitted.
    pub jobs_queued: u64,
    /// Jobs a worker has picked up.
    pub jobs_started: u64,
    /// Jobs that ran to completion (panic-free).
    pub jobs_completed: u64,
    /// Jobs that panicked (isolated into their handle's error).
    pub jobs_panicked: u64,
}

impl PoolStats {
    /// Submitted jobs not yet picked up by a worker.
    pub fn queue_depth(&self) -> u64 {
        self.jobs_queued.saturating_sub(self.jobs_started)
    }

    /// Jobs currently executing on a worker.
    pub fn jobs_running(&self) -> u64 {
        self.jobs_started
            .saturating_sub(self.jobs_completed + self.jobs_panicked)
    }
}

/// Attaches an optional job correlation id to a draft.
fn correlate(draft: EventDraft, job_id: &Option<String>) -> EventDraft {
    match job_id {
        Some(id) => draft.job(id),
        None => draft,
    }
}

/// A persistent worker pool for long-running job streams.
///
/// [`run_fleet`] and friends are batch engines: they spin a scoped pool
/// up, drain a fixed job list, and tear the pool down. A daemon serving
/// characterization requests needs the opposite shape — workers that
/// outlive any one submission — so `FleetPool` keeps the same contracts
/// (panic isolation per job, deterministic drain) on a long-lived pool.
///
/// * [`submit`](Self::submit) hands a closure to the pool and returns a
///   [`JobHandle`] immediately; jobs run in submission order (a single
///   shared queue) on whichever worker frees up first.
/// * A panic inside a job is caught and surfaced as that job's
///   [`CoreError::WorkerPanic`]; the worker survives and keeps serving.
/// * [`shutdown`](Self::shutdown) (and `Drop`) closes the queue and
///   joins every worker — every job already submitted still runs to
///   completion, so shutdown drains deterministically: no submitted job
///   is ever silently dropped.
///
/// # Example
///
/// ```
/// use dramscope_core::fleet::FleetPool;
///
/// let pool = FleetPool::new(2);
/// let handle = pool.submit(|| 6 * 7);
/// assert_eq!(handle.join().unwrap(), 42);
/// pool.shutdown();
/// ```
#[derive(Debug)]
pub struct FleetPool {
    queue: Option<mpsc::Sender<PoolTask>>,
    workers: Vec<thread::JoinHandle<()>>,
    counters: Arc<PoolCounters>,
    events: Option<EventBus>,
}

/// The receipt for one [`FleetPool::submit`]: join it to collect the
/// job's result (or the panic it was isolated into).
#[derive(Debug)]
pub struct JobHandle<R> {
    rx: mpsc::Receiver<Result<R, CoreError>>,
}

impl<R> JobHandle<R> {
    /// Blocks until the job completes and returns its result. A job that
    /// panicked yields [`CoreError::WorkerPanic`] instead of poisoning
    /// anything.
    pub fn join(self) -> Result<R, CoreError> {
        self.rx.recv().unwrap_or_else(|_| {
            // Unreachable by construction (the worker always sends,
            // panic or not), but a dead pool must read as an error, not
            // a crash in the caller.
            Err(CoreError::WorkerPanic(
                "worker pool dropped the job before completion".into(),
            ))
        })
    }
}

impl FleetPool {
    /// Spawns a pool of `workers` threads (`0` uses the machine's
    /// available parallelism, minimum one).
    pub fn new(workers: usize) -> FleetPool {
        FleetPool::build(workers, None)
    }

    /// Like [`new`](Self::new), but every job's lifecycle
    /// (`job.queued` → `job.started` → `job.finished` / `job.panicked`)
    /// is emitted onto `events`. Use [`submit_labeled`](Self::submit_labeled)
    /// to correlate those events with a job id.
    pub fn with_events(workers: usize, events: EventBus) -> FleetPool {
        FleetPool::build(workers, Some(events))
    }

    fn build(workers: usize, events: Option<EventBus>) -> FleetPool {
        let count = effective_workers(workers, usize::MAX);
        let (tx, rx) = mpsc::channel::<PoolTask>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..count)
            .map(|_| {
                let rx = Arc::clone(&rx);
                thread::spawn(move || loop {
                    // Lock only to receive; a poisoned queue lock means a
                    // sibling worker died mid-recv (impossible by
                    // construction, but recoverable either way).
                    let task = {
                        let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
                        guard.recv()
                    };
                    match task {
                        Ok(task) => task(),
                        Err(_) => break, // queue closed: pool shut down
                    }
                })
            })
            .collect();
        FleetPool {
            queue: Some(tx),
            workers,
            counters: Arc::new(PoolCounters::default()),
            events,
        }
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The pool's lifetime job counters and derived backlog gauges.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs_queued: self.counters.queued.load(Ordering::Relaxed),
            jobs_started: self.counters.started.load(Ordering::Relaxed),
            jobs_completed: self.counters.completed.load(Ordering::Relaxed),
            jobs_panicked: self.counters.panicked.load(Ordering::Relaxed),
        }
    }

    /// Enqueues one job and returns its handle. The closure runs exactly
    /// once, on some pool worker, with any panic isolated into the
    /// handle's result.
    pub fn submit<R, F>(&self, job: F) -> JobHandle<R>
    where
        F: FnOnce() -> R + Send + 'static,
        R: Send + 'static,
    {
        self.submit_inner(None, job)
    }

    /// [`submit`](Self::submit) with a job correlation id: lifecycle
    /// events (on a pool built with [`with_events`](Self::with_events))
    /// carry `job_id` so a journal can be filtered down to one job.
    pub fn submit_labeled<R, F>(&self, job_id: &str, job: F) -> JobHandle<R>
    where
        F: FnOnce() -> R + Send + 'static,
        R: Send + 'static,
    {
        self.submit_inner(Some(job_id.to_string()), job)
    }

    fn submit_inner<R, F>(&self, job_id: Option<String>, job: F) -> JobHandle<R>
    where
        F: FnOnce() -> R + Send + 'static,
        R: Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let counters = Arc::clone(&self.counters);
        counters.queued.fetch_add(1, Ordering::Relaxed);
        let events = self.events.clone();
        if let Some(bus) = &events {
            bus.emit(correlate(EventDraft::info("job.queued"), &job_id));
        }
        let task: PoolTask = Box::new(move || {
            counters.started.fetch_add(1, Ordering::Relaxed);
            if let Some(bus) = &events {
                bus.emit(correlate(EventDraft::info("job.started"), &job_id));
            }
            let job_started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(job))
                .map_err(|payload| CoreError::WorkerPanic(panic_message(payload)));
            let wall_ms = job_started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
            match &outcome {
                Ok(_) => {
                    counters.completed.fetch_add(1, Ordering::Relaxed);
                    if let Some(bus) = &events {
                        bus.emit(
                            correlate(EventDraft::info("job.finished"), &job_id).wall_ms(wall_ms),
                        );
                    }
                }
                Err(e) => {
                    counters.panicked.fetch_add(1, Ordering::Relaxed);
                    if let Some(bus) = &events {
                        bus.emit(
                            correlate(EventDraft::error("job.panicked"), &job_id)
                                .field_str("message", &e.to_string())
                                .wall_ms(wall_ms),
                        );
                    }
                }
            }
            // A receiver that hung up (caller dropped the handle) is
            // fine; the job still ran.
            let _ = tx.send(outcome);
        });
        // A missing queue (submit racing shutdown/drop) or dead workers
        // must not take the submitter down: hand back a handle whose
        // `join` reads a clean error instead of panicking mid-submit.
        let rejected = || {
            self.counters.queued.fetch_sub(1, Ordering::Relaxed);
            let (tx, rx) = mpsc::channel();
            let _ = tx.send(Err(CoreError::from(
                "pool is shut down; job was not queued".to_string(),
            )));
            JobHandle { rx }
        };
        let Some(queue) = self.queue.as_ref() else {
            return rejected();
        };
        if queue.send(task).is_err() {
            return rejected();
        }
        JobHandle { rx }
    }

    /// Closes the queue and joins every worker. Every already-submitted
    /// job runs to completion first — the drain is deterministic.
    pub fn shutdown(mut self) {
        self.drain();
    }

    /// [`shutdown`](Self::shutdown) that also returns the final counter
    /// snapshot, taken *after* the drain so queued jobs are counted as
    /// completed (or panicked), never as still running.
    pub fn shutdown_stats(mut self) -> PoolStats {
        self.drain();
        self.stats()
    }

    fn drain(&mut self) {
        // Dropping the sender closes the channel; workers finish the
        // queued backlog, then their `recv` errors and they exit.
        drop(self.queue.take());
        for worker in self.workers.drain(..) {
            // A worker thread's main loop cannot panic (jobs are caught
            // inside), so join failures are unreachable; ignore rather
            // than double-panic during drop.
            let _ = worker.join();
        }
    }
}

impl Drop for FleetPool {
    fn drop(&mut self) {
        self.drain();
    }
}

/// The raw fan-out engine under [`run_fleet`], public so other
/// per-device sweeps (the bench tables, custom experiment loops) can
/// parallelize the same way. Runs `f` over every item on a
/// `std::thread::scope` worker pool and returns the outcomes in input
/// order; a panic inside `f` becomes that item's
/// [`CoreError::WorkerPanic`] while every other item still completes.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<Result<R, CoreError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R, CoreError> + Sync,
{
    let workers = effective_workers(workers, items.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, CoreError>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                // A panicking run leaves only its own item's state
                // inconsistent; nothing shared survives the catch, so
                // the unwind is safe to absorb.
                let outcome = match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(result) => result,
                    Err(payload) => Err(CoreError::WorkerPanic(panic_message(payload))),
                };
                // A slot mutex can only be poisoned by a panic inside
                // this store — the data is a plain Option we are about
                // to overwrite, so recover it rather than letting one
                // poisoned slot (a second panic escaping the catch
                // above) abort the whole fleet.
                *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| recover_slot(slot).expect("every item index was claimed by a worker"))
        .collect()
}

/// Extracts a slot's stored outcome, recovering the data from a
/// poisoned mutex: poisoning only records that a panic unwound while
/// the lock was held, and the stored `Option` is valid either way —
/// panic isolation must not turn into a whole-fleet abort.
fn recover_slot<R>(slot: Mutex<Option<R>>) -> Option<R> {
    slot.into_inner().unwrap_or_else(|p| p.into_inner())
}

/// The sink the task engine attaches to one task's primary testbed, by
/// task index: none, a trace recorder, or a replay verifier.
pub(crate) type Attach<'a> = &'a (dyn Fn(usize) -> Option<Box<dyn CommandSink + Send>> + Sync);

/// One task's run on its worker: the wall time it took (errored runs
/// keep their cost) and the scoped flow's result.
pub(crate) type TaskOutcome = (f64, Result<(ChipDossier, RunStats, Registry), CoreError>);

/// The task engine under every multi-run path — [`run_fleet`],
/// [`run_fleet_sharded`], [`characterize_sharded`](crate::shard::characterize_sharded)
/// and sharded trace recording and replay.
///
/// Runs [`run_task`] for every task on a [`parallel_map`] pool of
/// `workers`, each with metrics and the sink `attach` hands it, and
/// returns the results in task order. With `events`, every task's
/// `job.*` lifecycle is emitted here: all `job.queued` up front,
/// `job.started`/`job.finished` on the worker, and `job.panicked` after
/// the run, in task order. A panic costs only its own task.
pub(crate) fn run_tasks(
    tasks: &[Task<'_>],
    workers: usize,
    events: Option<&EventBus>,
    attach: Attach<'_>,
) -> Vec<BankResult> {
    for task in tasks {
        emit(events, task, || EventDraft::info("job.queued"));
    }
    let index: Vec<usize> = (0..tasks.len()).collect();
    // The inner Result rides in Ok so `parallel_map`'s error arm stays
    // reserved for panics.
    let outcomes = parallel_map(&index, workers, |&i| {
        Ok(run_task(&tasks[i], attach(i), events))
    });
    tasks
        .iter()
        .zip(outcomes)
        .map(|(task, outcome)| task_result(task, outcome, events))
        .collect()
}

/// The engine's per-task closure: `job.started`, the timed scoped flow
/// with metrics teed after `sink`, `job.finished`. The serial sharded
/// reference maps it on the calling thread.
pub(crate) fn run_task(
    task: &Task<'_>,
    sink: Option<Box<dyn CommandSink + Send>>,
    events: Option<&EventBus>,
) -> TaskOutcome {
    emit(events, task, || {
        EventDraft::info("job.started").field_u64("seed", task.seed)
    });
    let started = Instant::now();
    let outcome = task.run(sink, true);
    let wall_ms = ms_since(started);
    emit(events, task, || {
        EventDraft::info("job.finished")
            .field_bool("ok", outcome.is_ok())
            .wall_ms(wall_ms as u64)
    });
    (wall_ms, outcome)
}

/// Unpacks one task's outcome into its [`BankResult`] (a whole-device
/// task reports bank 0, the bank its flow probes). The outer `Err` is a
/// worker panic: it unwound past `job.finished` and the task's clock, so
/// `job.panicked` is emitted here and the result carries zero wall time
/// and empty stats and metrics.
pub(crate) fn task_result(
    task: &Task<'_>,
    outcome: Result<TaskOutcome, CoreError>,
    events: Option<&EventBus>,
) -> BankResult {
    let (bank_wall_ms, outcome) = outcome.unwrap_or_else(|panic| {
        emit(events, task, || {
            EventDraft::error("job.panicked").field_str("message", &panic.to_string())
        });
        (0.0, Err(panic))
    });
    let (outcome, stats, metrics) = match outcome {
        Ok((dossier, stats, metrics)) => (Ok(dossier), stats, metrics),
        Err(e) => (Err(e), RunStats::default(), Registry::new()),
    };
    BankResult {
        bank: task.bank.unwrap_or(0),
        outcome,
        stats,
        bank_wall_ms,
        metrics,
    }
}

/// The engine's one lifecycle emitter: the `job.*` draft onto `events`
/// (built only when there is a bus), correlated by the task's profile
/// label as `job_id` and, for bank tasks, its bank as `shard`.
fn emit(events: Option<&EventBus>, task: &Task<'_>, draft: impl FnOnce() -> EventDraft) {
    if let Some(bus) = events {
        let draft = draft().job(&task.profile.label());
        bus.emit(match task.bank {
            Some(bank) => draft.shard(bank),
            None => draft,
        });
    }
}

/// Milliseconds elapsed since `started`.
pub(crate) fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::Time;

    fn small_jobs() -> Vec<FleetJob> {
        let opts = CharacterizeOptions {
            scan_rows: 129,
            with_swizzle: false,
            probe_range: (44, 60),
            retention_wait: Time::from_ms(120_000),
        };
        vec![
            FleetJob {
                profile: ChipProfile::test_small(),
                opts,
            },
            FleetJob {
                profile: ChipProfile::test_small_coupled(),
                opts: CharacterizeOptions {
                    scan_rows: 257,
                    ..opts
                },
            },
            FleetJob {
                profile: ChipProfile::test_small().with_trr(2),
                opts,
            },
            FleetJob {
                profile: ChipProfile::test_small().with_on_die_ecc(),
                opts,
            },
        ]
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let a = derive_seed(1, "Mfr. A x4 2016");
        assert_eq!(a, derive_seed(1, "Mfr. A x4 2016"));
        assert_ne!(a, derive_seed(2, "Mfr. A x4 2016"));
        assert_ne!(a, derive_seed(1, "Mfr. A x4 2017"));
    }

    #[test]
    fn table1_covers_all_presets() {
        let jobs = table1_jobs();
        assert_eq!(jobs.len(), ChipProfile::all_presets().len());
        let labels: Vec<String> = jobs.iter().map(|j| j.profile.label()).collect();
        let preset_labels: Vec<String> = ChipProfile::all_presets()
            .iter()
            .map(|p| p.label())
            .collect();
        assert_eq!(labels, preset_labels);
    }

    #[test]
    fn parallel_matches_serial_byte_for_byte() {
        let jobs = small_jobs();
        let par = run_fleet(&jobs, 77, FleetConfig { workers: 4 }, None);
        let ser = run_fleet(&jobs, 77, FleetConfig { workers: 1 }, None);
        assert!(par.all_ok(), "{}", par.table());
        assert!(ser.all_ok(), "{}", ser.table());
        for (p, s) in par.results.iter().zip(&ser.results) {
            assert_eq!(p.label, s.label);
            assert_eq!(p.seed, s.seed);
            // The dossiers (not the timings) must be byte-identical.
            assert_eq!(
                format!("{}", p.outcome.as_ref().unwrap()),
                format!("{}", s.outcome.as_ref().unwrap())
            );
            assert_eq!(
                p.stats
                    .phases
                    .iter()
                    .map(|x| x.commands)
                    .collect::<Vec<_>>(),
                s.stats
                    .phases
                    .iter()
                    .map(|x| x.commands)
                    .collect::<Vec<_>>(),
            );
            assert_eq!(
                p.stats
                    .phases
                    .iter()
                    .map(|x| x.bitflips)
                    .collect::<Vec<_>>(),
                s.stats
                    .phases
                    .iter()
                    .map(|x| x.bitflips)
                    .collect::<Vec<_>>(),
            );
            // Per-profile telemetry snapshots are byte-identical too.
            assert_eq!(p.metrics.to_json_lines(), s.metrics.to_json_lines());
            assert!(p.metrics.sum_counters("commands_total") > 0);
        }
        // The merged fleet-wide snapshot obeys the same contract: a
        // parallel run and a serial run of the same jobs render the
        // identical bytes.
        let merged_par = par.merged_metrics().to_json_lines();
        let merged_ser = ser.merged_metrics().to_json_lines();
        assert_eq!(merged_par, merged_ser);
        // And the merge really is the sum of the parts.
        assert_eq!(
            par.merged_metrics().sum_counters("commands_total"),
            par.results
                .iter()
                .map(|r| r.metrics.sum_counters("commands_total"))
                .sum::<u64>()
        );
    }

    #[test]
    fn sharded_fleet_matches_per_device_serial_reference() {
        // Two-level scheduling contract: flattening (profile, bank)
        // tasks onto one pool must regroup into exactly what running
        // the serial sharded path per job would produce.
        let opts = CharacterizeOptions {
            scan_rows: 129,
            with_swizzle: false,
            probe_range: (44, 60),
            retention_wait: Time::from_ms(120_000),
        };
        let jobs = vec![
            FleetJob {
                profile: ChipProfile::test_small(),
                opts,
            },
            FleetJob {
                profile: ChipProfile::test_small_hbm2(),
                opts,
            },
        ];
        let report = run_fleet_sharded(&jobs, 77, FleetConfig { workers: 4 }, None);
        assert!(report.all_ok(), "{}", report.table());
        assert_eq!(report.profiles.len(), 2);
        assert_eq!(report.tasks, 2 + 4, "one task per (profile, bank)");
        for (job, sharded) in jobs.iter().zip(&report.profiles) {
            let seed = derive_seed(77, &job.profile.label());
            assert_eq!(sharded.seed, seed);
            let reference = crate::shard::characterize_sharded_serial(&job.profile, seed, job.opts);
            assert_eq!(
                sharded.dossier().unwrap().to_string(),
                reference.dossier().unwrap().to_string()
            );
            assert_eq!(
                sharded.merged_metrics().to_json_lines(),
                reference.merged_metrics().to_json_lines()
            );
        }
        // Summary and table carry the two-level shape.
        let summary = report.summary_json();
        assert!(summary.contains("\"jobs\":2"), "{summary}");
        assert!(summary.contains("\"tasks\":6"), "{summary}");
        assert!(summary.contains("\"ok\":6"), "{summary}");
        assert!(report.tasks_wall_ms() > 0.0);
        let table = report.table();
        assert!(table.lines().next().unwrap().contains("bank"));
        assert_eq!(table.lines().count(), 1 + 6, "{table}");
    }

    #[test]
    fn injected_panic_is_isolated_to_its_profile() {
        let jobs = small_jobs();
        let report = FleetReport::run(&jobs, 9, 4, None, &|i| {
            if jobs[i].profile.label() == ChipProfile::test_small_coupled().label() {
                panic!("injected fault");
            }
            None
        });
        assert_eq!(report.results.len(), jobs.len());
        let failed: Vec<&ProfileResult> = report
            .results
            .iter()
            .filter(|r| r.outcome.is_err())
            .collect();
        assert_eq!(failed.len(), 1, "{}", report.table());
        assert_eq!(
            failed[0].outcome.as_ref().unwrap_err(),
            &CoreError::WorkerPanic("injected fault".into())
        );
        assert!(failed[0].metrics.is_empty());
        // Every other profile completed normally.
        assert_eq!(
            report.results.iter().filter(|r| r.outcome.is_ok()).count(),
            jobs.len() - 1
        );
        // The failure shows up in both report formats.
        assert!(report.table().contains("worker panicked"));
        assert!(report
            .json_lines()
            .lines()
            .any(|l| l.contains("\"status\":\"error\"") && l.contains("injected fault")));
    }

    #[test]
    fn poisoned_slot_mutex_still_yields_its_data() {
        // The "job panics mid-store" scenario: a panic unwinds while the
        // slot guard is held, poisoning the mutex after the outcome was
        // written. Recovery must hand the stored data back instead of
        // turning one isolated panic into a whole-fleet abort.
        let slot = Mutex::new(None::<Result<u32, CoreError>>);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let mut guard = slot.lock().unwrap();
            *guard = Some(Ok(7));
            panic!("mid-store fault");
        }));
        assert!(slot.is_poisoned(), "the mid-store panic must poison");
        assert_eq!(recover_slot(slot), Some(Ok(7)));
    }

    #[test]
    fn parallel_map_preserves_order_and_isolates_panics() {
        let items: Vec<u64> = (0..24).collect();
        let out = parallel_map(&items, 8, |&x| {
            if x == 13 {
                panic!("unlucky item");
            }
            Ok(x * x)
        });
        assert_eq!(out.len(), items.len());
        for (i, r) in out.iter().enumerate() {
            if i == 13 {
                assert_eq!(
                    r.as_ref().unwrap_err(),
                    &CoreError::WorkerPanic("unlucky item".into())
                );
            } else {
                assert_eq!(*r.as_ref().unwrap(), (i * i) as u64);
            }
        }
    }

    #[test]
    fn job_wall_clock_and_summary_are_reported() {
        let jobs = small_jobs();
        let report = run_fleet(&jobs, 77, FleetConfig { workers: 1 }, None);
        assert!(report.all_ok(), "{}", report.table());
        for r in &report.results {
            // Every job ran real work, so its worker-side clock moved,
            // and a job can't cost less than its instrumented phases.
            assert!(r.job_wall_ms > 0.0, "{}: {}", r.label, r.job_wall_ms);
            assert!(
                r.job_wall_ms >= r.stats.wall_ms(),
                "{}: job {} < phases {}",
                r.label,
                r.job_wall_ms,
                r.stats.wall_ms()
            );
        }
        assert!(report.jobs_wall_ms() > 0.0);
        // Serial run: summed job time can't exceed end-to-end time.
        assert!(report.jobs_wall_ms() <= report.wall_ms);
        let summary = report.summary_json();
        assert!(summary.contains("\"workers\":1"), "{summary}");
        assert!(
            summary.contains(&format!("\"jobs\":{}", jobs.len())),
            "{summary}"
        );
        assert!(
            summary.contains(&format!("\"ok\":{}", jobs.len())),
            "{summary}"
        );
        assert!(summary.contains("\"speedup\":"), "{summary}");
        assert!(
            report
                .json_lines()
                .lines()
                .all(|l| l.contains("\"job_wall_ms\":")),
            "every profile line carries its job wall time"
        );
        assert!(report.table().lines().next().unwrap().contains("job_ms"));
    }

    #[test]
    fn panicked_jobs_report_zero_job_wall_time() {
        let jobs = small_jobs();
        let report = FleetReport::run(&jobs, 9, 2, None, &|i| {
            if jobs[i].profile.label() == ChipProfile::test_small_coupled().label() {
                panic!("injected fault");
            }
            None
        });
        for r in &report.results {
            match &r.outcome {
                Ok(_) => assert!(r.job_wall_ms > 0.0, "{}", r.label),
                Err(_) => assert_eq!(r.job_wall_ms, 0.0, "{}", r.label),
            }
        }
    }

    #[test]
    fn pool_runs_jobs_and_isolates_panics() {
        let pool = FleetPool::new(3);
        assert_eq!(pool.workers(), 3);
        let handles: Vec<JobHandle<u64>> = (0..16u64)
            .map(|i| {
                pool.submit(move || {
                    if i == 11 {
                        panic!("unlucky job");
                    }
                    i * i
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let out = h.join();
            if i == 11 {
                assert_eq!(
                    out.unwrap_err(),
                    CoreError::WorkerPanic("unlucky job".into())
                );
            } else {
                assert_eq!(out.unwrap(), (i * i) as u64);
            }
        }
        // The panic did not kill its worker: the pool keeps serving.
        assert_eq!(pool.submit(|| 7u64).join().unwrap(), 7);
        pool.shutdown();
    }

    #[test]
    fn pool_shutdown_drains_the_queued_backlog() {
        use std::sync::atomic::AtomicU64;
        // One worker, many queued jobs: shutdown must run every one of
        // them before returning (deterministic drain, no silent drops).
        let ran = Arc::new(AtomicU64::new(0));
        let pool = FleetPool::new(1);
        for _ in 0..32 {
            let ran = Arc::clone(&ran);
            // Handles dropped on purpose: drain must not depend on a
            // caller joining.
            let _ = pool.submit(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn pool_submit_after_queue_death_errors_instead_of_panicking() {
        // Force the post-shutdown state directly: a submit racing a
        // drain must hand back an erroring handle, never unwind.
        let mut pool = FleetPool::new(1);
        pool.queue = None;
        let handle: JobHandle<u32> = pool.submit(|| 7);
        match handle.join() {
            Err(e) => assert!(e.to_string().contains("shut down"), "{e}"),
            Ok(v) => panic!("job ran on a dead pool: {v}"),
        }
        // The rejected job does not distort the backlog gauges.
        assert_eq!(pool.stats().jobs_queued, 0);
        assert_eq!(pool.stats().queue_depth(), 0);
    }

    #[test]
    fn pool_drop_is_a_drain_too() {
        use std::sync::atomic::AtomicU64;
        let ran = Arc::new(AtomicU64::new(0));
        {
            let pool = FleetPool::new(1);
            for _ in 0..8 {
                let ran = Arc::clone(&ran);
                let _ = pool.submit(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn pool_stats_track_the_lifecycle() {
        let pool = FleetPool::new(1);
        assert_eq!(pool.stats(), PoolStats::default());
        let handles: Vec<JobHandle<u32>> = (0..4)
            .map(|i| {
                pool.submit_labeled(&format!("j{i}"), move || {
                    if i == 2 {
                        panic!("boom");
                    }
                    i
                })
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        let stats = pool.stats();
        assert_eq!(stats.jobs_queued, 4);
        assert_eq!(stats.jobs_started, 4);
        assert_eq!(stats.jobs_completed, 3);
        assert_eq!(stats.jobs_panicked, 1);
        assert_eq!(stats.queue_depth(), 0);
        assert_eq!(stats.jobs_running(), 0);
    }

    #[test]
    fn pool_with_events_emits_matched_lifecycles() {
        let bus = dram_obs::EventBus::new(64);
        // One worker: events interleave deterministically per job.
        let pool = FleetPool::with_events(1, bus.clone());
        pool.submit_labeled("alpha", || 1u32).join().unwrap();
        let err = pool
            .submit_labeled("beta", || -> u32 { panic!("sim fault") })
            .join()
            .unwrap_err();
        assert!(matches!(err, CoreError::WorkerPanic(_)));
        pool.shutdown();
        let events = bus.since(0, 0).events;
        let kinds: Vec<(&str, Option<&str>)> = events
            .iter()
            .map(|e| (e.kind.as_str(), e.job_id.as_deref()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("job.queued", Some("alpha")),
                ("job.started", Some("alpha")),
                ("job.finished", Some("alpha")),
                ("job.queued", Some("beta")),
                ("job.started", Some("beta")),
                ("job.panicked", Some("beta")),
            ]
        );
        // Wall time is quarantined: the deterministic rendering of a
        // finished event carries no wall keys.
        let finished = &events[2];
        assert!(finished.wall.contains_key("ms"));
        assert!(!finished.stable_line().contains("wall"));
        // The panic message rides in deterministic fields.
        assert!(events[5]
            .field("message")
            .and_then(|v| v.as_str())
            .unwrap()
            .contains("sim fault"));
    }

    #[test]
    fn sharded_fleet_events_reconstruct_every_task() {
        let bus = dram_obs::EventBus::new(256);
        let jobs = small_jobs();
        let report = run_fleet_sharded(&jobs, 77, FleetConfig { workers: 2 }, Some(&bus));
        assert!(report.all_ok());
        let events = bus.since(0, 0).events;
        // Every (job, bank) task has matched queued, started, and
        // finished events with consistent correlation ids. Several test
        // jobs share a profile label, so counts are per (label, bank).
        for job in &jobs {
            let label = job.profile.label();
            let same_label = jobs.iter().filter(|j| j.profile.label() == label).count();
            for bank in 0..job.profile.banks {
                for kind in ["job.queued", "job.started", "job.finished"] {
                    let matching = events
                        .iter()
                        .filter(|e| {
                            e.kind == kind
                                && e.job_id.as_deref() == Some(label.as_str())
                                && e.shard == Some(bank)
                        })
                        .count();
                    assert_eq!(matching, same_label, "{label} bank {bank} {kind}");
                }
            }
        }
        // And the report itself is byte-identical to an event-free run.
        let quiet = run_fleet_sharded(&jobs, 77, FleetConfig { workers: 2 }, None);
        assert_eq!(
            report.merged_metrics().to_json_lines(),
            quiet.merged_metrics().to_json_lines()
        );
    }

    #[test]
    fn plain_fleet_events_reconstruct_every_job() {
        let bus = dram_obs::EventBus::new(256);
        let jobs = small_jobs();
        let report = run_fleet(&jobs, 77, FleetConfig { workers: 2 }, Some(&bus));
        assert!(report.results.iter().all(|r| r.outcome.is_ok()));
        let events = bus.since(0, 0).events;
        // Every line decodes back to the same event, derived seeds past
        // 2^53 included (base seed 77 derives 6403928037559838031 for
        // test_small).
        assert!(events
            .iter()
            .any(|e| e.field("seed").and_then(dram_obs::FieldValue::as_u64) > Some(1 << 53)));
        for e in &events {
            let back = dram_obs::decode_event(&e.line())
                .unwrap_or_else(|err| panic!("{}: {err}", e.line()));
            assert_eq!(&back, e);
        }
        // Every job has matched queued, started, and finished events
        // with consistent correlation ids. Several test jobs share a
        // profile label, so counts are per label.
        for job in &jobs {
            let label = job.profile.label();
            let same_label = jobs.iter().filter(|j| j.profile.label() == label).count();
            for kind in ["job.queued", "job.started", "job.finished"] {
                let matching = events
                    .iter()
                    .filter(|e| e.kind == kind && e.job_id.as_deref() == Some(label.as_str()))
                    .count();
                assert_eq!(matching, same_label, "{label} {kind}");
            }
        }
        // Finished events carry their ok flag and quarantine wall time.
        let finished = events
            .iter()
            .find(|e| e.kind == "job.finished")
            .expect("a job finished");
        assert!(matches!(
            finished.field("ok"),
            Some(dram_obs::FieldValue::Bool(true))
        ));
        assert!(!finished.stable_line().contains("wall"));
        // And the report itself is byte-identical to an event-free run.
        let quiet = run_fleet(&jobs, 77, FleetConfig { workers: 2 }, None);
        assert_eq!(
            report.merged_metrics().to_json_lines(),
            quiet.merged_metrics().to_json_lines()
        );
    }

    /// Two small jobs around one that panics: `row_bits: 0` trips the
    /// chip's geometry assertion as soon as its flow builds the chip.
    fn pinned_jobs() -> Vec<FleetJob> {
        let opts = small_jobs()[0].opts;
        let mut broken = ChipProfile::test_small();
        broken.year = 1;
        broken.banks = 1;
        broken.row_bits = 0;
        vec![
            FleetJob {
                profile: ChipProfile::test_small(),
                opts,
            },
            FleetJob {
                profile: broken,
                opts,
            },
            FleetJob {
                profile: ChipProfile::test_small_coupled(),
                opts,
            },
        ]
    }

    fn stable_lines(bus: &dram_obs::EventBus) -> Vec<String> {
        bus.since(0, 0)
            .events
            .iter()
            .map(dram_obs::Event::stable_line)
            .collect()
    }

    #[test]
    fn fleet_lifecycle_lines_are_pinned() {
        let bus = dram_obs::EventBus::new(256);
        let report = run_fleet(&pinned_jobs(), 77, FleetConfig { workers: 1 }, Some(&bus));
        assert_eq!(
            report.results.iter().filter(|r| r.outcome.is_ok()).count(),
            2
        );
        let expected = [
            r#"{"seq":0,"sev":"info","kind":"job.queued","job":"Mfr. B x4 0"}"#,
            r#"{"seq":1,"sev":"info","kind":"job.queued","job":"Mfr. B x4 1"}"#,
            r#"{"seq":2,"sev":"info","kind":"job.queued","job":"Mfr. A x4 0"}"#,
            r#"{"seq":3,"sev":"info","kind":"job.started","job":"Mfr. B x4 0","fields":{"seed":6403928037559838031}}"#,
            r#"{"seq":4,"sev":"info","kind":"job.finished","job":"Mfr. B x4 0","fields":{"ok":true}}"#,
            r#"{"seq":5,"sev":"info","kind":"job.started","job":"Mfr. B x4 1","fields":{"seed":8488470140630366096}}"#,
            r#"{"seq":6,"sev":"info","kind":"job.started","job":"Mfr. A x4 0","fields":{"seed":16251798028581472565}}"#,
            r#"{"seq":7,"sev":"info","kind":"job.finished","job":"Mfr. A x4 0","fields":{"ok":true}}"#,
            r#"{"seq":8,"sev":"error","kind":"job.panicked","job":"Mfr. B x4 1","fields":{"message":"worker panicked: assertion failed: rows > 0 && row_bits > 0 && mat_width > 0 && rows_per_wordline > 0"}}"#,
        ];
        assert_eq!(stable_lines(&bus), expected);
    }

    #[test]
    fn sharded_fleet_lifecycle_lines_are_pinned() {
        let bus = dram_obs::EventBus::new(256);
        let report = run_fleet_sharded(&pinned_jobs(), 77, FleetConfig { workers: 1 }, Some(&bus));
        assert_eq!(report.tasks, 5);
        let expected = [
            r#"{"seq":0,"sev":"info","kind":"job.queued","job":"Mfr. B x4 0","shard":0}"#,
            r#"{"seq":1,"sev":"info","kind":"job.queued","job":"Mfr. B x4 0","shard":1}"#,
            r#"{"seq":2,"sev":"info","kind":"job.queued","job":"Mfr. B x4 1","shard":0}"#,
            r#"{"seq":3,"sev":"info","kind":"job.queued","job":"Mfr. A x4 0","shard":0}"#,
            r#"{"seq":4,"sev":"info","kind":"job.queued","job":"Mfr. A x4 0","shard":1}"#,
            r#"{"seq":5,"sev":"info","kind":"job.started","job":"Mfr. B x4 0","shard":0,"fields":{"seed":6403928037559838031}}"#,
            r#"{"seq":6,"sev":"info","kind":"job.finished","job":"Mfr. B x4 0","shard":0,"fields":{"ok":true}}"#,
            r#"{"seq":7,"sev":"info","kind":"job.started","job":"Mfr. B x4 0","shard":1,"fields":{"seed":6403928037559838031}}"#,
            r#"{"seq":8,"sev":"info","kind":"job.finished","job":"Mfr. B x4 0","shard":1,"fields":{"ok":true}}"#,
            r#"{"seq":9,"sev":"info","kind":"job.started","job":"Mfr. B x4 1","shard":0,"fields":{"seed":8488470140630366096}}"#,
            r#"{"seq":10,"sev":"info","kind":"job.started","job":"Mfr. A x4 0","shard":0,"fields":{"seed":16251798028581472565}}"#,
            r#"{"seq":11,"sev":"info","kind":"job.finished","job":"Mfr. A x4 0","shard":0,"fields":{"ok":true}}"#,
            r#"{"seq":12,"sev":"info","kind":"job.started","job":"Mfr. A x4 0","shard":1,"fields":{"seed":16251798028581472565}}"#,
            r#"{"seq":13,"sev":"info","kind":"job.finished","job":"Mfr. A x4 0","shard":1,"fields":{"ok":true}}"#,
            r#"{"seq":14,"sev":"error","kind":"job.panicked","job":"Mfr. B x4 1","shard":0,"fields":{"message":"worker panicked: assertion failed: rows > 0 && row_bits > 0 && mat_width > 0 && rows_per_wordline > 0"}}"#,
        ];
        assert_eq!(stable_lines(&bus), expected);
    }

    #[test]
    fn pool_zero_workers_uses_machine_parallelism() {
        let pool = FleetPool::new(0);
        assert!(pool.workers() >= 1);
        assert_eq!(pool.submit(|| 1u32).join().unwrap(), 1);
    }

    #[test]
    fn json_lines_are_one_object_per_profile() {
        let jobs = small_jobs();
        let report = run_fleet(&jobs[..1], 77, FleetConfig { workers: 1 }, None);
        let out = report.json_lines();
        assert_eq!(out.lines().count(), 1);
        let line = out.lines().next().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"status\":\"ok\""));
        assert!(line.contains("\"phases\":[{\"name\":\"structure\""));
        assert!(line.contains("\"dossier\":{"));
    }
}
