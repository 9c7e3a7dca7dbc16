//! `perfbench`: the fixed-work `dramscoped` benchmark.
//!
//! ```text
//! perfbench --daemon PATH --workload miss|hit|query --seed N --seconds N
//!           --trace 0|1
//! ```
//!
//! Drives the `dramscoped` binary at `--daemon` over stdio, in its
//! default pipelined mode and worker count, from one closed-loop client
//! with two requests outstanding. The request count is fixed by the
//! workload and `--seconds`, never by how fast the host runs, and every
//! request line is generated from `--seed`. Answers are checked after
//! the timed section. The last line of standard output is the result
//! object; `--trace 1` reports the per-layer metrics of the traced
//! in-process pass instead of the end-to-end ones. See `README.md`.

mod checks;
mod client;
mod gen;
mod host;
mod layers;
mod spans;
mod stats;

use client::{Daemon, Outcome};
use gen::Key;
use spans::Recorder;
use stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Requests outstanding on the connection.
const WINDOW: usize = 2;
/// Nominal request rates per second of `--seconds` on the host this
/// benchmark was sized on; they fix the request count, nothing else.
const MISS_PER_SECOND: u64 = 17;
const QUERY_PER_SECOND: u64 = 120;
/// The hit workload's fixed count: 62% of the 32 141 answers after
/// which a daemon that keeps every finished handler thread aborts on one
/// stdio connection (see `README.md`).
const HIT_REQUESTS: u64 = 20_000;
/// The timed section goes out in this many closed-loop bursts, one
/// starting every `--seconds / BURSTS`, so it spans the whole run and
/// averages host drift even where the requests alone would finish in a
/// second. More bursts average drift better, but every burst starts
/// from idle, and on `hit` 20 of those cold starts already move the p99.
const BURSTS: usize = 5;
/// Every run holds enough requests for a p95 with ten samples beyond.
const MIN_REQUESTS: u64 = 200;
/// Miss keys re-characterized in-process to check the daemon's digests.
const MISS_CHECK_SAMPLE: usize = 8;
/// Longest a timed section may run before the daemon is killed and
/// every unanswered request counts as failed.
const TIMED_DEADLINE: Duration = Duration::from_secs(120);
const SHUTDOWN_GRACE: Duration = Duration::from_secs(20);
/// Where spans, lakes and the daemon's standard error go, under the
/// working directory.
const OUT_DIR: &str = ".perfbench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Miss,
    Hit,
    Query,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Miss => "miss",
            Workload::Hit => "hit",
            Workload::Query => "query",
        }
    }

    fn requests(self, seconds: u64) -> usize {
        let n = match self {
            Workload::Miss => MISS_PER_SECOND * seconds,
            Workload::Hit => HIT_REQUESTS,
            Workload::Query => QUERY_PER_SECOND * seconds,
        };
        n.max(MIN_REQUESTS) as usize
    }

    /// Set-ups per run; `setup_s` is their median.
    fn setups(self) -> usize {
        match self {
            Workload::Miss => 9,
            Workload::Hit => 7,
            Workload::Query => 5,
        }
    }
}

struct Args {
    daemon: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --daemon PATH --workload miss|hit|query --seed N \
                     --seconds N --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or(format!("missing {flag}"));
    let number = |flag: &str, v: String| v.parse::<u64>().map_err(|_| format!("bad {flag} {v}"));
    let args = Args {
        daemon: PathBuf::from(take("--daemon")?),
        workload: match take("--workload")?.as_str() {
            "miss" => Workload::Miss,
            "hit" => Workload::Hit,
            "query" => Workload::Query,
            other => return Err(format!("unknown workload {other}")),
        },
        seed: number("--seed", take("--seed")?)?,
        seconds: number("--seconds", take("--seconds")?)?.max(1),
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(args)
}

/// The generated requests of one run.
struct Plan {
    /// `(id, line)` per timed request.
    requests: Vec<(String, String)>,
    /// The key each `characterize` request names (miss and hit).
    keys: Vec<Key>,
    /// The predicate each `query` request uses.
    predicates: Vec<usize>,
    /// Keys warmed during set-up (hit).
    warm: Vec<Key>,
    /// Recordings of the lake (query).
    lake: Vec<Key>,
}

fn plan(workload: Workload, seed: u64, n: usize) -> Plan {
    let mut p = Plan {
        requests: Vec::with_capacity(n),
        keys: Vec::new(),
        predicates: Vec::new(),
        warm: Vec::new(),
        lake: Vec::new(),
    };
    match workload {
        Workload::Miss => p.keys = gen::miss_keys(seed, n),
        Workload::Hit => {
            p.warm = gen::hit_keys(seed).to_vec();
            p.keys = gen::hit_order(seed, n).iter().map(|&k| p.warm[k]).collect();
        }
        Workload::Query => {
            p.lake = gen::lake_keys(seed);
            p.predicates = gen::query_order(seed, n);
        }
    }
    let prefix = workload.name().chars().next().expect("non-empty name");
    for i in 0..n {
        let id = gen::request_id(prefix, i);
        let line = match workload {
            Workload::Query => gen::query_line(&id, p.predicates[i]),
            Workload::Miss | Workload::Hit => p.keys[i].request_line(&id),
        };
        p.requests.push((id, line));
    }
    p
}

/// Everything one run measured, before it is reported.
struct Run {
    n: usize,
    outcome: Outcome,
    /// Per request: did its answer pass every check.
    ok: Vec<bool>,
    problems: Vec<String>,
    setup_s: Vec<f64>,
    hwm_kb: u64,
    rss_setup_kb: u64,
    rss_end_kb: u64,
    before: checks::Fields,
    after: Option<checks::Fields>,
    events: Option<(u64, u64)>,
}

fn stats_of(daemon: &mut Daemon) -> Result<checks::Fields, String> {
    let lines = daemon
        .request("{\"req\":\"stats\",\"id\":\"stats\"}", "stats")
        .map_err(|e| format!("stats: {e}"))?;
    checks::fields(lines.last().map_or("", String::as_str))
}

/// The event ring's next sequence number. An `events` request emits no
/// event itself, and its cursor line carries `next_seq`.
fn events_head(daemon: &mut Daemon, since: u64) -> Result<u64, String> {
    let line = format!("{{\"req\":\"events\",\"id\":\"events\",\"since_seq\":{since}}}");
    let lines = daemon
        .request(&line, "events")
        .map_err(|e| format!("events: {e}"))?;
    checks::stat(
        &checks::fields(lines.last().map_or("", String::as_str))?,
        "next_seq",
    )
}

/// Spawns and readies one daemon: lake recording (query) and warm-up
/// (hit) included, then a `stats` probe as the first answered request.
fn set_up(
    args: &Args,
    plan: &Plan,
    lake_dir: &Path,
    warm_digests: &mut BTreeMap<Key, String>,
) -> Result<Daemon, String> {
    let trace_dir = match args.workload {
        Workload::Query => {
            layers::record_lake(lake_dir, &plan.lake, &Recorder::default())?;
            Some(lake_dir)
        }
        Workload::Miss | Workload::Hit => None,
    };
    let log = Path::new(OUT_DIR).join("daemon.log");
    let mut daemon = Daemon::spawn(&args.daemon, trace_dir, &log)
        .map_err(|e| format!("{}: {e}", args.daemon.display()))?;
    if args.workload == Workload::Hit {
        let warm: Vec<(String, String)> = plan
            .warm
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let id = gen::request_id('w', i);
                let line = k.request_line(&id);
                (id, line)
            })
            .collect();
        let outcome = daemon.closed_loop(&warm, WINDOW, TIMED_DEADLINE);
        for (i, key) in plan.warm.iter().enumerate() {
            let digest =
                checks::result_digest(outcome.answers[i].as_deref(), &warm[i].0, key, "miss")?;
            // Every set-up warms the same keys; they must agree.
            if let Some(earlier) = warm_digests.insert(*key, digest.clone()) {
                if earlier != digest {
                    return Err(format!("warm-up of {key:?} changed digest"));
                }
            }
        }
    }
    stats_of(&mut daemon)?;
    Ok(daemon)
}

fn run_daemon(args: &Args, plan: &Plan, lake_dir: &Path) -> Result<Run, String> {
    let n = plan.requests.len();
    let mut setup_s = Vec::new();
    let mut warm_digests = BTreeMap::new();
    let mut daemon = None;
    for k in 0..args.workload.setups() {
        let started = Instant::now();
        let d = set_up(args, plan, lake_dir, &mut warm_digests)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if k + 1 < args.workload.setups() {
            d.shutdown(SHUTDOWN_GRACE)
                .map_err(|e| format!("set-up daemon shutdown: {e}"))?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("at least one set-up");
    let rss_setup_kb = daemon.status_kb("VmRSS").unwrap_or(0);
    let before = stats_of(&mut daemon)?;
    let head_before = events_head(&mut daemon, 0)?;

    let outcome = paced(&mut daemon, &plan.requests, args.seconds);

    let hwm_kb = daemon.status_kb("VmHWM").unwrap_or(0);
    let rss_end_kb = daemon.status_kb("VmRSS").unwrap_or(0);
    let head_after = events_head(&mut daemon, head_before).ok();
    let after = stats_of(&mut daemon).ok();
    let exit = daemon.shutdown(SHUTDOWN_GRACE);

    let mut problems = Vec::new();
    if let Some(why) = &outcome.broken {
        problems.push(format!("connection ended early: {why}"));
    }
    match &exit {
        Ok(status) if status.success() => {}
        Ok(status) => problems.push(format!("daemon exited with {status}")),
        Err(e) => problems.push(format!("daemon shutdown: {e}")),
    }
    let ok = check_answers(args, plan, &outcome, lake_dir, &warm_digests, &mut problems);
    let mut run = Run {
        n,
        outcome,
        ok,
        problems,
        setup_s,
        hwm_kb,
        rss_setup_kb,
        rss_end_kb,
        before,
        after,
        events: head_after.map(|a| (head_before, a)),
    };
    check_stats(args.workload, &mut run);
    Ok(run)
}

/// Sends `requests` in [`BURSTS`] closed-loop bursts spread over
/// `seconds`. Latencies pool across bursts; the wall time is the sum of
/// the bursts' busy time. Once the connection breaks, every later
/// request counts as unanswered.
fn paced(daemon: &mut Daemon, requests: &[(String, String)], seconds: u64) -> Outcome {
    let per_burst = requests.len().div_ceil(BURSTS).max(1);
    let slot = Duration::from_secs(seconds) / BURSTS as u32;
    let start = Instant::now();
    let mut all = Outcome::default();
    for (k, burst) in requests.chunks(per_burst).enumerate() {
        if all.broken.is_some() {
            all.latency_ms
                .extend(std::iter::repeat_n(None, burst.len()));
            all.answers.extend(std::iter::repeat_n(None, burst.len()));
            continue;
        }
        if let Some(wait) = (start + slot * k as u32).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let left = TIMED_DEADLINE.saturating_sub(start.elapsed());
        let outcome = daemon.closed_loop(burst, WINDOW, left);
        all.latency_ms.extend(outcome.latency_ms);
        all.answers.extend(outcome.answers);
        all.wall += outcome.wall;
        all.broken = outcome.broken;
    }
    all
}

/// Checks every answer; returns per-request pass flags and records a
/// description of each failure (the first few are kept).
fn check_answers(
    args: &Args,
    plan: &Plan,
    outcome: &Outcome,
    lake_dir: &Path,
    warm_digests: &BTreeMap<Key, String>,
    problems: &mut Vec<String>,
) -> Vec<bool> {
    let n = plan.requests.len();
    let mut verdicts: Vec<Result<(), String>> = Vec::with_capacity(n);
    match args.workload {
        Workload::Miss | Workload::Hit => {
            let cache = if args.workload == Workload::Miss {
                "miss"
            } else {
                "hit"
            };
            let mut digests = Vec::with_capacity(n);
            for (i, key) in plan.keys.iter().enumerate() {
                let answer = outcome.answers[i].as_deref();
                match checks::result_digest(answer, &plan.requests[i].0, key, cache) {
                    Ok(d) => {
                        digests.push(Some(d));
                        verdicts.push(Ok(()));
                    }
                    Err(e) => {
                        digests.push(None);
                        verdicts.push(Err(e));
                    }
                }
            }
            if args.workload == Workload::Miss {
                for i in gen::sample_indices(args.seed, n, MISS_CHECK_SAMPLE) {
                    let Some(got) = &digests[i] else { continue };
                    match checks::reference_digest(&plan.keys[i]) {
                        Ok(want) if &want == got => {}
                        Ok(want) => {
                            verdicts[i] = Err(format!(
                                "{}: digest {got}, in-process {want}",
                                plan.requests[i].0
                            ))
                        }
                        Err(e) => verdicts[i] = Err(format!("reference run failed: {e}")),
                    }
                }
            } else {
                for (i, key) in plan.keys.iter().enumerate() {
                    if let Some(got) = &digests[i] {
                        if warm_digests.get(key) != Some(got) {
                            verdicts[i] = Err(format!(
                                "{}: digest {got} differs from its warm-up miss",
                                plan.requests[i].0
                            ));
                        }
                    }
                }
            }
        }
        Workload::Query => {
            let references: Result<Vec<String>, String> = (0..gen::PREDICATES.len())
                .map(|p| {
                    dram_trace::query_path(lake_dir, &gen::predicate_query(p)).map(|r| r.to_json())
                })
                .collect();
            let references = references.unwrap_or_else(|e| {
                problems.push(format!("in-process query_path failed: {e}"));
                Vec::new()
            });
            for (i, &p) in plan.predicates.iter().enumerate() {
                let id = &plan.requests[i].0;
                verdicts.push(
                    checks::query_report(outcome.answers[i].as_deref(), id).and_then(|got| {
                        match references.get(p) {
                            Some(want) if want == got => Ok(()),
                            _ => Err(format!("{id}: report differs from in-process query_path")),
                        }
                    }),
                );
            }
        }
    }
    let failed: Vec<&String> = verdicts.iter().filter_map(|v| v.as_ref().err()).collect();
    if !failed.is_empty() {
        problems.push(format!("{} failed requests", failed.len()));
        problems.extend(failed.into_iter().take(5).cloned());
    }
    verdicts.iter().map(Result::is_ok).collect()
}

/// Checks the daemon's counters after the timed section.
fn check_stats(workload: Workload, run: &mut Run) {
    let Some(after) = &run.after else {
        run.problems.push("no stats after the timed section".into());
        return;
    };
    let executions = match workload {
        Workload::Miss => run.n as u64,
        Workload::Hit => 4,
        Workload::Query => 0,
    };
    for (field, want) in [("executions", executions), ("coalesced", 0), ("errors", 0)] {
        match checks::stat(after, field) {
            Ok(got) if got == want => {}
            Ok(got) => run
                .problems
                .push(format!("stats {field} = {got}, expected {want}")),
            Err(e) => run.problems.push(e),
        }
    }
}

/// The change in a `stats` counter over the timed section.
fn delta(run: &Run, field: &str) -> f64 {
    let before = checks::stat(&run.before, field).unwrap_or(0);
    let after = run
        .after
        .as_ref()
        .and_then(|a| checks::stat(a, field).ok())
        .unwrap_or(before);
    after.saturating_sub(before) as f64
}

/// Renders a metric value with every digit Rust keeps; a value that
/// could not be measured (not finite) reads -1.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &layers::Metrics,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let out = std::fs::canonicalize(OUT_DIR).map_err(|e| e.to_string())?;
    let control = host::Control::default();
    let control_before = control.time_ms();

    let n = args.workload.requests(args.seconds);
    let plan = plan(args.workload, args.seed, n);
    let lake_dir = out.join("lake");
    let run = run_daemon(args, &plan, &lake_dir)?;

    let failed = run.ok.iter().filter(|ok| !**ok).count();
    let correct = failed == 0 && run.problems.is_empty();
    let wall_ms = run.outcome.wall.as_secs_f64() * 1e3;
    // A failed request sorts beyond every answer; a percentile that
    // lands on one reads as the whole timed section.
    let latencies: Vec<Option<f64>> = run
        .outcome
        .latency_ms
        .iter()
        .zip(&run.ok)
        .map(|(l, ok)| l.filter(|_| *ok))
        .collect();
    let tail = stats::tail_percentile(n).ok_or(format!("{n} requests hold no tail"))?;
    let p50 = stats::percentile(&latencies, 50.0).unwrap_or(wall_ms);
    let p_tail = stats::percentile(&latencies, tail).unwrap_or(wall_ms);
    let ops = (n - failed) as f64 / run.outcome.wall.as_secs_f64().max(1e-9);
    let rss_kb_per_request = (run.rss_end_kb as f64 - run.rss_setup_kb as f64) / n as f64;

    let mut metrics = if args.trace {
        let layers = layers::run(args.seed, &out.join("lake-layers"))?;
        let path = out.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let mut file =
            std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        for (pass, spans) in &layers.spans {
            spans::write_jsonl(&mut file, pass, spans).map_err(|e| e.to_string())?;
        }
        let handling_us = match args.workload {
            Workload::Miss => layers.miss_handling_us,
            Workload::Hit => layers.hit_handling_us,
            Workload::Query => layers.query_handling_us,
        };
        let events = run
            .events
            .map_or(f64::NAN, |(b, a)| (a - b) as f64 / n as f64);
        let mut m = layers.metrics;
        m.extend([
            ("daemon.wire_us", p50 * 1e3 - handling_us, "us"),
            ("daemon.rss_kb_per_request", rss_kb_per_request, "kB"),
            ("service.executions", delta(&run, "executions"), "count"),
            ("service.errors", delta(&run, "errors"), "count"),
            ("service.hit_ratio", delta(&run, "hits") / n as f64, "ratio"),
            ("obs.events_per_request", events, "count"),
        ]);
        m
    } else {
        vec![
            ("latency_p50_ms", p50, "ms"),
            ("latency_tail_ms", p_tail, "ms"),
            ("ops_per_s", ops, "1/s"),
            ("rss_mb", run.hwm_kb as f64 / 1024.0, "MB"),
            ("setup_s", median(&run.setup_s), "s"),
        ]
    };
    let control_after = control.time_ms();
    if args.trace {
        metrics.push(("host.control_before_ms", control_before, "ms"));
        metrics.push(("host.control_after_ms", control_after, "ms"));
    }

    for problem in &run.problems {
        eprintln!("perfbench: {problem}");
    }
    println!(
        "{{\"detail\":{{\"workload\":\"{}\",\"seed\":{},\"requests\":{n},\"tail_percentile\":{tail},\
         \"wall_s\":{},\"rss_kb_per_request\":{},\"host.control_ms\":{{\"before\":{},\"after\":{}}}}}}}",
        args.workload.name(),
        args.seed,
        number(run.outcome.wall.as_secs_f64()),
        number(rss_kb_per_request),
        number(control_before),
        number(control_after),
    );
    Ok(result_json(correct, n, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
