//! The `dramscoped` daemon loop: JSON-lines over any `BufRead`/`Write`
//! pair, plus a unix-socket listener wrapping the same handler.
//!
//! A connection runs in one of two modes ([`ConnMode`]):
//!
//! * **Serial** — a sequential REPL: one request is processed to
//!   completion (progress lines streaming while it runs) before the
//!   next line is read. Single-connection behavior is deterministic:
//!   piping the same job twice over stdin always yields a `miss` then
//!   a `hit`, byte-for-byte. CI smokes pin this mode.
//! * **Pipelined** — the default for the `dramscoped` binary: each
//!   decoded request is dispatched onto its own handler thread and the
//!   response is written (tagged by the request's id) as soon as it
//!   completes, so a fast cached job overtakes a slow miss on the same
//!   connection. Responses interleave; clients correlate by `id`. A
//!   `shutdown` request (or EOF) first joins every in-flight request,
//!   so the drain is still deterministic and no response is lost.
//!
//! In both modes, concurrency across clients (and therefore in-flight
//! coalescing) comes from multiple connections on the socket listener,
//! or from library callers sharing one [`Service`] across threads.
//!
//! The read loop is total: oversized lines are drained and answered
//! with an error, invalid UTF-8 is answered with an error, malformed
//! JSON is answered with an error — nothing a client writes terminates
//! the daemon. Only a well-formed `shutdown` request (or EOF on stdin)
//! ends a serve loop, and both paths drain the pool deterministically.
//!
//! Every connection narrates itself onto the service's [`EventBus`]:
//! `conn.open`/`conn.close`, one `request.received` per well-formed
//! request (except `events`, which must not mutate the ring it tails),
//! `request.decode_error` for every line that would not parse, and the
//! cache/lifecycle events the service and pool emit underneath. The
//! `events` request reads that bus back; `metrics` renders the
//! telemetry registry plus service gauges as Prometheus text.
//!
//! [`EventBus`]: dram_obs::EventBus

use crate::profiles;
use crate::protocol::{
    error_line, parse_request, CharacterizeRequest, ProtocolError, QueryRequest, Request,
    MAX_REQUEST_BYTES,
};
use crate::service::{CacheStatus, JobOutput, JobSpec, Service, ServiceError};
use dram_obs::EventDraft;
use dram_perf::SharedProfiler;
use dram_sim::{ChipEvent, CommandSink, Tee};
use dram_telemetry::json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

/// How a connection schedules its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnMode {
    /// One request at a time, in arrival order — byte-stable for a
    /// given input, the mode CI smokes pin with `--serial`.
    Serial,
    /// Each request on its own handler thread; responses are written
    /// as they complete, tagged by request id.
    Pipelined,
}

/// Streams `phase:`/`span:` markers from a running job as
/// `{"resp":"progress",...}` lines on the connection's writer.
struct ProgressSink<W: Write> {
    writer: Arc<Mutex<W>>,
    id: String,
}

impl<W: Write> CommandSink for ProgressSink<W> {
    fn record(&mut self, event: ChipEvent<'_>) {
        let ChipEvent::Marker { label } = event else {
            return;
        };
        if !(label.starts_with("phase:") || label.starts_with("span:")) {
            return;
        }
        let line = format!(
            "{{\"resp\":\"progress\",\"id\":{},\"marker\":{}}}\n",
            self.id,
            json::string(label)
        );
        // A panic elsewhere while the writer was held must not mute
        // progress for every later job: take the lock poisoned or not.
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
    }
}

/// Renders a byte-stable result line. Field order is fixed; wall-clock
/// numbers are deliberately absent, so identical jobs render identical
/// lines except for the `cache` marker. The one opt-in exception is
/// `spans` (a profiled run's span tree), whose `wall_ns`/`self_ns`
/// numbers are host-dependent by design — a result line carries it only
/// when the request set `"spans":true` and the job actually ran.
fn result_line(
    id: &str,
    status: CacheStatus,
    spec: &JobSpec,
    output: &JobOutput,
    spans: Option<&str>,
) -> String {
    let key = spec.key();
    let mut line = format!(
        concat!(
            "{{\"resp\":\"result\",\"id\":{},\"cache\":\"{}\",\"profile\":{},",
            "\"label\":{},\"seed\":{},\"sharded\":{},",
            "\"profile_digest\":\"0x{:016x}\",\"geometry_digest\":\"0x{:016x}\",",
            "\"dossier_digest\":\"0x{:016x}\",\"composition\":{},",
            "\"commands\":{},\"bitflips\":{},\"dossier\":{}}}"
        ),
        id,
        status.as_str(),
        json::string(&spec.profile_name),
        json::string(&output.label),
        spec.seed,
        spec.sharded,
        key.profile_digest,
        key.geometry_digest,
        output.digest,
        json::string(&output.composition),
        output.commands,
        output.bitflips,
        json::string(&output.dossier),
    );
    if let Some(spans) = spans {
        line.pop();
        line.push_str(",\"spans\":");
        line.push_str(spans);
        line.push('}');
    }
    line
}

/// Renders the `stats` response: service counters plus the merged
/// telemetry registry spliced in as a JSON array of its JSON-lines
/// objects.
fn stats_line(id: &str, service: &Service) -> String {
    let s = service.stats();
    let p = service.pool_stats();
    let telemetry: Vec<String> = service
        .telemetry()
        .to_json_lines()
        .lines()
        .map(str::to_string)
        .collect();
    format!(
        concat!(
            "{{\"resp\":\"stats\",\"id\":{},\"submitted\":{},\"hits\":{},",
            "\"misses\":{},\"coalesced\":{},\"executions\":{},\"errors\":{},",
            "\"in_flight\":{},\"cache_entries\":{},\"cache_bytes\":{},",
            "\"evictions\":{},\"disk_hits\":{},\"salvaged\":{},",
            "\"uptime_jobs_completed\":{},\"queue_depth\":{},",
            "\"jobs_queued\":{},\"jobs_running\":{},\"jobs_panicked\":{},",
            "\"lake_files\":{},\"lake_opens\":{},\"telemetry\":[{}]}}"
        ),
        id,
        s.submitted,
        s.hits,
        s.misses,
        s.coalesced,
        s.executions,
        s.errors,
        s.in_flight,
        s.cache_entries,
        s.cache_bytes,
        s.evictions,
        s.disk_hits,
        s.salvaged,
        p.jobs_completed,
        p.queue_depth(),
        p.jobs_queued,
        p.jobs_running(),
        p.jobs_panicked,
        s.lake_files,
        s.lake_opens,
        telemetry.join(","),
    )
}

/// Renders an `events` tail: one `{"resp":"event",...}` line per ring
/// event at or past the cursor, then a final `{"resp":"events",...}`
/// cursor line carrying `next_seq` for resumption and `dropped` (events
/// evicted from the ring before they could be read). `stable` renders
/// events without their wall-clock map, making the whole tail
/// byte-stable for a given request history.
fn events_lines(id: &str, service: &Service, since_seq: u64, max: u64, stable: bool) -> String {
    let max = usize::try_from(max).unwrap_or(usize::MAX);
    let tail = service.events().since(since_seq, max);
    let mut out = String::new();
    for event in &tail.events {
        let rendered = if stable {
            event.stable_line()
        } else {
            event.line()
        };
        out.push_str(&format!(
            "{{\"resp\":\"event\",\"id\":{id},\"event\":{rendered}}}\n"
        ));
    }
    out.push_str(&format!(
        "{{\"resp\":\"events\",\"id\":{},\"count\":{},\"dropped\":{},\"next_seq\":{}}}",
        id,
        tail.events.len(),
        tail.dropped,
        tail.next_seq,
    ));
    out
}

/// Renders the `query` response: the trace-lake report of evaluating
/// the predicate over the daemon's configured trace directory, embedded
/// as the deterministic JSON that [`dram_trace::QueryReport::to_json`]
/// renders. An unconfigured directory or a failing scan answers with an
/// error line — never a panic, never a partial report.
fn query_line(id: &str, service: &Service, req: &QueryRequest) -> String {
    let Some(lake) = service.lake() else {
        return error_line(&ProtocolError {
            id: id.to_string(),
            message: "no trace directory configured (start the daemon with --trace-dir)".into(),
        });
    };
    match lake.query(&req.to_query()) {
        Ok(report) => format!(
            "{{\"resp\":\"query\",\"id\":{},\"dir\":{},\"matched\":{},\"report\":{}}}",
            id,
            json::string(&lake.root().display().to_string()),
            report.is_match(),
            report.to_json(),
        ),
        Err(message) => error_line(&ProtocolError {
            id: id.to_string(),
            message,
        }),
    }
}

/// Renders the `metrics` response: the Prometheus text exposition as an
/// escaped JSON string body, with its content type alongside so HTTP
/// gateways can forward it verbatim.
fn metrics_line(id: &str, service: &Service) -> String {
    format!(
        "{{\"resp\":\"metrics\",\"id\":{},\"content_type\":\"text/plain; version=0.0.4\",\"body\":{}}}",
        id,
        json::string(&service.metrics_prometheus()),
    )
}

/// One bounded request line, or `Ok(None)` at EOF.
///
/// Lines longer than [`MAX_REQUEST_BYTES`] are consumed to their
/// newline and reported as `Err(total_bytes)` so the caller can answer
/// with an error and keep the connection alive. Invalid UTF-8 is
/// reported the same way (`Err(0)`); the broken line is already
/// consumed by the failed read.
fn read_request_line<R: BufRead>(reader: &mut R) -> io::Result<Option<Result<String, usize>>> {
    let mut line = String::new();
    let n = match reader
        .by_ref()
        .take(MAX_REQUEST_BYTES as u64 + 1)
        .read_line(&mut line)
    {
        Ok(n) => n,
        Err(e) if e.kind() == io::ErrorKind::InvalidData => return Ok(Some(Err(0))),
        Err(e) => return Err(e),
    };
    if n == 0 {
        return Ok(None);
    }
    if !line.ends_with('\n') && n > MAX_REQUEST_BYTES {
        // Oversized: drain the rest of the line without buffering it.
        let mut dropped = n;
        loop {
            let buf = reader.fill_buf()?;
            if buf.is_empty() {
                break;
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    dropped += pos + 1;
                    reader.consume(pos + 1);
                    break;
                }
                None => {
                    let len = buf.len();
                    dropped += len;
                    reader.consume(len);
                }
            }
        }
        return Ok(Some(Err(dropped)));
    }
    Ok(Some(Ok(line)))
}

fn write_line<W: Write>(writer: &Arc<Mutex<W>>, line: &str) -> io::Result<()> {
    // A handler thread that panicked mid-write poisons this mutex; the
    // bytes it wrote are already flushed or lost either way, so later
    // responses keep the connection alive instead of unwinding it.
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

fn run_characterize<W: Write + Send + 'static>(
    service: &Service,
    writer: &Arc<Mutex<W>>,
    req: &CharacterizeRequest,
) -> String {
    // The parser already validated the name; re-resolve for the profile.
    let Some((profile, _)) = profiles::named_job(&req.profile_name) else {
        return error_line(&ProtocolError {
            id: req.id.clone(),
            message: format!("unknown profile \"{}\"", req.profile_name),
        });
    };
    let spec = JobSpec::new(req, profile);
    // Both live sinks observe the serial flow only: sharded runs build
    // their per-bank chips worker-side, out of one sink's reach.
    let progress = (req.progress && !req.sharded).then(|| ProgressSink {
        writer: Arc::clone(writer),
        id: req.id.clone(),
    });
    let profiler = (req.spans && !req.sharded).then(SharedProfiler::new);
    let sink: Option<Box<dyn CommandSink + Send>> = match (progress, profiler.clone()) {
        (Some(p), Some(prof)) => Some(Box::new(Tee::new(p, prof))),
        (Some(p), None) => Some(Box::new(p)),
        (None, Some(prof)) => Some(prof.sink()),
        (None, None) => None,
    };
    // Correlate service/pool events with the request id; an absent id
    // falls back to the profile name inside `submit_traced`.
    let job_id = (req.id != "null").then(|| req.id.trim_matches('"').to_string());
    match service.submit_traced(&spec, sink, job_id.as_deref()) {
        Ok((output, status)) => {
            // The profiler only observed anything when the job actually
            // ran on this request; cached/coalesced results carry none.
            let spans = profiler
                .filter(|_| status == CacheStatus::Miss)
                .map(|p| p.finish().to_json());
            result_line(&req.id, status, &spec, &output, spans.as_deref())
        }
        Err(e) => error_line(&ProtocolError {
            id: req.id.clone(),
            message: match e {
                ServiceError::ShutDown => "service is shut down".to_string(),
                ServiceError::Job(e) => format!("job failed: {e}"),
            },
        }),
    }
}

/// The raw id token of any request (already JSON-rendered: a quoted
/// string, a number, or `null`).
fn request_id(req: &Request) -> &str {
    match req {
        Request::Characterize(req) => &req.id,
        Request::Stats { id }
        | Request::Events { id, .. }
        | Request::Metrics { id }
        | Request::Shutdown { id } => id,
        Request::Query(req) => &req.id,
    }
}

/// Emits the `request.received` event for a decoded request. `events`
/// deliberately emits nothing: tailing the ring must not mutate it, so
/// repeating the same tail is idempotent and byte-stable.
fn note_received(service: &Service, req: &Request) {
    let kind = match req {
        Request::Characterize(_) => "characterize",
        Request::Stats { .. } => "stats",
        Request::Events { .. } => return,
        Request::Metrics { .. } => "metrics",
        Request::Query(_) => "query",
        Request::Shutdown { .. } => "shutdown",
    };
    service
        .events()
        .emit(EventDraft::info("request.received").field_str("req", kind));
}

/// Computes the response line(s) for any request except `shutdown`,
/// whose drain protocol belongs to the connection loop.
fn respond<W: Write + Send + 'static>(
    service: &Service,
    writer: &Arc<Mutex<W>>,
    req: &Request,
) -> String {
    match req {
        Request::Characterize(req) => run_characterize(service, writer, req),
        Request::Stats { id } => stats_line(id, service),
        Request::Events {
            id,
            since_seq,
            max,
            stable,
        } => events_lines(id, service, *since_seq, *max, *stable),
        Request::Metrics { id } => metrics_line(id, service),
        Request::Query(req) => query_line(&req.id, service, req),
        Request::Shutdown { .. } => unreachable!("shutdown is handled by the connection loop"),
    }
}

/// Computes and writes one response, absorbing a panicking handler
/// into an error line so the connection (and its writer lock) survive.
fn respond_and_write<W: Write + Send + 'static>(
    service: &Service,
    writer: &Arc<Mutex<W>>,
    req: &Request,
) -> io::Result<()> {
    let line =
        catch_unwind(AssertUnwindSafe(|| respond(service, writer, req))).unwrap_or_else(|_| {
            error_line(&ProtocolError {
                id: request_id(req).to_string(),
                message: "request handler panicked; connection stays open".into(),
            })
        });
    write_line(writer, &line)
}

/// Serves one connection until EOF or a `shutdown` request, in
/// [`ConnMode::Serial`] order. Kept as the byte-stable entry point:
/// existing embedders and CI smokes rely on responses landing in
/// request order.
///
/// Returns `Ok(true)` when the client asked for shutdown (the service
/// queue is already drained by then), `Ok(false)` at EOF.
///
/// # Errors
///
/// Only transport failures (broken pipe, etc.) — never anything the
/// client wrote.
pub fn handle_connection<R: BufRead, W: Write + Send + 'static>(
    service: &Service,
    reader: R,
    writer: &Arc<Mutex<W>>,
) -> io::Result<bool> {
    handle_connection_mode(service, reader, writer, ConnMode::Serial)
}

/// Serves one connection in the given [`ConnMode`].
///
/// Serial mode answers each request before reading the next.
/// Pipelined mode dispatches each decoded request onto its own handler
/// thread and writes responses as they complete; finished handlers are
/// joined as later requests arrive, and a `shutdown` request or EOF
/// joins every in-flight request before draining, so no response is
/// ever dropped. Malformed lines are answered inline in both modes.
///
/// # Errors
///
/// Only transport failures — never anything the client wrote, and
/// never a panicking job (those answer an error line instead).
pub fn handle_connection_mode<R: BufRead, W: Write + Send + 'static>(
    service: &Service,
    reader: R,
    writer: &Arc<Mutex<W>>,
    mode: ConnMode,
) -> io::Result<bool> {
    serve_connection(service, reader, writer, mode, &mut |_| {})
}

/// A pipelined request's handler thread.
type Handler<'scope> = std::thread::ScopedJoinHandle<'scope, io::Result<()>>;

/// Joins pipelined handlers — every one when `all`, otherwise only
/// those that have finished — keeping the first transport error any
/// of them returned. Handler panics cannot reach here:
/// `respond_and_write` converts them to error lines.
fn join_handlers(handles: &mut Vec<Handler<'_>>, first_err: &mut Option<io::Error>, all: bool) {
    for handle in handles.extract_if(.., |h| all || h.is_finished()) {
        if let Ok(Err(e)) = handle.join() {
            first_err.get_or_insert(e);
        }
    }
}

/// [`handle_connection_mode`], reporting to `on_dispatch` how many
/// pipelined handlers the connection holds each time it starts one.
fn serve_connection<R: BufRead, W: Write + Send + 'static>(
    service: &Service,
    mut reader: R,
    writer: &Arc<Mutex<W>>,
    mode: ConnMode,
    on_dispatch: &mut dyn FnMut(usize),
) -> io::Result<bool> {
    service.events().emit(EventDraft::info("conn.open"));
    let mut requests: u64 = 0;
    let close = |requests: u64| {
        service
            .events()
            .emit(EventDraft::info("conn.close").field_u64("requests", requests));
    };
    std::thread::scope(|scope| {
        let mut handles: Vec<Handler<'_>> = Vec::new();
        // A finished handler is joined before the next one starts, so a
        // long connection holds only the handlers still running. The
        // first transport error one of them returned waits for the next
        // drain point (shutdown ack or EOF), where every remaining
        // handler is joined first.
        let mut first_err: Option<io::Error> = None;
        let drain = |handles: &mut Vec<Handler<'_>>, first_err: &mut Option<io::Error>| {
            join_handlers(handles, first_err, true);
            first_err.take().map_or(Ok(()), Err)
        };
        loop {
            let line = match read_request_line(&mut reader)? {
                None => {
                    drain(&mut handles, &mut first_err)?;
                    close(requests);
                    return Ok(false);
                }
                Some(Err(0)) => {
                    let e = ProtocolError {
                        id: "null".into(),
                        message: "request line is not valid UTF-8".into(),
                    };
                    service.events().emit(
                        EventDraft::warn("request.decode_error").field_str("message", &e.message),
                    );
                    write_line(writer, &error_line(&e))?;
                    continue;
                }
                Some(Err(bytes)) => {
                    let e = ProtocolError {
                        id: "null".into(),
                        message: format!(
                            "request line of {bytes} bytes exceeds the {MAX_REQUEST_BYTES}-byte limit"
                        ),
                    };
                    service.events().emit(
                        EventDraft::warn("request.decode_error").field_str("message", &e.message),
                    );
                    write_line(writer, &error_line(&e))?;
                    continue;
                }
                Some(Ok(line)) => line,
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            requests += 1;
            let req = match parse_request(line) {
                Err(e) => {
                    service.events().emit(
                        EventDraft::warn("request.decode_error").field_str("message", &e.message),
                    );
                    write_line(writer, &error_line(&e))?;
                    continue;
                }
                Ok(req) => req,
            };
            note_received(service, &req);
            if let Request::Shutdown { id } = &req {
                // Outstanding responses first, then the drain, then the
                // ack — a client that waits for the ack has seen every
                // response it is owed.
                drain(&mut handles, &mut first_err)?;
                service.shutdown();
                close(requests);
                write_line(
                    writer,
                    &format!("{{\"resp\":\"shutdown\",\"id\":{id},\"drained\":true}}"),
                )?;
                return Ok(true);
            }
            match mode {
                ConnMode::Serial => respond_and_write(service, writer, &req)?,
                ConnMode::Pipelined => {
                    join_handlers(&mut handles, &mut first_err, false);
                    let writer = Arc::clone(writer);
                    handles.push(scope.spawn(move || respond_and_write(service, &writer, &req)));
                    on_dispatch(handles.len());
                }
            }
        }
    })
}

/// Serves requests from stdin to stdout until EOF or `shutdown`, then
/// drains the pool, answering in request order ([`ConnMode::Serial`]).
///
/// # Errors
///
/// Transport failures on stdin/stdout only.
pub fn serve_stdio(service: &Service) -> io::Result<()> {
    serve_stdio_mode(service, ConnMode::Serial)
}

/// Serves requests from stdin to stdout in the given [`ConnMode`]
/// until EOF or `shutdown`, then drains the pool.
///
/// # Errors
///
/// Transport failures on stdin/stdout only.
pub fn serve_stdio_mode(service: &Service, mode: ConnMode) -> io::Result<()> {
    let reader = BufReader::new(io::stdin().lock());
    let writer = Arc::new(Mutex::new(io::stdout()));
    handle_connection_mode(service, reader, &writer, mode)?;
    service.shutdown();
    Ok(())
}

/// Serves a unix-socket listener at `path`, one thread per connection,
/// all connections sharing `service` (so identical jobs on different
/// connections coalesce). A `shutdown` request on any connection stops
/// the listener, joins every connection thread, and drains the pool.
///
/// # Errors
///
/// Socket bind/accept failures.
#[cfg(unix)]
pub fn serve_unix(service: &Arc<Service>, path: &std::path::Path) -> io::Result<()> {
    serve_unix_mode(service, path, ConnMode::Serial)
}

/// [`serve_unix`] with an explicit per-connection [`ConnMode`].
///
/// # Errors
///
/// Socket bind/accept failures.
#[cfg(unix)]
pub fn serve_unix_mode(
    service: &Arc<Service>,
    path: &std::path::Path,
    mode: ConnMode,
) -> io::Result<()> {
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::atomic::{AtomicBool, Ordering};

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for stream in listener.incoming() {
        let stream = stream?;
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let service = Arc::clone(service);
        let stop = Arc::clone(&stop);
        let poke = path.to_path_buf();
        handles.push(std::thread::spawn(move || {
            let reader = match stream.try_clone() {
                Ok(clone) => BufReader::new(clone),
                Err(_) => return,
            };
            let writer = Arc::new(Mutex::new(stream));
            let shutdown = handle_connection_mode(&service, reader, &writer, mode).unwrap_or(false);
            if shutdown {
                stop.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the stop flag.
                let _ = UnixStream::connect(&poke);
            }
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    service.shutdown();
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Service;
    use dram_sim::digest::fnv1a_64;
    use dram_telemetry::Registry;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Runs `input` through a fresh service with a counting stub runner
    /// and returns the response lines plus the execution count.
    fn drive(input: &str) -> (Vec<String>, u64) {
        let count = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&count);
        let service = Service::with_runner(
            1,
            Arc::new(move |spec: &JobSpec, sink| {
                counter.fetch_add(1, Ordering::SeqCst);
                if let Some(mut sink) = sink {
                    sink.record(ChipEvent::Marker {
                        label: "phase:structure",
                    });
                    sink.record(ChipEvent::Marker { label: "act:17" });
                }
                let text = format!("dossier {} {}", spec.profile_name, spec.seed);
                Ok(JobOutput {
                    label: spec.profile.label(),
                    digest: fnv1a_64(text.as_bytes()),
                    composition: "c".into(),
                    dossier: text,
                    commands: 2,
                    bitflips: 1,
                    metrics: Registry::new(),
                })
            }),
        );
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        handle_connection(&service, input.as_bytes(), &writer).expect("transport ok");
        let bytes = writer.lock().unwrap().clone();
        let lines = String::from_utf8(bytes)
            .expect("utf8 responses")
            .lines()
            .map(str::to_string)
            .collect();
        (lines, count.load(Ordering::SeqCst))
    }

    #[test]
    fn same_job_twice_is_one_simulation_and_a_cache_hit() {
        let input = "\
            {\"req\":\"characterize\",\"id\":\"a\",\"profile\":\"test_small\",\"seed\":1}\n\
            {\"req\":\"characterize\",\"id\":\"b\",\"profile\":\"test_small\",\"seed\":1}\n";
        let (lines, executions) = drive(input);
        assert_eq!(executions, 1, "second request served from cache");
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
        assert!(lines[1].contains("\"cache\":\"hit\""), "{}", lines[1]);
        let digest_of = |line: &str| {
            let idx = line.find("\"dossier_digest\":").expect("digest field");
            line[idx..idx + 40].to_string()
        };
        assert_eq!(digest_of(&lines[0]), digest_of(&lines[1]));
        // Byte-stable apart from the id and the cache marker.
        let canon = |line: &str| {
            line.replace("\"id\":\"a\"", "\"id\":X")
                .replace("\"id\":\"b\"", "\"id\":X")
                .replace("\"cache\":\"miss\"", "\"cache\":Y")
                .replace("\"cache\":\"hit\"", "\"cache\":Y")
        };
        assert_eq!(canon(&lines[0]), canon(&lines[1]));
    }

    #[test]
    fn seeds_past_two_to_the_53_are_two_jobs() {
        // 2^53 + 1 and 2^53 are one f64 but two chips: both must run,
        // and neither may be served the other's dossier.
        let input = "\
            {\"req\":\"characterize\",\"id\":9007199254740993,\"profile\":\"test_small\",\"seed\":9007199254740993}\n\
            {\"req\":\"characterize\",\"id\":9007199254740992,\"profile\":\"test_small\",\"seed\":9007199254740992}\n";
        let (lines, executions) = drive(input);
        assert_eq!(executions, 2, "{lines:?}");
        for (line, n) in lines.iter().zip(["9007199254740993", "9007199254740992"]) {
            assert!(line.contains("\"cache\":\"miss\""), "{line}");
            assert!(line.contains(&format!("\"id\":{n},")), "{line}");
            assert!(line.contains(&format!("\"seed\":{n},")), "{line}");
        }
        let digest = |line: &str| {
            json::parse("result", line)
                .expect("result line")
                .as_object()
                .and_then(|o| o.get("dossier_digest").cloned())
                .expect("digest field")
        };
        assert_ne!(digest(&lines[0]), digest(&lines[1]));
    }

    #[test]
    fn malformed_lines_answer_errors_and_never_kill_the_loop() {
        let input = "\
            not json at all\n\
            {\"req\":\"characterize\"}\n\
            \n\
            {\"req\":\"characterize\",\"id\":\"ok\",\"profile\":\"test_small\"}\n";
        let (lines, executions) = drive(input);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].starts_with("{\"resp\":\"error\""));
        assert!(lines[1].starts_with("{\"resp\":\"error\""));
        assert!(lines[2].contains("\"resp\":\"result\""), "{}", lines[2]);
        assert_eq!(executions, 1);
    }

    #[test]
    fn oversized_and_invalid_utf8_lines_are_survivable() {
        let mut input = Vec::new();
        input.extend_from_slice(b"{\"req\":\"stats\",\"pad\":\"");
        input.extend(vec![b'x'; MAX_REQUEST_BYTES + 10]);
        input.extend_from_slice(b"\"}\n");
        input.extend_from_slice(b"\xff\xfe not utf8\n");
        input.extend_from_slice(b"{\"req\":\"stats\",\"id\":\"s\"}\n");
        let service = Service::with_runner(
            1,
            Arc::new(|_spec: &JobSpec, _sink| unreachable!("no jobs submitted")),
        );
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        handle_connection(&service, input.as_slice(), &writer).expect("transport ok");
        let bytes = writer.lock().unwrap().clone();
        let out = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("exceeds"), "{}", lines[0]);
        assert!(lines[1].contains("not valid UTF-8"), "{}", lines[1]);
        assert!(lines[2].starts_with("{\"resp\":\"stats\""), "{}", lines[2]);
    }

    #[test]
    fn progress_markers_stream_for_phase_labels_only() {
        let input = "{\"req\":\"characterize\",\"id\":\"p\",\"profile\":\"test_small\",\"progress\":true}\n";
        let (lines, _) = drive(input);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(
            lines[0],
            "{\"resp\":\"progress\",\"id\":\"p\",\"marker\":\"phase:structure\"}"
        );
        assert!(lines[1].contains("\"resp\":\"result\""));
        assert!(!lines.iter().any(|l| l.contains("act:17")));
    }

    #[test]
    fn shutdown_acks_drains_and_ends_the_connection() {
        let input = "\
            {\"req\":\"shutdown\",\"id\":\"z\"}\n\
            {\"req\":\"stats\"}\n";
        let count = Arc::new(AtomicU64::new(0));
        let service = Service::with_runner(
            1,
            Arc::new(|_spec: &JobSpec, _sink| unreachable!("no jobs submitted")),
        );
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        let shutdown =
            handle_connection(&service, input.as_bytes(), &writer).expect("transport ok");
        assert!(shutdown, "handler reports the shutdown request");
        let bytes = writer.lock().unwrap().clone();
        let out = String::from_utf8(bytes).unwrap();
        assert_eq!(
            out,
            "{\"resp\":\"shutdown\",\"id\":\"z\",\"drained\":true}\n"
        );
        assert_eq!(count.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn stats_response_carries_counters_and_telemetry_array() {
        let (lines, _) = drive("{\"req\":\"stats\",\"id\":1}\n");
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(line.starts_with("{\"resp\":\"stats\",\"id\":1,"), "{line}");
        for field in [
            "submitted",
            "hits",
            "misses",
            "coalesced",
            "uptime_jobs_completed",
            "queue_depth",
            "jobs_running",
            "telemetry",
        ] {
            assert!(line.contains(&format!("\"{field}\":")), "{line}");
        }
        // The whole stats line must itself parse as JSON.
        json::parse("stats", line).expect("stats line is valid JSON");
    }

    #[test]
    fn events_tail_shows_miss_then_hit_and_is_idempotent() {
        let input = "\
            {\"req\":\"characterize\",\"id\":\"a\",\"profile\":\"test_small\",\"seed\":1}\n\
            {\"req\":\"characterize\",\"id\":\"b\",\"profile\":\"test_small\",\"seed\":1}\n\
            {\"req\":\"events\",\"id\":\"e\",\"since_seq\":0,\"stable\":true}\n\
            {\"req\":\"events\",\"id\":\"e\",\"since_seq\":0,\"stable\":true}\n";
        let (lines, _) = drive(input);
        let tails: Vec<Vec<&String>> = {
            let mut tails = Vec::new();
            let mut current = Vec::new();
            let mut in_tail = false;
            for line in &lines {
                if line.starts_with("{\"resp\":\"event\",") {
                    in_tail = true;
                    current.push(line);
                } else if in_tail {
                    current.push(line);
                    tails.push(std::mem::take(&mut current));
                    in_tail = false;
                }
            }
            tails
        };
        assert_eq!(tails.len(), 2, "{lines:?}");
        // Tailing must not grow the ring: both tails are byte-identical.
        assert_eq!(tails[0], tails[1]);
        let joined: Vec<String> = tails[0].iter().map(|l| l.to_string()).collect();
        let miss = joined
            .iter()
            .position(|l| l.contains("\"kind\":\"cache.miss\"") && l.contains("\"job\":\"a\""))
            .expect("miss event for job a");
        let hit = joined
            .iter()
            .position(|l| l.contains("\"kind\":\"cache.hit\"") && l.contains("\"job\":\"b\""))
            .expect("hit event for job b");
        assert!(miss < hit, "miss precedes hit: {joined:?}");
        // Lifecycle events for the executed job carry its correlation id.
        for kind in ["job.queued", "job.started", "job.finished"] {
            assert!(
                joined
                    .iter()
                    .any(|l| l.contains(&format!("\"kind\":\"{kind}\""))
                        && l.contains("\"job\":\"a\"")),
                "{kind} for job a in {joined:?}"
            );
        }
        // Stable mode excludes every wall-clock key.
        assert!(joined.iter().all(|l| !l.contains("\"wall\"")), "{joined:?}");
        // The cursor line closes the tail.
        let last = joined.last().unwrap();
        assert!(
            last.starts_with("{\"resp\":\"events\",\"id\":\"e\","),
            "{last}"
        );
        assert!(last.contains("\"next_seq\":"), "{last}");
        // Each event line parses as JSON.
        for line in &joined {
            json::parse("events", line).expect("event line is valid JSON");
        }
    }

    #[test]
    fn metrics_response_embeds_prometheus_text() {
        let input = "\
            {\"req\":\"characterize\",\"id\":\"a\",\"profile\":\"test_small\",\"seed\":1}\n\
            {\"req\":\"metrics\",\"id\":\"m\"}\n";
        let (lines, _) = drive(input);
        let line = lines.last().unwrap();
        assert!(
            line.starts_with("{\"resp\":\"metrics\",\"id\":\"m\","),
            "{line}"
        );
        assert!(
            line.contains("\"content_type\":\"text/plain; version=0.0.4\""),
            "{line}"
        );
        let parsed = json::parse("metrics", line).expect("valid JSON");
        let body = parsed
            .as_object()
            .and_then(|o| o.get("body"))
            .and_then(|v| v.as_str())
            .expect("body string")
            .to_string();
        assert!(
            body.contains("# TYPE dramscoped_submitted_total counter"),
            "{body}"
        );
        assert!(
            body.contains("dramscoped_uptime_jobs_completed 1"),
            "{body}"
        );
    }

    #[test]
    fn query_without_a_trace_dir_answers_an_error() {
        let service = Service::with_runner(
            1,
            Arc::new(|_spec: &JobSpec, _sink| unreachable!("no jobs submitted")),
        );
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        let input = "{\"req\":\"query\",\"id\":\"q\",\"cmd\":\"act\"}\n";
        handle_connection(&service, input.as_bytes(), &writer).expect("transport ok");
        let out = String::from_utf8(writer.lock().unwrap().clone()).unwrap();
        assert!(out.contains("\"resp\":\"error\""), "{out}");
        assert!(out.contains("no trace directory configured"), "{out}");
    }

    /// A trace with a marked segment holding two ACTs to bank 3 and one
    /// to bank 0.
    fn query_trace(seed: u64) -> dram_trace::Trace {
        use dram_sim::chip::Command;
        use dram_sim::sink::CommandOutcome;
        use dram_sim::Time;
        use dram_trace::{Trace, TraceEvent, TraceHeader};

        Trace {
            header: TraceHeader {
                profile_label: "daemon-query".into(),
                seed,
                geometry_hash: 0xabc,
                dossier_digest: None,
                dropped: 0,
                meta: vec![],
            },
            events: vec![
                TraceEvent::Marker {
                    label: "span:trr_window:enter".into(),
                },
                TraceEvent::Command {
                    cmd: Command::Activate { bank: 3, row: 1 },
                    at: Time::from_ns(10),
                    outcome: CommandOutcome::Accepted,
                },
                TraceEvent::Command {
                    cmd: Command::Activate { bank: 3, row: 2 },
                    at: Time::from_ns(20),
                    outcome: CommandOutcome::Accepted,
                },
                TraceEvent::Command {
                    cmd: Command::Activate { bank: 0, row: 3 },
                    at: Time::from_ns(30),
                    outcome: CommandOutcome::Accepted,
                },
            ],
        }
    }

    #[test]
    fn query_answers_from_the_configured_trace_dir() {
        let dir = std::env::temp_dir().join(format!("dramscoped_query_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::fs::write(dir.join("run.trace"), query_trace(9).to_bytes_indexed())
            .expect("trace written");

        let service = Service::with_runner(
            1,
            Arc::new(|_spec: &JobSpec, _sink| unreachable!("no jobs submitted")),
        );
        service.set_trace_dir(&dir);
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        let input = "\
            {\"req\":\"query\",\"id\":\"q1\",\"cmd\":\"act\",\"bank\":3,\"marker\":\"span:trr_window\"}\n\
            {\"req\":\"query\",\"id\":\"q2\",\"cmd\":\"rfm\"}\n";
        handle_connection(&service, input.as_bytes(), &writer).expect("transport ok");
        let out = String::from_utf8(writer.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[0].starts_with("{\"resp\":\"query\",\"id\":\"q1\","),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"matched\":true"), "{}", lines[0]);
        assert!(lines[0].contains("\"matched\":2"), "{}", lines[0]);
        assert!(
            lines[0].contains("\"label\":\"span:trr_window:enter\""),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"matched\":false"), "{}", lines[1]);
        // Both lines parse as JSON and the tail is byte-stable.
        for line in &lines {
            json::parse("query", line).expect("query line is valid JSON");
        }
        let writer2 = Arc::new(Mutex::new(Vec::<u8>::new()));
        handle_connection(&service, input.as_bytes(), &writer2).expect("transport ok");
        assert_eq!(
            out,
            String::from_utf8(writer2.lock().unwrap().clone()).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_cached_response_overtakes_a_slow_miss() {
        use std::sync::Condvar;

        // A runner that parks seed-1 jobs on a gate; everything else
        // returns immediately.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let runner_gate = Arc::clone(&gate);
        let count = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&count);
        let service = Service::with_runner(
            1,
            Arc::new(move |spec: &JobSpec, _sink| {
                counter.fetch_add(1, Ordering::SeqCst);
                if spec.seed == 1 {
                    let (lock, cv) = &*runner_gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                }
                let text = format!("dossier {}", spec.seed);
                Ok(JobOutput {
                    label: spec.profile.label(),
                    digest: fnv1a_64(text.as_bytes()),
                    composition: "c".into(),
                    dossier: text,
                    commands: 1,
                    bitflips: 0,
                    metrics: Registry::new(),
                })
            }),
        );
        // Warm the cache with seed 2 so the second request on the wire
        // is a pure cache hit that never needs the (occupied) pool.
        let (profile, opts) = profiles::named_job("test_small").unwrap();
        let warm = JobSpec {
            profile_name: "test_small".into(),
            profile,
            seed: 2,
            opts,
            sharded: false,
        };
        service.submit(&warm, None).unwrap();

        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        // Open the gate only once the cached response is on the wire,
        // so the slow job cannot finish before the fast one is written.
        let monitor_writer = Arc::clone(&writer);
        let monitor_gate = Arc::clone(&gate);
        let monitor = std::thread::spawn(move || loop {
            let seen = {
                let buf = monitor_writer.lock().unwrap();
                String::from_utf8_lossy(&buf).contains("\"id\":\"fast\"")
            };
            if seen {
                let (lock, cv) = &*monitor_gate;
                *lock.lock().unwrap() = true;
                cv.notify_all();
                return;
            }
            std::thread::yield_now();
        });

        let input = "\
            {\"req\":\"characterize\",\"id\":\"slow\",\"profile\":\"test_small\",\"seed\":1}\n\
            {\"req\":\"characterize\",\"id\":\"fast\",\"profile\":\"test_small\",\"seed\":2}\n";
        handle_connection_mode(&service, input.as_bytes(), &writer, ConnMode::Pipelined)
            .expect("transport ok");
        monitor.join().unwrap();

        let out = String::from_utf8(writer.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[0].contains("\"id\":\"fast\"") && lines[0].contains("\"cache\":\"hit\""),
            "cached response overtook the slow miss: {}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"id\":\"slow\"") && lines[1].contains("\"cache\":\"miss\""),
            "{}",
            lines[1]
        );
        assert_eq!(count.load(Ordering::SeqCst), 2, "warm + slow, no rerun");
    }

    #[test]
    fn panicking_job_answers_an_error_and_the_daemon_keeps_serving() {
        let service = Service::with_runner(
            1,
            Arc::new(|spec: &JobSpec, _sink| {
                if spec.seed == 666 {
                    panic!("synthetic panic for seed 666");
                }
                Ok(JobOutput {
                    label: spec.profile.label(),
                    digest: 7,
                    composition: "c".into(),
                    dossier: "ok".into(),
                    commands: 1,
                    bitflips: 0,
                    metrics: Registry::new(),
                })
            }),
        );
        let input = "\
            {\"req\":\"characterize\",\"id\":\"boom\",\"profile\":\"test_small\",\"seed\":666}\n\
            {\"req\":\"stats\",\"id\":\"s\"}\n\
            {\"req\":\"characterize\",\"id\":\"ok\",\"profile\":\"test_small\",\"seed\":1}\n";
        for mode in [ConnMode::Serial, ConnMode::Pipelined] {
            let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
            handle_connection_mode(&service, input.as_bytes(), &writer, mode)
                .expect("transport ok");
            let out = String::from_utf8(writer.lock().unwrap().clone()).unwrap();
            let lines: Vec<&str> = out.lines().collect();
            assert_eq!(lines.len(), 3, "{mode:?}: {lines:?}");
            let boom = lines
                .iter()
                .find(|l| l.contains("\"id\":\"boom\""))
                .expect("panicking job answered");
            assert!(boom.contains("\"resp\":\"error\""), "{boom}");
            assert!(boom.contains("panic"), "{boom}");
            assert!(
                lines.iter().any(|l| l.starts_with("{\"resp\":\"stats\"")),
                "{mode:?}: stats still answered: {lines:?}"
            );
            let ok = lines
                .iter()
                .find(|l| l.contains("\"id\":\"ok\""))
                .expect("later job answered");
            assert!(ok.contains("\"resp\":\"result\""), "{ok}");
        }
        // No stuck slot either: the service is idle after both drives.
        assert_eq!(service.stats().in_flight, 0);
    }

    #[test]
    fn poisoned_writer_does_not_kill_the_connection() {
        // Poison the writer mutex the way a panicking handler would.
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        let poisoner = Arc::clone(&writer);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the writer");
        })
        .join();
        assert!(writer.lock().is_err(), "mutex is poisoned");
        let service = Service::with_runner(
            1,
            Arc::new(|_spec: &JobSpec, _sink| unreachable!("no jobs submitted")),
        );
        handle_connection(
            &service,
            "{\"req\":\"stats\",\"id\":1}\n".as_bytes(),
            &writer,
        )
        .expect("transport ok");
        let bytes = writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let out = String::from_utf8(bytes).unwrap();
        assert!(out.starts_with("{\"resp\":\"stats\""), "{out}");
    }

    #[test]
    fn pipelined_shutdown_joins_outstanding_requests_before_the_ack() {
        let (lines, executions) = {
            let count = Arc::new(AtomicU64::new(0));
            let counter = Arc::clone(&count);
            let service = Service::with_runner(
                1,
                Arc::new(move |spec: &JobSpec, _sink| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    Ok(JobOutput {
                        label: spec.profile.label(),
                        digest: 7,
                        composition: "c".into(),
                        dossier: "d".into(),
                        commands: 1,
                        bitflips: 0,
                        metrics: Registry::new(),
                    })
                }),
            );
            let input = "\
                {\"req\":\"characterize\",\"id\":\"a\",\"profile\":\"test_small\",\"seed\":1}\n\
                {\"req\":\"shutdown\",\"id\":\"z\"}\n";
            let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
            let shutdown =
                handle_connection_mode(&service, input.as_bytes(), &writer, ConnMode::Pipelined)
                    .expect("transport ok");
            assert!(shutdown);
            let bytes = writer.lock().unwrap().clone();
            let lines: Vec<String> = String::from_utf8(bytes)
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect();
            (lines, count.load(Ordering::SeqCst))
        };
        assert_eq!(executions, 1);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"id\":\"a\""), "response before ack");
        assert_eq!(
            lines[1],
            "{\"resp\":\"shutdown\",\"id\":\"z\",\"drained\":true}"
        );
    }

    #[test]
    fn query_lake_reads_each_file_once_and_reports_like_query_path() {
        let dir = std::env::temp_dir().join(format!("dramscoped_lake_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        for (name, seed) in [("a", 1), ("b", 2), ("c", 3)] {
            let trace = query_trace(seed);
            let bytes = if seed == 2 {
                trace.to_bytes()
            } else {
                trace.to_bytes_indexed()
            };
            std::fs::write(dir.join(format!("{name}.trace")), bytes).expect("trace written");
        }
        // Files younger than the settle window are re-read by every query.
        std::thread::sleep(dram_trace::query::SETTLE + std::time::Duration::from_millis(50));

        let service = Service::with_runner(
            1,
            Arc::new(|_spec: &JobSpec, _sink| unreachable!("no jobs submitted")),
        );
        service.set_trace_dir(&dir);
        let requests: Vec<String> = (0..6)
            .map(|i| {
                let predicate = ["\"cmd\":\"act\",\"bank\":3", "\"min_count\":0"][i % 2];
                format!("{{\"req\":\"query\",\"id\":\"q{i}\",{predicate}}}")
            })
            .collect();
        let input = format!(
            "{}\n{{\"req\":\"stats\",\"id\":\"s\"}}\n",
            requests.join("\n")
        );
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        handle_connection(&service, input.as_bytes(), &writer).expect("transport ok");
        let out = String::from_utf8(writer.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 7, "{lines:?}");
        for (request, line) in requests.iter().zip(&lines) {
            let Ok(Request::Query(req)) = parse_request(request) else {
                panic!("{request} parses as a query");
            };
            let reference = dram_trace::query_path(&dir, &req.to_query()).expect("one-shot query");
            let report = line.split_once(",\"report\":").expect("report field").1;
            assert_eq!(report.strip_suffix('}'), Some(reference.to_json().as_str()));
        }
        assert!(
            lines[6].contains("\"lake_files\":3,\"lake_opens\":3,"),
            "{}",
            lines[6]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Hands the connection one request line at a time, each only once
    /// every earlier request has its response on the [`LineCounter`],
    /// so the reader never runs ahead of the handlers.
    struct Paced {
        lines: Vec<String>,
        next: usize,
        pending: Vec<u8>,
        written: Arc<(Mutex<usize>, std::sync::Condvar)>,
    }

    impl Read for Paced {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.fill_buf()?.read(buf)?;
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Paced {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.pending.is_empty() && self.next < self.lines.len() {
                let (count, answered) = &*self.written;
                let mut count = count.lock().unwrap();
                while *count < self.next {
                    count = answered.wait(count).unwrap();
                }
                self.pending = format!("{}\n", self.lines[self.next]).into_bytes();
                self.next += 1;
            }
            Ok(&self.pending)
        }

        fn consume(&mut self, amt: usize) {
            self.pending.drain(..amt);
        }
    }

    /// Counts the response lines written and wakes the [`Paced`] reader.
    struct LineCounter(Arc<(Mutex<usize>, std::sync::Condvar)>);

    impl Write for LineCounter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let (count, answered) = &*self.0;
            *count.lock().unwrap() += buf.iter().filter(|&&b| b == b'\n').count();
            answered.notify_all();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn pipelined_connections_reap_finished_handlers() {
        const REQUESTS: usize = 2_000;
        let service = Service::with_runner(
            1,
            Arc::new(|_spec: &JobSpec, _sink| unreachable!("no jobs submitted")),
        );
        let written = Arc::new((Mutex::new(0usize), std::sync::Condvar::new()));
        let reader = Paced {
            lines: (0..REQUESTS)
                .map(|i| format!("{{\"req\":\"stats\",\"id\":\"s{i}\"}}"))
                .collect(),
            next: 0,
            pending: Vec::new(),
            written: Arc::clone(&written),
        };
        let writer = Arc::new(Mutex::new(LineCounter(Arc::clone(&written))));
        let mut held = Vec::with_capacity(REQUESTS);
        let shutdown = serve_connection(&service, reader, &writer, ConnMode::Pipelined, &mut |n| {
            held.push(n)
        })
        .expect("transport ok");
        assert!(!shutdown, "EOF ends the connection");
        assert_eq!(*written.0.lock().unwrap(), REQUESTS);
        assert_eq!(held.len(), REQUESTS);
        // Every earlier response was written before each dispatch, so
        // only handlers still returning from their last write are held
        // (a handful, however busy the host); without reaping the count
        // would reach REQUESTS.
        let most = held.iter().copied().max().unwrap_or(0);
        assert!(most <= 64, "{most} handlers held at once");
    }

    #[test]
    fn spans_flag_attaches_a_span_tree_on_miss_only() {
        let input = "\
            {\"req\":\"characterize\",\"id\":\"s1\",\"profile\":\"test_small\",\"spans\":true}\n\
            {\"req\":\"characterize\",\"id\":\"s2\",\"profile\":\"test_small\",\"spans\":true}\n";
        let (lines, executions) = drive(input);
        assert_eq!(executions, 1);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[0].contains("\"spans\":{\"schema\":\"dramscope.perf.spans\""),
            "{}",
            lines[0]
        );
        assert!(
            lines[0].contains("\"name\":\"phase:structure\""),
            "profiled tree observed the marker: {}",
            lines[0]
        );
        // The cached response ran nothing, so it carries no span tree.
        assert!(lines[1].contains("\"cache\":\"hit\""), "{}", lines[1]);
        assert!(!lines[1].contains("\"spans\":"), "{}", lines[1]);
        json::parse("result", &lines[0]).expect("result with spans is valid JSON");
    }
}
