//! The `dramscoped` wire protocol: JSON-lines requests and responses.
//!
//! One request per line, one or more response lines per request, every
//! line a single JSON object. Decoding is **total** — the same
//! discipline as `dram-trace`'s binary decoder: any malformed line
//! (truncated JSON, wrong types, unknown fields, oversized input) maps
//! to a structured [`ProtocolError`] that the daemon answers with an
//! `{"resp":"error",...}` line; nothing a client sends can panic the
//! server or kill the process.
//!
//! # Requests
//!
//! ```json
//! {"req":"characterize","id":"job-1","profile":"test_small","seed":42}
//! {"req":"characterize","id":"j2","profile":"mfr_a_x4_2016","scan_rows":8193,"with_swizzle":true}
//! {"req":"stats","id":"s1"}
//! {"req":"events","id":"e1","since_seq":0,"max":100,"stable":true}
//! {"req":"metrics","id":"m1"}
//! {"req":"query","id":"q1","cmd":["act"],"bank":[3],"marker":"span:trr_window"}
//! {"req":"shutdown"}
//! ```
//!
//! `characterize` accepts the option overrides `seed`, `scan_rows`,
//! `with_swizzle`, `probe_start`, `probe_end`, `retention_wait_ms`,
//! `sharded` (run the per-bank sharded flow), `progress` (stream
//! `phase:`/`span:` marker events as they happen), and `spans` (profile
//! the run and attach its span-tree JSON to the result — the key is not
//! named `profile` because that field already carries the profile
//! name). Omitted options use the named profile's canonical values —
//! the same per-device defaults as the `characterize` CLI, so service
//! and CLI runs share cache identity.
//!
//! `events` tails the daemon's in-memory event ring from a `since_seq`
//! cursor (default 0), `max` bounding the batch (default 0 =
//! unlimited); `stable:true` renders events without their wall-clock
//! map, making the tail byte-stable for a given request history.
//! `metrics` returns the merged telemetry registry plus service gauges
//! in Prometheus text exposition format.
//!
//! `query` evaluates a trace-lake predicate over the daemon's
//! configured trace directory (`--trace-dir`): `bank` (a bank number or
//! array), `cmd` (a mnemonic or array — `act`, `pre`, `rd`, `wr`,
//! `ref`, `rfm`, `burst`, `refw`, `temp`, `mark`), `marker` (a segment
//! label prefix), `from_ps`/`to_ps` (an inclusive time window), and
//! `min_count`/`max_count` (matched-event bounds per segment). Only
//! segments whose index metadata can match are decoded.
//!
//! # Responses
//!
//! Results are byte-stable: the same request against the same engine
//! always renders the identical result line except for the `cache`
//! marker (`"miss"`, `"hit"`, or `"coalesced"`), which records how the
//! response was produced. Wall-clock numbers are deliberately excluded
//! from result lines (the `stats` response carries live counters
//! instead).

use crate::profiles;
use dram_sim::Time;
use dram_telemetry::json::{self, Value};
use dramscope_core::dossier::CharacterizeOptions;
use std::collections::BTreeMap;
use std::fmt;

// Kept only for the `perfbench` harness, which times dossier rendering
// through `protocol::json_string`; the writer is `dram_telemetry::json`.
pub use dram_telemetry::json::string as json_string;

/// Hard ceiling on one request line, bytes. Lines longer than this are
/// answered with an error and discarded without buffering the excess.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// The default seed when a request omits `seed` — the same constant the
/// bench binaries use, so daemon results line up with CLI runs.
pub const DEFAULT_SEED: u64 = 0x5ca1e;

/// A decoded, validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Characterize a device (or serve the dossier from cache).
    Characterize(CharacterizeRequest),
    /// Report live service counters and the merged telemetry registry.
    Stats {
        /// Echoed request id, pre-rendered as a JSON token.
        id: String,
    },
    /// Tail the daemon's event ring from a sequence cursor.
    Events {
        /// Echoed request id, pre-rendered as a JSON token.
        id: String,
        /// Resume cursor: only events with `seq >= since_seq` are sent.
        since_seq: u64,
        /// Batch bound; `0` means unlimited.
        max: u64,
        /// Render events without their wall-clock map (byte-stable).
        stable: bool,
    },
    /// Report the telemetry registry in Prometheus text format.
    Metrics {
        /// Echoed request id, pre-rendered as a JSON token.
        id: String,
    },
    /// Evaluate a trace-lake query over the daemon's trace directory.
    Query(QueryRequest),
    /// Drain the queue and stop the daemon.
    Shutdown {
        /// Echoed request id, pre-rendered as a JSON token.
        id: String,
    },
}

/// A validated `characterize` request.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeRequest {
    /// Echoed request id, pre-rendered as a JSON token (`"job-1"` stays
    /// `"\"job-1\""`, a missing id renders `null`).
    pub id: String,
    /// The profile name as requested (already validated to resolve).
    pub profile_name: String,
    /// Seed for the run.
    pub seed: u64,
    /// Fully resolved probe options.
    pub opts: CharacterizeOptions,
    /// Run the per-bank sharded flow instead of the serial one.
    pub sharded: bool,
    /// Stream `phase:`/`span:` marker events while the job runs.
    pub progress: bool,
    /// Profile the run and attach its span-tree JSON to the result.
    pub spans: bool,
}

/// A validated `query` request: the trace-lake predicate, ready to
/// convert into a [`dram_trace::Query`] against the daemon's trace
/// directory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryRequest {
    /// Echoed request id, pre-rendered as a JSON token.
    pub id: String,
    /// Restrict to events addressing one of these banks.
    pub bank: Option<Vec<u32>>,
    /// Restrict to these command mnemonics (validated against
    /// [`dram_trace::SEGMENT_MNEMONICS`]).
    pub cmd: Option<Vec<String>>,
    /// Restrict to segments whose label starts with this prefix.
    pub marker: Option<String>,
    /// Inclusive lower time bound, picoseconds.
    pub from_ps: Option<u64>,
    /// Inclusive upper time bound, picoseconds.
    pub to_ps: Option<u64>,
    /// Minimum matched events for a segment to count as a hit.
    pub min_count: Option<u64>,
    /// Maximum matched events for a segment to count as a hit.
    pub max_count: Option<u64>,
}

impl QueryRequest {
    /// Converts the request into the trace-lake query it describes.
    pub fn to_query(&self) -> dram_trace::Query {
        dram_trace::Query {
            from_ps: self.from_ps,
            to_ps: self.to_ps,
            banks: self.bank.clone(),
            mnemonics: self.cmd.clone(),
            marker_prefix: self.marker.clone(),
            min_count: self.min_count,
            max_count: self.max_count,
        }
    }
}

/// A structured decode/validation failure. The daemon renders it as an
/// `error` response; it never escapes as a panic.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// Echoed request id when one was recoverable, pre-rendered.
    pub id: String,
    /// Human-readable description of what was wrong.
    pub message: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// Renders an `{"resp":"error",...}` line (no trailing newline).
pub fn error_line(err: &ProtocolError) -> String {
    format!(
        "{{\"resp\":\"error\",\"id\":{},\"error\":{}}}",
        err.id,
        json::string(&err.message)
    )
}

fn err(id: &str, message: impl Into<String>) -> ProtocolError {
    ProtocolError {
        id: id.to_string(),
        message: message.into(),
    }
}

/// Extracts the request id as a pre-rendered JSON token: strings stay
/// strings, non-negative integer literals stay the same number,
/// everything else (or a missing id) is `null`.
fn render_id(obj: &BTreeMap<String, Value>) -> String {
    match obj.get("id") {
        Some(Value::String(s)) => json::string(s),
        Some(v) => v.as_u64().map_or_else(|| "null".into(), |n| n.to_string()),
        None => "null".into(),
    }
}

fn want_bool(
    obj: &BTreeMap<String, Value>,
    id: &str,
    key: &str,
) -> Result<Option<bool>, ProtocolError> {
    match obj.get(key) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(err(id, format!("\"{key}\" must be a boolean"))),
    }
}

fn want_u64(
    obj: &BTreeMap<String, Value>,
    id: &str,
    key: &str,
) -> Result<Option<u64>, ProtocolError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(Some(n)),
            None => Err(err(id, format!("\"{key}\" must be a non-negative integer"))),
        },
    }
}

fn want_u32(
    obj: &BTreeMap<String, Value>,
    id: &str,
    key: &str,
) -> Result<Option<u32>, ProtocolError> {
    match want_u64(obj, id, key)? {
        None => Ok(None),
        Some(n) => u32::try_from(n)
            .map(Some)
            .map_err(|_| err(id, format!("\"{key}\" exceeds 32 bits"))),
    }
}

/// Accepts a scalar or an array of scalars: `"bank":3` and
/// `"bank":[3,4]` both parse. Rejects empty arrays — an empty
/// restriction would silently match nothing.
fn want_u32_list(
    obj: &BTreeMap<String, Value>,
    id: &str,
    key: &str,
) -> Result<Option<Vec<u32>>, ProtocolError> {
    let scalar = |v: &Value| {
        v.as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| {
                err(
                    id,
                    format!("\"{key}\" must be a 32-bit non-negative integer or an array of them"),
                )
            })
    };
    match obj.get(key) {
        None => Ok(None),
        Some(Value::Array(items)) => {
            if items.is_empty() {
                return Err(err(id, format!("\"{key}\" must not be an empty array")));
            }
            items.iter().map(scalar).collect::<Result<_, _>>().map(Some)
        }
        Some(v) => Ok(Some(vec![scalar(v)?])),
    }
}

/// Accepts a string or an array of strings, rejecting empty arrays.
fn want_string_list(
    obj: &BTreeMap<String, Value>,
    id: &str,
    key: &str,
) -> Result<Option<Vec<String>>, ProtocolError> {
    let scalar = |v: &Value| {
        v.as_str().map(str::to_string).ok_or_else(|| {
            err(
                id,
                format!("\"{key}\" must be a string or an array of strings"),
            )
        })
    };
    match obj.get(key) {
        None => Ok(None),
        Some(Value::Array(items)) => {
            if items.is_empty() {
                return Err(err(id, format!("\"{key}\" must not be an empty array")));
            }
            items.iter().map(scalar).collect::<Result<_, _>>().map(Some)
        }
        Some(v) => Ok(Some(vec![scalar(v)?])),
    }
}

fn want_string(
    obj: &BTreeMap<String, Value>,
    id: &str,
    key: &str,
) -> Result<Option<String>, ProtocolError> {
    match obj.get(key) {
        None => Ok(None),
        Some(Value::String(s)) => Ok(Some(s.clone())),
        Some(_) => Err(err(id, format!("\"{key}\" must be a string"))),
    }
}

/// The complete field vocabulary of a `query` request.
const QUERY_KEYS: [&str; 9] = [
    "req",
    "id",
    "bank",
    "cmd",
    "marker",
    "from_ps",
    "to_ps",
    "min_count",
    "max_count",
];

/// The complete field vocabulary of a `characterize` request; anything
/// else is rejected so typos fail loudly instead of silently running
/// with defaults.
const CHARACTERIZE_KEYS: [&str; 12] = [
    "req",
    "id",
    "profile",
    "seed",
    "scan_rows",
    "with_swizzle",
    "probe_start",
    "probe_end",
    "retention_wait_ms",
    "sharded",
    "progress",
    "spans",
];

/// Decodes and validates one request line.
///
/// # Errors
///
/// Returns a [`ProtocolError`] (carrying the request id when one was
/// recoverable) for every malformed or invalid line. Never panics.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    if line.len() > MAX_REQUEST_BYTES {
        return Err(err(
            "null",
            format!(
                "request line of {} bytes exceeds the {MAX_REQUEST_BYTES}-byte limit",
                line.len()
            ),
        ));
    }
    let value = json::parse("request", line).map_err(|e| err("null", e.to_string()))?;
    let Some(obj) = value.as_object() else {
        return Err(err("null", "request must be a JSON object"));
    };
    let id = render_id(obj);
    let req = match obj.get("req") {
        Some(Value::String(s)) => s.as_str(),
        Some(_) => return Err(err(&id, "\"req\" must be a string")),
        None => return Err(err(&id, "missing \"req\" field")),
    };
    match req {
        "characterize" => parse_characterize(obj, id),
        "stats" => {
            reject_unknown(obj, &id, &["req", "id"])?;
            Ok(Request::Stats { id })
        }
        "events" => {
            reject_unknown(obj, &id, &["req", "id", "since_seq", "max", "stable"])?;
            Ok(Request::Events {
                since_seq: want_u64(obj, &id, "since_seq")?.unwrap_or(0),
                max: want_u64(obj, &id, "max")?.unwrap_or(0),
                stable: want_bool(obj, &id, "stable")?.unwrap_or(false),
                id,
            })
        }
        "metrics" => {
            reject_unknown(obj, &id, &["req", "id"])?;
            Ok(Request::Metrics { id })
        }
        "query" => parse_query(obj, id),
        "shutdown" => {
            reject_unknown(obj, &id, &["req", "id"])?;
            Ok(Request::Shutdown { id })
        }
        other => Err(err(
            &id,
            format!(
                "unknown request \"{other}\" \
                 (try characterize, stats, events, metrics, query, shutdown)"
            ),
        )),
    }
}

fn parse_query(obj: &BTreeMap<String, Value>, id: String) -> Result<Request, ProtocolError> {
    reject_unknown(obj, &id, &QUERY_KEYS)?;
    let cmd = want_string_list(obj, &id, "cmd")?;
    if let Some(cmds) = &cmd {
        for c in cmds {
            if !dram_trace::SEGMENT_MNEMONICS.contains(&c.as_str()) {
                return Err(err(
                    &id,
                    format!(
                        "unknown command mnemonic \"{c}\" (try one of: {})",
                        dram_trace::SEGMENT_MNEMONICS.join(", ")
                    ),
                ));
            }
        }
    }
    let from_ps = want_u64(obj, &id, "from_ps")?;
    let to_ps = want_u64(obj, &id, "to_ps")?;
    if let (Some(from), Some(to)) = (from_ps, to_ps) {
        if from > to {
            return Err(err(
                &id,
                format!("time window [{from}, {to}] is empty (from_ps > to_ps)"),
            ));
        }
    }
    Ok(Request::Query(QueryRequest {
        bank: want_u32_list(obj, &id, "bank")?,
        cmd,
        marker: want_string(obj, &id, "marker")?,
        from_ps,
        to_ps,
        min_count: want_u64(obj, &id, "min_count")?,
        max_count: want_u64(obj, &id, "max_count")?,
        id,
    }))
}

fn reject_unknown(
    obj: &BTreeMap<String, Value>,
    id: &str,
    allowed: &[&str],
) -> Result<(), ProtocolError> {
    for key in obj.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(err(id, format!("unknown field \"{key}\"")));
        }
    }
    Ok(())
}

fn parse_characterize(obj: &BTreeMap<String, Value>, id: String) -> Result<Request, ProtocolError> {
    reject_unknown(obj, &id, &CHARACTERIZE_KEYS)?;
    let profile_name = match obj.get("profile") {
        Some(Value::String(s)) => s.clone(),
        Some(_) => return Err(err(&id, "\"profile\" must be a string")),
        None => return Err(err(&id, "missing \"profile\" field")),
    };
    let Some((_, defaults)) = profiles::named_job(&profile_name) else {
        return Err(err(
            &id,
            format!(
                "unknown profile \"{profile_name}\" (known: {})",
                profiles::known_names().join(", ")
            ),
        ));
    };
    let seed = want_u64(obj, &id, "seed")?.unwrap_or(DEFAULT_SEED);
    let scan_rows = want_u32(obj, &id, "scan_rows")?.unwrap_or(defaults.scan_rows);
    if scan_rows == 0 {
        return Err(err(&id, "\"scan_rows\" must be at least 1"));
    }
    let with_swizzle = want_bool(obj, &id, "with_swizzle")?.unwrap_or(defaults.with_swizzle);
    let probe_start = want_u32(obj, &id, "probe_start")?.unwrap_or(defaults.probe_range.0);
    let probe_end = want_u32(obj, &id, "probe_end")?.unwrap_or(defaults.probe_range.1);
    if probe_start >= probe_end {
        return Err(err(
            &id,
            format!("probe range [{probe_start}, {probe_end}) is empty"),
        ));
    }
    let retention_wait = match want_u64(obj, &id, "retention_wait_ms")? {
        Some(ms) => Time::from_ms(ms),
        None => defaults.retention_wait,
    };
    let sharded = want_bool(obj, &id, "sharded")?.unwrap_or(false);
    let progress = want_bool(obj, &id, "progress")?.unwrap_or(false);
    let spans = want_bool(obj, &id, "spans")?.unwrap_or(false);
    Ok(Request::Characterize(CharacterizeRequest {
        id,
        profile_name,
        seed,
        opts: CharacterizeOptions {
            scan_rows,
            with_swizzle,
            probe_range: (probe_start, probe_end),
            retention_wait,
        },
        sharded,
        progress,
        spans,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(line: &str) -> Request {
        parse_request(line).unwrap_or_else(|e| panic!("{line} -> {e}"))
    }

    #[test]
    fn minimal_characterize_uses_profile_defaults() {
        let Request::Characterize(c) = parse_ok(r#"{"req":"characterize","profile":"test_small"}"#)
        else {
            panic!("wrong variant");
        };
        assert_eq!(c.id, "null");
        assert_eq!(c.seed, DEFAULT_SEED);
        let (_, defaults) = profiles::named_job("test_small").unwrap();
        assert_eq!(c.opts, defaults);
        assert!(!c.sharded);
        assert!(!c.progress);
        assert!(!c.spans);
    }

    #[test]
    fn events_and_metrics_requests_parse_with_defaults() {
        let Request::Events {
            id,
            since_seq,
            max,
            stable,
        } = parse_ok(r#"{"req":"events"}"#)
        else {
            panic!("wrong variant");
        };
        assert_eq!((id.as_str(), since_seq, max, stable), ("null", 0, 0, false));
        let Request::Events {
            id,
            since_seq,
            max,
            stable,
        } = parse_ok(r#"{"req":"events","id":"e1","since_seq":17,"max":5,"stable":true}"#)
        else {
            panic!("wrong variant");
        };
        assert_eq!(
            (id.as_str(), since_seq, max, stable),
            ("\"e1\"", 17, 5, true)
        );
        let Request::Metrics { id } = parse_ok(r#"{"req":"metrics","id":"m"}"#) else {
            panic!("wrong variant");
        };
        assert_eq!(id, "\"m\"");
    }

    #[test]
    fn spans_flag_parses_and_rejects_non_booleans() {
        let Request::Characterize(c) =
            parse_ok(r#"{"req":"characterize","profile":"test_small","spans":true}"#)
        else {
            panic!("wrong variant");
        };
        assert!(c.spans);
        let e = parse_request(r#"{"req":"characterize","profile":"test_small","spans":1}"#)
            .unwrap_err();
        assert!(e.message.contains("must be a boolean"), "{}", e.message);
    }

    #[test]
    fn overrides_and_ids_round_trip() {
        let Request::Characterize(c) = parse_ok(
            r#"{"req":"characterize","id":"j-1","profile":"mfr_a_x4_2016","seed":7,
                "scan_rows":100,"with_swizzle":true,"probe_start":10,"probe_end":20,
                "retention_wait_ms":5,"sharded":true,"progress":true}"#,
        ) else {
            panic!("wrong variant");
        };
        assert_eq!(c.id, "\"j-1\"");
        assert_eq!(c.seed, 7);
        assert_eq!(c.opts.scan_rows, 100);
        assert!(c.opts.with_swizzle);
        assert_eq!(c.opts.probe_range, (10, 20));
        assert_eq!(c.opts.retention_wait, Time::from_ms(5));
        assert!(c.sharded && c.progress);
        // Numeric ids stay numeric.
        let Request::Stats { id } = parse_ok(r#"{"req":"stats","id":17}"#) else {
            panic!("wrong variant");
        };
        assert_eq!(id, "17");
        // Seeds and ids are exact past 2^53, where an f64 would round.
        let Request::Characterize(c) = parse_ok(
            r#"{"req":"characterize","id":9007199254740993,"profile":"test_small",
                "seed":9007199254740993}"#,
        ) else {
            panic!("wrong variant");
        };
        assert_eq!((c.id.as_str(), c.seed), ("9007199254740993", (1 << 53) + 1));
        let Request::Stats { id } = parse_ok(r#"{"req":"stats","id":18446744073709551615}"#) else {
            panic!("wrong variant");
        };
        assert_eq!(id, "18446744073709551615");
    }

    #[test]
    fn integer_fields_refuse_floats_and_out_of_range_literals() {
        // None of these may become u64::MAX, 1000 or 7.
        for n in ["18446744073709551616", "1e3", "7.0"] {
            let line =
                format!(r#"{{"req":"characterize","id":"j","profile":"test_small","seed":{n}}}"#);
            let e = parse_request(&line).expect_err(&line);
            assert_eq!(e.id, "\"j\"", "{line}");
            assert_eq!(
                e.message, "\"seed\" must be a non-negative integer",
                "{line}"
            );
            let Request::Stats { id } = parse_ok(&format!(r#"{{"req":"stats","id":{n}}}"#)) else {
                panic!("wrong variant");
            };
            assert_eq!(id, "null", "id {n}");
        }
    }

    #[test]
    fn query_requests_parse_scalars_and_arrays() {
        let Request::Query(q) = parse_ok(r#"{"req":"query","id":"q1"}"#) else {
            panic!("wrong variant");
        };
        assert_eq!(q.id, "\"q1\"");
        assert_eq!(q.to_query(), dram_trace::Query::default());

        let Request::Query(q) = parse_ok(
            r#"{"req":"query","id":"q2","bank":3,"cmd":"act","marker":"span:",
                "from_ps":10,"to_ps":20,"min_count":2,"max_count":9}"#,
        ) else {
            panic!("wrong variant");
        };
        assert_eq!(q.bank.as_deref(), Some(&[3u32][..]));
        assert_eq!(q.cmd.as_deref(), Some(&["act".to_string()][..]));
        assert_eq!(q.marker.as_deref(), Some("span:"));
        assert_eq!((q.from_ps, q.to_ps), (Some(10), Some(20)));
        assert_eq!((q.min_count, q.max_count), (Some(2), Some(9)));

        let Request::Query(q) = parse_ok(r#"{"req":"query","bank":[0,3],"cmd":["act","rd"]}"#)
        else {
            panic!("wrong variant");
        };
        assert_eq!(q.bank.as_deref(), Some(&[0u32, 3][..]));
        assert_eq!(
            q.cmd.as_deref(),
            Some(&["act".to_string(), "rd".to_string()][..])
        );
    }

    #[test]
    fn malformed_lines_yield_structured_errors() {
        let cases: &[(&str, &str)] = &[
            ("", "unexpected end of input"),
            ("{", "expected"),
            ("[1,2]", "must be a JSON object"),
            ("42", "must be a JSON object"),
            (r#"{"id":"x"}"#, "missing \"req\""),
            (r#"{"req":7}"#, "\"req\" must be a string"),
            (r#"{"req":"frobnicate"}"#, "unknown request"),
            (r#"{"req":"characterize"}"#, "missing \"profile\""),
            (
                r#"{"req":"characterize","profile":"nope"}"#,
                "unknown profile",
            ),
            (r#"{"req":"characterize","profile":7}"#, "must be a string"),
            (
                r#"{"req":"characterize","profile":"test_small","seed":-1}"#,
                "non-negative integer",
            ),
            (
                r#"{"req":"characterize","profile":"test_small","scan_rows":0}"#,
                "at least 1",
            ),
            (
                r#"{"req":"characterize","profile":"test_small","scan_rows":4294967296}"#,
                "exceeds 32 bits",
            ),
            (
                r#"{"req":"characterize","profile":"test_small","probe_start":60,"probe_end":44}"#,
                "is empty",
            ),
            (
                r#"{"req":"characterize","profile":"test_small","sharded":"yes"}"#,
                "must be a boolean",
            ),
            (
                r#"{"req":"characterize","profile":"test_small","banana":1}"#,
                "unknown field",
            ),
            (r#"{"req":"stats","profile":"x"}"#, "unknown field"),
            (r#"{"req":"events","since_seq":-1}"#, "non-negative integer"),
            (r#"{"req":"events","stable":"yes"}"#, "must be a boolean"),
            (r#"{"req":"events","tail":true}"#, "unknown field"),
            (r#"{"req":"metrics","format":"text"}"#, "unknown field"),
            (
                r#"{"req":"query","cmd":"bogus"}"#,
                "unknown command mnemonic",
            ),
            (r#"{"req":"query","cmd":[]}"#, "must not be an empty array"),
            (r#"{"req":"query","bank":[-1]}"#, "32-bit non-negative"),
            (r#"{"req":"query","bank":"three"}"#, "32-bit non-negative"),
            (r#"{"req":"query","marker":7}"#, "must be a string"),
            (r#"{"req":"query","from_ps":9,"to_ps":3}"#, "is empty"),
            (r#"{"req":"query","path":"/x"}"#, "unknown field"),
            (r#"{"req":"stats","id":007}"#, "malformed number"),
            (r#"{"req":"events","since_seq":01}"#, "malformed number"),
            (r#"{"req":"events","since_seq":1.}"#, "malformed number"),
            (
                r#"{"req":"characterize","profile":"test_small","seed":1.e2}"#,
                "malformed number",
            ),
        ];
        for (line, needle) in cases {
            let e = parse_request(line).expect_err(line);
            assert!(e.message.contains(needle), "{line:?} gave {:?}", e.message);
        }
    }

    #[test]
    fn error_ids_survive_when_recoverable() {
        let e = parse_request(r#"{"req":"characterize","id":"j9"}"#).unwrap_err();
        assert_eq!(e.id, "\"j9\"");
        assert_eq!(
            error_line(&e),
            "{\"resp\":\"error\",\"id\":\"j9\",\"error\":\"missing \\\"profile\\\" field\"}"
        );
    }

    #[test]
    fn oversized_lines_are_rejected_without_parsing() {
        let line = format!(
            "{{\"req\":\"characterize\",\"profile\":\"{}\"}}",
            "x".repeat(MAX_REQUEST_BYTES)
        );
        let e = parse_request(&line).unwrap_err();
        assert!(e.message.contains("exceeds"), "{}", e.message);
    }

    #[test]
    fn characterize_ids_with_non_bmp_content_survive_the_wire() {
        // End to end at the request layer: a profile label with DEL
        // and an emoji comes back out of parse_request intact.
        let line =
            "{\"req\":\"characterize\",\"id\":\"\\ud83d\\ude00\u{7f}\",\"profile\":\"test_small\"}";
        match parse_request(line).expect("request parses") {
            Request::Characterize(req) => {
                assert_eq!(req.id, json::string("\u{1f600}\u{7f}"));
            }
            other => panic!("expected characterize, got {other:?}"),
        }
    }
}
