//! The `dramscoped` child process and the closed-loop client that drives
//! it over stdio.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The `"resp"` kind of a response line (`result`, `error`, ...).
pub fn resp_kind(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"resp\":\"")?;
    rest.split('"').next()
}

/// The string id a response echoes, `None` for a `null` or numeric id.
pub fn resp_id(line: &str) -> Option<&str> {
    let at = line.find(",\"id\":\"")? + 7;
    line[at..].split('"').next()
}

/// What one closed-loop section produced, request by request.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Client-observed latency per request, milliseconds; `None` for a
    /// request that got no answer (daemon gone, or never sent).
    pub latency_ms: Vec<Option<f64>>,
    /// The answer line per request, as read.
    pub answers: Vec<Option<String>>,
    /// From the first request written to the last answer read.
    pub wall: Duration,
    /// Why the connection ended early, if it did.
    pub broken: Option<String>,
}

impl Outcome {
    /// Requests that got an answer line of any kind.
    #[cfg(test)]
    pub fn answered(&self) -> usize {
        self.answers.iter().flatten().count()
    }
}

/// Sends `requests` (`(id, line)` pairs) with at most `window`
/// outstanding, sending the next one as each answer arrives.
///
/// An answer is matched to its request by the id it echoes. An error
/// line whose id cannot be read (`null`) settles the oldest outstanding
/// request, so a closed loop never stalls on it. When the reader hits
/// EOF or the writer fails, every request still unanswered is left
/// without an answer: a daemon that dies mid-run yields failed requests,
/// never a shorter clean run.
pub fn closed_loop<W: Write, R: BufRead>(
    writer: &mut W,
    reader: &mut R,
    requests: &[(String, String)],
    window: usize,
) -> Outcome {
    let n = requests.len();
    let mut out = Outcome {
        latency_ms: vec![None; n],
        answers: vec![None; n],
        ..Outcome::default()
    };
    let index: HashMap<&str, usize> = requests
        .iter()
        .enumerate()
        .map(|(i, (id, _))| (id.as_str(), i))
        .collect();
    let mut sent_at: Vec<Option<Instant>> = vec![None; n];
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    let mut writable = true;
    let start = Instant::now();
    let mut last = start;
    let mut line = String::new();
    loop {
        while writable && next < n && outstanding.len() < window.max(1) {
            let (_, text) = &requests[next];
            sent_at[next] = Some(Instant::now());
            let written = writer
                .write_all(text.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush());
            if let Err(e) = written {
                out.broken.get_or_insert(format!("write failed: {e}"));
                writable = false;
                sent_at[next] = None;
                break;
            }
            outstanding.push_back(next);
            next += 1;
        }
        if outstanding.is_empty() {
            break;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                out.broken.get_or_insert("daemon closed its output".into());
                break;
            }
            Ok(_) => {}
            Err(e) => {
                out.broken.get_or_insert(format!("read failed: {e}"));
                break;
            }
        }
        let now = Instant::now();
        let text = line.trim_end();
        if resp_kind(text) == Some("progress") {
            continue;
        }
        let slot = match resp_id(text).and_then(|id| index.get(id)) {
            Some(&i) if outstanding.contains(&i) => Some(i),
            Some(_) => None,
            None if resp_kind(text) == Some("error") => outstanding.front().copied(),
            None => None,
        };
        let Some(i) = slot else {
            continue;
        };
        outstanding.retain(|&o| o != i);
        if let Some(t) = sent_at[i] {
            out.latency_ms[i] = Some(now.duration_since(t).as_secs_f64() * 1e3);
        }
        out.answers[i] = Some(text.to_string());
        last = now;
    }
    out.wall = last.duration_since(start);
    out
}

/// How long a single set-up or bookkeeping request may take before the
/// daemon is presumed hung and killed.
const REQUEST_DEADLINE: Duration = Duration::from_secs(60);

/// A running `dramscoped` on stdin/stdout, in its default (pipelined)
/// mode and default worker count.
#[derive(Debug)]
pub struct Daemon {
    child: Arc<Mutex<Child>>,
    pid: u32,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts the daemon binary, pointing `query` requests at
    /// `trace_dir` when given; its standard error goes to `log`.
    pub fn spawn(bin: &Path, trace_dir: Option<&Path>, log: &Path) -> io::Result<Daemon> {
        let mut cmd = Command::new(bin);
        if let Some(dir) = trace_dir {
            cmd.arg("--trace-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(File::create(log)?)
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Daemon {
            pid: child.id(),
            child: Arc::new(Mutex::new(child)),
            stdin: Some(stdin),
            stdout,
        })
    }

    /// Writes one request line and reads response lines up to and
    /// including the first whose kind is `until` (or an error line).
    pub fn request(&mut self, line: &str, until: &str) -> io::Result<Vec<String>> {
        let watchdog = Watchdog::arm(Arc::clone(&self.child), REQUEST_DEADLINE);
        let answer = self.request_unguarded(line, until);
        watchdog.disarm();
        answer
    }

    fn request_unguarded(&mut self, line: &str, until: &str) -> io::Result<Vec<String>> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::other("daemon input already closed"))?;
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        let mut lines = Vec::new();
        loop {
            let mut text = String::new();
            if self.stdout.read_line(&mut text)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("daemon exited before answering {line}"),
                ));
            }
            let text = text.trim_end().to_string();
            let kind = resp_kind(&text).map(str::to_string);
            lines.push(text);
            if kind.as_deref() == Some(until) || kind.as_deref() == Some("error") {
                return Ok(lines);
            }
        }
    }

    /// Runs a closed-loop section; a watchdog kills the daemon if the
    /// section outlives `deadline`, which turns every request still
    /// unanswered into a failure.
    pub fn closed_loop(
        &mut self,
        requests: &[(String, String)],
        window: usize,
        deadline: Duration,
    ) -> Outcome {
        let Some(stdin) = self.stdin.as_mut() else {
            return Outcome {
                latency_ms: vec![None; requests.len()],
                answers: vec![None; requests.len()],
                broken: Some("daemon input already closed".into()),
                ..Outcome::default()
            };
        };
        let watchdog = Watchdog::arm(Arc::clone(&self.child), deadline);
        let mut outcome = closed_loop(stdin, &mut self.stdout, requests, window);
        if watchdog.disarm() {
            outcome.broken = Some(format!("killed after the {deadline:?} deadline"));
        }
        outcome
    }

    /// A `kB` field of `/proc/<pid>/status` (`VmRSS`, `VmHWM`, ...).
    pub fn status_kb(&self, field: &str) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid)).ok()?;
        status.lines().find_map(|l| {
            let rest = l.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim().trim_end_matches("kB").trim().parse().ok()
        })
    }

    /// Asks the daemon to drain and stop, then waits for it; a daemon
    /// that does not stop within `grace` is killed.
    pub fn shutdown(mut self, grace: Duration) -> io::Result<ExitStatus> {
        let watchdog = Watchdog::arm(Arc::clone(&self.child), grace);
        let acked = self.request_unguarded("{\"req\":\"shutdown\",\"id\":\"bye\"}", "shutdown");
        drop(self.stdin.take());
        let status = self.wait();
        watchdog.disarm();
        acked?;
        status
    }

    /// Waits for the daemon to exit. Polls rather than blocking in
    /// `Child::wait`, so the watchdog can take the lock and kill it.
    fn wait(&self) -> io::Result<ExitStatus> {
        loop {
            let exited = self
                .child
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .try_wait()?;
            if let Some(status) = exited {
                return Ok(status);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let mut child = self.child.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(child.try_wait(), Ok(None)) {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
}

/// Kills a child that is still running when a deadline passes.
struct Watchdog {
    stop: mpsc::Sender<()>,
    thread: JoinHandle<bool>,
}

impl Watchdog {
    fn arm(child: Arc<Mutex<Child>>, deadline: Duration) -> Watchdog {
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            if stopped.recv_timeout(deadline) == Err(mpsc::RecvTimeoutError::Timeout) {
                let mut child = child.lock().unwrap_or_else(PoisonError::into_inner);
                return child.kill().is_ok();
            }
            false
        });
        Watchdog { stop, thread }
    }

    /// Stops the watchdog; `true` if it had already killed the child.
    fn disarm(self) -> bool {
        let _ = self.stop.send(());
        self.thread.join().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(n: usize) -> Vec<(String, String)> {
        (0..n)
            .map(|i| {
                let id = format!("r{i}");
                let line = format!("{{\"req\":\"stats\",\"id\":\"{id}\"}}");
                (id, line)
            })
            .collect()
    }

    /// A stand-in daemon on two pipes: answers `answer` requests (in
    /// pairs, second first, as a pipelined daemon may) and then dies,
    /// closing both ends the way a killed process does.
    fn fake_daemon(answer: usize) -> (io::PipeWriter, BufReader<io::PipeReader>, JoinHandle<()>) {
        let (req_rx, req_tx) = io::pipe().unwrap();
        let (resp_rx, mut resp_tx) = io::pipe().unwrap();
        let thread = std::thread::spawn(move || {
            let mut reader = BufReader::new(req_rx);
            let mut ids = Vec::new();
            for _ in 0..answer {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap() == 0 {
                    break;
                }
                ids.push(resp_id(line.trim()).unwrap().to_string());
                if ids.len() == 2 {
                    for id in ids.drain(..).rev() {
                        writeln!(resp_tx, "{{\"resp\":\"stats\",\"id\":\"{id}\"}}").unwrap();
                    }
                }
            }
        });
        (req_tx, BufReader::new(resp_rx), thread)
    }

    #[test]
    fn a_daemon_killed_mid_run_yields_failed_requests() {
        let reqs = requests(50);
        let (mut w, mut r, fake) = fake_daemon(20);
        let out = closed_loop(&mut w, &mut r, &reqs, 2);
        fake.join().unwrap();
        assert_eq!(
            out.latency_ms.len(),
            50,
            "every attempted request is reported"
        );
        assert_eq!(out.answered(), 20);
        assert_eq!(out.latency_ms.iter().filter(|l| l.is_none()).count(), 30);
        assert!(out.broken.is_some());
        for (i, answer) in out.answers.iter().enumerate() {
            assert_eq!(answer.is_some(), i < 20, "request {i}");
            if let Some(a) = answer {
                assert_eq!(resp_id(a), Some(reqs[i].0.as_str()));
            }
        }
    }

    #[test]
    fn a_clean_run_answers_every_request_out_of_order() {
        let reqs = requests(40);
        let (mut w, mut r, fake) = fake_daemon(40);
        let out = closed_loop(&mut w, &mut r, &reqs, 2);
        fake.join().unwrap();
        assert_eq!(out.answered(), 40);
        assert!(out.latency_ms.iter().all(Option::is_some));
    }

    #[test]
    fn unreadable_error_ids_settle_the_oldest_request() {
        let reqs = requests(3);
        let answers = "{\"resp\":\"error\",\"id\":null,\"error\":\"x\"}\n\
                       {\"resp\":\"progress\",\"id\":\"r2\",\"marker\":\"phase:x\"}\n\
                       {\"resp\":\"stats\",\"id\":\"r2\"}\n\
                       {\"resp\":\"stats\",\"id\":\"r1\"}\n";
        let mut sink = Vec::new();
        let out = closed_loop(&mut sink, &mut answers.as_bytes(), &reqs, 3);
        assert_eq!(out.answered(), 3);
        assert_eq!(resp_kind(out.answers[0].as_deref().unwrap()), Some("error"));
        assert_eq!(resp_kind(out.answers[2].as_deref().unwrap()), Some("stats"));
    }

    #[test]
    fn response_fields_are_read_without_a_parser() {
        let line = "{\"resp\":\"result\",\"id\":\"m7\",\"cache\":\"miss\"}";
        assert_eq!(resp_kind(line), Some("result"));
        assert_eq!(resp_id(line), Some("m7"));
        assert_eq!(resp_id("{\"resp\":\"error\",\"id\":null}"), None);
    }
}
