//! End-to-end daemon tests against the *real* characterization runner:
//! the same `test_small` job twice over one connection must run exactly
//! one simulation and answer miss-then-hit with identical dossier
//! digests, and a unix-socket daemon must share that cache across
//! connections.

use dram_telemetry::json::{self, Value};
use dramscope_service::profiles;
use dramscope_service::{handle_connection, CacheStatus, JobSpec, Service};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};

/// One top-level field of a response line.
fn field(line: &str, key: &str) -> Value {
    json::parse("response", line)
        .ok()
        .and_then(|v| v.as_object()?.get(key).cloned())
        .unwrap_or_else(|| panic!("{key} in {line}"))
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

#[test]
fn stdin_pipe_same_job_twice_is_miss_then_hit_with_equal_digests() {
    let input = "\
        {\"req\":\"characterize\",\"id\":\"a\",\"profile\":\"test_small\",\"seed\":7}\n\
        {\"req\":\"characterize\",\"id\":\"b\",\"profile\":\"test_small\",\"seed\":7}\n\
        {\"req\":\"stats\",\"id\":\"s\"}\n";
    let service = Service::new(1);
    let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
    handle_connection(&service, input.as_bytes(), &writer).expect("transport ok");
    let out = String::from_utf8(writer.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "{lines:?}");

    assert_eq!(field(lines[0], "cache"), text("miss"));
    assert_eq!(field(lines[1], "cache"), text("hit"));
    let d0 = field(lines[0], "dossier_digest");
    let d1 = field(lines[1], "dossier_digest");
    assert_eq!(d0, d1, "cache hit serves the identical dossier");
    assert!(d0.as_str().is_some_and(|d| d.starts_with("0x")), "{d0:?}");

    // One simulation for two responses, and the library agrees.
    assert_eq!(field(lines[2], "executions"), Value::U64(1));
    assert_eq!(field(lines[2], "hits"), Value::U64(1));
    let stats = service.stats();
    assert_eq!(stats.executions, 1);
    assert_eq!(stats.submitted, 2);

    // The served dossier digest matches an out-of-band library run of
    // the same spec (content addressing, not line memoization).
    let (profile, opts) = profiles::named_job("test_small").unwrap();
    let spec = JobSpec {
        profile_name: "test_small".into(),
        profile,
        seed: 7,
        opts,
        sharded: false,
    };
    let (output, status) = service.submit(&spec, None).unwrap();
    assert_eq!(
        status,
        CacheStatus::Hit,
        "library spec hits the daemon's entry"
    );
    assert_eq!(d0, text(&format!("0x{:016x}", output.digest)));
    service.shutdown();
}

#[test]
fn progress_events_stream_before_the_result() {
    let input = "{\"req\":\"characterize\",\"id\":\"p\",\"profile\":\"test_small\",\"seed\":3,\"progress\":true}\n";
    let service = Service::new(1);
    let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
    handle_connection(&service, input.as_bytes(), &writer).expect("transport ok");
    service.shutdown();
    let out = String::from_utf8(writer.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    let progress: Vec<&str> = lines
        .iter()
        .filter(|l| l.contains("\"resp\":\"progress\""))
        .copied()
        .collect();
    assert!(
        progress.iter().any(|l| l.contains("phase:structure")),
        "{lines:?}"
    );
    assert!(
        lines.last().unwrap().contains("\"resp\":\"result\""),
        "result arrives after progress"
    );
    // Every progress marker is a phase/span label, never raw commands.
    for p in &progress {
        let marker = field(p, "marker");
        let marker = marker.as_str().expect("string marker");
        assert!(
            marker.starts_with("phase:") || marker.starts_with("span:"),
            "{marker}"
        );
    }
}

#[cfg(unix)]
#[test]
fn unix_socket_shares_the_cache_across_connections() {
    use std::os::unix::net::UnixStream;

    let path = std::env::temp_dir().join(format!("dramscoped-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let service = Arc::new(Service::new(1));
    let server = {
        let service = Arc::clone(&service);
        let path = path.clone();
        std::thread::spawn(move || {
            dramscope_service::serve_unix(&service, &path, dramscope_service::ConnMode::Serial)
        })
    };
    // Wait for the listener to bind.
    let mut tries = 0;
    let connect = loop {
        match UnixStream::connect(&path) {
            Ok(s) => break s,
            Err(_) if tries < 200 => {
                tries += 1;
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("socket never came up: {e}"),
        }
    };

    let ask = |mut stream: UnixStream, req: &str| -> String {
        stream.write_all(req.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        line
    };

    let first = ask(
        connect,
        "{\"req\":\"characterize\",\"id\":1,\"profile\":\"test_small\",\"seed\":11}",
    );
    assert_eq!(field(&first, "cache"), text("miss"), "{first}");

    let second = ask(
        UnixStream::connect(&path).unwrap(),
        "{\"req\":\"characterize\",\"id\":2,\"profile\":\"test_small\",\"seed\":11}",
    );
    assert_eq!(field(&second, "cache"), text("hit"), "{second}");
    assert_eq!(
        field(&first, "dossier_digest"),
        field(&second, "dossier_digest")
    );
    assert_eq!(service.stats().executions, 1);

    let ack = ask(
        UnixStream::connect(&path).unwrap(),
        "{\"req\":\"shutdown\"}",
    );
    assert!(ack.contains("\"drained\":true"), "{ack}");
    server.join().unwrap().expect("server exits cleanly");
    assert!(!path.exists(), "socket file cleaned up");
}

/// The shipped binary's front-end: `--help` prints the usage, an unknown
/// flag is a usage error, and `--journal` writes a journal that reads
/// back clean, with the job's lifecycle in it.
#[test]
fn dramscoped_binary_answers_help_refuses_unknown_flags_and_journals() {
    let dramscoped = || Command::new(env!("CARGO_BIN_EXE_dramscoped"));
    let out = dramscoped().arg("--help").output().expect("spawns");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: dramscoped"), "{stdout}");
    assert!(stdout.contains("--journal FILE"), "{stdout}");

    let out = dramscoped().arg("--bogus").output().expect("spawns");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("dramscoped does not take '--bogus'"),
        "{stderr}"
    );

    let journal = std::env::temp_dir().join(format!("dramscoped-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let mut child = dramscoped()
        .args(["--workers", "1", "--serial", "--journal"])
        .arg(&journal)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(
            b"{\"req\":\"characterize\",\"id\":\"j\",\"profile\":\"test_small\",\"seed\":7}\n\
              {\"req\":\"shutdown\",\"id\":\"z\"}\n",
        )
        .expect("requests written");
    let out = child.wait_with_output().expect("exits");
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&journal).expect("journal written");
    std::fs::remove_file(&journal).ok();
    let lines: Vec<_> = dram_obs::scan_journal(&text).collect();
    assert!(lines.iter().all(Result::is_ok), "corrupt lines: {lines:?}");
    let finished = lines
        .iter()
        .flatten()
        .filter(|e| e.kind == "job.finished")
        .count();
    assert_eq!(finished, 1, "{text}");
}
