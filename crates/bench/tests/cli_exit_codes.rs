//! Exit-code contract of the `characterize` CLI: usage errors (bad
//! flags, unknown names, missing operands) exit 2 in *every*
//! subcommand; runtime failures (unreadable files, failed gates) exit
//! 1. Pinned here so the convention cannot drift per-subcommand again.

use std::process::{Command, Output};

fn characterize(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_characterize"))
        .args(args)
        .output()
        .expect("characterize binary spawns")
}

fn assert_usage(args: &[&str], needle: &str) {
    let out = characterize(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} -> {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(needle), "{args:?} stderr: {stderr}");
}

#[test]
fn usage_errors_exit_2_in_every_subcommand() {
    assert_usage(&["no_such_profile"], "unknown command or profile");
    assert_usage(&["sharded", "no_such_profile"], "unknown profile");
    assert_usage(&["record"], "record needs a profile name");
    assert_usage(&["record", "no_such_profile"], "unknown profile");
    assert_usage(&["replay"], "replay needs a trace file");
    assert_usage(&["diff", "only_one.trace"], "diff needs two trace files");
    assert_usage(&["dump"], "dump needs a trace file");
    assert_usage(&["stats"], "stats needs a trace file");
    assert_usage(&["bench", "--only", "no_such_suite"], "unknown suite");
    assert_usage(&["bench", "--gate", "20"], "--gate needs --baseline");
    assert_usage(&["serve", "bogus"], "serve does not take");
    assert_usage(&["index"], "index needs a trace file");
    assert_usage(&["query"], "query needs a trace file or directory");
    assert_usage(&["query", "x.trace", "--cmd", "bogus"], "unknown --cmd");
    assert_usage(&["query", "x.trace", "--bank", "minus"], "invalid --bank");
    assert_usage(
        &["query", "x.trace", "--bank", ","],
        "--bank needs at least one value",
    );
    assert_usage(
        &["query", "x.trace", "--from-ps", "9", "--to-ps", "3"],
        "--from-ps 9 is after --to-ps 3",
    );
}

/// Every subcommand and the bare profile run read one grammar: an
/// unknown flag and an operand past the declared ones are usage errors
/// naming the command, and `--help` prints the usage and runs nothing.
#[test]
fn every_command_refuses_unknown_flags_and_extra_operands_and_answers_help() {
    // Each command with its required operands filled in, and the name
    // its usage errors use.
    let commands: &[(&[&str], &str)] = &[
        (&[], "characterize"),
        (&["mfr_a_x4_2016"], "characterize"),
        (&["fleet"], "fleet"),
        (&["sharded", "hbm2"], "sharded"),
        (&["record", "test_small"], "record"),
        (&["replay", "a.trace"], "replay"),
        (&["diff", "a.trace", "b.trace"], "diff"),
        (&["dump", "a.trace"], "dump"),
        (&["stats", "a.trace"], "stats"),
        (&["index", "a.trace"], "index"),
        (&["query", "lake"], "query"),
        (&["bench"], "bench"),
        (&["serve"], "serve"),
        (&["events", "j.jsonl"], "events"),
    ];
    for (line, name) in commands {
        assert_usage(
            &[line, &["--bogus"][..]].concat(),
            &format!("{name} does not take '--bogus'"),
        );
        if !line.is_empty() {
            assert_usage(
                &[line, &["extra"][..]].concat(),
                &format!("{name} does not take 'extra'"),
            );
        }
        let out = characterize(&[line, &["--help"][..]].concat());
        assert_eq!(out.status.code(), Some(0), "{line:?} --help -> {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: characterize"), "{stdout}");
        assert!(stdout.contains("-h, --help"), "{stdout}");
        assert!(
            !stdout.contains("Telemetry:"),
            "{line:?} --help ran: {stdout}"
        );
        assert!(out.stderr.is_empty(), "{line:?} --help -> {out:?}");
    }
    // The bare run takes its one operand as a profile name.
    assert_usage(&["extra"], "unknown command or profile 'extra'");
    // Flags are read in any order and only once.
    assert_usage(
        &["stats", "--bank", "1", "a.trace", "--bank", "2"],
        "stats does not take '--bank' twice",
    );
}

/// The profile run resolves Table I presets only (it forces the swizzle
/// probe, which the small test profiles are too short for), so its
/// error lists the presets and the subcommands, not `test_small`.
#[test]
fn profile_run_error_lists_presets_and_subcommands() {
    let out = characterize(&["test_small"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let (_, listed) = stderr.split_once("try one of: ").expect("a list");
    assert!(listed.contains("mfr_a_x4_2016, "), "{stderr}");
    assert!(listed.contains("hbm2, fleet, "), "{stderr}");
    assert!(listed.contains("serve, events)"), "{stderr}");
    assert!(!listed.contains("test_small"), "{stderr}");
}

/// Every value is read before any work starts: a malformed `--bench`
/// fails before the trace is replayed.
#[test]
fn replay_rejects_a_malformed_bench_count_before_replaying() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/test_small.trace"
    );
    let out = characterize(&["replay", golden, "--bench", "x"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid --bench value 'x'"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("replaying"), "{stdout}");
}

#[test]
fn missing_and_malformed_flag_values_exit_2() {
    assert_usage(&["sharded", "test_small", "--seed"], "--seed needs a value");
    assert_usage(
        &["sharded", "test_small", "--seed", "not_a_number"],
        "invalid --seed value",
    );
    assert_usage(&["serve", "--workers"], "--workers needs a value");
    assert_usage(
        &["serve", "--workers", "minus_one"],
        "invalid --workers value",
    );
}

#[test]
fn runtime_failures_exit_1() {
    // A well-formed invocation whose input file does not exist is a
    // runtime failure, not a usage error.
    let out = characterize(&["replay", "/nonexistent/never.trace"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");

    let out = characterize(&["stats", "/nonexistent/never.trace"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    let out = characterize(&["index", "/nonexistent/never.trace"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // A directory without any *.trace files is a runtime failure too —
    // and distinct from a query that parses, runs, and matches nothing.
    let empty = std::env::temp_dir().join("characterize_query_empty_dir");
    std::fs::create_dir_all(&empty).expect("temp dir");
    let out = characterize(&["query", empty.to_str().expect("utf-8 temp path")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no .trace files"), "{stderr}");
}

/// The trace-lake loop end to end: record (v2 by default), `index` a
/// `--v1` recording back up to v2, byte-identical `stats` across all
/// three, a matching query (exit 0) and a no-match query (exit 1).
#[test]
fn record_index_stats_and_query_round_trip() {
    let dir = std::env::temp_dir().join(format!("characterize_lake_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let dir = dir.to_str().expect("utf-8 temp path");
    let v2 = format!("{dir}/run.trace");
    let v1 = format!("{dir}/plain.trace");

    let out = characterize(&["record", "test_small", "--quiet", "--out", &v2]);
    assert!(out.status.success(), "{out:?}");
    let out = characterize(&["record", "test_small", "--quiet", "--v1", "--out", &v1]);
    assert!(out.status.success(), "{out:?}");

    // The v2 container is the v1 stream plus a footer: strictly longer,
    // and its payload prefix is byte-identical.
    let v2_bytes = std::fs::read(&v2).expect("v2 written");
    let v1_bytes = std::fs::read(&v1).expect("v1 written");
    assert!(v2_bytes.len() > v1_bytes.len());
    assert_eq!(&v2_bytes[..v1_bytes.len()], &v1_bytes[..]);

    // `index` upgrades the v1 file; the result is byte-identical to the
    // directly recorded v2 container.
    let out = characterize(&["index", &v1]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("phase:structure"), "{stdout}");
    let upgraded = std::fs::read(format!("{dir}/plain.v2.trace")).expect("upgrade written");
    assert_eq!(upgraded, v2_bytes);

    // Stats must not depend on which container carried the events.
    let stats = |path: &str| {
        let out = characterize(&["stats", path]);
        assert!(out.status.success(), "{out:?}");
        out.stdout
    };
    assert_eq!(stats(&v2), stats(&v1));

    // Scoped stats decode fewer segments and say so.
    let out = characterize(&["stats", &v2, "--segment", "phase:power"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[filtered: 1 of"), "{stdout}");

    // One matching query, one well-formed no-match query.
    let out = characterize(&["query", dir, "--cmd", "act", "--bank", "0"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("phase:structure"), "{stdout}");
    let out = characterize(&["query", dir, "--cmd", "rfm"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("matched 0 event(s)"), "{stdout}");

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn serve_answers_one_job_over_stdin_and_exits_cleanly() {
    use std::io::Write;
    use std::process::Stdio;

    // --serial pins response order so the line-by-line assertions
    // below stay byte-deterministic.
    let mut child = Command::new(env!("CARGO_BIN_EXE_characterize"))
        .args(["serve", "--workers", "1", "--serial"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(
            b"{\"req\":\"characterize\",\"id\":\"c\",\"profile\":\"test_small\",\"seed\":5}\n\
              not json\n\
              {\"req\":\"shutdown\",\"id\":\"z\"}\n",
        )
        .expect("requests written");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{lines:?}");
    assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
    assert!(lines[1].contains("\"resp\":\"error\""), "{}", lines[1]);
    assert!(lines[2].contains("\"drained\":true"), "{}", lines[2]);
}

#[test]
fn serve_pipelined_answers_every_request_and_acks_last() {
    use std::io::Write;
    use std::process::Stdio;

    // The default (pipelined) mode may interleave responses, but every
    // request is answered, ids match, and the shutdown ack comes after
    // every outstanding response.
    let mut child = Command::new(env!("CARGO_BIN_EXE_characterize"))
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(
            b"{\"req\":\"characterize\",\"id\":\"a\",\"profile\":\"test_small\",\"seed\":5}\n\
              {\"req\":\"stats\",\"id\":\"s\"}\n\
              {\"req\":\"shutdown\",\"id\":\"z\"}\n",
        )
        .expect("requests written");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{lines:?}");
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"id\":\"a\"") && l.contains("\"cache\":\"miss\"")),
        "{lines:?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"resp\":\"stats\"") && l.contains("\"id\":\"s\"")),
        "{lines:?}"
    );
    assert!(
        lines.last().unwrap().contains("\"drained\":true"),
        "ack is last: {lines:?}"
    );
}
