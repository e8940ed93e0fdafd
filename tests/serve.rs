//! End-to-end tests of the `qsyn serve` daemon: real process invocations
//! over real pipes, mixed batches with injected faults, graceful shutdown,
//! and warm restarts against a persistent disk-cache tier.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const TOFFOLI_QASM: &str =
    "OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\nqreg q[3];\\nccx q[0],q[1],q[2];\\n";

fn toffoli_request(id: &str, extra: &str) -> String {
    format!("{{\"id\":\"{id}\",\"circuit\":\"{TOFFOLI_QASM}\",\"device\":\"ibmqx4\"{extra}}}\n")
}

/// Runs `qsyn serve <args>`, feeds `input` to stdin, closes it (EOF), and
/// collects the process output.
fn serve(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qsyn"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("qsyn serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("request batch written");
    child.wait_with_output().expect("daemon exits")
}

fn stdout_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qsyn-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Extracts a string field from a one-line JSON response without a JSON
/// parser (the tests only need exact-match probes).
fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let probe = format!("\"{name}\":\"");
    let start = line.find(&probe)? + probe.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

#[test]
fn mixed_batch_with_faults_yields_one_response_per_request_and_exit_zero() {
    // Seven requests: three good, one malformed JSON, one schema
    // violation, one injected panic, one injected budget blow. The daemon
    // must answer all seven and exit 0.
    let batch = format!(
        "{}{}not even json\n{}{}{}{}",
        toffoli_request("good-1", ""),
        toffoli_request("good-2", ",\"cost\":\"volume\""),
        "{\"id\":\"schema\",\"circuit\":42,\"device\":\"ibmqx4\"}\n",
        toffoli_request("panics", ",\"inject\":\"verify:panic\",\"emit\":false"),
        toffoli_request("blown", ",\"inject\":\"route:budget\",\"emit\":false"),
        toffoli_request("good-3", ",\"emit\":false"),
    );
    let out = serve(&[], &batch);
    assert!(
        out.status.success(),
        "daemon must exit 0; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines = stdout_lines(&out);
    assert_eq!(lines.len(), 7, "7 requests, 7 responses: {lines:#?}");
    let row = |id: &str| {
        lines
            .iter()
            .find(|l| field(l, "id") == Some(id))
            .unwrap_or_else(|| panic!("no response for {id}: {lines:#?}"))
    };
    for id in ["good-1", "good-2", "good-3"] {
        let l = row(id);
        assert_eq!(field(l, "status"), Some("ok"), "{l}");
        assert!(l.contains("\"verified\":true"), "{l}");
    }
    assert_eq!(field(row("panics"), "kind"), Some("panic"));
    assert_eq!(field(row("blown"), "kind"), Some("compile"));
    assert_eq!(field(row("schema"), "kind"), Some("schema"));
    let parse_rows = lines
        .iter()
        .filter(|l| l.contains("\"kind\":\"parse\""))
        .count();
    assert_eq!(parse_rows, 1, "the non-JSON line got a parse row");
    // The summary confirms nothing was silently dropped.
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("served 7 requests"), "{log}");
}

#[test]
fn responses_echo_ids_and_report_valid_json() {
    let out = serve(
        &[],
        &format!(
            "{}{}",
            toffoli_request("alpha", ",\"emit\":false"),
            toffoli_request("beta", ",\"emit\":false")
        ),
    );
    assert!(out.status.success());
    let lines = stdout_lines(&out);
    assert_eq!(lines.len(), 2);
    // Every row round-trips through the repo's own JSON parser.
    for l in &lines {
        let v = qsyn::trace::json::parse(l).expect("response rows are valid JSON");
        assert!(v.get("id").is_some() && v.get("job").is_some(), "{l}");
    }
    let ids: Vec<_> = lines.iter().filter_map(|l| field(l, "id")).collect();
    assert!(ids.contains(&"alpha") && ids.contains(&"beta"), "{ids:?}");
}

#[test]
fn deadline_expired_requests_get_structured_rows() {
    // A request that stalls its worker past its own deadline: the slow
    // fault sleeps before the deadline check, so the row must be a
    // structured deadline error, not a hang or a dropped response.
    let out = serve(
        &[],
        &toffoli_request("late", ",\"inject\":\"slow:300\",\"deadline_ms\":50,\"emit\":false"),
    );
    assert!(out.status.success());
    let lines = stdout_lines(&out);
    assert_eq!(lines.len(), 1);
    assert_eq!(field(&lines[0], "kind"), Some("deadline"), "{}", lines[0]);
    assert_eq!(field(&lines[0], "id"), Some("late"));
}

#[test]
fn overload_sheds_requests_with_structured_rows() {
    // One worker, queue cap 1, and a batch of slow requests: the daemon
    // must shed the excess with `overloaded` rows instead of queueing
    // without bound — and still answer every line.
    let n = 8;
    let batch: String = (0..n)
        .map(|i| toffoli_request(&format!("r{i}"), ",\"inject\":\"slow:200\",\"emit\":false"))
        .collect();
    let out = serve(&["--workers", "1", "--queue-cap", "1"], &batch);
    assert!(out.status.success());
    let lines = stdout_lines(&out);
    assert_eq!(lines.len(), n, "every request answered: {lines:#?}");
    let overloaded = lines
        .iter()
        .filter(|l| l.contains("\"kind\":\"overloaded\""))
        .count();
    let ok = lines.iter().filter(|l| l.contains("\"status\":\"ok\"")).count();
    assert!(overloaded > 0, "cap 1 with 8 slow requests must shed: {lines:#?}");
    assert!(ok >= 1, "at least the first request completes: {lines:#?}");
    assert_eq!(ok + overloaded, n, "{lines:#?}");
}

#[test]
fn sigterm_drains_in_flight_work_and_exits_zero() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qsyn"))
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("qsyn serve spawns");
    let mut stdin = child.stdin.take().expect("stdin piped");
    stdin
        .write_all(toffoli_request("before-term", ",\"inject\":\"slow:400\",\"emit\":false").as_bytes())
        .expect("request written");
    stdin.flush().expect("flush");
    // Give the daemon time to admit the request, then TERM it while the
    // compile is still sleeping. Keep stdin open: the daemon must exit
    // from the signal, not from EOF.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let pid = child.id();
    let term = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());
    let out = child.wait_with_output().expect("daemon exits");
    drop(stdin);
    assert!(
        out.status.success(),
        "SIGTERM must drain and exit 0, got {:?}; stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines = stdout_lines(&out);
    assert_eq!(lines.len(), 1, "in-flight request still answered: {lines:#?}");
    assert_eq!(field(&lines[0], "id"), Some("before-term"));
    assert_eq!(field(&lines[0], "status"), Some("ok"), "{}", lines[0]);
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("terminated by signal"), "{log}");
}

#[test]
fn warm_restart_serves_from_disk_byte_identical() {
    let dir = tmp_dir("warm");
    let dir_s = dir.to_str().unwrap().to_string();

    // Cold daemon: compiles and persists.
    let cold = serve(&["--cache-dir", &dir_s], &toffoli_request("cold", ""));
    assert!(cold.status.success());
    let cold_lines = stdout_lines(&cold);
    assert_eq!(cold_lines.len(), 1);
    assert!(cold_lines[0].contains("\"cache_hit\":false"), "{}", cold_lines[0]);
    let cold_qasm = field(&cold_lines[0], "qasm").expect("cold row carries qasm").to_string();
    let entries = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".qsc"))
        .count();
    assert_eq!(entries, 1, "one persisted entry");

    // Warm daemon, new process: must hit the disk tier and emit
    // byte-identical QASM.
    let warm = serve(&["--cache-dir", &dir_s], &toffoli_request("warm", ""));
    assert!(warm.status.success());
    let warm_lines = stdout_lines(&warm);
    assert_eq!(warm_lines.len(), 1);
    assert!(
        warm_lines[0].contains("\"cache_hit\":true"),
        "restart must hit the disk cache: {}",
        warm_lines[0]
    );
    assert_eq!(
        field(&warm_lines[0], "qasm").expect("warm row carries qasm"),
        cold_qasm,
        "disk hit must be byte-identical to the cold compile"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_disk_entry_quarantines_and_recomputes_identically() {
    let dir = tmp_dir("poison");
    let dir_s = dir.to_str().unwrap().to_string();

    // Compile, persist — then poison this request's own entry via the
    // service-boundary fault.
    let cold = serve(
        &["--cache-dir", &dir_s],
        &toffoli_request("seed", ",\"inject\":\"poison-disk\""),
    );
    assert!(cold.status.success());
    let cold_qasm = field(&stdout_lines(&cold)[0], "qasm").unwrap().to_string();

    // Restart: the poisoned entry must be quarantined (never served), the
    // request recomputed byte-identically, and a fresh entry written.
    let warm = serve(&["--cache-dir", &dir_s], &toffoli_request("retry", ""));
    assert!(warm.status.success());
    let warm_lines = stdout_lines(&warm);
    assert_eq!(warm_lines.len(), 1);
    assert!(
        warm_lines[0].contains("\"cache_hit\":false"),
        "poisoned entry must not be served: {}",
        warm_lines[0]
    );
    assert_eq!(field(&warm_lines[0], "qasm").unwrap(), cold_qasm);
    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|n| n.ends_with(".quarantined")),
        "poisoned entry kept as evidence: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.ends_with(".qsc")),
        "fresh entry rewritten after recompute: {names:?}"
    );

    // Third run: the rewritten entry serves from disk again.
    let third = serve(&["--cache-dir", &dir_s], &toffoli_request("third", ""));
    assert!(third.status.success());
    assert!(
        stdout_lines(&third)[0].contains("\"cache_hit\":true"),
        "{}",
        stdout_lines(&third)[0]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_metrics_poll_reconciles_with_response_rows() {
    // A mixed batch with a live `{"cmd":"metrics"}` poll in the middle:
    // two good requests, one parse error, one unknown control command.
    // The daemon answers all five lines; the poll row carries a snapshot;
    // the drained metrics file reconciles exactly with the response rows
    // and passes `qsyn check-metrics` — as does the poll row itself.
    let dir = tmp_dir("metrics");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics_path = dir.join("metrics.json");
    let metrics_s = metrics_path.to_str().unwrap().to_string();
    let batch = format!(
        "{}not json at all\n{{\"id\":\"poll\",\"cmd\":\"metrics\"}}\n{{\"cmd\":\"bogus\"}}\n{}",
        toffoli_request("m-1", ",\"emit\":false"),
        toffoli_request("m-2", ",\"emit\":false"),
    );
    let out = serve(&["--workers", "2", "--metrics-file", &metrics_s], &batch);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines = stdout_lines(&out);
    assert_eq!(lines.len(), 5, "5 input lines, 5 rows: {lines:#?}");

    // The poll row is a live snapshot, not a compile response.
    let poll = lines
        .iter()
        .find(|l| field(l, "id") == Some("poll"))
        .expect("poll row present");
    assert_eq!(field(poll, "status"), Some("metrics"), "{poll}");
    let (live, source) = qsyn::report::load(poll).expect("poll row parses as a snapshot");
    assert_eq!(source, qsyn::report::ReportSource::Snapshot);
    assert_eq!(live.counter("serve.metrics_polls"), Some(1));

    // The drained metrics file reconciles with what we saw on stdout.
    let file_text = std::fs::read_to_string(&metrics_path).expect("metrics file written on drain");
    let (snap, _) = qsyn::report::load(&file_text).expect("metrics file parses");
    assert_eq!(snap.counter("serve.requests"), Some(4), "2 ok + 2 errors");
    assert_eq!(snap.counter("serve.responses_ok"), Some(2));
    assert_eq!(snap.counter("serve.responses_error"), Some(2));
    assert_eq!(snap.counter("serve.metrics_polls"), Some(1));
    assert_eq!(snap.gauge("serve.queue_depth"), Some(0), "drained");
    let hit_rows = lines
        .iter()
        .filter(|l| l.contains("\"cache_hit\":true"))
        .count() as u64;
    assert_eq!(
        snap.counter("serve.cache_hits").unwrap_or(0),
        hit_rows,
        "cache_hits counter matches the cache_hit fields on stdout"
    );
    let lat = snap.histogram("serve.latency_us").expect("latency recorded");
    assert_eq!(lat.count, 2, "one latency sample per executed request");

    // Both snapshots pass the schema + invariant checker binary.
    let poll_file = dir.join("poll.json");
    std::fs::write(&poll_file, poll).expect("poll row written");
    for path in [&metrics_path, &poll_file] {
        let check = Command::new(env!("CARGO_BIN_EXE_qsyn"))
            .args(["check-metrics", path.to_str().unwrap()])
            .output()
            .expect("check-metrics runs");
        assert!(
            check.status.success(),
            "{path:?} must validate: {}",
            String::from_utf8_lossy(&check.stderr)
        );
        assert!(
            String::from_utf8_lossy(&check.stderr).contains("invariants hold"),
            "{}",
            String::from_utf8_lossy(&check.stderr)
        );
    }
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("1 metrics polls"), "{log}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn startup_eviction_trims_the_disk_cache_to_caps() {
    let dir = tmp_dir("evict");
    let dir_s = dir.to_str().unwrap().to_string();

    // Populate the tier with two distinct entries (node_budget is part of
    // the compile-cache key, so these persist separately).
    let seed = serve(
        &["--cache-dir", &dir_s],
        &format!(
            "{}{}",
            toffoli_request("e-1", ""),
            toffoli_request("e-2", ",\"node_budget\":50000"),
        ),
    );
    assert!(seed.status.success());
    let qsc_count = |dir: &PathBuf| {
        std::fs::read_dir(dir)
            .expect("cache dir exists")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".qsc"))
            .count()
    };
    assert_eq!(qsc_count(&dir), 2, "two persisted entries");

    // Restart with a zero byte budget: startup eviction must clear the
    // tier before serving and report what it reclaimed.
    let evict = serve(&["--cache-dir", &dir_s, "--cache-max-bytes", "0"], "");
    assert!(
        evict.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&evict.stderr)
    );
    let log = String::from_utf8_lossy(&evict.stderr);
    assert!(
        log.contains("disk cache: evicted 2 of 2 entries"),
        "startup eviction reported: {log}"
    );
    assert_eq!(qsc_count(&dir), 0, "tier emptied");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_cache_stats_still_report_every_disk_counter() {
    // A daemon that serves nothing must still print the full disk-tier
    // stats line — zeros included — so dashboards scraping the summary
    // never see a missing series.
    let dir = tmp_dir("coldstats");
    let dir_s = dir.to_str().unwrap().to_string();
    let out = serve(&["--cache-dir", &dir_s, "--cache-stats"], "");
    assert!(out.status.success());
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("disk tier"), "{log}");
    assert!(log.contains("quarantined"), "{log}");
    assert!(log.contains("evicted ("), "{log}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_session_trace_validates_whole_sessions() {
    let trace = std::env::temp_dir().join(format!("qsyn-serve-trace-{}.jsonl", std::process::id()));
    let trace_s = trace.to_str().unwrap().to_string();
    let trace_flag = format!("--trace={trace_s}");
    let out = serve(
        &[&trace_flag],
        &format!(
            "{}{}{}",
            toffoli_request("t1", ",\"emit\":false"),
            toffoli_request("t2", ",\"inject\":\"verify:panic\",\"emit\":false"),
            toffoli_request("t3", ",\"cost\":\"volume\",\"emit\":false"),
        ),
    );
    assert!(out.status.success());
    assert_eq!(stdout_lines(&out).len(), 3);
    // check-trace must accept the whole session: per-request job ids keep
    // interleaved events attributable, and even the panicked request's
    // partial event stream stays in Fig. 2 order.
    let check = Command::new(env!("CARGO_BIN_EXE_qsyn"))
        .args(["check-trace", &trace_s])
        .output()
        .expect("check-trace runs");
    assert!(
        check.status.success(),
        "session trace must validate: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn serve_max_swaps_zero_is_accepted_like_a_request_row() {
    // A SWAP cap of 0 ("route without SWAPs") is valid at every door: the
    // daemon flag and the request field give the same row.
    let flag = serve(
        &["--max-swaps", "0"],
        &toffoli_request("cap", ",\"emit\":false"),
    );
    let field_row = serve(
        &[],
        &toffoli_request("cap", ",\"max_swaps\":0,\"emit\":false"),
    );
    assert!(
        flag.status.success(),
        "{}",
        String::from_utf8_lossy(&flag.stderr)
    );
    assert!(field_row.status.success());
    let (a, b) = (stdout_lines(&flag), stdout_lines(&field_row));
    assert_eq!((a.len(), b.len()), (1, 1));
    for name in ["status", "verdict", "kind"] {
        assert_eq!(
            field(&a[0], name),
            field(&b[0], name),
            "{name}: {} vs {}",
            a[0],
            b[0]
        );
    }
}

/// One circuit on ibmqx5 that needs routing: three qubits of every
/// Toffoli sit apart on the coupling map.
const PARITY_QASM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\n\
    ccx q[0],q[1],q[4];\ncx q[3],q[0];\nh q[2];\nccx q[2],q[4],q[1];\nt q[3];\ncx q[1],q[3];\n";

#[test]
fn compile_and_serve_agree_on_every_option_value() {
    // Front-door parity: every placement, route strategy (auto included)
    // and cost model, with optimization on and off, in at least one
    // combination each. `qsyn compile` and a `qsyn serve` row with the
    // same options must print the same QASM and reach the same verdict.
    let combos = [
        ("identity", "ctr", "eqn2", true),
        ("greedy", "lookahead", "volume", false),
        ("annealed", "persistent", "fidelity", true),
        ("identity", "auto", "volume", true),
        ("greedy", "auto", "fidelity", false),
        ("annealed", "ctr", "eqn2", false),
    ];
    let dir = tmp_dir("parity");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("parity.qasm");
    std::fs::write(&input, PARITY_QASM).unwrap();
    let escaped = PARITY_QASM
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    let batch: String = combos
        .iter()
        .enumerate()
        .map(|(i, (placement, strategy, cost, optimize))| {
            format!(
                "{{\"id\":\"c{i}\",\"circuit\":\"{escaped}\",\"device\":\"ibmqx5\",\
                 \"placement\":\"{placement}\",\"route_strategy\":\"{strategy}\",\
                 \"cost\":\"{cost}\",\"optimize\":{optimize}}}\n"
            )
        })
        .collect();
    let out = serve(&[], &batch);
    assert!(out.status.success());
    let rows: Vec<_> = stdout_lines(&out)
        .iter()
        .map(|l| qsyn::trace::json::parse(l).expect("valid row"))
        .collect();
    assert_eq!(rows.len(), combos.len());
    for (i, (placement, strategy, cost, optimize)) in combos.iter().enumerate() {
        let id = format!("c{i}");
        let row = rows
            .iter()
            .find(|r| r.get("id").and_then(|v| v.as_str()) == Some(id.as_str()))
            .expect("one row per request");
        let mut args = vec![
            "compile",
            input.to_str().unwrap(),
            "--device",
            "ibmqx5",
            "--placement",
            placement,
            "--route-strategy",
            strategy,
            "--cost",
            cost,
        ];
        if !optimize {
            args.push("--no-opt");
        }
        let compiled = Command::new(env!("CARGO_BIN_EXE_qsyn"))
            .args(&args)
            .output()
            .expect("qsyn compile runs");
        let log = String::from_utf8_lossy(&compiled.stderr);
        assert!(compiled.status.success(), "{args:?}: {log}");
        let qasm = row
            .get("qasm")
            .and_then(|v| v.as_str())
            .expect("row carries qasm");
        assert_eq!(String::from_utf8_lossy(&compiled.stdout), qasm, "{args:?}");
        let verified = match row.get("verified").and_then(|v| v.as_bool()) {
            Some(b) => format!("verified = Some({b})"),
            None => "verified = None".to_string(),
        };
        assert!(
            log.contains(&verified),
            "{args:?}: serve says {verified}, compile: {log}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
