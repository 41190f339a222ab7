//! End-to-end tests of `belenos serve` over real TCP sockets.
//!
//! Each test binds an ephemeral port, drives the full HTTP surface with
//! a hand-rolled one-request-per-connection client (mirroring what curl
//! does against the server), and shuts down gracefully. The worker
//! pause seam (`ServerHandle::pause_workers`) makes the concurrency
//! cases — in-flight dedup, queue-full 429 — deterministic instead of
//! timing-dependent.
//!
//! The tests run on parallel threads, several servers alive at once: a
//! server observes its jobs through telemetry handles of its own and
//! never touches the process-wide one, and its result cache is made at
//! bind and dropped with it — no server sees what another simulated
//! (`BELENOS_CACHE_DIR` must be unset here, as it is under `cargo test`:
//! a disk tier would be shared by design).

use belenos::campaign::CampaignSpec;
use belenos::experiment::prepare_all;
use belenos::figures::scenario_run;
use belenos::{SimOptions, DEFAULT_MAX_OPS};
use belenos_json::{Json, ToJson};
use belenos_runner::Runner;
use belenos_serve::{ServeConfig, Server, ServerHandle};
use belenos_telemetry::Telemetry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

fn smoke_spec_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/smoke.json");
    std::fs::read_to_string(path).expect("read examples/smoke.json")
}

/// The smoke campaign under another name: different work as far as
/// dedup is concerned.
fn named_smoke(name: &str) -> String {
    smoke_spec_text().replace("\"name\": \"smoke\"", &format!("\"name\": \"{name}\""))
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 4,
        runner_threads: 2,
        ..ServeConfig::default()
    }
}

/// What `belenos campaign run --json` prints for `text`: a direct,
/// telemetry-off run on a private cache.
fn direct_report(text: &str) -> String {
    let spec = CampaignSpec::parse(text).expect("spec parses");
    let reference = spec.prepare().expect("prepare").run(&Runner::isolated(2));
    assert!(
        reference.rollup.is_none(),
        "reference run must be telemetry-off"
    );
    ToJson::to_json(&reference).pretty()
}

fn start(config: ServeConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind server");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, thread)
}

/// One request over its own connection (the server speaks
/// `Connection: close`); returns status, headers, body.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: test\r\n");
    if let Some(body) = body {
        head.push_str(&format!(
            "content-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).expect("write head");
    if let Some(body) = body {
        stream.write_all(body.as_bytes()).expect("write body");
    }
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> (u16, Vec<(String, String)>, String) {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete response head");
    let head = std::str::from_utf8(&raw[..split]).expect("utf-8 head");
    let body = String::from_utf8(raw[split + 4..].to_vec()).expect("utf-8 body");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn json(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("bad JSON body `{body}`: {e}"))
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing number `{key}` in {doc:?}"))
}

fn poll_until_state(addr: SocketAddr, job: u64, want: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, _, body) = request(addr, "GET", &format!("/v1/jobs/{job}"), None);
        assert_eq!(status, 200, "job status poll: {body}");
        let doc = json(&body);
        let state = doc.get("state").and_then(Json::as_str).unwrap().to_string();
        if state == want {
            return doc;
        }
        assert!(
            state == "queued" || state == "running",
            "job reached `{state}` while waiting for `{want}`: {body}"
        );
        assert!(Instant::now() < deadline, "timed out waiting for `{want}`");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Submits a campaign spec, returning the accepted job's id.
fn submit(addr: SocketAddr, spec: &str) -> u64 {
    let (status, _, body) = request(addr, "POST", "/v1/campaigns", Some(spec));
    assert_eq!(status, 202, "submit: {body}");
    num(&json(&body), "job") as u64
}

/// Opens a job's NDJSON event stream (the request is sent; nothing read).
fn open_events(addr: SocketAddr, job: u64) -> TcpStream {
    let mut events = TcpStream::connect(addr).expect("connect events");
    events
        .write_all(format!("GET /v1/jobs/{job}/events HTTP/1.1\r\nhost: test\r\n\r\n").as_bytes())
        .expect("request events");
    events
}

/// Reads an event stream to its end (the job finishing): the body lines.
fn read_events(mut events: TcpStream) -> Vec<String> {
    let mut raw = Vec::new();
    events.read_to_end(&mut raw).expect("read event stream");
    let (status, headers, body) = parse_response(&raw);
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("application/x-ndjson")
    );
    body.lines().map(str::to_string).collect()
}

fn shutdown(addr: SocketAddr, thread: std::thread::JoinHandle<()>) {
    let (status, _, _) = request(addr, "POST", "/v1/shutdown", None);
    assert_eq!(status, 200);
    thread.join().expect("server thread");
}

/// The tentpole acceptance path: submit `examples/smoke.json` over a
/// real socket, watch its NDJSON event stream, and verify the final
/// report is byte-equivalent to running the same spec directly (what
/// `belenos campaign run --json` prints).
#[test]
fn submit_stream_and_report_byte_equivalence() {
    let text = smoke_spec_text();
    // The reference run happens before the server exists: telemetry is
    // off, so the report carries no rollup — the exact document the CLI
    // prints under --format json.
    let expected = direct_report(&text);

    let (addr, handle, thread) = start(test_config());
    let (status, _, body) = request(addr, "GET", "/v1/healthz", None);
    assert_eq!((status, body.contains("true")), (200, true));

    // Hold the workers so the event subscription provably starts before
    // the job does (a live stream, not just a replayed backlog).
    handle.pause_workers(true);
    let (status, _, body) = request(addr, "POST", "/v1/campaigns", Some(&text));
    assert_eq!(status, 202, "submit: {body}");
    let accepted = json(&body);
    let job = num(&accepted, "job") as u64;
    assert_eq!(accepted.get("joined").and_then(Json::as_bool), Some(false));
    assert_eq!(accepted.get("state").and_then(Json::as_str), Some("queued"));

    let events = open_events(addr, job);
    handle.pause_workers(false);
    // The stream ends when the job finishes; EOF bounds the read.
    let lines = read_events(events);
    assert!(
        lines[0].contains("span_open") && lines[0].contains("serve_job"),
        "stream should open with the job's root span: {lines:?}"
    );
    let last = lines.last().expect("at least one event line");
    assert!(
        last.contains("job_state") && last.contains("completed"),
        "stream should end with the terminal state: {last}"
    );

    let done = poll_until_state(addr, job, "completed");
    assert!(done.get("report").is_some(), "status carries the report");
    let (status, _, report_body) = request(addr, "GET", &format!("/v1/jobs/{job}/report"), None);
    assert_eq!(status, 200);
    assert_eq!(
        report_body, expected,
        "served report must be byte-equivalent to the direct CLI rendering"
    );

    shutdown(addr, thread);
}

/// Concurrent duplicate submissions share one execution: the second
/// joins the first's job, both watchers read the full report, and the
/// server's counters pin exactly one simulation.
#[test]
fn duplicate_submission_joins_the_inflight_job() {
    let text = smoke_spec_text();
    let (addr, handle, thread) = start(test_config());

    handle.pause_workers(true);
    let job = submit(addr, &text);

    let (status, _, body) = request(addr, "POST", "/v1/campaigns", Some(&text));
    assert_eq!(status, 202, "duplicate submit: {body}");
    let second = json(&body);
    assert_eq!(num(&second, "job") as u64, job, "dedup joins the same job");
    assert_eq!(second.get("joined").and_then(Json::as_bool), Some(true));

    handle.pause_workers(false);
    poll_until_state(addr, job, "completed");

    // Both clients fetch the full report.
    let (status_a, _, report_a) = request(addr, "GET", &format!("/v1/jobs/{job}/report"), None);
    let (status_b, _, report_b) = request(addr, "GET", &format!("/v1/jobs/{job}/report"), None);
    assert_eq!((status_a, status_b), (200, 200));
    assert!(!report_a.is_empty());
    assert_eq!(report_a, report_b);

    // The dedup pin: one accepted job, one join, one completion — the
    // duplicate performed zero additional simulations.
    let (status, _, body) = request(addr, "GET", "/v1/stats", None);
    assert_eq!(status, 200);
    let stats = json(&body);
    let jobs = stats.get("jobs").expect("jobs block");
    assert_eq!(num(jobs, "submitted"), 1.0);
    assert_eq!(num(jobs, "joined"), 1.0);
    assert_eq!(num(jobs, "completed"), 1.0);
    assert_eq!(num(jobs, "failed"), 0.0);
    let status_doc = poll_until_state(addr, job, "completed");
    assert_eq!(num(&status_doc, "joined"), 1.0);

    shutdown(addr, thread);
}

/// A full queue answers 429 with a Retry-After hint instead of
/// buffering without bound.
#[test]
fn full_queue_rejects_with_429_and_retry_after() {
    let text = smoke_spec_text();
    let other = named_smoke("smoke-overflow");
    assert_ne!(text, other, "overflow spec must differ");
    let config = ServeConfig {
        queue_depth: 1,
        ..test_config()
    };
    let (addr, handle, thread) = start(config);

    handle.pause_workers(true);
    let job = submit(addr, &text); // fills the queue

    let (status, headers, body) = request(addr, "POST", "/v1/campaigns", Some(&other));
    assert_eq!(status, 429, "queue-full submit: {body}");
    let retry: u64 = header(&headers, "retry-after")
        .expect("429 carries Retry-After")
        .parse()
        .expect("Retry-After is seconds");
    assert!(retry >= 1);
    let doc = json(&body);
    assert_eq!(num(&doc, "capacity"), 1.0);

    // The rejected job left no record behind; the accepted one drains
    // to completion on shutdown.
    handle.pause_workers(false);
    poll_until_state(addr, job, "completed");
    let (status, _, _) = request(addr, "GET", &format!("/v1/jobs/{}", job + 1), None);
    assert_eq!(status, 404);

    shutdown(addr, thread);
}

/// Admission control and the scenario endpoint: an over-ceiling op
/// budget is a structured 400 naming `options.max_ops`; a scenario
/// batch within budget runs end to end — prepared as one batch, like a
/// campaign's workloads, and reported by the builder `belenos scenario
/// run` prints from. No benchmark workload posts scenario batches: this
/// test and CI are that path's only coverage.
#[test]
fn a_partial_options_object_keeps_the_default_budget() {
    // A served scenario batch runs on the CLI's budget unless it names
    // another. Naming only the backend used to read the rest over an
    // unlimited budget, which this ceiling then refused.
    let config = ServeConfig {
        op_budget_ceiling: DEFAULT_MAX_OPS,
        ..test_config()
    };
    let (addr, _handle, thread) = start(config);
    let body = r#"{"scenarios": [{"id": "pd", "family": "plastidamage"}],
                   "options": {"model": "analytic"}}"#;
    let (status, _, reply) = request(addr, "POST", "/v1/scenarios/run", Some(body));
    assert_eq!(status, 202, "partial options: {reply}");
    poll_until_state(addr, num(&json(&reply), "job") as u64, "completed");
    shutdown(addr, thread);
}

#[test]
fn budget_rejection_names_the_field_and_scenarios_run() {
    let text = smoke_spec_text();
    let config = ServeConfig {
        op_budget_ceiling: 10_000, // smoke asks for 20_000
        ..test_config()
    };
    let (addr, _handle, thread) = start(config);

    let (status, _, body) = request(addr, "POST", "/v1/campaigns", Some(&text));
    assert_eq!(status, 400, "over-ceiling submit: {body}");
    let doc = json(&body);
    assert_eq!(
        doc.get("field").and_then(Json::as_str),
        Some("options.max_ops"),
        "rejection names the offending field: {body}"
    );
    assert!(doc
        .get("error")
        .and_then(Json::as_str)
        .is_some_and(|e| e.contains("ceiling")));

    // Malformed JSON is a clean 400, not a hung connection.
    let (status, _, _) = request(addr, "POST", "/v1/campaigns", Some("{not json"));
    assert_eq!(status, 400);

    // A scenario section of the wrong shape is a 400 naming the list,
    // not a batch that quietly ran the family defaults.
    let misshapen =
        r#"{"id":"x","family":"contact","mesh":5,"stepping":"fast","newton":[],"expand":true}"#;
    let (status, _, body) = request(addr, "POST", "/v1/scenarios/run", Some(misshapen));
    assert_eq!(status, 400, "misshapen scenario: {body}");
    let doc = json(&body);
    assert_eq!(doc.get("field").and_then(Json::as_str), Some("scenarios"));
    assert!(doc
        .get("error")
        .and_then(Json::as_str)
        .is_some_and(|e| e.contains("mesh: expected an object")));

    // A scenario batch under the ceiling runs end to end.
    let specs = ["bp07", "pd"].map(|id| belenos_workloads::by_id(id).expect("catalog preset"));
    let options = SimOptions::new(5_000);
    let submission = Json::obj(vec![
        (
            "scenarios",
            Json::Arr(specs.iter().map(ToJson::to_json).collect()),
        ),
        ("options", options.to_json()),
    ])
    .render();
    let (status, _, body) = request(addr, "POST", "/v1/scenarios/run", Some(&submission));
    assert_eq!(status, 202, "scenario submit: {body}");
    let job = num(&json(&body), "job") as u64;
    let done = poll_until_state(addr, job, "completed");
    assert_eq!(
        done.get("kind").and_then(Json::as_str),
        Some("scenario_run")
    );

    // The two models were solved as one `prepare` batch on the thread
    // budget, inside the job's own event feed.
    let prepares: Vec<Json> = read_events(open_events(addr, job))
        .iter()
        .map(|line| json(line))
        .filter(|e| {
            e.get("ev").and_then(Json::as_str) == Some("span_open")
                && e.get("name").and_then(Json::as_str) == Some("prepare")
        })
        .collect();
    assert_eq!(prepares.len(), 1, "one prepare batch: {prepares:?}");
    assert_eq!(num(&prepares[0], "jobs"), 2.0);

    // The served document is the one `belenos scenario run <file>
    // --format json` prints: both render the shared builder's report.
    let exps = prepare_all(&specs).expect("presets solve");
    let (expected, failures) = scenario_run(&Runner::isolated(2), &exps, &options);
    assert!(failures.is_empty());
    let (status, _, report_body) = request(addr, "GET", &format!("/v1/jobs/{job}/report"), None);
    assert_eq!(status, 200);
    assert_eq!(report_body, expected.to_json());

    shutdown(addr, thread);
}

/// Two servers alive at once, each bound under its own scoped sink;
/// one runs two different jobs at the same time on two workers. Each
/// event stream is exactly its own job's subtree — one `serve_job` root,
/// every span (including the `phase` spans emitted on runner worker
/// threads) parented inside the stream — with ids and `t_s` from one
/// per-server counter and clock; each sink holds its own server's
/// counters and job subtrees and nothing of the other server's.
#[test]
fn concurrent_jobs_and_servers_stay_apart() {
    let bound = |config| {
        let (sink, buf) = Telemetry::to_buffer();
        let _tele = sink.scope();
        (buf, start(config))
    };
    let (sink, (addr, handle, thread)) = bound(ServeConfig {
        workers: 2,
        ..test_config()
    });
    let (other_sink, (other_addr, _, other_thread)) = bound(test_config());
    handle.pause_workers(true);
    let streams = ["smoke-left", "smoke-right"].map(|name| {
        let job = submit(addr, &named_smoke(name));
        (job, open_events(addr, job))
    });
    let other_job = submit(other_addr, &named_smoke("smoke-elsewhere"));
    handle.pause_workers(false);

    let mut seen = std::collections::HashSet::new();
    let mut extents = Vec::new();
    let mut streamed = Vec::new();
    for (job, stream) in streams {
        let lines = read_events(stream);
        // Root span open, ..., root span close, terminal state.
        let [first, .., close, last] = &lines[..] else {
            panic!("job {job}: short stream {lines:?}")
        };
        assert!(first.contains("serve_job") && close.contains("serve_job"));
        assert!(last.contains("job_state"), "{last}");
        let root = json(first);
        assert_eq!((num(&root, "job") as u64, num(&root, "parent")), (job, 0.0));
        extents.push((num(&root, "t_s"), num(&json(close), "t_s")));
        let opens = lines.iter().filter(|l| l.contains("\"span_open\""));
        let opens: Vec<Json> = opens.map(|l| json(l)).collect();
        let ids: Vec<u64> = opens.iter().map(|e| num(e, "id") as u64).collect();
        // Spans open after their parents, so "every parent is in this
        // stream" means "every chain ends at this stream's root".
        for e in &opens[1..] {
            let parent = num(e, "parent") as u64;
            assert!(ids.contains(&parent), "job {job}: stray {e:?}");
        }
        assert!(
            lines.iter().any(|l| l.contains("\"simulate\"")),
            "job {job}: phase spans from runner worker threads must reach the stream"
        );
        assert!(ids.iter().all(|id| seen.insert(*id)), "ids repeat");
        streamed.extend_from_slice(&lines[..lines.len() - 1]);
    }
    assert!(
        extents[0].0 < extents[1].1 && extents[1].0 < extents[0].1,
        "the two jobs should have overlapped on the server's clock: {extents:?}"
    );
    poll_until_state(other_addr, other_job, "completed");
    shutdown(addr, thread);
    shutdown(other_addr, other_thread);

    let (mine, theirs) = (sink.lines(), other_sink.lines());
    assert!(streamed.iter().all(|l| mine.contains(l)));
    assert!(mine.iter().any(|l| l.contains("serve_jobs_submitted")));
    let opened = mine.iter().filter(|l| l.contains("span_open")).count();
    assert_eq!(opened, seen.len(), "the sink saw foreign spans");
    let mentions = |lines: &[String], name: &str| lines.iter().any(|l| l.contains(name));
    assert!(mentions(&theirs, "smoke-elsewhere") && !mentions(&mine, "smoke-elsewhere"));
    assert!(mentions(&mine, "smoke-left") && !mentions(&theirs, "smoke-left"));
}

/// Joins the server thread, failing instead of hanging when `run` does
/// not return.
fn join_within(thread: std::thread::JoinHandle<()>, limit: Duration) {
    let (done, finished) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = done.send(thread.join());
    });
    let joined = finished.recv_timeout(limit);
    assert!(
        matches!(joined, Ok(Ok(()))),
        "server thread did not end within {limit:?}: {joined:?}"
    );
    waiter.join().expect("waiter thread");
}

/// The accept loop blocks in `accept` instead of polling: a round trip
/// costs what the work costs. (With a 20 ms poll, 100 sequential round
/// trips took 2 s by construction.)
#[test]
fn accept_is_wake_driven() {
    let (addr, handle, thread) = start(test_config());
    let started = Instant::now();
    for _ in 0..100 {
        let (status, _, _) = request(addr, "GET", "/v1/healthz", None);
        assert_eq!(status, 200);
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "100 round trips took {took:?}"
    );
    let (_, _, body) = request(addr, "GET", "/v1/stats", None);
    let connections = json(&body);
    let connections = connections.get("connections").expect("connections block");
    assert_eq!(num(connections, "accepted"), 101.0);
    assert_eq!(num(connections, "rejected_busy"), 0.0);
    assert_eq!(num(connections, "timed_out"), 0.0);
    // No traffic from here on: only the wake can end `run`.
    handle.shutdown();
    join_within(thread, Duration::from_secs(30));
}

/// `ServerHandle::shutdown()` with a job unfinished and a watcher on its
/// event stream: the loop is woken though no client connects, the job
/// runs out, the stream ends `completed`, and a connection accepted
/// before the shutdown is still answered — with the byte-exact report —
/// before `run` returns.
#[test]
fn handle_shutdown_drains_an_unfinished_job_and_answers_what_it_accepted() {
    let text = smoke_spec_text();
    let expected = direct_report(&text);
    let (addr, handle, thread) = start(test_config());
    handle.pause_workers(true);
    let job = submit(addr, &text);
    let events = open_events(addr, job);
    // Connected but silent; the round trip behind it proves it was
    // accepted (connections are taken in order) before the shutdown.
    let mut early = TcpStream::connect(addr).expect("connect early");
    assert_eq!(request(addr, "GET", "/v1/healthz", None).0, 200);
    handle.pause_workers(false);

    handle.shutdown();
    let lines = read_events(events);
    let last = lines.last().expect("at least one event line");
    assert!(last.contains("job_state") && last.contains("completed"));
    early
        .write_all(format!("GET /v1/jobs/{job}/report HTTP/1.1\r\nhost: test\r\n\r\n").as_bytes())
        .expect("request report");
    let mut raw = Vec::new();
    early.read_to_end(&mut raw).expect("read report");
    let (status, _, report) = parse_response(&raw);
    assert_eq!(status, 200);
    assert_eq!(report, expected, "the drained job's report is the CLI's");
    join_within(thread, Duration::from_secs(30));
}

/// Connections racing `POST /v1/shutdown`: each is either answered in
/// full or was never accepted and fails before its first response byte.
/// None hangs, none gets half a response.
#[test]
fn connections_racing_shutdown_are_answered_whole_or_not_at_all() {
    const CLIENTS: usize = 32;
    let text = smoke_spec_text();
    let (addr, _handle, thread) = start(test_config());
    let gate = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let gate = Arc::clone(&gate);
            // Identical specs: whichever POST is admitted first owns the
            // one job, the rest join it or find the server draining.
            let (head, body) = match i % 2 {
                0 => (
                    "GET /v1/healthz HTTP/1.1\r\nhost: test\r\n\r\n".to_string(),
                    "",
                ),
                _ => (
                    format!(
                        "POST /v1/campaigns HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n",
                        text.len()
                    ),
                    text.as_str(),
                ),
            };
            let message = format!("{head}{body}");
            std::thread::spawn(move || {
                gate.wait();
                let Ok(mut stream) = TcpStream::connect(addr) else {
                    return None; // refused: the listener is gone
                };
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .expect("set timeout");
                // A failed write is a reset; the read below says how much
                // of a response arrived before it.
                let _ = stream.write_all(message.as_bytes());
                let mut raw = Vec::new();
                let end = stream.read_to_end(&mut raw);
                if let Err(e) = &end {
                    let hung = matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    );
                    assert!(!hung, "client {i} hung");
                }
                if raw.is_empty() {
                    return None; // reset or closed before any response byte
                }
                assert!(
                    end.is_ok(),
                    "client {i}: {end:?} after {} byte(s)",
                    raw.len()
                );
                let (status, headers, body) = parse_response(&raw);
                let length: usize = header(&headers, "content-length")
                    .and_then(|v| v.parse().ok())
                    .expect("content-length");
                assert_eq!(body.len(), length, "client {i}: truncated body");
                json(&body);
                Some(status)
            })
        })
        .collect();
    gate.wait();
    let (status, _, _) = request(addr, "POST", "/v1/shutdown", None);
    assert_eq!(status, 200);
    // How many got in is the race; what those got is not.
    for client in clients {
        if let Some(status) = client.join().expect("client thread") {
            assert!(matches!(status, 200 | 202 | 503), "status {status}");
        }
    }
    join_within(thread, Duration::from_secs(120));
}

/// A server's result cache is its own: what server A simulated is
/// invisible to server B in the same process, which starts empty, misses
/// exactly as A did and still renders the same bytes.
#[test]
fn servers_in_one_process_share_no_results() {
    let text = named_smoke("smoke-private");
    let cache_block = |addr| {
        let (status, _, body) = request(addr, "GET", "/v1/stats", None);
        assert_eq!(status, 200);
        let cache = json(&body).get("cache").expect("cache block").clone();
        ["entries", "hits", "misses"].map(|key| num(&cache, key))
    };
    let run = |addr| {
        let job = submit(addr, &text);
        poll_until_state(addr, job, "completed");
        request(addr, "GET", &format!("/v1/jobs/{job}/report"), None).2
    };
    let (addr_a, _, thread_a) = start(test_config());
    let (addr_b, _, thread_b) = start(test_config());
    let report_a = run(addr_a);
    let [entries_a, hits_a, misses_a] = cache_block(addr_a);
    assert!(entries_a > 0.0 && misses_a > 0.0);

    assert_eq!(cache_block(addr_b), [0.0, 0.0, 0.0], "B has seen nothing");
    let report_b = run(addr_b);
    assert_eq!(
        cache_block(addr_b),
        [entries_a, hits_a, misses_a],
        "the same spec costs B what it cost A"
    );
    assert_eq!(report_a, report_b);
    shutdown(addr_a, thread_a);
    shutdown(addr_b, thread_b);
}
