//! `serve_mixed` — a served request from POST to report. A fresh server
//! per repetition (one job worker, one simulation thread) takes a fixed,
//! seed-shuffled schedule of twelve submissions from two **closed-loop**
//! clients: six distinct small o3 campaigns (cache miss), four exact
//! repeats of finished ones (cache hit) and two duplicates posted while
//! job pickup is paused, so they **join** the in-flight job. Each job is
//! a few tens of ms of simulation, so the HTTP layer, the job manager,
//! the event router, `json` and `telemetry` own a large share of the
//! pass — the stack used the way a fleet uses it, not the way a sweep
//! does.

use super::{Checks, Ctx, RequestKind, RequestSample, ServeRep, Workload};
use crate::clock::Rng;
use crate::spans::Tracer;
use belenos::campaign::CampaignSpec;
use belenos_json::Json;
use belenos_runner::Runner;
use belenos_serve::{ServeConfig, Server, ServerHandle};
use belenos_workloads::ScenarioSpec;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Instant;

pub const WHY: &str = "POST->events->report on a fresh server (1 worker, 1 sim thread), closed loop, \
2 clients, 12 submissions: 6 miss, 4 hit, 2 join; serve+json+telemetry own a large share of each request";

const MAX_OPS: usize = 20_000;
const CLIENTS: usize = 2;

/// The rendering of the tag that makes a repetition's cache keys fresh
/// (the result cache behind a server is process-wide and cannot be
/// cleared). Fixed width, so every repetition's documents have the same
/// length; reports are compared after mapping the tag back to `@0000`.
fn tag(generation: usize) -> String {
    format!("@{generation:04}")
}

/// `(scenario preset, mesh, analysis)` of the six distinct campaigns and
/// the warm-up one (last).
const CAMPAIGNS: [(&str, (usize, usize, usize), &str); 7] = [
    ("co", (2, 2, 3), "frequency"),
    ("pd", (2, 2, 2), "width"),
    ("rj", (2, 2, 2), "lsq"),
    ("co", (2, 2, 3), "branch"),
    ("pd", (2, 2, 2), "frequency"),
    ("rj", (2, 2, 2), "width"),
    ("co", (2, 2, 2), "frequency"),
];
const WARMUP: usize = 6;

/// Campaign `k`'s spec document for one generation.
fn campaign_text(k: usize, generation: usize) -> String {
    let (preset, (nx, ny, nz), analysis) = CAMPAIGNS[k];
    let mut spec = belenos_workloads::by_id(preset).expect("catalog preset");
    spec.id = format!("sv{k}{}", tag(generation));
    (spec.mesh.nx, spec.mesh.ny, spec.mesh.nz) = (nx, ny, nz);
    // Only a 20 000-op prefix is simulated; the cap keeps the *whole* trace
    // small too, which matters in the one process where a trace store is
    // installed (store_cycle's traced run borrows this workload for its
    // `serve.*` rows, and every prepare there writes its artifact).
    spec.expand.max_kernel_ops = super::store_cycle::MAX_KERNEL_OPS;
    format!(
        "{{\"name\": \"mix{k}{}\", \"workloads\": [{}], \"options\": {{\"max_ops\": {MAX_OPS}, \
         \"sampling\": \"off\", \"model\": \"o3\"}}, \"analyses\": [\"{analysis}\"]}}",
        tag(generation),
        spec.to_json()
    )
}

/// One step of a client's schedule.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// First submission of campaign `k`; with `dup` a duplicate is posted
    /// right behind it while pickup is paused.
    Miss { k: usize, dup: bool },
    /// Exact repeat of campaign `k`, which this client already finished.
    Hit { k: usize },
}

pub struct ServeMixed {
    schedules: [Vec<Step>; CLIENTS],
    /// Direct `Campaign::run` renderings at generation 0.
    references: Vec<String>,
    generation: usize,
    live: Option<Live>,
    reps: Vec<ServeRep>,
    boot_s: f64,
}

struct Live {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServeMixed {
    pub fn new(mut rng: Rng) -> ServeMixed {
        // The seed deals the six campaigns to the two clients and orders
        // each client's steps; a repeat always follows its original on
        // the same client, so every hit is a hit.
        let mut deck: Vec<usize> = (0..6).collect();
        rng.shuffle(&mut deck);
        let schedules = [0, 1].map(|c| {
            let mine = &deck[c * 3..c * 3 + 3];
            let dup = mine[rng.below(3)];
            let skip = mine[rng.below(3)];
            let mut ready: Vec<Step> = mine
                .iter()
                .map(|&k| Step::Miss { k, dup: k == dup })
                .collect();
            let mut steps = Vec::new();
            while !ready.is_empty() {
                let step = ready.swap_remove(rng.below(ready.len()));
                if let Step::Miss { k, .. } = step {
                    if k != skip {
                        ready.push(Step::Hit { k });
                    }
                }
                steps.push(step);
            }
            steps
        });
        let references = (0..CAMPAIGNS.len())
            .map(|k| {
                let spec = CampaignSpec::parse(&campaign_text(k, 0)).expect("generated spec");
                let mut report = spec
                    .prepare()
                    .expect("tiny scenarios solve")
                    .run(&Runner::isolated(1));
                report.rollup = None;
                report.to_json()
            })
            .collect();
        ServeMixed {
            schedules,
            references,
            generation: 0,
            live: None,
            reps: Vec::new(),
            boot_s: 0.0,
        }
    }
}

/// One request over its own connection (the server speaks
/// `connection: close`): status and body.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: bench\r\n");
    if let Some(body) = body {
        head.push_str(&format!(
            "content-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("\r\n");
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.unwrap_or("").as_bytes()))
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("incomplete response head")?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("no status line")?;
    let body = String::from_utf8(raw[split + 4..].to_vec()).map_err(|_| "body is not UTF-8")?;
    Ok((status, body))
}

/// What a client needs to play its schedule.
struct Client<'a> {
    addr: SocketAddr,
    handle: &'a ServerHandle,
    /// Serialises the pause windows of the two clients: a duplicate must
    /// be posted while *its* original is still queued.
    pause: &'a Mutex<()>,
    references: &'a [String],
    generation: usize,
    tracer: &'a Tracer,
    parent: u64,
}

#[derive(Default)]
struct ClientLog {
    checks: Checks,
    requests: Vec<RequestSample>,
    joined: u64,
    rejected: u64,
}

impl Client<'_> {
    /// POSTs campaign `k`; returns the job id and whether it joined.
    fn post(&self, k: usize, log: &mut ClientLog) -> Option<(u64, bool)> {
        let text = campaign_text(k, self.generation);
        match http(self.addr, "POST", "/v1/campaigns", Some(&text)) {
            Ok((202, body)) => {
                let doc = Json::parse(&body).ok()?;
                let job = doc.get("job").and_then(Json::as_f64)? as u64;
                let joined = doc.get("joined").and_then(Json::as_bool)?;
                log.checks.check(true, String::new);
                Some((job, joined))
            }
            Ok((status, body)) => {
                if status == 429 {
                    log.rejected += 1;
                }
                log.checks
                    .check(false, || format!("POST campaign {k}: {status} {body}"));
                None
            }
            Err(e) => {
                log.checks
                    .check(false, || format!("POST campaign {k}: {e}"));
                None
            }
        }
    }

    /// Follows job `job` to its end and fetches the report; returns the
    /// seconds the report GET took.
    fn follow(&self, k: usize, job: u64, log: &mut ClientLog) -> f64 {
        let events = http(self.addr, "GET", &format!("/v1/jobs/{job}/events"), None);
        log.checks.check(
            matches!(&events, Ok((200, body)) if body.lines().last().is_some_and(|l| l.contains("completed"))),
            || format!("events of job {job}: {events:?}"),
        );
        let t0 = Instant::now();
        let report = http(self.addr, "GET", &format!("/v1/jobs/{job}/report"), None);
        let report_s = t0.elapsed().as_secs_f64();
        match report {
            Ok((200, body)) => log.checks.same_bytes(
                &body.replace(&tag(self.generation), &tag(0)),
                &self.references[k],
                &format!("served report of campaign {k} vs direct run"),
            ),
            other => log
                .checks
                .check(false, || format!("report of job {job}: {other:?}")),
        }
        report_s
    }

    /// One whole request, POST to report.
    fn request(&self, k: usize, kind: RequestKind, log: &mut ClientLog) {
        let span = self.tracer.begin(self.parent);
        let t0 = Instant::now();
        let posted = self.post(k, log);
        let ack_s = t0.elapsed().as_secs_f64();
        if let Some((job, joined)) = posted {
            log.checks
                .check(!joined, || format!("campaign {k} joined unexpectedly"));
            let report_s = self.follow(k, job, log);
            log.requests.push(RequestSample {
                kind,
                total_s: t0.elapsed().as_secs_f64(),
                ack_s,
                report_s,
            });
        }
        self.tracer.end(span, "serve.request", false);
    }

    /// A miss and its duplicate: both POSTed inside one pause window, so
    /// the second finds the first still queued and joins it.
    fn request_pair(&self, k: usize, log: &mut ClientLog) {
        let span = self.tracer.begin(self.parent);
        let (t0, first, ack0, t1, second, ack1) = {
            let _window = self
                .pause
                .lock()
                .expect("no client panics in a pause window");
            self.handle.pause_workers(true);
            let t0 = Instant::now();
            let first = self.post(k, log);
            let ack0 = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let second = self.post(k, log);
            let ack1 = t1.elapsed().as_secs_f64();
            self.handle.pause_workers(false);
            (t0, first, ack0, t1, second, ack1)
        };
        if let (Some((job, joined0)), Some((dup_job, joined1))) = (first, second) {
            log.checks.check(!joined0 && joined1 && dup_job == job, || {
                format!(
                    "duplicate of campaign {k}: jobs {job}/{dup_job}, joined {joined0}/{joined1}"
                )
            });
            log.joined += u64::from(joined1);
            for (kind, start, ack_s) in
                [(RequestKind::Miss, t0, ack0), (RequestKind::Join, t1, ack1)]
            {
                let report_s = self.follow(k, job, log);
                log.requests.push(RequestSample {
                    kind,
                    total_s: start.elapsed().as_secs_f64(),
                    ack_s,
                    report_s,
                });
            }
        }
        self.tracer.end(span, "serve.request_pair", false);
    }

    fn play(&self, steps: &[Step]) -> ClientLog {
        let mut log = ClientLog::default();
        for &step in steps {
            match step {
                Step::Miss { k, dup: false } => self.request(k, RequestKind::Miss, &mut log),
                Step::Miss { k, dup: true } => self.request_pair(k, &mut log),
                Step::Hit { k } => self.request(k, RequestKind::Hit, &mut log),
            }
        }
        log
    }
}

impl Workload for ServeMixed {
    fn name(&self) -> &'static str {
        "serve_mixed"
    }

    fn setup(&mut self, ctx: &Ctx<'_>, checks: &mut Checks) {
        self.generation += 1;
        let t = ctx.tracer;
        let t0 = Instant::now();
        let live = t.span(ctx.parent, "serve.boot", |_| {
            let server = Server::bind(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                runner_threads: 1,
                ..ServeConfig::default()
            })
            .map_err(|e| format!("bind: {e}"))?;
            let addr = server.local_addr();
            let handle = server.handle();
            let thread = std::thread::spawn(move || server.run());
            let health = http(addr, "GET", "/v1/healthz", None);
            if !matches!(&health, Ok((200, body)) if body.contains("true")) {
                handle.shutdown();
                let _ = thread.join();
                return Err(format!("healthz: {health:?}"));
            }
            Ok(Live {
                addr,
                handle,
                thread,
            })
        });
        self.boot_s = t0.elapsed().as_secs_f64();
        match live {
            Ok(live) => {
                checks.check(true, String::new);
                // One warm-up smoke campaign: the first fill a user pays
                // before the server's first useful answer.
                let mut log = ClientLog::default();
                t.span(ctx.parent, "serve.warmup_request", |id| {
                    Client {
                        addr: live.addr,
                        handle: &live.handle,
                        pause: &Mutex::new(()),
                        references: &self.references,
                        generation: self.generation,
                        tracer: t,
                        parent: id,
                    }
                    .request(WARMUP, RequestKind::Miss, &mut log);
                });
                checks.absorb(log.checks);
                self.live = Some(live);
            }
            Err(e) => checks.check(false, || e),
        }
    }

    fn pass(&mut self, ctx: &Ctx<'_>, checks: &mut Checks) {
        let Some(live) = self.live.take() else {
            checks.check(false, || "pass without a server".into());
            return;
        };
        let pause = Mutex::new(());
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let clients: Vec<_> = self
                .schedules
                .iter()
                .map(|steps| {
                    let client = Client {
                        addr: live.addr,
                        handle: &live.handle,
                        pause: &pause,
                        references: &self.references,
                        generation: self.generation,
                        tracer: ctx.tracer,
                        parent: ctx.parent,
                    };
                    scope.spawn(move || client.play(steps))
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .collect()
        });
        let t_drain = Instant::now();
        let served = ctx.tracer.span(ctx.parent, "serve.drain", |_| {
            live.handle.shutdown();
            live.thread.join()
        });
        let drain_s = t_drain.elapsed().as_secs_f64();
        checks.check(matches!(served, Ok(Ok(()))), || {
            format!("server thread: {served:?}")
        });
        let mut rep = ServeRep {
            boot_s: self.boot_s,
            drain_s,
            ..ServeRep::default()
        };
        for log in logs {
            rep.requests.extend(log.requests);
            rep.joined += log.joined;
            rep.rejected += log.rejected;
            checks.absorb(log.checks);
        }
        checks.check(rep.joined == 2 && rep.requests.len() == 12, || {
            format!(
                "{} request(s) completed, {} joined; want 12 and 2",
                rep.requests.len(),
                rep.joined
            )
        });
        self.reps.push(rep);
    }

    fn teardown(&mut self) {
        // A failed set-up or pass can leave a server up.
        if let Some(live) = self.live.take() {
            live.handle.shutdown();
            let _ = live.thread.join();
        }
    }

    fn fe_scenarios(&self) -> Vec<ScenarioSpec> {
        (0..6)
            .filter_map(|k| CampaignSpec::parse(&campaign_text(k, 0)).ok())
            .flat_map(|spec| spec.workloads.resolve(belenos::campaign::PaperSet::Gem5))
            .collect()
    }

    fn take_serve_reps(&mut self) -> Vec<ServeRep> {
        std::mem::take(&mut self.reps)
    }
}
