//! `http_shd`: the held-out SHD rasters POSTed as JSON to `/classify`.
//!
//! Why this workload: here JSON, the micro-batching scheduler and the
//! HTTP transport dominate; the kernels are under a tenth of a request.
//! It bypasses the trainer. A loopback `serve()` with
//! `ServerConfig::default()` serves a 700-128-20 model; bodies (about
//! 1,900 events, 14 KB each) are encoded during set-up.
//!
//! Load: `CLIENT_THREADS` threads, each owning one keep-alive
//! connection, in an open loop paced per connection. Each request is
//! timed from its due time, so a stall that delays later sends counts
//! against them, and the generator's own lateness (send time minus due
//! time) is reported per phase. Phases: a fixed low rate, a fixed high
//! rate (see `HIGH_STEP`), a saturation phase, and a rate ladder whose
//! steps are 5% apart, searched by bisection for the highest rate that
//! meets the limit (p99 ≤ 25 ms, no failures, no growing lateness).
//!
//! The workload is runnable but not listed in `BENCHMARK.json`: its
//! figures move with the host's wake-up latency by more than the largest
//! allowed bound (see `README.md`).

use crate::stats::{median, ms, percentile, us, windowed_rate, Summary};
use crate::tasks::Task;
use crate::trace::Tracer;
use crate::{repeat_setup, tasks, Options, Report, CLIENT_THREADS, RATE_WINDOW_S};
use snn_core::SpikeRaster;
use snn_engine::Engine;
use snn_json::Json;
use snn_serve::{serve, BatchPolicy, Client, Scheduler, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Ladder grid: rate `k` is `LOW_RPS · LADDER_RATIO^k` requests/s.
const LOW_RPS: f64 = 100.0;
const LADDER_RATIO: f64 = 1.05;
/// The high phase is grid step 19, 100 · 1.05^19 ≈ 253 req/s. The
/// 2-core reference host saturates two connections at 500-600 req/s,
/// but its capacity under the p99 limit swings with other tenants'
/// load; at about half of it the phase stays clear of the knee.
const HIGH_STEP: i32 = 19;
/// Highest grid step the ladder may reach (100 · 1.05^35 ≈ 552 req/s);
/// from the high step, four probes resolve the bracket exactly.
const TOP_STEP: i32 = 35;
/// Bisection probes of the ladder; 4 resolve a 16-step bracket.
const LADDER_PROBES: usize = 4;
/// Requests per ladder probe: enough for a p99 with ten samples beyond.
const LADDER_STEP_REQUESTS: usize = 1100;

/// Latency limit for `max_rps`, on the p99 from due time.
const P99_LIMIT_MS: f64 = 25.0;
/// Lateness is growing when the last quarter's median lateness exceeds
/// the first quarter's by more than this.
const LATE_GROWTH_MS: f64 = 2.0;

/// Shares of the budget for the fixed-rate phases (at least 1,000
/// requests each at the benchmark's 25 s); the ladder's probes follow.
/// The low phase of a traced run is split into an untraced and a traced
/// half.
const WARMUP_S: f64 = 1.0;
const LOW_SHARE: f64 = 0.41;
const HIGH_SHARE: f64 = 0.16;
/// Share of the budget for the saturation phase, where each connection
/// sends its next request as soon as the last one is answered: its
/// completion rate, a median over `RATE_WINDOW_S` windows, is
/// `throughput_per_s`, steadier than the ladder's p99 threshold.
const SATURATION_SHARE: f64 = 0.2;

/// In a traced high phase only every second request per connection is
/// replayed: replaying all would hold each connection past its next due
/// time and make the generator late.
const HIGH_REPLAY_EVERY: usize = 2;

/// Requests of the short HTTP ledger other workloads' traced runs make.
const LEDGER_REQUESTS: usize = 300;
const SMOKE_REQUESTS: usize = 40;

/// A request without an answer after this long fails.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

fn rate(step: i32) -> f64 {
    LOW_RPS * LADDER_RATIO.powi(step)
}

/// What the load generator sends and expects.
struct Target {
    addr: SocketAddr,
    bodies: Vec<Vec<u8>>,
    /// In-process `Session::classify` answers, computed during set-up.
    want: Vec<usize>,
}

impl Target {
    fn new<'a>(
        engine: &Engine,
        rasters: impl Iterator<Item = &'a SpikeRaster>,
        addr: SocketAddr,
    ) -> Self {
        let mut session = engine.session();
        let (bodies, want) = rasters
            .map(|r| (r.to_json().to_string().into_bytes(), session.classify(r)))
            .unzip();
        Self { addr, bodies, want }
    }
}

/// In-process replay of one traced request's layers: the body's JSON
/// parse and `SpikeRaster::from_json`, then `Scheduler::submit` and
/// `Ticket::wait` on a scheduler with the server's batching policy.
#[derive(Debug, Clone, Copy)]
struct Replay {
    parse_us: f64,
    wait_us: f64,
    rejected: bool,
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Position in the schedule.
    index: usize,
    /// Answer time minus due time.
    latency_ms: f64,
    /// Answer time minus send time.
    service_ms: f64,
    /// Send time minus due time.
    late_ms: f64,
    replay: Option<Replay>,
}

/// When a phase's requests are due.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    /// Requests per second over all connections (infinite: every
    /// connection sends its next request as soon as the last returns).
    rate: f64,
    requests: usize,
    /// No request is sent after this instant.
    deadline: Option<Instant>,
}

impl Schedule {
    fn fixed(rate: f64, requests: usize) -> Self {
        Self {
            rate,
            requests,
            deadline: None,
        }
    }
}

/// One phase's outcome.
struct Phase {
    rate: f64,
    samples: Vec<Sample>,
    failed: usize,
    elapsed: Duration,
}

impl Phase {
    fn latency(&self) -> Summary {
        Summary::of(
            &self
                .samples
                .iter()
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        )
    }

    /// The p99 from due time (supported by the sample count at paper
    /// scale, where every phase has at least 1,000 requests).
    fn p99(&self) -> f64 {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.latency_ms).collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, 99.0)
    }

    fn late(&self) -> Summary {
        Summary::of(&self.samples.iter().map(|s| s.late_ms).collect::<Vec<_>>())
    }

    /// Median lateness of the last quarter minus that of the first.
    fn late_growth_ms(&self) -> f64 {
        let mut by_due: Vec<&Sample> = self.samples.iter().collect();
        by_due.sort_by_key(|s| s.index);
        let q = (by_due.len() / 4).max(1);
        let first: Vec<f64> = by_due[..q].iter().map(|s| s.late_ms).collect();
        let last: Vec<f64> = by_due[by_due.len() - q..]
            .iter()
            .map(|s| s.late_ms)
            .collect();
        median(&last) - median(&first)
    }

    fn meets_limit(&self) -> bool {
        self.failed == 0 && self.p99() <= P99_LIMIT_MS && self.late_growth_ms() <= LATE_GROWTH_MS
    }

    fn describe(&self) -> Json {
        let lat = self.latency();
        let late = self.late();
        Json::obj(vec![
            ("rate_per_s", Json::from(self.rate)),
            ("requests", Json::from(self.samples.len())),
            ("failed", Json::from(self.failed)),
            ("p50_ms", Json::from(lat.p50)),
            ("p99_ms", Json::from(self.p99())),
            ("tail_percentile", Json::from(lat.tail_q)),
            ("tail_ms", Json::from(lat.tail)),
            ("gen_late_p50_ms", Json::from(late.p50)),
            ("gen_late_tail_ms", Json::from(late.tail)),
            ("late_growth_ms", Json::from(self.late_growth_ms())),
            ("meets_limit", Json::Bool(self.meets_limit())),
        ])
    }
}

/// Sends `requests` requests at `rate` from `CLIENT_THREADS` threads, one
/// connection each. Connection `c` sends schedule positions
/// `c, c + CLIENT_THREADS, …`, position `j` being due `j / rate` seconds
/// after the phase starts. With `replay`, every request is traced and
/// every `replay.1`-th request per connection is also replayed
/// in-process, its spans recorded under the request's trace id.
fn drive(
    clients: &mut [Client],
    target: &Target,
    schedule: Schedule,
    replay: Option<(&Scheduler, usize)>,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Phase {
    let Schedule {
        rate,
        requests,
        deadline,
    } = schedule;
    let start = Instant::now() + Duration::from_millis(5);
    let traced = replay.is_some();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mut tracer = tracer.fork(10 + c as u32);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut failures = Vec::new();
                    let mut j = c;
                    while j < requests && deadline.is_none_or(|d| Instant::now() < d) {
                        let due = start + Duration::from_secs_f64(j as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let replay = replay
                            .filter(|(_, every)| (j / CLIENT_THREADS).is_multiple_of(*every))
                            .map(|(scheduler, _)| scheduler);
                        match one_request(client, target, j, due, replay, traced, &mut tracer) {
                            Ok(sample) => out.push(sample),
                            Err(why) => {
                                failures.push(why);
                                let _ = client.reconnect();
                            }
                        }
                        j += CLIENT_THREADS;
                    }
                    (out, failures, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect::<Vec<_>>()
    });
    let elapsed = start.elapsed();
    let mut samples = Vec::new();
    let mut failed = 0;
    for (out, failures, t) in results {
        samples.extend(out);
        failed += failures.len();
        for why in failures {
            report.check(false, || why);
        }
        tracer.absorb(t);
    }
    for _ in &samples {
        report.check(true, String::new);
    }
    Phase {
        rate,
        samples,
        failed,
        elapsed,
    }
}

fn one_request(
    client: &mut Client,
    target: &Target,
    j: usize,
    due: Instant,
    replay: Option<&Scheduler>,
    traced: bool,
    tracer: &mut Tracer,
) -> Result<Sample, String> {
    let i = j % target.bodies.len();
    let body = &target.bodies[i];
    let trace_id = j as u64 + 1;
    let root = traced.then(|| tracer.open("http.request", trace_id, None));
    let sent = Instant::now();
    let response = client.request("POST", "/classify", body);
    let done = Instant::now();
    if let Some(root) = root {
        tracer.close(root);
    }
    let response = response.map_err(|e| format!("request {j}: {e}"))?;
    if response.status != 200 {
        return Err(format!("request {j}: status {}", response.status));
    }
    let class = Json::parse(&response.body_str())
        .ok()
        .and_then(|doc| doc.get("class").and_then(Json::as_usize));
    if class != Some(target.want[i]) {
        return Err(format!(
            "request {j}: class {class:?}, in-process reference {}",
            target.want[i]
        ));
    }
    let replay = match replay {
        Some(scheduler) => Some(replay_request(
            scheduler,
            body,
            target.want[i],
            root,
            trace_id,
            tracer,
        )?),
        None => None,
    };
    Ok(Sample {
        index: j,
        latency_ms: ms(done - due),
        service_ms: ms(done - sent),
        late_ms: ms(sent.saturating_duration_since(due)),
        replay,
    })
}

fn replay_request(
    scheduler: &Scheduler,
    body: &[u8],
    want: usize,
    root: Option<crate::trace::SpanId>,
    trace_id: u64,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let (raster, parse) = tracer.time("json.parse", trace_id, root, || {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        SpikeRaster::from_json(&doc)
    });
    let raster = raster.map_err(|e| format!("replay parse: {e}"))?;
    let (answer, wait) = tracer.time("scheduler.wait", trace_id, root, || {
        scheduler
            .submit(raster)
            .map(|ticket| ticket.wait_timeout(REQUEST_TIMEOUT))
    });
    let rejected = answer.is_err();
    if let Ok(answer) = answer {
        match answer {
            Ok(class) if class == want => {}
            other => return Err(format!("replay scheduler answered {other:?}, want {want}")),
        }
    }
    Ok(Replay {
        parse_us: us(parse),
        wait_us: us(wait),
        rejected,
    })
}

fn connect(target: &Target) -> Vec<Client> {
    (0..CLIENT_THREADS)
        .map(|_| {
            let mut client = Client::connect(target.addr).expect("connect to loopback server");
            client
                .set_timeout(Some(REQUEST_TIMEOUT))
                .expect("set client timeout");
            client
        })
        .collect()
}

/// Reports the replay-derived per-layer metrics of traced phases.
fn emit_replays(phases: &[&Phase], scheduler: &Scheduler, target: &Target, report: &mut Report) {
    let samples: Vec<&Sample> = phases.iter().flat_map(|p| &p.samples).collect();
    let replays: Vec<(f64, Replay)> = samples
        .iter()
        .filter_map(|s| s.replay.map(|r| (s.service_ms, r)))
        .collect();
    let parse: Vec<f64> = replays.iter().map(|(_, r)| r.parse_us).collect();
    let wait = Summary::of(&replays.iter().map(|(_, r)| r.wait_us).collect::<Vec<_>>());
    let transport: Vec<f64> = replays
        .iter()
        .map(|(service, r)| service * 1e3 - r.parse_us - r.wait_us)
        .collect();
    let late = Summary::of(&samples.iter().map(|s| s.late_ms).collect::<Vec<_>>());
    report.median("json.parse_us", &parse);
    let bytes: usize = target.bodies.iter().map(Vec::len).sum();
    report.metric("json.body_bytes", bytes as f64 / target.bodies.len() as f64);
    report.metric("scheduler.wait_p50_us", wait.p50);
    report.metric("scheduler.wait_tail_us", wait.tail);
    report.timing("scheduler.wait", "us", &wait);
    let metrics = scheduler.metrics();
    report.metric("scheduler.mean_batch", metrics.batch_size.mean());
    let rejected = replays.iter().filter(|(_, r)| r.rejected).count();
    report.metric(
        "scheduler.rejected_ratio",
        rejected as f64 / replays.len().max(1) as f64,
    );
    report.median("http.transport_us", &transport);
    report.metric("http.gen_late_tail_ms", late.tail);
    report.timing("http.gen_late", "ms", &late);
}

struct Setup {
    task: Task,
    engine: Engine,
    target: Target,
    // Declared last: dropped after the target it serves.
    server: ServerHandle,
}

fn start<'a>(
    engine: &Engine,
    rasters: impl Iterator<Item = &'a SpikeRaster>,
) -> (ServerHandle, Target) {
    let server = serve(engine.clone(), ServerConfig::default()).expect("start loopback server");
    let target = Target::new(engine, rasters, server.addr());
    (server, target)
}

/// The short HTTP ledger of a traced run whose workload is not
/// `http_shd`: `LEDGER_REQUESTS` of its own rasters at the low rate,
/// every one replayed in-process.
pub fn ledger(engine: &Engine, task: &Task, opts: &Options, report: &mut Report) {
    let (server, target) = start(engine, task.test_rasters());
    let scheduler = Scheduler::start(engine.clone(), BatchPolicy::default());
    let mut clients = connect(&target);
    let requests = opts.scale.pick(LEDGER_REQUESTS, SMOKE_REQUESTS);
    let mut tracer = report.tracer.fork(3);
    let phase = drive(
        &mut clients,
        &target,
        Schedule::fixed(LOW_RPS, requests),
        Some((&scheduler, 1)),
        &mut tracer,
        report,
    );
    emit_replays(&[&phase], &scheduler, &target, report);
    report.tracer.absorb(tracer);
    drop(clients);
    server.shutdown();
}

pub fn run(opts: &Options, budget: Duration, report: &mut Report) {
    let (setup, setup_s) = repeat_setup(
        |tracer| {
            let task = tasks::shd(opts.seed, opts.scale, tracer);
            let engine = Engine::from_network(task.net.clone()).build();
            let (server, target) = start(&engine, task.test_rasters());
            Setup {
                task,
                engine,
                target,
                server,
            }
        },
        &mut report.tracer,
    );
    let target = &setup.target;
    report.detail("test.samples", target.bodies.len());
    report.detail("test.mean_events", setup.task.mean_test_events());
    let seconds = budget.as_secs_f64();
    let count = |share: f64, rate: f64| {
        opts.scale
            .pick((share * seconds * rate).round() as usize, SMOKE_REQUESTS)
    };
    let mut clients = connect(target);
    let mut tracer = report.tracer.fork(4);
    let warmup = opts
        .scale
        .pick((WARMUP_S * LOW_RPS) as usize, SMOKE_REQUESTS / 2);
    drive(
        &mut clients,
        target,
        Schedule::fixed(LOW_RPS, warmup),
        None,
        &mut tracer,
        report,
    );

    if opts.trace {
        let scheduler = Scheduler::start(setup.engine.clone(), BatchPolicy::default());
        let half = count(LOW_SHARE / 2.0, LOW_RPS);
        let plain = drive(
            &mut clients,
            target,
            Schedule::fixed(LOW_RPS, half),
            None,
            &mut tracer,
            report,
        );
        let low = drive(
            &mut clients,
            target,
            Schedule::fixed(LOW_RPS, half),
            Some((&scheduler, 1)),
            &mut tracer,
            report,
        );
        let high_rps = rate(HIGH_STEP);
        let high = drive(
            &mut clients,
            target,
            Schedule::fixed(high_rps, count(HIGH_SHARE, high_rps)),
            Some((&scheduler, HIGH_REPLAY_EVERY)),
            &mut tracer,
            report,
        );
        report.detail("http.low.untraced", plain.describe());
        report.detail("http.low.traced", low.describe());
        report.detail("http.high.traced", high.describe());
        emit_replays(&[&low, &high], &scheduler, target, report);
        drop(scheduler);
        report.metric(
            "obs.trace_overhead",
            low.latency().p50 / plain.latency().p50,
        );
        report.tracer.absorb(tracer);
        drop(clients);
        setup.server.shutdown();
        report.metric("data.generate_s", setup.task.generate_s);
        crate::ledger::common(&setup.task.net, None, &setup.task, opts, report);
        crate::train::TrainLedger::run_short(&setup.task.net, &setup.task.train, opts, report);
        crate::stream::ledger(&setup.engine, &setup.task, opts, report);
        return;
    }

    let phase_start = Instant::now();
    let low = drive(
        &mut clients,
        target,
        Schedule::fixed(LOW_RPS, count(LOW_SHARE, LOW_RPS)),
        None,
        &mut tracer,
        report,
    );
    let high_rps = rate(HIGH_STEP);
    let high = drive(
        &mut clients,
        target,
        Schedule::fixed(high_rps, count(HIGH_SHARE, high_rps)),
        None,
        &mut tracer,
        report,
    );
    let saturation = drive(
        &mut clients,
        target,
        Schedule {
            rate: f64::INFINITY,
            requests: usize::MAX,
            deadline: Some(
                Instant::now() + budget.mul_f64(opts.scale.pick(SATURATION_SHARE, 0.02)),
            ),
        },
        None,
        &mut tracer,
        report,
    );
    // Every request is due at the phase start, so its latency from due
    // time is its completion time within the phase.
    let done: Vec<(f64, f64)> = saturation
        .samples
        .iter()
        .map(|s| (s.latency_ms / 1e3, 1.0))
        .collect();
    let saturation_rps = windowed_rate(&done, saturation.elapsed.as_secs_f64(), RATE_WINDOW_S);
    // Bisection over the grid: `lo` meets the limit, `hi` does not.
    let (mut lo, mut hi) = match (low.meets_limit(), high.meets_limit()) {
        (_, true) => (HIGH_STEP, TOP_STEP + 1),
        (true, false) => (0, HIGH_STEP),
        (false, false) => (0, 0),
    };
    let mut steps = vec![low.describe(), high.describe()];
    let step_requests = opts.scale.pick(LADDER_STEP_REQUESTS, SMOKE_REQUESTS);
    for _ in 0..LADDER_PROBES {
        if hi - lo <= 1 {
            break;
        }
        let mid = (lo + hi) / 2;
        let probe = drive(
            &mut clients,
            target,
            Schedule::fixed(rate(mid), step_requests),
            None,
            &mut tracer,
            report,
        );
        if probe.meets_limit() {
            lo = mid;
        } else {
            hi = mid;
        }
        steps.push(probe.describe());
    }
    drop(clients);
    let max_rps = rate(lo);
    let (low_p50, high_p50) = (low.latency().p50, high.latency().p50);
    report.detail("http.low.p50_ms", low_p50);
    report.detail("http.low.p99_ms", low.p99());
    report.detail("http.high.p50_ms", high_p50);
    report.detail("http.high.p99_ms", high.p99());
    report.detail("http.max_rps", max_rps);
    report.detail("http.saturation_rps", saturation_rps);
    report.detail(
        "http.saturation_p50_ms",
        median(
            &saturation
                .samples
                .iter()
                .map(|s| s.service_ms)
                .collect::<Vec<_>>(),
        ),
    );
    report.detail("http.low_meets_limit", Json::Bool(low.meets_limit()));
    report.detail("http.phases", Json::Arr(steps));
    report.detail("http.measured_s", phase_start.elapsed().as_secs_f64());
    report.metric("setup_s", setup_s);
    report.metric("throughput_per_s", saturation_rps);
    report.metric("latency_p50_ms", low_p50);
    setup.server.shutdown();
}
