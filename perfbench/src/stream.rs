//! `stream_nmnist`: synthetic N-MNIST over the binary stream protocol.
//!
//! Why this workload: it drives the same core layer one timestep at a
//! time through resident `StreamSession`s, with no JSON and no
//! collator, so it bypasses changes to `snn-json` and the scheduler and
//! shows whether a batch-rollout optimisation costs the streaming path.
//! The 2312-128-10 model's 1.2 MB first layer is a working set about
//! three times SHD's.
//!
//! Load: `CLIENT_THREADS` `StreamClient` sessions, one per thread, each
//! in a closed loop. A raster is sent as 10-step chunks (EVENTS, TICK
//! 10, READOUT per chunk), with RESET between rasters.

use crate::stats::{median, us, windowed_rate, Summary};
use crate::tasks::Task;
use crate::trace::Tracer;
use crate::{repeat_setup, tasks, Options, Report, CLIENT_THREADS, RATE_WINDOW_S};
use snn_core::SpikeRaster;
use snn_engine::{Engine, StreamSession};
use snn_serve::{
    serve, BatchPolicy, Frame, Reply, Scheduler, ServerConfig, ServerHandle, StreamClient,
    StreamRouter,
};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Timesteps committed per chunk.
const CHUNK_STEPS: usize = 10;

/// Rasters each session streams in the short stream ledger of other
/// workloads' traced runs.
const LEDGER_RASTERS: usize = 8;
const SMOKE_RASTERS: usize = 2;

/// A readout without an answer after this long fails.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// One raster, encoded for streaming during set-up.
struct Plan {
    /// `(dt, channel)` deltas per chunk, relative to the chunk's frontier.
    chunks: Vec<Vec<(u16, u16)>>,
    steps: usize,
    events: usize,
    /// One-shot `Session::classify` answer for the whole raster.
    want: usize,
}

impl Plan {
    fn new(raster: &SpikeRaster, want: usize) -> Self {
        let steps = raster.steps();
        let mut chunks = vec![Vec::new(); steps.div_ceil(CHUNK_STEPS)];
        let mut prev = 0;
        let events = raster.events();
        for &(t, c) in &events {
            let k = t / CHUNK_STEPS;
            // After each TICK the delta base moves up to the frontier.
            let base = if chunks[k].is_empty() {
                k * CHUNK_STEPS
            } else {
                prev
            };
            let dt = u16::try_from(t - base).expect("delta fits a chunk");
            let channel = u16::try_from(c).expect("channel fits the wire format");
            chunks[k].push((dt, channel));
            prev = t;
        }
        Self {
            chunks,
            steps,
            events: events.len(),
            want,
        }
    }

    fn deltas(chunk: &[(u16, u16)]) -> Vec<(usize, usize)> {
        chunk
            .iter()
            .map(|&(dt, c)| (usize::from(dt), usize::from(c)))
            .collect()
    }

    /// Bytes on the wire, both directions, to stream this raster:
    /// EVENTS, TICK and READOUT per chunk with their replies, then
    /// RESET and its OK.
    fn wire_bytes(&self) -> usize {
        let mut buf = Vec::new();
        for chunk in &self.chunks {
            Frame::Events(chunk.clone())
                .write_to(&mut buf)
                .expect("in memory");
            Frame::Tick {
                advance: CHUNK_STEPS as u32,
            }
            .write_to(&mut buf)
            .expect("in memory");
            Frame::Readout.write_to(&mut buf).expect("in memory");
            Reply::Readout { class: 0, steps: 0 }
                .write_to(&mut buf)
                .expect("in memory");
        }
        Frame::Reset.write_to(&mut buf).expect("in memory");
        Reply::Ok.write_to(&mut buf).expect("in memory");
        buf.len()
    }
}

fn plans<'a>(engine: &Engine, rasters: impl Iterator<Item = &'a SpikeRaster>) -> Vec<Plan> {
    let mut session = engine.session();
    rasters.map(|r| Plan::new(r, session.classify(r))).collect()
}

#[derive(Debug, Default)]
struct Tally {
    readout_us: Vec<f64>,
    raster_us: Vec<f64>,
    traced_readout_us: Vec<f64>,
    router_us: Vec<f64>,
    session_us: Vec<f64>,
    transport_us: Vec<f64>,
    events: usize,
    /// Per raster: completion time (s from the phase start), events.
    done: Vec<(f64, f64)>,
    ok: usize,
    failures: Vec<String>,
}

/// In-process stand-ins for a traced raster's layers: a session on the
/// scheduler's `StreamRouter` and a bare `StreamSession`.
struct Replayers<'a> {
    router: &'a StreamRouter,
    router_id: u64,
    session: StreamSession,
}

/// Streams one raster over `client`; returns the final class.
fn stream_raster(
    client: &mut StreamClient,
    plan: &Plan,
    id: u64,
    traced: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
    chunk_us: &mut Vec<f64>,
) -> Result<usize, String> {
    let root = traced.then(|| tracer.open("stream.raster", id, None));
    let t0 = Instant::now();
    let mut last = (0, 0);
    for (k, chunk) in plan.chunks.iter().enumerate() {
        let span = root.map(|r| tracer.open("stream.chunk", id, Some(r)));
        let c0 = Instant::now();
        client.feed(chunk).map_err(|e| format!("feed: {e}"))?;
        client
            .tick(CHUNK_STEPS as u32)
            .map_err(|e| format!("tick: {e}"))?;
        last = client.readout().map_err(|e| format!("readout {k}: {e}"))?;
        let d = us(c0.elapsed());
        if let Some(span) = span {
            tracer.close(span);
        }
        chunk_us.push(d);
        tally.ok += 1;
    }
    client.reset().map_err(|e| format!("reset: {e}"))?;
    tally.raster_us.push(us(t0.elapsed()));
    if let Some(root) = root {
        tracer.close(root);
    }
    if last.1 != plan.steps as u64 {
        return Err(format!(
            "readout after {} steps, want {}",
            last.1, plan.steps
        ));
    }
    Ok(last.0 as usize)
}

/// Replays a traced raster's chunks in-process: `StreamRouter`
/// feed/tick/readout, then `StreamSession` feed_events/advance, each
/// timed per chunk, checking both final classes.
fn replay_raster(
    rep: &mut Replayers<'_>,
    plan: &Plan,
    id: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    wire_us: &[f64],
) -> Result<(), String> {
    let mut class = 0;
    for (k, chunk) in plan.chunks.iter().enumerate() {
        let (reply, d) = tracer.time("router.readout", id, None, || {
            rep.router.feed(rep.router_id, chunk.clone())?;
            rep.router.tick(rep.router_id, CHUNK_STEPS as u32)?;
            rep.router.readout(rep.router_id)
        });
        class = reply
            .map_err(|(code, why)| format!("router: {code:?} {why}"))?
            .0 as usize;
        tally.router_us.push(us(d));
        tally.transport_us.push(wire_us[k] - us(d));
    }
    rep.router
        .reset(rep.router_id)
        .map_err(|(code, why)| format!("router reset: {code:?} {why}"))?;
    if class != plan.want {
        return Err(format!("router class {class}, one-shot {}", plan.want));
    }
    for chunk in &plan.chunks {
        let deltas = Plan::deltas(chunk);
        let (fed, d) = tracer.time("session.chunk", id, None, || {
            let fed = rep.session.feed_events(&deltas);
            rep.session.advance(CHUNK_STEPS);
            fed
        });
        fed.map_err(|e| format!("session: {e}"))?;
        tally.session_us.push(us(d));
    }
    let class = rep.session.readout();
    rep.session.reset();
    if class != plan.want {
        return Err(format!("session class {class}, one-shot {}", plan.want));
    }
    Ok(())
}

/// Streams from `CLIENT_THREADS` sessions, thread `c` taking rasters
/// `c, c + CLIENT_THREADS, …` round the plan list, until `deadline` or
/// until it has streamed `per_thread` rasters. With `replay`, every
/// other raster is traced and replayed in-process.
fn drive(
    addr: SocketAddr,
    n_in: usize,
    plans: &[Plan],
    deadline: Instant,
    per_thread: usize,
    replay: Option<(&Engine, &StreamRouter)>,
    tracer: &mut Tracer,
) -> (Tally, Duration) {
    let start = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|c| {
                let mut tracer = tracer.fork(20 + c as u32);
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let open = || -> Result<StreamClient, String> {
                        let mut client = StreamClient::open(addr, n_in as u32, 0)
                            .map_err(|e| format!("open: {e}"))?;
                        client
                            .set_timeout(Some(READ_TIMEOUT))
                            .map_err(|e| e.to_string())?;
                        Ok(client)
                    };
                    let mut replayers = replay.map(|(engine, router)| {
                        let (router_id, _, _) = router
                            .open(n_in as u32, 0)
                            .expect("open an in-process stream session");
                        Replayers {
                            router,
                            router_id,
                            session: engine.stream_session(),
                        }
                    });
                    let mut client = open();
                    let mut i = c;
                    let mut done = 0;
                    while done < per_thread && Instant::now() < deadline {
                        let plan = &plans[i % plans.len()];
                        let traced = replayers.is_some() && done % 2 == 1;
                        let mut wire_us = Vec::new();
                        let result = client.as_mut().map_err(|e| e.clone()).and_then(|cl| {
                            stream_raster(
                                cl,
                                plan,
                                i as u64,
                                traced,
                                &mut tracer,
                                &mut tally,
                                &mut wire_us,
                            )
                        });
                        let result = result.and_then(|class| {
                            if class == plan.want {
                                Ok(())
                            } else {
                                Err(format!("raster {i}: class {class}, one-shot {}", plan.want))
                            }
                        });
                        let result = match (&mut replayers, result) {
                            (Some(rep), Ok(())) if traced => replay_raster(
                                rep,
                                plan,
                                i as u64,
                                &mut tracer,
                                &mut tally,
                                &wire_us,
                            ),
                            (_, r) => r,
                        };
                        match result {
                            Ok(()) => {
                                tally.events += plan.events;
                                tally
                                    .done
                                    .push((start.elapsed().as_secs_f64(), plan.events as f64));
                                if traced {
                                    tally.traced_readout_us.extend(&wire_us);
                                } else {
                                    tally.readout_us.extend(&wire_us);
                                }
                            }
                            Err(why) => {
                                tally.failures.push(why);
                                client = open();
                            }
                        }
                        i += CLIENT_THREADS;
                        done += 1;
                    }
                    if let Some(rep) = &replayers {
                        let _ = rep.router.close(rep.router_id);
                    }
                    if let Ok(client) = client {
                        if let Err(e) = client.close() {
                            tally.failures.push(format!("close: {e}"));
                        }
                    }
                    (tally, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream client thread panicked"))
            .collect::<Vec<_>>()
    });
    let elapsed = start.elapsed();
    let mut total = Tally::default();
    for (t, tr) in results {
        total.readout_us.extend(t.readout_us);
        total.raster_us.extend(t.raster_us);
        total.traced_readout_us.extend(t.traced_readout_us);
        total.router_us.extend(t.router_us);
        total.session_us.extend(t.session_us);
        total.transport_us.extend(t.transport_us);
        total.events += t.events;
        total.done.extend(t.done);
        total.ok += t.ok;
        total.failures.extend(t.failures);
        tracer.absorb(tr);
    }
    (total, elapsed)
}

fn count(tally: &Tally, report: &mut Report) {
    for _ in 0..tally.ok {
        report.check(true, String::new);
    }
    for why in &tally.failures {
        report.check(false, || why.clone());
    }
}

/// Reports the replay-derived per-layer metrics.
fn emit_replays(tally: &Tally, plans: &[Plan], report: &mut Report) {
    report.median("router.readout_us", &tally.router_us);
    report.median("session.chunk_us", &tally.session_us);
    report.median("stream.transport_us", &tally.transport_us);
    let bytes: usize = plans.iter().map(Plan::wire_bytes).sum();
    let events: usize = plans.iter().map(|p| p.events).sum();
    report.metric("wire.bytes_per_event", bytes as f64 / events.max(1) as f64);
}

fn start_server(engine: &Engine) -> ServerHandle {
    serve(engine.clone(), ServerConfig::default()).expect("start loopback server")
}

/// The short stream ledger of a traced run whose workload is not
/// `stream_nmnist`: `LEDGER_RASTERS` of its own rasters per session,
/// every other one replayed in-process.
pub fn ledger(engine: &Engine, task: &Task, opts: &Options, report: &mut Report) {
    let server = start_server(engine);
    let plans = plans(engine, task.test_rasters());
    let scheduler = Scheduler::start(engine.clone(), BatchPolicy::default());
    let mut tracer = report.tracer.fork(6);
    let per_thread = 2 * opts.scale.pick(LEDGER_RASTERS, SMOKE_RASTERS);
    let far = Instant::now() + Duration::from_secs(3600);
    let n_in = engine.network().n_in();
    let (tally, _) = drive(
        server.addr(),
        n_in,
        &plans,
        far,
        per_thread,
        Some((engine, scheduler.streams())),
        &mut tracer,
    );
    count(&tally, report);
    emit_replays(&tally, &plans, report);
    report.tracer.absorb(tracer);
    server.shutdown();
}

struct Setup {
    task: Task,
    engine: Engine,
    plans: Vec<Plan>,
    server: ServerHandle,
}

pub fn run(opts: &Options, budget: Duration, report: &mut Report) {
    let (setup, setup_s) = repeat_setup(
        |tracer| {
            let task = tasks::nmnist(opts.seed, opts.scale, tracer);
            let engine = Engine::from_network(task.net.clone()).build();
            let plans = plans(&engine, task.test_rasters());
            let server = start_server(&engine);
            Setup {
                task,
                engine,
                plans,
                server,
            }
        },
        &mut report.tracer,
    );
    report.detail("test.samples", setup.plans.len());
    report.detail("test.mean_events", setup.task.mean_test_events());
    let n_in = setup.engine.network().n_in();
    let addr = setup.server.addr();
    let mut tracer = report.tracer.fork(7);
    let per_thread = opts.scale.pick(usize::MAX, SMOKE_RASTERS);
    let scheduler = opts
        .trace
        .then(|| Scheduler::start(setup.engine.clone(), BatchPolicy::default()));
    let replay = scheduler.as_ref().map(|s| (&setup.engine, s.streams()));
    let deadline = Instant::now() + budget;
    let (tally, elapsed) = drive(
        addr,
        n_in,
        &setup.plans,
        deadline,
        per_thread,
        replay,
        &mut tracer,
    );
    count(&tally, report);
    report.tracer.absorb(tracer);

    let readout = Summary::of(&tally.readout_us);
    let raster = Summary::of(&tally.raster_us);
    let events_per_s = windowed_rate(&tally.done, elapsed.as_secs_f64(), RATE_WINDOW_S);
    report.timing("stream.readout", "us", &readout);
    report.timing("stream.raster", "us", &raster);
    report.detail("stream.readout_p50_us", readout.p50);
    let mut sorted = tally.readout_us.clone();
    sorted.sort_by(f64::total_cmp);
    report.detail(
        "stream.readout_p99_us",
        crate::stats::percentile(&sorted, 99.0),
    );
    report.detail("stream.events_per_s", events_per_s);
    report.detail(
        "stream.events_per_s_mean",
        tally.events as f64 / elapsed.as_secs_f64(),
    );
    report.detail("stream.measured_s", elapsed.as_secs_f64());
    if !opts.trace {
        report.metric("setup_s", setup_s);
        report.metric("throughput_per_s", events_per_s);
        report.metric("latency_p50_ms", readout.p50 / 1e3);
        return;
    }
    emit_replays(&tally, &setup.plans, report);
    report.metric(
        "obs.trace_overhead",
        median(&tally.traced_readout_us) / readout.p50,
    );
    report.metric("data.generate_s", setup.task.generate_s);
    crate::ledger::common(&setup.task.net, None, &setup.task, opts, report);
    crate::train::TrainLedger::run_short(&setup.task.net, &setup.task.train, opts, report);
    crate::http::ledger(&setup.engine, &setup.task, opts, report);
}
