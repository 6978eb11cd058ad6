//! End-to-end and per-layer benchmark for the neurosnn workspace.
//!
//! Three paper-scale workloads run from one process (see `README.md`
//! for each workload's rationale and the layer-to-metric map):
//!
//! * [`Workload::TrainShd`] — training and offline evaluation of a
//!   700-128-20 adaptive-LIF network on synthetic SHD, on the sparse and
//!   the 4-bit RRAM backends;
//! * [`Workload::HttpShd`] — the held-out SHD rasters POSTed as JSON to
//!   a loopback `serve()` by an open-loop generator;
//! * [`Workload::StreamNmnist`] — synthetic N-MNIST streamed over the
//!   binary event protocol in 10-step chunks.
//!
//! An untraced run reports every end-to-end metric; a traced run
//! replays each layer's public calls on the workload's own inputs and
//! reports every per-layer metric (see [`ledger`]).

pub mod http;
pub mod ledger;
pub mod stats;
pub mod stream;
pub mod tasks;
pub mod trace;
pub mod train;

use snn_json::Json;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainShd,
    HttpShd,
    StreamNmnist,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::TrainShd, Self::HttpShd, Self::StreamNmnist];

    pub fn name(self) -> &'static str {
        match self {
            Self::TrainShd => "train_shd",
            Self::HttpShd => "http_shd",
            Self::StreamNmnist => "stream_nmnist",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the paper-scale benchmark, or a reduced size that keeps
/// the benchmark's own tests fast. Every size is a constant of its
/// workload module, chosen per scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Paper,
    Smoke,
}

impl Scale {
    /// `paper` at paper scale, `smoke` otherwise.
    pub fn pick<T>(self, paper: T, smoke: T) -> T {
        match self {
            Scale::Paper => paper,
            Scale::Smoke => smoke,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time budget of the run.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Load-generator threads and connections (the box has 2 cores).
pub const CLIENT_THREADS: usize = 2;

/// Worker threads the trainer and the batched engine are pinned to.
pub const COMPUTE_THREADS: usize = 2;

/// Window of the windowed-median throughputs (`stats::windowed_rate`).
pub const RATE_WINDOW_S: f64 = 0.25;

/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// End-to-end metrics every untraced run reports, with their units.
/// Each workload maps them onto its own operations (see `README.md`);
/// tails and the other phases' figures are reported beside them as
/// details, with their sample counts.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("data.generate_s", "s"),
    ("tensor.accum_cols_per_sample", "count"),
    ("tensor.weight_bytes_per_sample", "bytes"),
    ("layer.l0.forward_us", "us"),
    ("layer.l1.forward_us", "us"),
    ("layer.l0.out_density", "ratio"),
    ("layer.l1.out_density", "ratio"),
    ("network.forward_us", "us"),
    ("backprop.backward_us", "us"),
    ("backprop.event_density", "ratio"),
    ("grads.reduce_us", "us"),
    ("optimizer.step_us", "us"),
    ("trainer.batch_ms", "ms"),
    ("trainer.scaling", "ratio"),
    ("trainer.overhead_ms", "ms"),
    ("engine.session_classify_us", "us"),
    ("engine.classify_batch_us", "us"),
    ("hw.deploy_ms", "ms"),
    ("hw.session_classify_us", "us"),
    ("json.parse_us", "us"),
    ("json.body_bytes", "bytes"),
    ("scheduler.wait_p50_us", "us"),
    ("scheduler.wait_tail_us", "us"),
    ("scheduler.mean_batch", "count"),
    ("scheduler.rejected_ratio", "ratio"),
    ("http.transport_us", "us"),
    ("http.gen_late_tail_ms", "ms"),
    ("router.readout_us", "us"),
    ("stream.transport_us", "us"),
    ("wire.bytes_per_event", "bytes"),
    ("session.chunk_us", "us"),
    ("obs.trace_overhead", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
}

/// What a run measured: metrics, the outcome of every output check, and
/// the details (sample counts, percentiles, workload-specific names)
/// printed beside them.
#[derive(Debug)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for the first few failures.
    pub failures: Vec<String>,
    pub details: Vec<(String, Json)>,
    pub tracer: Tracer,
}

impl Report {
    pub fn new(tracer: Tracer) -> Self {
        Self {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            details: Vec::new(),
            tracer,
        }
    }

    /// Records a declared metric (panics on an undeclared name, so the
    /// declaration lists above are the one place a metric is named).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            unit: unit_of(name),
            value,
        });
    }

    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn detail(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        self.details.push((key.into(), value.into()));
    }

    /// Records a timing distribution as detail: median, the highest
    /// supported percentile and the sample count.
    pub fn timing(&mut self, key: &str, unit: &str, s: &stats::Summary) {
        self.detail(
            key,
            Json::obj(vec![
                ("unit", Json::from(unit)),
                ("n", Json::from(s.n)),
                ("p50", Json::from(s.p50)),
                ("tail_percentile", Json::from(s.tail_q)),
                ("tail", Json::from(s.tail)),
            ]),
        );
    }

    /// Records a declared timing metric as the median of `values`, with
    /// its distribution (tail percentile and sample count) as detail.
    pub fn median(&mut self, name: &'static str, values: &[f64]) {
        let summary = stats::Summary::of(values);
        self.metric(name, summary.p50);
        self.timing(name, unit_of(name), &summary);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metric names a run of this mode must emit.
    pub fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted as usize)),
            ("failed", Json::from(self.failed as usize)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Json::obj(vec![
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::from(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Provenance stamped on every result: host, cores, architecture, code
/// revision, seed and the run's fixed parameters.
pub fn provenance(opts: &Options) -> Json {
    let host = snn_obs::provenance::host_info();
    Json::obj(vec![
        ("workload", Json::from(opts.workload.name())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("scale", Json::from(opts.scale.pick("paper", "smoke"))),
        ("hostname", Json::from(host.hostname.as_str())),
        ("os", Json::from(host.os)),
        ("arch", Json::from(host.arch)),
        ("cores", Json::from(host.cores)),
        (
            "git_revision",
            host.git_revision
                .map_or(Json::Null, |r| Json::from(r.as_str())),
        ),
        ("client_threads", Json::from(CLIENT_THREADS)),
        ("compute_threads", Json::from(COMPUTE_THREADS)),
        ("setup_repeats", Json::from(SETUP_REPEATS)),
    ])
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Asserts the load generator fits the machine: no more generator
/// threads and connections than cores.
pub fn assert_generator_fits() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        CLIENT_THREADS <= cores,
        "{CLIENT_THREADS} generator threads and connections need at least as many cores, found {cores}"
    );
    cores
}

/// Runs set-up `SETUP_REPEATS` times and returns the last product with
/// the median set-up time. Earlier products are dropped (servers shut
/// down) before the next repetition starts.
pub fn repeat_setup<T>(mut f: impl FnMut(&mut Tracer) -> T, tracer: &mut Tracer) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f(tracer));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Runs one benchmark invocation.
pub fn run(opts: &Options) -> Report {
    let epoch = Instant::now();
    let mut report = Report::new(Tracer::new(opts.trace, epoch, 1));
    let cores = assert_generator_fits();
    report.detail("cores", cores);
    // The program's own tracing stays disarmed: spans come from the
    // benchmark's recorder only.
    snn_obs::set_enabled(false);
    let budget = Duration::from_secs_f64(opts.seconds);
    match opts.workload {
        Workload::TrainShd => train::run(opts, budget, &mut report),
        Workload::HttpShd => http::run(opts, budget, &mut report),
        Workload::StreamNmnist => stream::run(opts, budget, &mut report),
    }
    if !opts.trace {
        report.metric("peak_rss_mb", peak_rss_mb());
    }
    report
}
