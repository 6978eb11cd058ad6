//! Per-layer attribution shared by every traced run.
//!
//! A traced run reports every per-layer metric. The layers its own
//! workload drives are measured there at full length; the rest are
//! replayed here, and by the short `http::ledger`, `stream::ledger` and
//! `train::TrainLedger::run_short`, on the workload's own rasters and
//! model, so each number describes the layer on that workload's inputs.

use crate::stats::{ms, us};
use crate::tasks::Task;
use crate::trace::Tracer;
use crate::{Options, Report, COMPUTE_THREADS};
use snn_core::{ActiveIndices, LayerRecord, LayerScratch, Network, SpikeRaster};
use snn_engine::{DeployConfig, Engine};

/// Held-out rasters replayed through each layer, session and backend.
const LEDGER_SAMPLES: usize = 128;

/// Repeats of the batched `classify_batch` call.
const CLASSIFY_BATCH_REPEATS: usize = 5;

/// Seed of the hardware deployment's device draws, mixed with the run's.
const DEPLOY_SALT: u64 = 0xDE_91_0E;

/// Span names of the per-layer rollout, by layer index.
const LAYER_SPANS: [&str; 2] = ["layer.l0.forward", "layer.l1.forward"];

/// Deploys `net` onto the 4-bit RRAM backend (`DeployConfig::four_bit()`)
/// and returns the engine with the deployment time in ms.
pub fn deploy(net: &Network, seed: u64, tracer: &mut Tracer) -> (Engine, f64) {
    let seed = seed ^ DEPLOY_SALT;
    let (engine, d) = tracer.time("hw.deploy", seed, None, || {
        Engine::from_network(net.clone())
            .backend(snn_engine::hardware(DeployConfig::four_bit(), seed))
            .threads(COMPUTE_THREADS)
            .build()
    });
    (engine, ms(d))
}

/// Rolls `rasters` through each layer with `DenseLayer::forward_steps`,
/// feeding each layer the previous layer's output spikes. Reports each
/// layer's time and output density, and the tensor work computed from
/// them: every input event accumulates one weight column of `n_out`
/// f32s, so columns and bytes follow from the event counts.
fn layers(net: &Network, rasters: &[SpikeRaster], tracer: &mut Tracer, report: &mut Report) {
    let layers = net.layers();
    assert_eq!(
        layers.len(),
        LAYER_SPANS.len(),
        "benchmark models have two layers"
    );
    let mut active: Vec<ActiveIndices> = (0..=layers.len()).map(|_| ActiveIndices::new()).collect();
    let mut records: Vec<LayerRecord> = layers.iter().map(|_| LayerRecord::empty()).collect();
    let mut scratch: Vec<LayerScratch> = layers.iter().map(|_| LayerScratch::default()).collect();
    let mut times = vec![Vec::new(); layers.len()];
    let mut in_events = vec![0usize; layers.len()];
    let mut out_spikes = vec![0usize; layers.len()];
    let mut steps = 0usize;
    for (i, raster) in rasters.iter().enumerate() {
        active[0].fill_from(raster);
        steps += raster.steps();
        let root = tracer.open("network.layers", i as u64, None);
        for (l, layer) in layers.iter().enumerate() {
            let (head, tail) = active.split_at_mut(l + 1);
            let (_, d) = tracer.time(LAYER_SPANS[l], i as u64, Some(root), || {
                layer.forward_steps(&head[l], &mut records[l], &mut scratch[l], &mut tail[0])
            });
            times[l].push(us(d));
            in_events[l] += head[l].nnz();
            out_spikes[l] += tail[0].nnz();
        }
        tracer.close(root);
    }
    let n = rasters.len() as f64;
    report.median("layer.l0.forward_us", &times[0]);
    report.median("layer.l1.forward_us", &times[1]);
    let density = |l: usize| out_spikes[l] as f64 / (steps * layers[l].n_out()) as f64;
    report.metric("layer.l0.out_density", density(0));
    report.metric("layer.l1.out_density", density(1));
    let cols: f64 = in_events.iter().sum::<usize>() as f64 / n;
    let bytes: f64 = in_events
        .iter()
        .zip(layers)
        .map(|(&e, layer)| (e * layer.n_out() * std::mem::size_of::<f32>()) as f64)
        .sum::<f64>()
        / n;
    report.metric("tensor.accum_cols_per_sample", cols);
    report.metric("tensor.weight_bytes_per_sample", bytes);
    report.detail(
        "tensor.note",
        "computed from event counts and layer sizes, not measured",
    );
}

/// Per-sample `Session::classify` times of `engine` in µs.
fn session_us(
    engine: &Engine,
    rasters: &[SpikeRaster],
    span: &'static str,
    tracer: &mut Tracer,
) -> Vec<f64> {
    let mut session = engine.session();
    rasters
        .iter()
        .enumerate()
        .map(|(i, r)| us(tracer.time(span, i as u64, None, || session.classify(r)).1))
        .collect()
}

/// The layers every workload's model has: layer rollouts, tensor work,
/// `Session::classify` and `classify_batch` on the sparse engine, and
/// the hardware backend (deployed here unless `hw` is given; its
/// deployment time is then reported by the caller).
pub fn common(
    net: &Network,
    hw: Option<&Engine>,
    task: &Task,
    opts: &Options,
    report: &mut Report,
) {
    let rasters: Vec<SpikeRaster> = task
        .test
        .iter()
        .take(LEDGER_SAMPLES)
        .map(|(r, _)| r.clone())
        .collect();
    let mut tracer = report.tracer.fork(2);
    layers(net, &rasters, &mut tracer, report);

    let sparse = Engine::from_network(net.clone())
        .threads(COMPUTE_THREADS)
        .build();
    let session = session_us(&sparse, &rasters, "engine.session_classify", &mut tracer);
    report.median("engine.session_classify_us", &session);
    let mut reference = sparse.session();
    let want: Vec<usize> = rasters.iter().map(|r| reference.classify(r)).collect();
    let mut batch_us = Vec::new();
    for k in 0..CLASSIFY_BATCH_REPEATS {
        let (got, d) = tracer.time("engine.classify_batch", k as u64, None, || {
            sparse.classify_batch(&rasters)
        });
        report.check(got == want, || {
            "classify_batch differs from per-session classification".to_string()
        });
        batch_us.push(us(d) / rasters.len() as f64);
    }
    report.median("engine.classify_batch_us", &batch_us);

    let deployed;
    let hw = match hw {
        Some(engine) => engine,
        None => {
            let (engine, d) = deploy(net, opts.seed, &mut tracer);
            report.metric("hw.deploy_ms", d);
            deployed = engine;
            &deployed
        }
    };
    let hw_us = session_us(hw, &rasters, "hw.session_classify", &mut tracer);
    report.median("hw.session_classify_us", &hw_us);
    report.tracer.absorb(tracer);
}
