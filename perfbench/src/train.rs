//! `train_shd`: training and offline evaluation on the paper's own task.
//!
//! Why this workload: it is the only one where tensor lanes, the layer
//! rollout, sparse BPTT, the optimizer, the trainer's thread fan-out and
//! the batched engine do the work, and where `snn-serve` and `snn-json`
//! do none. A 700-128-20 adaptive-LIF network is trained on synthetic
//! SHD with `TrainerConfig::classification()` (AdamW, batch 64,
//! `SparsityPolicy::Auto`) pinned to 2 threads for a fixed number of
//! mini-batches, then the held-out split is evaluated with
//! `Engine::evaluate` on the sparse backend and on the 4-bit RRAM
//! backend until the run's time budget is spent.

use crate::stats::{median, ms, us, Summary};
use crate::trace::Tracer;
use crate::{ledger, repeat_setup, tasks, Options, Report, COMPUTE_THREADS};
use snn_core::train::{
    backward_sparse_into, ClassificationLoss, EpochStats, Gradients, Optimizer, RateCrossEntropy,
    Trainer, TrainerConfig, GRAD_CHUNK,
};
use snn_core::{Forward, Network, ScratchSpace, SpikeRaster};
use snn_engine::Engine;
use snn_tensor::Matrix;
use std::time::{Duration, Instant};

/// Mini-batches in the timed training phase. Fixed, so the trained
/// model and `train.loss` depend on the seed only, never on speed.
const TRAIN_BATCHES: usize = 100;
const SMOKE_TRAIN_BATCHES: usize = 2;

/// In a traced run every `REPLAY_EVERY`-th mini-batch is also replayed
/// layer by layer on a copy of the pre-batch state.
const REPLAY_EVERY: usize = 8;
const SMOKE_REPLAY_EVERY: usize = 2;

/// Mini-batches timed at 1 and at 2 threads (from identical state) for
/// `trainer.scaling` in a traced run; an untraced run times one pair,
/// which is the determinism check.
const SCALING_PAIRS: usize = 4;

/// Mini-batches of the short training ledger in other workloads'
/// traced runs.
const SHORT_BATCHES: usize = 3;

/// Evaluation rounds run until the budget is spent, and for at least
/// this share of it after training: on a slow host the fixed training
/// phase must not leave the evaluation medians only a handful of rounds.
const MIN_EVAL_SHARE: f64 = 0.4;

/// At paper scale the trained model must beat chance by this factor on
/// held-out data; a lower accuracy counts as a failed output check. The
/// smoke-scale model trains for too few mini-batches to be held to it.
const ACCURACY_OVER_CHANCE: f64 = 2.0;

fn trainer_config() -> TrainerConfig {
    TrainerConfig::classification().with_threads(COMPUTE_THREADS)
}

/// A trainer pinned to `threads` whose optimizer state is `optimizer`.
fn trainer_with(optimizer: Optimizer, threads: usize) -> Trainer {
    Trainer::new(TrainerConfig {
        optimizer,
        ..trainer_config().with_threads(threads)
    })
}

/// Bitwise equality of two networks' weights.
pub fn same_weights(a: &Network, b: &Network) -> bool {
    a.layers().len() == b.layers().len()
        && a.layers().iter().zip(b.layers()).all(|(x, y)| {
            let (x, y) = (x.weights().as_slice(), y.weights().as_slice());
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

fn same_stats(a: &EpochStats, b: &EpochStats) -> bool {
    a.mean_loss.to_bits() == b.mean_loss.to_bits()
        && a.backward_event_density.to_bits() == b.backward_event_density.to_bits()
}

/// Per-layer timings of training-batch replays.
#[derive(Debug, Default)]
pub struct TrainLedger {
    forward_us: Vec<f64>,
    backward_us: Vec<f64>,
    reduce_us: Vec<f64>,
    step_us: Vec<f64>,
    trainer_batch_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    events_nnz: u64,
    events_candidates: u64,
    one_thread_ms: Vec<f64>,
    two_thread_ms: Vec<f64>,
}

impl TrainLedger {
    /// Replays one mini-batch as the trainer computes it, calling each
    /// layer's public function in turn on one thread: per-sample
    /// `Network::forward_into` and `backward_sparse_into` into
    /// per-chunk `Gradients`, the pairwise `Gradients::accumulate`
    /// reduction with scaling and clipping, then `Optimizer::step`.
    /// Returns the stepped network, which must equal the trainer's.
    fn replay(
        &mut self,
        net: &Network,
        optimizer: &Optimizer,
        batch: &[(SpikeRaster, usize)],
        trainer_batch: Duration,
        tracer: &mut Tracer,
        id: u64,
    ) -> Network {
        let cfg = trainer_config();
        let mut scratch = ScratchSpace::new();
        let mut fwd = Forward::empty();
        let mut d_out = Matrix::zeros(0, 0);
        let root = tracer.open("trainer.replay", id, None);
        let mut work = Duration::ZERO;
        let mut chunks = Vec::new();
        for chunk in batch.chunks(GRAD_CHUNK) {
            let mut grads = Gradients::zeros_like(net);
            for (input, target) in chunk {
                let (_, f) = tracer.time("network.forward", id, Some(root), || {
                    net.forward_into(input, &mut fwd, &mut scratch)
                });
                let t0 = Instant::now();
                RateCrossEntropy.loss_and_grad_into(fwd.output(), *target, &mut d_out);
                let loss = t0.elapsed();
                let (_, b) = tracer.time("backprop.backward", id, Some(root), || {
                    backward_sparse_into(
                        net,
                        &fwd,
                        &d_out,
                        cfg.surrogate,
                        cfg.sparsity,
                        &mut grads,
                        &mut scratch,
                    )
                });
                let events = scratch.backward_events();
                self.events_nnz += events.nnz() as u64;
                self.events_candidates += events.candidates() as u64;
                self.forward_us.push(us(f));
                self.backward_us.push(us(b));
                work += f + loss + b;
            }
            chunks.push(grads);
        }
        let (grads, reduce) = tracer.time("grads.reduce", id, Some(root), || {
            let mut grads = tree_reduce(chunks);
            grads.scale(1.0 / batch.len() as f32);
            if let Some(max_norm) = cfg.grad_clip {
                grads.clip_global_norm(max_norm);
            }
            grads
        });
        let mut stepped = net.clone();
        let mut optimizer = optimizer.clone();
        let (_, step) = tracer.time("optimizer.step", id, Some(root), || {
            optimizer.step(&mut stepped, &grads)
        });
        tracer.close(root);
        self.reduce_us.push(us(reduce));
        self.step_us.push(us(step));
        self.trainer_batch_ms.push(ms(trainer_batch));
        // The residual no replay span covers: batch wall time minus the
        // per-sample work shared by the workers, reduction and step.
        self.overhead_ms
            .push(ms(trainer_batch) - ms(work) / COMPUTE_THREADS as f64 - ms(reduce) - ms(step));
        stepped
    }

    /// Times one batch at 1 and at `COMPUTE_THREADS` threads from the
    /// same state and checks that both produce bitwise-equal weights
    /// and statistics, i.e. the batch gradients do not depend on the
    /// thread count under real parallelism.
    fn scaling_pair(
        &mut self,
        net: &Network,
        optimizer: &Optimizer,
        batch: &[(SpikeRaster, usize)],
        report: &mut Report,
    ) {
        let mut runs = Vec::new();
        for threads in [1, COMPUTE_THREADS] {
            let mut n = net.clone();
            let mut trainer = trainer_with(optimizer.clone(), threads);
            let t0 = Instant::now();
            let stats = trainer.epoch_classification(&mut n, batch, &RateCrossEntropy);
            let elapsed = t0.elapsed();
            if threads == 1 {
                self.one_thread_ms.push(ms(elapsed));
            } else {
                self.two_thread_ms.push(ms(elapsed));
            }
            runs.push((n, stats));
        }
        let same = same_weights(&runs[0].0, &runs[1].0) && same_stats(&runs[0].1, &runs[1].1);
        report.check(same, || {
            format!("mini-batch at {COMPUTE_THREADS} threads differs from 1 thread")
        });
    }

    /// Writes the training-layer per-layer metrics.
    pub fn emit(&self, report: &mut Report) {
        report.median("network.forward_us", &self.forward_us);
        report.median("backprop.backward_us", &self.backward_us);
        report.metric(
            "backprop.event_density",
            self.events_nnz as f64 / self.events_candidates.max(1) as f64,
        );
        report.median("grads.reduce_us", &self.reduce_us);
        report.median("optimizer.step_us", &self.step_us);
        report.median("trainer.batch_ms", &self.trainer_batch_ms);
        report.median("trainer.overhead_ms", &self.overhead_ms);
        report.metric(
            "trainer.scaling",
            median(&self.one_thread_ms) / median(&self.two_thread_ms),
        );
        report.detail("trainer.replayed_batches", self.trainer_batch_ms.len());
        report.detail("trainer.scaling_pairs", self.two_thread_ms.len());
    }

    /// The short training ledger of a traced run whose workload does
    /// not train: a warm-up mini-batch, then `SHORT_BATCHES` mini-batches
    /// of `data` trained from `net`, each timed by the trainer and
    /// replayed, plus one scaling pair.
    pub fn run_short(
        net: &Network,
        data: &[(SpikeRaster, usize)],
        opts: &Options,
        report: &mut Report,
    ) {
        let batches = opts.scale.pick(SHORT_BATCHES, 1);
        let mut tracer = report.tracer.fork(5);
        let mut ledger = TrainLedger::default();
        let mut net = net.clone();
        let mut trainer = Trainer::new(trainer_config());
        let size = trainer.config().batch_size.min(data.len());
        let mut batches_of = data.chunks_exact(size).cycle();
        let warmup = batches_of.next().expect("at least one mini-batch");
        trainer.epoch_classification(&mut net, warmup, &RateCrossEntropy);
        for (k, batch) in batches_of.take(batches).enumerate() {
            let before = net.clone();
            let optimizer = trainer.optimizer_mut().clone();
            let t0 = Instant::now();
            trainer.epoch_classification(&mut net, batch, &RateCrossEntropy);
            let elapsed = t0.elapsed();
            let stepped = ledger.replay(&before, &optimizer, batch, elapsed, &mut tracer, k as u64);
            report.check(same_weights(&stepped, &net), || {
                "layer-by-layer replay differs from the trainer".to_string()
            });
        }
        let optimizer = trainer.optimizer_mut().clone();
        ledger.scaling_pair(&net, &optimizer, &data[..size], report);
        ledger.emit(report);
        report.tracer.absorb(tracer);
    }
}

/// Pairwise reduction in chunk order, as the trainer sums chunks.
fn tree_reduce(mut grads: Vec<Gradients>) -> Gradients {
    while grads.len() > 1 {
        let mut next = Vec::with_capacity(grads.len().div_ceil(2));
        let mut iter = grads.into_iter();
        while let Some(mut a) = iter.next() {
            if let Some(b) = iter.next() {
                a.accumulate(&b);
            }
            next.push(a);
        }
        grads = next;
    }
    grads.pop().expect("a batch has at least one chunk")
}

/// Accuracy from per-sample `Session::classify` answers.
fn session_accuracy(engine: &Engine, data: &[(SpikeRaster, usize)]) -> f32 {
    let mut session = engine.session();
    let hits = data
        .iter()
        .filter(|(r, label)| session.classify(r) == *label)
        .count();
    // The same f32 arithmetic as `Engine::evaluate`.
    hits as f32 / data.len() as f32
}

pub fn run(opts: &Options, budget: Duration, report: &mut Report) {
    let trace = opts.trace;
    let (task, setup_data_s) = repeat_setup(
        |tracer| tasks::shd(opts.seed, opts.scale, tracer),
        &mut report.tracer,
    );
    report.detail("train.samples", task.train.len());
    report.detail("test.samples", task.test.len());
    report.detail("test.mean_events", task.mean_test_events());
    let start = Instant::now();

    // Timed training phase.
    let mut net = task.net.clone();
    let mut trainer = Trainer::new(trainer_config());
    let size = trainer.config().batch_size.min(task.train.len());
    let n_batches = opts.scale.pick(TRAIN_BATCHES, SMOKE_TRAIN_BATCHES);
    let replay_every = opts.scale.pick(REPLAY_EVERY, SMOKE_REPLAY_EVERY);
    let mut ledger = TrainLedger::default();
    let (mut plain_ms, mut traced_ms, mut losses) = (Vec::new(), Vec::new(), Vec::new());
    for (k, batch) in task
        .train
        .chunks_exact(size)
        .cycle()
        .take(n_batches)
        .enumerate()
    {
        let traced = trace && k % 2 == 1;
        let replay = traced && k % replay_every == replay_every - 1;
        let before = replay.then(|| (net.clone(), trainer.optimizer_mut().clone()));
        let span = traced.then(|| report.tracer.open("trainer.batch", k as u64, None));
        let t0 = Instant::now();
        let stats = trainer.epoch_classification(&mut net, batch, &RateCrossEntropy);
        let elapsed = t0.elapsed();
        if let Some(span) = span {
            report.tracer.close(span);
        }
        report.check(stats.mean_loss.is_finite(), || {
            format!("non-finite loss at mini-batch {k}")
        });
        losses.push(f64::from(stats.mean_loss));
        if traced {
            &mut traced_ms
        } else {
            &mut plain_ms
        }
        .push(ms(elapsed));
        if let Some((before_net, before_opt)) = before {
            let stepped = ledger.replay(
                &before_net,
                &before_opt,
                batch,
                elapsed,
                &mut report.tracer,
                k as u64,
            );
            report.check(same_weights(&stepped, &net), || {
                format!("layer-by-layer replay of mini-batch {k} differs from the trainer")
            });
        }
    }
    let train_s = start.elapsed().as_secs_f64();

    // Determinism under real parallelism (and, traced, thread scaling),
    // outside the timed phase.
    let pairs = if trace { SCALING_PAIRS } else { 1 };
    let optimizer = trainer.optimizer_mut().clone();
    for batch in task.train.chunks_exact(size).take(pairs) {
        ledger.scaling_pair(&net, &optimizer, batch, report);
    }

    // Deploying the trained network is set-up of the evaluation phase.
    let mut deploy_ms = Vec::new();
    let mut hw = None;
    for _ in 0..crate::SETUP_REPEATS {
        let (engine, d) = ledger::deploy(&net, opts.seed, &mut report.tracer);
        deploy_ms.push(d);
        hw = Some(engine);
    }
    let hw = hw.expect("deployed at least once");
    let sparse = Engine::from_network(net.clone())
        .threads(COMPUTE_THREADS)
        .build();
    let want_sparse = session_accuracy(&sparse, &task.test);
    let want_hw = session_accuracy(&hw, &task.test);
    let floor = opts.scale.pick(ACCURACY_OVER_CHANCE, 0.0) / task.classes as f64;
    report.check(f64::from(want_sparse) >= floor, || {
        format!("held-out accuracy {want_sparse} is not above {ACCURACY_OVER_CHANCE}x chance")
    });

    // Timed evaluation rounds until the budget is spent.
    let eval_end = (start + budget).max(Instant::now() + budget.mul_f64(MIN_EVAL_SHARE));
    let (mut eval_ms, mut hw_ms, mut round_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut round = 0u64;
    while round == 0 || Instant::now() < eval_end {
        let root = trace.then(|| report.tracer.open("eval.round", round, None));
        let t0 = Instant::now();
        let acc = sparse.evaluate(&task.test);
        let t1 = Instant::now();
        let acc_hw = hw.evaluate(&task.test);
        let t2 = Instant::now();
        if let Some(root) = root {
            report.tracer.close(root);
        }
        report.check(acc.to_bits() == want_sparse.to_bits(), || {
            format!("sparse Engine::evaluate {acc} != per-session reference {want_sparse}")
        });
        report.check(acc_hw.to_bits() == want_hw.to_bits(), || {
            format!("hardware Engine::evaluate {acc_hw} != per-session reference {want_hw}")
        });
        eval_ms.push(ms(t1 - t0));
        hw_ms.push(ms(t2 - t1));
        round_ms.push(ms(t2 - t0));
        round += 1;
    }

    let n_test = task.test.len() as f64;
    let batch_all: Vec<f64> = plain_ms.iter().chain(&traced_ms).copied().collect();
    let eval = Summary::of(&eval_ms);
    let eval_hw = Summary::of(&hw_ms);
    let rounds = Summary::of(&round_ms);
    let train_rate = size as f64 / (median(&batch_all) / 1e3);
    report.timing("trainer.batch_wall", "ms", &Summary::of(&batch_all));
    report.timing("eval.held_out_wall", "ms", &eval);
    report.timing("eval_hw.held_out_wall", "ms", &eval_hw);
    report.timing("eval.round_wall", "ms", &rounds);
    report.detail("train.samples_per_s", train_rate);
    report.detail(
        "train.loss",
        losses.iter().sum::<f64>() / losses.len() as f64,
    );
    report.detail("train.batches", losses.len());
    report.detail("train.phase_s", train_s);
    report.detail("eval.samples_per_s", n_test / (eval.p50 / 1e3));
    report.detail("eval.accuracy", f64::from(want_sparse));
    report.detail("eval_hw.samples_per_s", n_test / (eval_hw.p50 / 1e3));
    report.detail("eval_hw.accuracy", f64::from(want_hw));
    report.detail("setup.data_s", setup_data_s);
    report.detail("setup.deploy_s", median(&deploy_ms) / 1e3);

    if !trace {
        report.metric("setup_s", setup_data_s + median(&deploy_ms) / 1e3);
        report.metric("throughput_per_s", train_rate);
        report.metric("latency_p50_ms", rounds.p50);
        return;
    }
    ledger.emit(report);
    report.metric("obs.trace_overhead", median(&traced_ms) / median(&plain_ms));
    report.metric("data.generate_s", task.generate_s);
    report.median("hw.deploy_ms", &deploy_ms);
    ledger::common(&net, Some(&hw), &task, opts, report);
    crate::http::ledger(&sparse, &task, opts, report);
    crate::stream::ledger(&sparse, &task, opts, report);
}
