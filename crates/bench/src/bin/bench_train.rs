//! Full-scale training experiment harness: the policy grid that closed
//! the ROADMAP gate on flipping the trainer's default sparsity to
//! [`SparsityPolicy::Auto`].
//!
//! For each workload — synthetic SHD in **both** reversed-pair modes
//! (PermuteOrder and Mirror) and synthetic N-MNIST — the harness runs
//! one multi-epoch experiment per backward-pass policy from the same
//! seed, data and initial weights:
//!
//! * `exact` — event-driven, ε = 0 (bitwise-identical to the dense
//!   `backward_into` reference; the accuracy and wall-clock baseline),
//! * `eps_1e-6`, `eps_1e-4`, `eps_1e-3` — fixed thresholds,
//! * `auto` — loss-scale-relative pruning (the trainer default).
//!
//! Every run goes through `train::experiment::run_classification`
//! (streaming mini-batch epochs, LR schedule, early stopping on a
//! validation plateau, best-checkpoint restore), and the harness
//! asserts that `auto`'s end-task accuracy lands within `--tolerance`
//! of the exact baseline on every workload — the accuracy-neutrality
//! evidence recorded in `BENCH_train.json`.
//!
//! Usage:
//!
//! ```text
//! bench_train [--scale small|medium|paper] [--smoke] [--epochs N]
//!             [--seed N] [--per-class N] [--hidden N] [--threads N]
//!             [--tolerance X] [--out PATH]
//! ```
//!
//! `--smoke` is the CI mode: reduced configs (`::small`-scale), few
//! epochs, policies `{exact, auto}` only, asserting that
//! training beats chance and that `auto` matches `exact` within the
//! tolerance.

use bench::{banner, Args, Scale};
use snn_core::train::{
    run_classification, ExperimentConfig, LrSchedule, Optimizer, RateCrossEntropy, SparsityPolicy,
    TrainerConfig,
};
use snn_core::{Network, NeuronKind};
use snn_data::shd::{PairMode, ShdConfig};
use snn_data::{nmnist, shd, Split};
use snn_json::Json;
use snn_neuron::NeuronParams;
use snn_tensor::Rng;

/// One backward-pass configuration of the grid.
#[derive(Debug, Clone, Copy)]
struct Policy {
    name: &'static str,
    sparsity: SparsityPolicy,
}

const EXACT: Policy = Policy {
    name: "exact",
    sparsity: SparsityPolicy::Exact,
};

const AUTO: Policy = Policy {
    name: "auto",
    sparsity: SparsityPolicy::Auto,
};

fn full_grid() -> Vec<Policy> {
    vec![
        EXACT,
        Policy {
            name: "eps_1e-6",
            sparsity: SparsityPolicy::Thresholded(1e-6),
        },
        Policy {
            name: "eps_1e-4",
            sparsity: SparsityPolicy::Thresholded(1e-4),
        },
        Policy {
            name: "eps_1e-3",
            sparsity: SparsityPolicy::Thresholded(1e-3),
        },
        AUTO,
    ]
}

fn smoke_grid() -> Vec<Policy> {
    vec![EXACT, AUTO]
}

/// A dataset plus the experiment dimensions derived from it.
struct Workload {
    name: &'static str,
    split: Split,
    channels: usize,
    classes: usize,
}

fn shd_workload(
    name: &'static str,
    pair_mode: PairMode,
    scale: Scale,
    per_class: usize,
    seed: u64,
) -> Workload {
    let base = match scale {
        Scale::Paper => ShdConfig::paper(),
        Scale::Medium => ShdConfig {
            channels: 256,
            steps: 80,
            classes: 20,
            samples_per_class: 20,
            ..ShdConfig::paper()
        },
        Scale::Small => ShdConfig::small(),
    };
    let cfg = ShdConfig {
        pair_mode,
        samples_per_class: if per_class > 0 {
            per_class
        } else {
            base.samples_per_class
        },
        ..base
    };
    let ds = shd::generate(&cfg, seed);
    let mut rng = Rng::seed_from(seed ^ 0x5917);
    let channels = cfg.channels;
    let classes = cfg.classes;
    Workload {
        name,
        split: ds.split(0.25, &mut rng),
        channels,
        classes,
    }
}

fn nmnist_workload(scale: Scale, per_class: usize, seed: u64) -> Workload {
    let base = match scale {
        Scale::Paper => nmnist::NmnistConfig::paper(),
        Scale::Medium => nmnist::NmnistConfig {
            width: 24,
            height: 24,
            steps: 60,
            samples_per_class: 40,
            ..nmnist::NmnistConfig::paper()
        },
        Scale::Small => nmnist::NmnistConfig::small(),
    };
    let cfg = nmnist::NmnistConfig {
        samples_per_class: if per_class > 0 {
            per_class
        } else {
            base.samples_per_class
        },
        ..base
    };
    let ds = nmnist::generate(&cfg, seed);
    let mut rng = Rng::seed_from(seed ^ 0x11A57);
    let channels = cfg.channels();
    Workload {
        name: "nmnist",
        split: ds.split(0.25, &mut rng),
        channels,
        classes: 10,
    }
}

/// The result of one grid cell.
struct CellResult {
    policy: &'static str,
    /// Best-epoch accuracy on the held-out split — the experiment
    /// loop's model-selection metric, so it carries best-of-epochs
    /// optimism; every cell uses the identical protocol, which is what
    /// makes the cross-policy deltas the grid gates on comparable.
    test_accuracy: f32,
    best_epoch: usize,
    epochs_run: usize,
    stopped_early: bool,
    final_train_loss: f32,
    final_train_accuracy: f32,
    mean_backward_density: f64,
    train_secs: f64,
    eval_secs: f64,
    /// Where the run's JSONL provenance manifest was written.
    manifest_path: String,
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    workload: &Workload,
    policy: Policy,
    hidden: usize,
    epochs: usize,
    batch: usize,
    threads: usize,
    seed: u64,
    progress: bool,
) -> CellResult {
    // Identical init per cell: accuracy deltas are attributable to the
    // backward pass alone.
    let mut rng = Rng::seed_from(seed);
    let mut net = Network::mlp(
        &[workload.channels, hidden, workload.classes],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults().with_v_th(0.5),
        &mut rng,
    );
    let trainer_config = TrainerConfig {
        batch_size: batch,
        optimizer: Optimizer::adamw(1e-3, 0.0),
        ..TrainerConfig::default()
    }
    .with_threads(threads)
    .with_sparsity(policy.sparsity);
    // Each cell leaves a JSONL provenance manifest (config, host, per-
    // epoch metrics); its path is embedded in `BENCH_train.json`.
    let manifest = std::env::temp_dir().join(format!(
        "neurosnn_{}_{}_{seed}.manifest.jsonl",
        workload.name, policy.name
    ));
    let experiment = ExperimentConfig {
        epochs,
        lr_schedule: LrSchedule::cosine(epochs.max(2), 0.2),
        shuffle_seed: seed ^ 0xE90C4,
        progress,
        ..ExperimentConfig::default()
    }
    .with_early_stopping(2, 1e-3)
    .with_manifest(manifest);
    let result = run_classification(
        &mut net,
        &workload.split.train,
        &workload.split.test,
        &RateCrossEntropy,
        trainer_config,
        &experiment,
    )
    .expect("experiment has no checkpoint file to fail on");

    let last = result.records.last().expect("at least one epoch");
    let densities: Vec<f64> = result
        .records
        .iter()
        .map(|r| r.backward_event_density as f64)
        .collect();
    CellResult {
        policy: policy.name,
        test_accuracy: result.best_accuracy,
        best_epoch: result.best_epoch,
        epochs_run: result.records.len(),
        stopped_early: result.stopped_early,
        final_train_loss: last.train_loss,
        final_train_accuracy: last.train_accuracy,
        mean_backward_density: densities.iter().sum::<f64>() / densities.len() as f64,
        train_secs: result.records.iter().map(|r| r.train_secs).sum(),
        eval_secs: result.records.iter().map(|r| r.eval_secs).sum(),
        manifest_path: result
            .manifest_path
            .map(|p| p.display().to_string())
            .unwrap_or_default(),
    }
}

fn cell_json(c: &CellResult) -> Json {
    Json::obj(vec![
        ("policy", Json::from(c.policy)),
        ("test_accuracy", Json::from(c.test_accuracy)),
        ("best_epoch", Json::from(c.best_epoch)),
        ("epochs_run", Json::from(c.epochs_run)),
        ("stopped_early", Json::from(c.stopped_early)),
        ("final_train_loss", Json::from(c.final_train_loss)),
        ("final_train_accuracy", Json::from(c.final_train_accuracy)),
        ("mean_backward_density", Json::from(c.mean_backward_density)),
        ("train_secs", Json::from(c.train_secs)),
        ("eval_secs", Json::from(c.eval_secs)),
        ("manifest", Json::from(c.manifest_path.as_str())),
    ])
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let scale = if smoke { Scale::Small } else { args.scale() };
    let seed = args.get_u64("seed", 21);
    // Smoke needs enough samples for training to clear the
    // beats-chance gate reliably; `::small`'s 8/class is tuned for unit
    // tests, not learning.
    let per_class = args.get_usize("per-class", if smoke { 20 } else { 0 });
    let tolerance = args.get_f32("tolerance", 0.05);
    let out_path = args.get("out", "BENCH_train.json").to_string();
    let threads = args.get_usize("threads", 0);
    let (default_epochs, default_hidden, default_batch) = match scale {
        Scale::Paper => (8, 128, 32),
        Scale::Medium => (8, 96, 32),
        Scale::Small => (10, 48, 16),
    };
    let epochs = args.get_usize("epochs", default_epochs);
    let hidden = args.get_usize("hidden", default_hidden);
    let batch = args.get_usize("batch", default_batch);

    banner(if smoke {
        "neurosnn training policy grid (smoke)"
    } else {
        "neurosnn training policy grid"
    });
    println!(
        "scale {scale:?}  epochs {epochs}  hidden {hidden}  batch {batch}  \
         seed {seed}  tolerance {tolerance}\n"
    );

    let workloads = vec![
        shd_workload(
            "shd_permute_order",
            PairMode::PermuteOrder,
            scale,
            per_class,
            seed,
        ),
        shd_workload("shd_mirror", PairMode::Mirror, scale, per_class, seed + 1),
        nmnist_workload(scale, per_class, seed + 2),
    ];
    let grid = if smoke { smoke_grid() } else { full_grid() };

    let mut workload_json = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for workload in &workloads {
        println!(
            "== {}: {} channels, {} classes, {} train / {} test ==",
            workload.name,
            workload.channels,
            workload.classes,
            workload.split.train.len(),
            workload.split.test.len(),
        );
        let chance = 1.0 / workload.classes as f32;
        let mut cells = Vec::new();
        for &policy in &grid {
            println!("-- policy {} --", policy.name);
            let cell = run_cell(workload, policy, hidden, epochs, batch, threads, seed, true);
            println!(
                "   best test acc {:.3} (epoch {}), mean bwd density {:.3}, {:.1}s train\n",
                cell.test_accuracy, cell.best_epoch, cell.mean_backward_density, cell.train_secs
            );
            cells.push(cell);
        }

        let acc = |name: &str| {
            cells
                .iter()
                .find(|c| c.policy == name)
                .map(|c| c.test_accuracy)
                .expect("policy in grid")
        };
        let exact = acc("exact");
        let auto = acc("auto");
        // Training must beat chance under every policy, otherwise the
        // accuracy comparison has no detection power.
        for cell in &cells {
            if cell.test_accuracy <= chance * 1.5 {
                failures.push(format!(
                    "{}/{}: accuracy {:.3} does not beat chance {:.3}",
                    workload.name, cell.policy, cell.test_accuracy, chance
                ));
            }
        }
        if (auto - exact).abs() > tolerance {
            failures.push(format!(
                "{}: auto accuracy {:.3} drifted from exact {:.3} (tolerance {})",
                workload.name, auto, exact, tolerance
            ));
        }

        workload_json.push(Json::obj(vec![
            ("name", Json::from(workload.name)),
            ("channels", Json::from(workload.channels)),
            ("classes", Json::from(workload.classes)),
            ("train_samples", Json::from(workload.split.train.len())),
            ("test_samples", Json::from(workload.split.test.len())),
            ("chance_accuracy", Json::from(chance)),
            ("auto_minus_exact", Json::from(auto - exact)),
            ("policies", Json::Arr(cells.iter().map(cell_json).collect())),
        ]));
    }

    let doc = Json::obj(vec![
        ("format", Json::from("neurosnn-bench-train-v1")),
        ("host", bench::timing::host_json()),
        (
            "config",
            Json::obj(vec![
                (
                    "scale",
                    Json::from(format!("{scale:?}").to_lowercase().as_str()),
                ),
                ("smoke", Json::from(smoke)),
                ("epochs", Json::from(epochs)),
                ("hidden", Json::from(hidden)),
                ("batch", Json::from(batch)),
                ("seed", Json::from(seed as usize)),
                ("tolerance", Json::from(tolerance)),
                (
                    "available_cores",
                    Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
                ),
            ]),
        ),
        ("workloads", Json::Arr(workload_json)),
    ]);
    std::fs::write(&out_path, doc.pretty() + "\n").expect("failed to write bench report");
    println!("wrote {out_path}");

    assert!(
        failures.is_empty(),
        "policy grid failed:\n  {}",
        failures.join("\n  ")
    );
    println!(
        "OK: auto within {tolerance} of the exact baseline on all {} workloads",
        workloads.len()
    );
}
