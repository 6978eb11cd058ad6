//! Deploy a trained SNN onto simulated RRAM crossbars (paper §IV / §V-C
//! / Fig. 8): quantize to 4-bit conductances, inject process variation,
//! and compare software vs hardware accuracy; then run the analog
//! transient simulation of one neuron and print its Fig. 7-style traces.
//!
//! Run with: `cargo run --release --example hardware_deploy`

use neurosnn::core::train::{Optimizer, RateCrossEntropy, Trainer, TrainerConfig};
use neurosnn::core::{Network, NeuronKind};
use neurosnn::data::nmnist::{generate, NmnistConfig};
use neurosnn::engine::{deploy, hardware, Backend, DeployConfig, Engine};
use neurosnn::hardware::{power, transient, CircuitParams};
use neurosnn::neuron::NeuronParams;
use neurosnn::tensor::Rng;

fn main() {
    // --- Train a small event-camera digit classifier ---
    let cfg = NmnistConfig {
        width: 16,
        height: 16,
        steps: 40,
        samples_per_class: 12,
        ..NmnistConfig::small()
    };
    let mut rng = Rng::seed_from(3);
    let split = generate(&cfg, 3).split(0.25, &mut rng);
    let mut net = Network::mlp(
        &[cfg.channels(), 64, 10],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults().with_v_th(0.5),
        &mut rng,
    );
    let mut trainer = Trainer::new(TrainerConfig {
        batch_size: 16,
        optimizer: Optimizer::adamw(1e-3, 0.0),
        ..TrainerConfig::default()
    });
    for _ in 0..12 {
        trainer.epoch_classification(&mut net, &split.train, &RateCrossEntropy);
    }
    let sw_engine = Engine::from_network(net.clone())
        .backend(Backend::Sparse)
        .build();
    let sw_acc = sw_engine.evaluate(&split.test);
    println!("software accuracy: {:.1}%", sw_acc * 100.0);

    // --- Deploy at 4 and 5 bits with and without variation: the same
    // Engine API, hardware backend (quantized crossbars + variation) ---
    for (bits, sigma) in [(4u8, 0.0f32), (4, 0.2), (5, 0.2), (4, 0.5)] {
        let dep = deploy(
            &net,
            DeployConfig {
                bits,
                deviation: sigma,
                g_max: 1e-4,
            },
            &mut Rng::seed_from(99),
        );
        let devices = dep.total_devices();
        let mean_err = dep.reports[0].mean_abs_error;
        let hw_acc = Engine::from_backend(std::sync::Arc::new(dep)).evaluate(&split.test);
        println!(
            "hardware {bits}-bit, deviation {sigma:.1}: accuracy {:.1}%  ({devices} RRAM devices, mean |Δw| {mean_err:.4})",
            hw_acc * 100.0,
        );
    }
    // The builder route does the same deployment in one line:
    let four_bit = Engine::from_network(net.clone())
        .backend(hardware(DeployConfig::four_bit(), 99))
        .build();
    assert_eq!(four_bit.backend().label(), "hardware");

    // --- Analog transient simulation of one neuron (Fig. 7) ---
    let params = CircuitParams::paper();
    println!("\ntransient sim: burst at steps 4-6, lone spike at step 10");
    let trace = transient::simulate_neuron(&[4, 5, 6, 10], 24, &params);
    let psp = trace.per_step(&trace.psp);
    let threshold = trace.per_step(&trace.threshold);
    println!("step |   PSP (V) | threshold (V) | spike");
    let spike_steps = trace.output_spike_times();
    for t in 0..24 {
        println!(
            "{t:>4} | {:>9.3} | {:>13.3} | {}",
            psp[t],
            threshold[t],
            if spike_steps.contains(&t) { "  *" } else { "" }
        );
    }

    // --- Power / energy / area (§V-C) ---
    let report = power::estimate(power::REFERENCE_STEPS, power::REFERENCE_SPIKES, &params);
    println!(
        "\npower (single neuron+synapse, 300-step sample with 14 spikes):\n  min {:.3} mW, max {:.3} mW, avg {:.3} mW, energy {:.3} nJ",
        report.min_w * 1e3,
        report.max_w * 1e3,
        report.avg_w * 1e3,
        report.energy_j * 1e9
    );
    println!(
        "  area {:.4} mm^2 (paper: 1.067/1.965/1.11 mW, 3.329 nJ, 0.0125 mm^2)",
        power::AreaBreakdown::paper().total_mm2()
    );
}
