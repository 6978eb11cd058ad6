//! Workload inputs and models. Everything here is a pure function of
//! the run's seed: the same seed gives the same rasters, split and
//! initial weights.

use crate::trace::Tracer;
use crate::Scale;
use snn_core::{Network, NeuronKind, SpikeRaster};
use snn_data::{nmnist, shd, ClassDataset};
use snn_neuron::NeuronParams;
use snn_tensor::Rng;
use std::time::Instant;

/// Hidden-layer width of every workload's model (paper: 128).
pub const HIDDEN: usize = 128;

/// Firing threshold of the adaptive-LIF model, as in the repository's
/// full-scale training grid.
const V_TH: f32 = 0.5;

/// Held-out share of each class (stratified split).
const SHD_TEST_FRACTION: f32 = 0.2;

/// N-MNIST is split evenly: the held-out half is streamed, the other
/// half feeds the traced run's training replay.
const NMNIST_TEST_FRACTION: f32 = 0.5;

/// N-MNIST samples per digit. The paper configuration's sensor and
/// duration are kept; the count is cut so set-up stays near a second.
const NMNIST_PER_CLASS: usize = 20;

/// SHD samples per class at smoke scale.
const SMOKE_PER_CLASS: usize = 4;

const SPLIT_SALT: u64 = 0x5350_4C49_5400;
const INIT_SALT: u64 = 0x494E_4954_0000;

/// A labelled, split dataset and a freshly initialised model for it.
#[derive(Debug, Clone)]
pub struct Task {
    pub train: Vec<(SpikeRaster, usize)>,
    pub test: Vec<(SpikeRaster, usize)>,
    pub classes: usize,
    pub net: Network,
    /// Wall time of the synthetic-data generator.
    pub generate_s: f64,
}

impl Task {
    /// Mean input events per held-out raster.
    pub fn mean_test_events(&self) -> f64 {
        let total: usize = self.test.iter().map(|(r, _)| r.spike_count()).sum();
        total as f64 / self.test.len().max(1) as f64
    }

    pub fn test_rasters(&self) -> impl Iterator<Item = &SpikeRaster> {
        self.test.iter().map(|(r, _)| r)
    }
}

fn build(
    seed: u64,
    tracer: &mut Tracer,
    test_fraction: f32,
    generate: impl FnOnce() -> ClassDataset,
) -> Task {
    let t0 = Instant::now();
    let (data, _) = tracer.time("data.generate", seed, None, generate);
    let generate_s = t0.elapsed().as_secs_f64();
    let classes = data.classes;
    let channels = data.samples[0].0.channels();
    let split = data.split(test_fraction, &mut Rng::seed_from(seed ^ SPLIT_SALT));
    let net = Network::mlp(
        &[channels, HIDDEN, classes],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults().with_v_th(V_TH),
        &mut Rng::seed_from(seed ^ INIT_SALT),
    );
    Task {
        train: split.train,
        test: split.test,
        classes,
        net,
        generate_s,
    }
}

/// Synthetic SHD at `ShdConfig::paper()` (700 channels, T=100, 20
/// classes, `PermuteOrder`) and a 700-128-20 model.
pub fn shd(seed: u64, scale: Scale, tracer: &mut Tracer) -> Task {
    let mut cfg = shd::ShdConfig::paper();
    cfg.samples_per_class = scale.pick(cfg.samples_per_class, SMOKE_PER_CLASS);
    build(seed, tracer, SHD_TEST_FRACTION, || {
        shd::generate(&cfg, seed)
    })
}

/// Synthetic N-MNIST at `NmnistConfig::paper()` (34×34×2 = 2312
/// channels, T=100) and a 2312-128-10 model.
pub fn nmnist(seed: u64, scale: Scale, tracer: &mut Tracer) -> Task {
    let mut cfg = nmnist::NmnistConfig::paper();
    cfg.samples_per_class = scale.pick(NMNIST_PER_CLASS, SMOKE_PER_CLASS);
    build(seed, tracer, NMNIST_TEST_FRACTION, || {
        nmnist::generate(&cfg, seed)
    })
}
