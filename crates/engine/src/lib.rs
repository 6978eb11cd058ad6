//! **snn-engine** — the unified serving API of the neurosnn workspace:
//! one trained network, three interchangeable execution backends, one
//! batched, allocation-free, deterministic inference surface.
//!
//! The paper (Fang et al., DAC 2021) is an algorithm–hardware codesign,
//! so the same model must answer queries from the event-driven software
//! kernels, from the dense reference implementation, and from a
//! simulated RRAM crossbar deployment. This crate re-exports the core
//! engine ([`Engine`], [`Session`], [`InferenceBackend`] — implemented
//! by the bare [`Network`] and by [`DenseBackend`]) and the third
//! backend: a quantized, variation-perturbed [`Deployment`], which
//! implements the same trait and is built by [`hardware`].
//!
//! Every backend routes inference through the core forward kernels,
//! which carry `snn-obs` flight-recorder hooks: when a caller installs
//! an ambient trace context (`snn_obs::with_trace`, as the serving
//! scheduler's workers do per traced job), each layer's rollout records
//! a span with its output-spike density packed into the payload. With
//! no context the hooks are disarmed — one relaxed atomic load each.
//!
//! # Examples
//!
//! Serve one trained network from all three backends:
//!
//! ```
//! use snn_engine::{hardware, Backend, DeployConfig, Engine};
//! use snn_core::{Network, NeuronKind, SpikeRaster};
//! use snn_neuron::NeuronParams;
//! use snn_tensor::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let net = Network::mlp(&[8, 16, 3], NeuronKind::Adaptive,
//!                        NeuronParams::paper_defaults(), &mut rng);
//!
//! let sparse = Engine::from_network(net.clone())
//!     .backend(Backend::Sparse)
//!     .threads(2)
//!     .build();
//! let dense = Engine::from_network(net.clone())
//!     .backend(Backend::Dense)
//!     .build();
//! let rram = Engine::from_network(net)
//!     .backend(hardware(DeployConfig::four_bit(), 42))
//!     .build();
//!
//! let input = SpikeRaster::from_events(20, 8, &[(0, 1), (3, 4), (9, 7)]);
//! let mut session = sparse.session();
//! let class = session.classify(&input);
//! assert_eq!(dense.classify_batch(std::slice::from_ref(&input))[0], class);
//! assert_eq!(rram.backend().label(), "hardware");
//! ```

pub use snn_core::checkpoint::{self, CheckpointError};
pub use snn_core::engine::{
    classify_batch_with, evaluate_with, Backend, BackendFactory, DenseBackend, Engine,
    EngineBuilder, InferenceBackend, PooledSession, Session, SessionPool, BATCH_CHUNK,
};
pub use snn_core::stream::{StreamError, StreamSession};
pub use snn_core::Drive;
pub use snn_hardware::deploy::{deploy, DeployConfig, Deployment};

use snn_core::Network;
use snn_tensor::Rng;
use std::sync::Arc;

/// [`BackendFactory`] deploying the engine's network onto RRAM crossbars
/// at build time — construct via [`hardware`].
///
/// The backend is the [`Deployment`] itself, evaluated through the
/// crossbars' *effective* weights on the same allocation-free
/// event-driven path as the bare [`Network`], so software/hardware
/// accuracy comparisons measure the non-idealities, not a different
/// compute path.
#[derive(Debug, Clone, Copy)]
pub struct HardwareFactory {
    /// Quantization bits, relative deviation σ, full-on conductance.
    pub cfg: DeployConfig,
    /// Seed for the device-variation draws.
    pub seed: u64,
}

impl BackendFactory for HardwareFactory {
    fn build(&self, net: Network) -> Arc<dyn InferenceBackend> {
        Arc::new(deploy(&net, self.cfg, &mut Rng::seed_from(self.seed)))
    }

    fn describe(&self) -> &str {
        "hardware"
    }
}

/// The hardware [`Backend`] for [`EngineBuilder::backend`]: deploy onto
/// crossbars with the given non-idealities, seeded for reproducible
/// variation draws.
///
/// ```
/// # use snn_engine::{hardware, DeployConfig, Engine};
/// # use snn_core::{Network, NeuronKind};
/// # use snn_neuron::NeuronParams;
/// # use snn_tensor::Rng;
/// # let mut rng = Rng::seed_from(1);
/// # let net = Network::mlp(&[3, 2], NeuronKind::Adaptive,
/// #                        NeuronParams::paper_defaults(), &mut rng);
/// let engine = Engine::from_network(net)
///     .backend(hardware(DeployConfig::five_bit().with_deviation(0.2), 7))
///     .build();
/// assert_eq!(engine.backend().label(), "hardware");
/// ```
pub fn hardware(cfg: DeployConfig, seed: u64) -> Backend {
    Backend::Custom(Box::new(HardwareFactory { cfg, seed }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::{NeuronKind, SpikeRaster};
    use snn_neuron::NeuronParams;

    fn net(seed: u64) -> Network {
        let mut rng = Rng::seed_from(seed);
        Network::mlp(
            &[6, 12, 4],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.4),
            &mut rng,
        )
    }

    fn inputs(n: usize, seed: u64) -> Vec<SpikeRaster> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| {
                let mut r = SpikeRaster::zeros(15, 6);
                for t in 0..15 {
                    for c in 0..6 {
                        if rng.coin(0.2) {
                            r.set(t, c, true);
                        }
                    }
                }
                r
            })
            .collect()
    }

    #[test]
    fn hardware_backend_matches_manual_deployment() {
        let net = net(1);
        let batch = inputs(8, 2);
        let engine = Engine::from_network(net.clone())
            .backend(hardware(DeployConfig::four_bit().with_deviation(0.2), 9))
            .build();
        let mut rng = Rng::seed_from(9);
        let manual = deploy(&net, DeployConfig::four_bit().with_deviation(0.2), &mut rng);
        assert_eq!(
            engine.classify_batch(&batch),
            classify_batch_with(&manual, &batch, 1)
        );
        assert_eq!(
            engine.network().layers()[0].weights(),
            manual.network().layers()[0].weights()
        );
    }

    #[test]
    fn hardware_backend_is_seed_deterministic() {
        let net = net(3);
        let cfg = DeployConfig::four_bit().with_deviation(0.3);
        let engine = |seed| {
            Engine::from_network(net.clone())
                .backend(hardware(cfg, seed))
                .build()
        };
        let (a, b, c) = (engine(5), engine(5), engine(6));
        assert_eq!(a.backend().label(), "hardware");
        assert_eq!(
            a.network().layers()[0].weights(),
            b.network().layers()[0].weights()
        );
        assert_ne!(
            a.network().layers()[0].weights(),
            c.network().layers()[0].weights()
        );
    }

    #[test]
    fn high_precision_hardware_agrees_with_sparse() {
        let net = net(4);
        let batch = inputs(12, 5);
        let cfg = DeployConfig {
            bits: 12,
            deviation: 0.0,
            g_max: 1e-4,
        };
        let sparse = Engine::from_network(net.clone()).build();
        let hw = Engine::from_network(net).backend(hardware(cfg, 1)).build();
        assert_eq!(sparse.classify_batch(&batch), hw.classify_batch(&batch));
    }
}
