//! Property tests for the serving engine: backend agreement and
//! thread-count determinism.
//!
//! The proptest shim is deterministically seeded (per test name), so
//! these properties are reproducible across runs and machines.

use proptest::prelude::*;
use snn_core::{Network, NeuronKind, SpikeRaster};
use snn_engine::{hardware, Backend, DeployConfig, Engine};
use snn_neuron::NeuronParams;
use snn_tensor::Rng;

fn raster_strategy(steps: usize, channels: usize) -> impl Strategy<Value = SpikeRaster> {
    proptest::collection::vec(any::<bool>(), steps * channels).prop_map(move |bits| {
        let mut r = SpikeRaster::zeros(steps, channels);
        for (i, b) in bits.into_iter().enumerate() {
            if b {
                r.set(i / channels, i % channels, true);
            }
        }
        r
    })
}

fn net_from_seed(seed: u64) -> Network {
    let mut rng = Rng::seed_from(seed);
    Network::mlp(
        &[5, 12, 3],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults().with_v_th(0.4),
        &mut rng,
    )
}

proptest! {
    /// All three backends must agree on the predicted class at high bit
    /// width (8-bit cells, zero deviation): the quantization error is
    /// far below the spike-count margins these nets produce, and sparse
    /// vs dense differ only by float reassociation.
    #[test]
    fn backends_agree_on_argmax_at_8_bits(
        seed in 0u64..32,
        input in raster_strategy(18, 5),
    ) {
        let net = net_from_seed(seed);
        let cfg = DeployConfig {
            bits: 8,
            deviation: 0.0,
            g_max: 1e-4,
        };
        let sparse = Engine::from_network(net.clone()).backend(Backend::Sparse).build();
        let dense = Engine::from_network(net.clone()).backend(Backend::Dense).build();
        let hw = Engine::from_network(net).backend(hardware(cfg, seed)).build();

        let mut s_sparse = sparse.session();
        let mut s_dense = dense.session();
        let mut s_hw = hw.session();
        let a = s_sparse.classify(&input);
        let b = s_dense.classify(&input);
        let c = s_hw.classify(&input);
        prop_assert_eq!(a, b, "sparse vs dense argmax");
        prop_assert_eq!(a, c, "sparse vs 8-bit hardware argmax");
    }

    /// At 12-bit precision with zero deviation the deployed network's
    /// spike trains track the software model's almost exactly: the only
    /// admissible differences are marginal threshold crossings, so at
    /// most a couple of raster entries may flip and no channel's spike
    /// count may move by more than one.
    #[test]
    fn twelve_bit_hardware_tracks_software_spike_trains(
        seed in 0u64..16,
        input in raster_strategy(15, 5),
    ) {
        let net = net_from_seed(seed ^ 0xA5);
        let cfg = DeployConfig {
            bits: 12,
            deviation: 0.0,
            g_max: 1e-4,
        };
        let sparse = Engine::from_network(net.clone()).build();
        let hw = Engine::from_network(net).backend(hardware(cfg, 0)).build();
        let mut s_sparse = sparse.session();
        let mut s_hw = hw.session();
        let a = s_sparse.infer_raster(&input).clone();
        let b = s_hw.infer_raster(&input);
        prop_assert_eq!(a.steps(), b.steps());
        prop_assert_eq!(a.channels(), b.channels());
        let flips = a
            .to_matrix()
            .as_slice()
            .iter()
            .zip(b.to_matrix().as_slice())
            .filter(|(x, y)| x != y)
            .count();
        prop_assert!(flips <= 2, "{} raster entries flipped at 12 bits", flips);
        for (ca, cb) in a.channel_counts().iter().zip(b.channel_counts()) {
            prop_assert!((ca - cb).abs() <= 1.0, "channel count moved by {}", (ca - cb).abs());
        }
    }

    /// `classify_batch` is bitwise-deterministic for 1/2/4 worker
    /// threads: the fixed-chunk partition makes the result a pure
    /// function of the inputs.
    #[test]
    fn classify_batch_is_bitwise_deterministic_across_threads(
        seed in 0u64..16,
        n in 1usize..40,
    ) {
        let net = net_from_seed(seed ^ 0x77);
        let mut rng = Rng::seed_from(seed.wrapping_mul(0x9E37_79B9) + 1);
        let inputs: Vec<SpikeRaster> = (0..n)
            .map(|_| {
                let mut r = SpikeRaster::zeros(12, 5);
                for t in 0..12 {
                    for c in 0..5 {
                        if rng.coin(0.25) {
                            r.set(t, c, true);
                        }
                    }
                }
                r
            })
            .collect();
        let reference = Engine::from_network(net.clone())
            .threads(1)
            .build()
            .classify_batch(&inputs);
        for threads in [2usize, 4] {
            let preds = Engine::from_network(net.clone())
                .threads(threads)
                .build()
                .classify_batch(&inputs);
            prop_assert_eq!(&preds, &reference, "{} threads", threads);
        }
    }
}
