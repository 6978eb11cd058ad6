//! Property-based tests for the network, losses and spike utilities.

use proptest::prelude::*;
use snn_core::spike::{raster_distance, van_rossum_distance, TraceKernel};
use snn_core::train::{
    backward, backward_into, backward_sparse_into, ClassificationLoss, Gradients, PatternLoss,
    RateCrossEntropy, SparsityPolicy, VanRossumLoss,
};
use snn_core::{ActiveIndices, Network, NeuronKind, SpikeRaster};
use snn_neuron::{NeuronParams, Surrogate};
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

/// `(steps, channels, events)` with widths on both sides of the 64-bit
/// word boundaries of the packed raster.
fn packed_raster_case() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize)>)> {
    (
        0usize..21,
        prop_oneof![
            Just(1usize),
            Just(63usize),
            Just(64usize),
            Just(65usize),
            Just(700usize),
            Just(2312usize)
        ],
    )
        .prop_flat_map(|(steps, channels)| {
            proptest::collection::vec((0..steps.max(1), 0..channels), 0usize..120)
                .prop_map(move |events| (steps, channels, events))
        })
}

proptest! {
    #[test]
    fn packed_raster_matches_cellwise_reference(case in packed_raster_case()) {
        let (steps, channels, events) = case;
        let r = SpikeRaster::from_events(steps, channels, &events);

        let mut idx = ActiveIndices::new();
        idx.fill_from(&r);
        prop_assert_eq!(idx.steps(), steps);
        for t in 0..steps {
            let want: Vec<usize> = (0..channels).filter(|&c| r.get(t, c)).collect();
            prop_assert_eq!(idx.step(t), want.as_slice());
        }
        prop_assert_eq!(r.spike_count(), r.events().len());

        let back = SpikeRaster::from_json(&r.to_json()).map_err(TestCaseError::fail)?;
        prop_assert_eq!(&back, &r);
        let back = SpikeRaster::from_delta_events(steps, channels, &r.delta_events())
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(&back, &r);

        let in_range: Vec<(usize, usize)> =
            events.iter().copied().filter(|&(t, _)| t < steps).collect();
        if let Some(&(t, c)) = in_range.first() {
            let mut cleared = r.clone();
            cleared.set(t, c, false);
            prop_assert!(!cleared.get(t, c));
            prop_assert_eq!(cleared.spike_count(), r.spike_count() - 1);
        }

        // Recycle a wider, longer, fully set raster: no stale bit from
        // it may survive, padding included.
        let mut reused = SpikeRaster::zeros(steps + 3, channels + 70);
        for t in 0..steps + 3 {
            for c in 0..channels + 70 {
                reused.set(t, c, true);
            }
        }
        reused.resize_zeroed(steps, channels);
        for &(t, c) in &in_range {
            reused.set(t, c, true);
        }
        prop_assert_eq!(&reused, &r);
    }

    #[test]
    fn van_rossum_is_a_pseudometric(
        a in raster_strategy(20, 2),
        b in raster_strategy(20, 2),
        c in raster_strategy(20, 2),
    ) {
        let k = TraceKernel::paper_defaults();
        let dab = raster_distance(k, &a, &b);
        let dba = raster_distance(k, &b, &a);
        prop_assert!(dab >= 0.0);
        prop_assert!((dab - dba).abs() < 1e-5, "symmetry");
        prop_assert!(raster_distance(k, &a, &a) < 1e-9, "identity");
        // Triangle inequality holds for the underlying L2 norm of traces;
        // since D is the squared distance scaled by 1/(2T), we check it
        // on square roots.
        let dac = raster_distance(k, &a, &c);
        let dbc = raster_distance(k, &b, &c);
        prop_assert!(dac.sqrt() <= dab.sqrt() + dbc.sqrt() + 1e-4, "triangle");
    }

    #[test]
    fn van_rossum_single_spike_distance_decreases_with_proximity(
        t1 in 0usize..15, shift in 1usize..10
    ) {
        let k = TraceKernel::paper_defaults();
        let steps = 40;
        let mk = |t: usize| {
            let mut v = vec![0.0f32; steps];
            v[t] = 1.0;
            v
        };
        let near = van_rossum_distance(k, &mk(t1), &mk(t1 + 1));
        let far = van_rossum_distance(k, &mk(t1), &mk(t1 + 1 + shift));
        prop_assert!(near <= far + 1e-6);
    }

    #[test]
    fn rate_ce_loss_is_finite_and_grad_bounded(r in raster_strategy(15, 4), target in 0usize..4) {
        let output = r.to_matrix();
        let (loss, grad) = RateCrossEntropy.loss_and_grad(&output, target);
        prop_assert!(loss.is_finite() && loss >= 0.0);
        // Softmax gradient entries live in [−1, 1].
        prop_assert!(grad.as_slice().iter().all(|&g| g.abs() <= 1.0 + 1e-6));
    }

    #[test]
    fn van_rossum_loss_zero_iff_equal(r in raster_strategy(20, 3)) {
        let output = r.to_matrix();
        let (loss, grad) = VanRossumLoss::paper_default().loss_and_grad(&output, &r);
        prop_assert_eq!(loss, 0.0);
        prop_assert_eq!(grad.max_abs(), 0.0);
    }

    #[test]
    fn forward_output_is_binary_and_shaped(
        r in raster_strategy(12, 5), seed in 0u64..50
    ) {
        let mut rng = Rng::seed_from(seed);
        let net = Network::mlp(
            &[5, 7, 3],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.4),
            &mut rng,
        );
        let fwd = net.forward(&r);
        let o = fwd.output();
        prop_assert_eq!(o.shape(), (12, 3));
        prop_assert!(o.as_slice().iter().all(|&x| x == 0.0 || x == 1.0));
    }

    #[test]
    fn forward_is_causal(seed in 0u64..30, cut in 1usize..11) {
        // Changing the input after time `cut` must not change the output
        // before `cut` — the rollout is strictly causal.
        let mut rng = Rng::seed_from(seed);
        let net = Network::mlp(
            &[4, 6, 2],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.3),
            &mut rng,
        );
        let mut a = SpikeRaster::zeros(12, 4);
        for t in 0..12 {
            a.set(t, t % 4, true);
        }
        let mut b = a.clone();
        for t in cut..12 {
            for c in 0..4 {
                b.set(t, c, !b.get(t, c));
            }
        }
        let fa = net.forward(&a);
        let fb = net.forward(&b);
        for t in 0..cut {
            prop_assert_eq!(fa.output().row(t), fb.output().row(t), "diverged at t={}", t);
        }
    }

    #[test]
    fn gradients_are_finite_for_any_binary_input(
        r in raster_strategy(10, 4), seed in 0u64..20, target in 0usize..3
    ) {
        let mut rng = Rng::seed_from(seed);
        let net = Network::mlp(
            &[4, 5, 3],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.4),
            &mut rng,
        );
        let fwd = net.forward(&r);
        let (_, d_out) = RateCrossEntropy.loss_and_grad(fwd.output(), target);
        let grads = backward(&net, &fwd, &d_out, Surrogate::paper_default());
        for g in &grads.per_layer {
            prop_assert!(!g.has_non_finite());
        }
    }

    #[test]
    fn hr_swap_preserves_shape_and_binary_output(r in raster_strategy(10, 4), seed in 0u64..20) {
        let mut rng = Rng::seed_from(seed);
        let mut net = Network::mlp(
            &[4, 6, 2],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        net.set_neuron_kind(NeuronKind::HardReset);
        let o = net.forward(&r);
        prop_assert_eq!(o.output().shape(), (10, 2));
        prop_assert!(o.output().as_slice().iter().all(|&x| x == 0.0 || x == 1.0));
    }
}

/// Sparse/event-driven vs. dense-reference forward equivalence, and
/// parallel vs. sequential training determinism.
mod kernel_equivalence {
    use super::*;
    use snn_core::train::{Optimizer, Trainer, TrainerConfig};
    use snn_core::{Forward, ScratchSpace};

    fn density_raster(steps: usize, channels: usize, density: f32, seed: u64) -> SpikeRaster {
        let mut rng = Rng::seed_from(seed);
        let mut r = SpikeRaster::zeros(steps, channels);
        for t in 0..steps {
            for c in 0..channels {
                if rng.coin(density) {
                    r.set(t, c, true);
                }
            }
        }
        r
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn sparse_forward_matches_dense_reference(
            seed in 0u64..500,
            steps in 0usize..24,
            channels in 1usize..10,
            hidden in 1usize..12,
            density in prop_oneof![Just(0.0f32), Just(1.0f32), 0.02f32..0.5],
            kind_sel in 0usize..3,
        ) {
            let kind = [NeuronKind::Adaptive, NeuronKind::HardReset, NeuronKind::HardResetMatched][kind_sel];
            let mut rng = Rng::seed_from(seed);
            let net = Network::mlp(
                &[channels, hidden, 3],
                kind,
                NeuronParams::paper_defaults().with_v_th(0.5),
                &mut rng,
            );
            let input = density_raster(steps, channels, density, seed ^ 0xA5A5);
            let fast = net.forward(&input);
            let reference = net.forward_dense_reference(&input);
            prop_assert_eq!(fast.records.len(), reference.records.len());
            for (l, (f, r)) in fast.records.iter().zip(&reference.records).enumerate() {
                prop_assert_eq!(f.o.shape(), r.o.shape(), "layer {} o shape", l);
                // The event-driven drive reassociates float sums, so
                // potentials agree to tolerance...
                for (a, b) in f.v.as_slice().iter().zip(r.v.as_slice()) {
                    prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()),
                        "layer {}: v {} vs {}", l, a, b);
                }
                for (a, b) in f.pre.as_slice().iter().zip(r.pre.as_slice()) {
                    prop_assert!((a - b).abs() < 1e-4 * (1.0 + b.abs()),
                        "layer {}: pre {} vs {}", l, a, b);
                }
                // ...and the spike trains themselves match exactly.
                prop_assert_eq!(f.o.as_slice(), r.o.as_slice(), "layer {} spikes", l);
            }
        }

        #[test]
        fn forward_into_reuse_is_bit_stable(
            seed in 0u64..200, density in 0.0f32..0.6
        ) {
            // Reusing one Forward + ScratchSpace across different samples
            // must give exactly the same outputs as fresh ones.
            let mut rng = Rng::seed_from(seed);
            let net = Network::mlp(
                &[6, 9, 2],
                NeuronKind::Adaptive,
                NeuronParams::paper_defaults().with_v_th(0.4),
                &mut rng,
            );
            let mut fwd = Forward::empty();
            let mut scratch = ScratchSpace::new();
            for i in 0..4 {
                let steps = 5 + 3 * i; // shape changes between samples
                let input = density_raster(steps, 6, density, seed + i as u64);
                net.forward_into(&input, &mut fwd, &mut scratch);
                let fresh = net.forward(&input);
                prop_assert_eq!(fwd.output().as_slice(), fresh.output().as_slice());
                prop_assert_eq!(
                    fwd.records[0].v.as_slice(),
                    fresh.records[0].v.as_slice()
                );
            }
        }

        #[test]
        fn active_indices_roundtrip(r in raster_strategy(14, 5)) {
            let idx = r.active_indices();
            prop_assert_eq!(idx.steps(), r.steps());
            prop_assert_eq!(idx.nnz(), r.spike_count());
            let mut events = Vec::new();
            for t in 0..idx.steps() {
                for &c in idx.step(t) {
                    events.push((t, c));
                }
            }
            prop_assert_eq!(events, r.events());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Tentpole acceptance property: the event-driven backward pass
        /// under `Exact` is **bitwise** the dense backward pass, across
        /// random layer sizes, spike densities, sequence lengths, and
        /// all three neuron dynamics.
        #[test]
        fn sparse_backward_exact_is_bitwise_dense(
            seed in 0u64..500,
            steps in 1usize..24,
            channels in 1usize..10,
            hidden in 1usize..14,
            density in prop_oneof![Just(0.0f32), Just(1.0f32), 0.02f32..0.5],
            kind_sel in 0usize..3,
        ) {
            let kind = [NeuronKind::Adaptive, NeuronKind::HardReset, NeuronKind::HardResetMatched][kind_sel];
            let mut rng = Rng::seed_from(seed);
            let net = Network::mlp(
                &[channels, hidden, 3],
                kind,
                NeuronParams::paper_defaults().with_v_th(0.4),
                &mut rng,
            );
            let input = density_raster(steps, channels, density, seed ^ 0x5A5A);
            let mut fwd = Forward::empty();
            let mut scratch = ScratchSpace::new();
            net.forward_into(&input, &mut fwd, &mut scratch);
            let (_, d_out) = RateCrossEntropy.loss_and_grad(fwd.output(), seed as usize % 3);
            let sur = Surrogate::paper_default();

            let mut dense = Gradients::zeros_like(&net);
            backward_into(&net, &fwd, &d_out, sur, &mut dense, &mut scratch);
            let mut sparse = Gradients::zeros_like(&net);
            backward_sparse_into(
                &net, &fwd, &d_out, sur, SparsityPolicy::Exact, &mut sparse, &mut scratch,
            );
            for (l, (a, b)) in dense.per_layer.iter().zip(&sparse.per_layer).enumerate() {
                let a_bits: Vec<u32> = a.as_slice().iter().map(|x| x.to_bits()).collect();
                let b_bits: Vec<u32> = b.as_slice().iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(a_bits, b_bits, "layer {} ({:?})", l, kind);
            }
        }

        /// `Thresholded(ε)` gradients stay within an ε-derived bound of
        /// the dense gradients. Each pruned adjoint entry has magnitude
        /// ≤ ε; its direct weight-gradient contribution is ≤ ε·|pre|
        /// per timestep, and the error propagated to lower layers is
        /// amplified at most by each layer's `n_out · max|W|` fan-in
        /// (times the surrogate peak of 1) and by the geometric reset /
        /// synapse carries — all folded into the per-case bound below
        /// with a generous safety factor. The content of the property
        /// is that the drift scales **linearly in ε**.
        #[test]
        fn sparse_backward_thresholded_within_eps_bound(
            seed in 0u64..300,
            steps in 1usize..16,
            channels in 1usize..8,
            hidden in 1usize..10,
            density in 0.05f32..0.5,
            eps_exp in 4u32..7, // ε ∈ {1e-4, 1e-5, 1e-6}
            kind_sel in 0usize..3,
        ) {
            let kind = [NeuronKind::Adaptive, NeuronKind::HardReset, NeuronKind::HardResetMatched][kind_sel];
            let eps = 10f32.powi(-(eps_exp as i32));
            let mut rng = Rng::seed_from(seed);
            let net = Network::mlp(
                &[channels, hidden, 3],
                kind,
                NeuronParams::paper_defaults().with_v_th(0.4),
                &mut rng,
            );
            let input = density_raster(steps, channels, density, seed ^ 0xC3C3);
            let mut fwd = Forward::empty();
            let mut scratch = ScratchSpace::new();
            net.forward_into(&input, &mut fwd, &mut scratch);
            let (_, d_out) = RateCrossEntropy.loss_and_grad(fwd.output(), seed as usize % 3);
            let sur = Surrogate::paper_default();

            let mut dense = Gradients::zeros_like(&net);
            backward_into(&net, &fwd, &d_out, sur, &mut dense, &mut scratch);
            let mut sparse = Gradients::zeros_like(&net);
            backward_sparse_into(
                &net, &fwd, &d_out, sur, SparsityPolicy::Thresholded(eps),
                &mut sparse, &mut scratch,
            );

            // ε-derived bound: pruned volume × presynaptic magnitude ×
            // cross-layer amplification × temporal-carry amplification.
            let max_pre = fwd
                .records
                .iter()
                .map(|r| r.pre.max_abs())
                .fold(0.0f32, f32::max);
            let cross_layer: f32 = net
                .layers()
                .iter()
                .map(|l| 1.0 + l.n_out() as f32 * l.weights().max_abs())
                .product();
            let p = NeuronParams::paper_defaults();
            let carry = 1.0
                + p.theta / (1.0 - p.reset_decay())
                + 1.0 / (1.0 - p.synapse_decay());
            let volume = (steps * (hidden + 3)) as f32;
            let bound = eps * volume * (1.0 + max_pre) * cross_layer * carry * 10.0;

            for (l, (a, b)) in dense.per_layer.iter().zip(&sparse.per_layer).enumerate() {
                let mut diff = 0.0f32;
                for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                    diff = diff.max((x - y).abs());
                }
                prop_assert!(
                    diff <= bound,
                    "layer {} ({:?}): drift {} exceeds eps-derived bound {} (eps {})",
                    l, kind, diff, bound, eps
                );
            }
        }
    }

    proptest! {
        // Training runs several epochs per case; keep the count modest.
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Epoch gradients are bitwise identical across 1/2/4 trainer
        /// threads under **every** sparsity policy (fixed-chunk
        /// partition + in-order tree reduction is policy-independent).
        #[test]
        fn epoch_is_thread_invariant_for_every_sparsity_policy(
            seed in 0u64..50,
            policy_sel in 0usize..3,
        ) {
            let policy = [
                SparsityPolicy::Exact,
                SparsityPolicy::Thresholded(1e-5),
                SparsityPolicy::Auto,
            ][policy_sel];
            let data: Vec<(SpikeRaster, usize)> = (0..24)
                .map(|i| (density_raster(10, 5, 0.2, seed * 777 + i as u64), i % 3))
                .collect();
            let mut final_weights: Vec<Vec<Vec<f32>>> = Vec::new();
            for threads in [1usize, 2, 4] {
                let mut rng = Rng::seed_from(seed);
                let mut net = Network::mlp(
                    &[5, 8, 3],
                    NeuronKind::Adaptive,
                    NeuronParams::paper_defaults().with_v_th(0.4),
                    &mut rng,
                );
                let mut trainer = Trainer::new(
                    TrainerConfig {
                        batch_size: 10,
                        optimizer: Optimizer::adam(0.01),
                        ..TrainerConfig::default()
                    }
                    .with_threads(threads)
                    .with_sparsity(policy),
                );
                for _ in 0..2 {
                    trainer.epoch_classification(&mut net, &data, &RateCrossEntropy);
                }
                final_weights.push(
                    net.layers().iter().map(|l| l.weights().as_slice().to_vec()).collect(),
                );
            }
            prop_assert_eq!(&final_weights[0], &final_weights[1], "{:?}: 1 vs 2 threads", policy);
            prop_assert_eq!(&final_weights[0], &final_weights[2], "{:?}: 1 vs 4 threads", policy);
        }

        #[test]
        fn parallel_epoch_gradients_match_sequential_bitwise(
            seed in 0u64..100,
            samples in 9usize..40,
            batch in 1usize..40,
            lr_sel in 0usize..2,
        ) {
            let data: Vec<(SpikeRaster, usize)> = (0..samples)
                .map(|i| (density_raster(10, 5, 0.2, seed * 1000 + i as u64), i % 3))
                .collect();
            let optimizer = [Optimizer::adam(0.01), Optimizer::sgd_momentum(0.05, 0.9)][lr_sel].clone();
            let mut final_weights: Vec<Vec<Vec<f32>>> = Vec::new();
            for threads in [1usize, 2, 4] {
                let mut rng = Rng::seed_from(seed);
                let mut net = Network::mlp(
                    &[5, 8, 3],
                    NeuronKind::Adaptive,
                    NeuronParams::paper_defaults().with_v_th(0.4),
                    &mut rng,
                );
                let mut trainer = Trainer::new(TrainerConfig {
                    batch_size: batch,
                    optimizer: optimizer.clone(),
                    ..TrainerConfig::default()
                }.with_threads(threads));
                for _ in 0..2 {
                    trainer.epoch_classification(&mut net, &data, &RateCrossEntropy);
                }
                final_weights.push(
                    net.layers().iter().map(|l| l.weights().as_slice().to_vec()).collect(),
                );
            }
            prop_assert_eq!(&final_weights[0], &final_weights[1], "1 vs 2 threads");
            prop_assert_eq!(&final_weights[0], &final_weights[2], "1 vs 4 threads");
        }
    }
}
