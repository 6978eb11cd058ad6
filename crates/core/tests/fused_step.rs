//! Property tests for the fused timestep kernels.
//!
//! The fused per-timestep pass (`kernels::fused_decay_accumulate` + the
//! fused membrane kernels) replaced the unfused multi-pass loops in
//! `DenseLayer`. The contract is **bitwise** equivalence: fusing changes
//! traversal and memory traffic, never the per-element arithmetic or its
//! order. These tests pin that contract against a naive, scalar,
//! unfused reference rollout across all three neuron kinds, a density
//! grid, and randomized sequence lengths — plus scalar-fallback vs
//! lane-path agreement and repeated-run determinism.

use snn_core::{
    ActiveIndices, DenseLayer, LayerRecord, LayerScratch, Network, NeuronKind, SpikeRaster,
};
use snn_neuron::NeuronParams;
use snn_tensor::{kernels, Matrix, Rng};

const KINDS: [NeuronKind; 3] = [
    NeuronKind::Adaptive,
    NeuronKind::HardReset,
    NeuronKind::HardResetMatched,
];

fn random_active(t_steps: usize, n_in: usize, density: f32, rng: &mut Rng) -> ActiveIndices {
    let mut raster = SpikeRaster::zeros(t_steps, n_in);
    for t in 0..t_steps {
        for c in 0..n_in {
            if rng.coin(density) {
                raster.set(t, c, true);
            }
        }
    }
    let mut active = ActiveIndices::new();
    active.fill_from(&raster);
    active
}

/// Unfused scalar reference: the pre-refactor multi-pass rollout,
/// written with naive loops (separate decay pass, per-column
/// accumulation pass in active order, separate membrane/threshold/record
/// pass). Every per-element operation and its order matches the fused
/// path, so the comparison below is exact.
fn reference_rollout(
    layer: &DenseLayer,
    active_in: &ActiveIndices,
) -> (LayerRecord, ActiveIndices) {
    let t_steps = active_in.steps();
    let (n_in, n_out) = (layer.n_in(), layer.n_out());
    let w = layer.weights();
    let params = layer.params();
    let mut rec = LayerRecord::empty();
    rec.resize_zeroed(t_steps, n_in, n_out);
    let mut active_out = ActiveIndices::new();

    match layer.kind() {
        NeuronKind::Adaptive => {
            let alpha = params.synapse_decay();
            let beta = params.reset_decay();
            let (theta, v_th) = (params.theta, params.v_th);
            let mut k = vec![0.0f32; n_in];
            let mut h = vec![0.0f32; n_out];
            let mut g = vec![0.0f32; n_out];
            let mut prev_fired: Vec<usize> = Vec::new();
            for t in 0..t_steps {
                let active = active_in.step(t);
                for kj in k.iter_mut() {
                    *kj *= alpha;
                }
                for &j in active {
                    k[j] += 1.0;
                }
                rec.pre.row_mut(t).copy_from_slice(&k);
                for gi in g.iter_mut() {
                    *gi *= alpha;
                }
                for &c in active {
                    for (gi, wi) in g.iter_mut().zip(column(w, c)) {
                        *gi += wi;
                    }
                }
                for hi in h.iter_mut() {
                    *hi *= beta;
                }
                for &i in &prev_fired {
                    h[i] += 1.0;
                }
                prev_fired.clear();
                for i in 0..n_out {
                    let vi = g[i] - theta * h[i];
                    rec.v.row_mut(t)[i] = vi;
                    if vi >= v_th {
                        rec.o.row_mut(t)[i] = 1.0;
                        active_out.push(i);
                        prev_fired.push(i);
                    }
                }
                active_out.end_step();
            }
        }
        NeuronKind::HardReset | NeuronKind::HardResetMatched => {
            let lambda = params.synapse_decay();
            let gain = layer.kind().input_gain(&params);
            let v_th = params.v_th;
            let mut vm = vec![0.0f32; n_out];
            let mut current = vec![0.0f32; n_out];
            for t in 0..t_steps {
                let active = active_in.step(t);
                for &j in active {
                    rec.pre.row_mut(t)[j] = 1.0;
                }
                current.fill(0.0);
                for &c in active {
                    for (ci, wi) in current.iter_mut().zip(column(w, c)) {
                        *ci += wi;
                    }
                }
                for i in 0..n_out {
                    let vi = lambda * vm[i] + gain * current[i];
                    rec.v.row_mut(t)[i] = vi;
                    if vi >= v_th {
                        rec.o.row_mut(t)[i] = 1.0;
                        active_out.push(i);
                        vm[i] = 0.0;
                    } else {
                        vm[i] = vi;
                    }
                }
                active_out.end_step();
            }
        }
    }
    (rec, active_out)
}

/// Column `c` of a row-major matrix as an owned vector.
fn column(w: &Matrix, c: usize) -> Vec<f32> {
    (0..w.rows()).map(|r| w[(r, c)]).collect()
}

fn assert_bitwise_eq(a: &Matrix, b: &Matrix, what: &str, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{what} shape ({ctx})");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} bits ({ctx})");
    }
}

#[test]
fn fused_rollout_matches_unfused_reference_bitwise() {
    let mut rng = Rng::seed_from(20260808);
    for kind in KINDS {
        for density in [0.01f32, 0.05, 0.20] {
            // Randomized sequence length per (kind, density) case.
            let t_steps = 3 + rng.below(45);
            let (n_in, n_out) = (37, 23); // ragged widths: lane tails exercised
            let layer =
                DenseLayer::new(n_in, n_out, kind, NeuronParams::paper_defaults(), &mut rng);
            let active_in = random_active(t_steps, n_in, density, &mut rng);
            let ctx = format!("{kind:?} density {density} T {t_steps}");

            let mut rec = LayerRecord::empty();
            let mut scratch = LayerScratch::default();
            let mut active_out = ActiveIndices::new();
            layer.forward_steps(&active_in, &mut rec, &mut scratch, &mut active_out);

            let (rec_ref, active_ref) = reference_rollout(&layer, &active_in);
            assert_bitwise_eq(&rec.pre, &rec_ref.pre, "pre", &ctx);
            assert_bitwise_eq(&rec.v, &rec_ref.v, "v", &ctx);
            assert_bitwise_eq(&rec.o, &rec_ref.o, "o", &ctx);
            assert_eq!(active_out, active_ref, "active_out ({ctx})");
        }
    }
}

#[test]
fn tall_layer_crosses_block_boundary_bitwise() {
    // An output wider than one BLOCK_ROWS tile forces the cache-blocked
    // accumulation through the multi-tile path.
    let mut rng = Rng::seed_from(41);
    let n_out = kernels::BLOCK_ROWS + 199;
    let layer = DenseLayer::new(
        16,
        n_out,
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults(),
        &mut rng,
    );
    let active_in = random_active(7, 16, 0.25, &mut rng);
    let mut rec = LayerRecord::empty();
    let mut scratch = LayerScratch::default();
    let mut active_out = ActiveIndices::new();
    layer.forward_steps(&active_in, &mut rec, &mut scratch, &mut active_out);
    let (rec_ref, active_ref) = reference_rollout(&layer, &active_in);
    assert_bitwise_eq(&rec.v, &rec_ref.v, "v", "tall layer");
    assert_eq!(active_out, active_ref);
}

#[test]
fn scalar_fallback_agrees_with_lane_path_bitwise() {
    // The refactor's tolerance budget was "within 1 ULP"; the no-FMA
    // design makes the paths exactly equal, so assert the stronger
    // bitwise property. (Safe even though tests share the process-wide
    // dispatch flag: both paths produce identical bits, so concurrent
    // tests cannot observe the toggle.)
    let mut rng = Rng::seed_from(99);
    for kind in KINDS {
        let layer = DenseLayer::new(64, 48, kind, NeuronParams::paper_defaults(), &mut rng);
        let active_in = random_active(20, 64, 0.1, &mut rng);

        let mut rec_lane = LayerRecord::empty();
        let mut scratch = LayerScratch::default();
        let mut out_lane = ActiveIndices::new();
        layer.forward_steps(&active_in, &mut rec_lane, &mut scratch, &mut out_lane);

        kernels::set_force_scalar(true);
        let mut rec_scalar = LayerRecord::empty();
        let mut out_scalar = ActiveIndices::new();
        layer.forward_steps(&active_in, &mut rec_scalar, &mut scratch, &mut out_scalar);
        kernels::set_force_scalar(false);

        let ctx = format!("{kind:?}");
        assert_bitwise_eq(&rec_lane.pre, &rec_scalar.pre, "pre", &ctx);
        assert_bitwise_eq(&rec_lane.v, &rec_scalar.v, "v", &ctx);
        assert_bitwise_eq(&rec_lane.o, &rec_scalar.o, "o", &ctx);
        assert_eq!(out_lane, out_scalar, "{ctx}");
    }
}

#[test]
fn repeated_rollouts_are_bitwise_deterministic() {
    let mut rng = Rng::seed_from(7);
    for kind in KINDS {
        let layer = DenseLayer::new(30, 30, kind, NeuronParams::paper_defaults(), &mut rng);
        let active_in = random_active(15, 30, 0.15, &mut rng);
        let mut first: Option<LayerRecord> = None;
        for _ in 0..5 {
            let mut rec = LayerRecord::empty();
            let mut scratch = LayerScratch::default();
            let mut active_out = ActiveIndices::new();
            layer.forward_steps(&active_in, &mut rec, &mut scratch, &mut active_out);
            match &first {
                None => first = Some(rec),
                Some(f) => {
                    assert_bitwise_eq(&f.v, &rec.v, "v", &format!("{kind:?} repeat"));
                    assert_bitwise_eq(&f.o, &rec.o, "o", &format!("{kind:?} repeat"));
                }
            }
        }
    }
}

/// Dense reference rollout of one layer, written out: a `decay_axpy`
/// synapse trace, a full `matvec_into` product, and a reset trace that
/// is only scaled at `t = 0` and charged with the previous output row
/// after. This pins `Network::forward_dense_reference` to that
/// arithmetic bit for bit, however the crate structures its timestep.
fn dense_reference_layer(layer: &DenseLayer, input: &Matrix) -> LayerRecord {
    let (t_steps, n_in, n_out) = (input.rows(), layer.n_in(), layer.n_out());
    let p = layer.params();
    let (alpha, beta) = (p.synapse_decay(), p.reset_decay());
    let gain = layer.kind().input_gain(&p);
    let adaptive = layer.kind() == NeuronKind::Adaptive;
    let mut rec = LayerRecord::empty();
    rec.resize_zeroed(t_steps, n_in, n_out);
    let mut k = vec![0.0f32; n_in];
    // `h`: the reset trace (adaptive) or the membrane (hard reset).
    let (mut h, mut drive) = (vec![0.0f32; n_out], vec![0.0f32; n_out]);
    for t in 0..t_steps {
        if adaptive {
            kernels::decay_axpy(1.0, input.row(t), alpha, &mut k);
            rec.pre.row_mut(t).copy_from_slice(&k);
            layer.weights().matvec_into(&k, &mut drive);
            if t > 0 {
                let prev = rec.o.row(t - 1).to_vec();
                kernels::decay_axpy(1.0, &prev, beta, &mut h);
            } else {
                kernels::scale(beta, &mut h);
            }
        } else {
            rec.pre.row_mut(t).copy_from_slice(input.row(t));
            layer.weights().matvec_into(input.row(t), &mut drive);
        }
        for i in 0..n_out {
            let vi = if adaptive {
                drive[i] - p.theta * h[i]
            } else {
                alpha * h[i] + gain * drive[i]
            };
            let fire = vi >= p.v_th;
            rec.v.row_mut(t)[i] = vi;
            rec.o.row_mut(t)[i] = if fire { 1.0 } else { 0.0 };
            if !adaptive {
                h[i] = if fire { 0.0 } else { vi };
            }
        }
    }
    rec
}

#[test]
fn dense_reference_is_pinned_bitwise() {
    let mut rng = Rng::seed_from(5150);
    let mut spikes = 0usize;
    for kind in KINDS {
        for density in [0.05f32, 0.3] {
            let t_steps = 4 + rng.below(30);
            let net = Network::mlp(
                &[37, 23, 11],
                kind,
                NeuronParams::paper_defaults().with_v_th(0.4),
                &mut rng,
            );
            let mut raster = SpikeRaster::zeros(t_steps, 37);
            for t in 0..t_steps {
                for c in 0..37 {
                    if rng.coin(density) {
                        raster.set(t, c, true);
                    }
                }
            }
            let fwd = net.forward_dense_reference(&raster);
            let mut x = raster.to_matrix();
            for (l, layer) in net.layers().iter().enumerate() {
                let want = dense_reference_layer(layer, &x);
                let got = &fwd.records[l];
                let ctx = format!("{kind:?} density {density} T {t_steps} layer {l}");
                assert_bitwise_eq(&got.pre, &want.pre, "pre", &ctx);
                assert_bitwise_eq(&got.v, &want.v, "v", &ctx);
                assert_bitwise_eq(&got.o, &want.o, "o", &ctx);
                spikes += want.o.as_slice().iter().filter(|&&o| o != 0.0).count();
                x = want.o;
            }
        }
    }
    assert!(spikes > 0, "the pinned rollouts must fire");
}
