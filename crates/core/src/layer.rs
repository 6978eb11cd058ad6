//! Dense spiking layer: synapse filter bank + weight matrix + neuron
//! nonlinearity, with full state caching for BPTT.

use crate::scratch::LayerScratch;
use crate::spike::ActiveIndices;
use snn_neuron::NeuronParams;
use snn_tensor::kernels::{self, ColMajor};
use snn_tensor::{Matrix, Rng};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

/// Where a timestep's synaptic drive comes from. The neuron dynamics
/// are the same under both; only the weighted input sum differs, in the
/// order of its floating-point reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Event-driven: the weight columns the step's input spikes select,
    /// summed over the column-major mirror
    /// (`kernels::fused_decay_accumulate`). The production path.
    Events,
    /// Dense: a full matrix–vector product with the synapse trace or the
    /// 0/1 input row (`Matrix::matvec_into`). The reference path.
    Dense,
}

/// Which neuron dynamics a layer uses.
///
/// * [`NeuronKind::Adaptive`] — the paper's filter-based model
///   (eqs. 6–12): per-input synapse filters `k[t]`, crossbar product
///   `g = W·k`, adaptive threshold via the reset trace `h[t]`.
/// * [`NeuronKind::HardReset`] — the conventional ODE LIF exactly as
///   defined by paper eq. 1: `τ·dv/dt = −v + Σwᵢxᵢ`, hard reset on
///   firing. Discretised exactly (zero-order hold), the input enters
///   with gain `1 − e^{−1/τ}` — the ODE's impulse response is
///   `(1/τ)e^{−t/τ}`, τ-fold weaker than the SRM kernel `e^{−t/τ}` the
///   adaptive model (and the trained weights) use. This is the model the
///   Table II "HR" rows swap in, and the gain mismatch is part of why
///   the swap is destructive.
/// * [`NeuronKind::HardResetMatched`] — a diagnostic variant with unit
///   input gain, isolating the effect of the reset itself from the gain
///   mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeuronKind {
    /// Filter-based adaptive-threshold LIF (the paper's model).
    Adaptive,
    /// Hard-reset ODE LIF exactly per eq. 1 (input gain `1 − e^{−1/τ}`).
    HardReset,
    /// Hard-reset LIF with input gain matched to the SRM kernel (1).
    HardResetMatched,
}

impl NeuronKind {
    /// The input gain this dynamics applies to the weighted spike drive.
    pub fn input_gain(&self, params: &NeuronParams) -> f32 {
        match self {
            NeuronKind::Adaptive | NeuronKind::HardResetMatched => 1.0,
            NeuronKind::HardReset => 1.0 - params.synapse_decay(),
        }
    }
}

/// Per-layer forward cache for one input sample: everything BPTT needs.
///
/// All matrices are `T × width` (row per timestep).
#[derive(Debug, Clone)]
pub struct LayerRecord {
    /// Filtered presynaptic trace `k[t]` (adaptive) or raw input spikes
    /// (hard reset); `T × n_in`.
    pub pre: Matrix,
    /// Membrane potential `v[t] = g[t] − ϑ·h[t]` (adaptive) or the
    /// pre-reset potential (hard reset); `T × n_out`.
    pub v: Matrix,
    /// Output spikes `O[t]`; `T × n_out`.
    pub o: Matrix,
}

impl LayerRecord {
    /// An empty record, ready to be filled by a `forward_into` call.
    pub fn empty() -> Self {
        Self {
            pre: Matrix::zeros(0, 0),
            v: Matrix::zeros(0, 0),
            o: Matrix::zeros(0, 0),
        }
    }

    /// Number of timesteps recorded.
    pub fn steps(&self) -> usize {
        self.v.rows()
    }

    /// Reshapes the cache for a `t_steps`-long rollout of an
    /// `n_in → n_out` layer, zero-filled, reusing the buffers.
    pub fn resize_zeroed(&mut self, t_steps: usize, n_in: usize, n_out: usize) {
        self.pre.resize_zeroed(t_steps, n_in);
        self.v.resize_zeroed(t_steps, n_out);
        self.o.resize_zeroed(t_steps, n_out);
    }
}

/// A dense spiking layer (`n_out × n_in` weights plus neuron dynamics).
///
/// # Examples
///
/// ```
/// use snn_core::{DenseLayer, NeuronKind};
/// use snn_neuron::NeuronParams;
/// use snn_tensor::Rng;
///
/// let mut rng = Rng::seed_from(1);
/// let layer = DenseLayer::new(3, 2, NeuronKind::Adaptive,
///                             NeuronParams::paper_defaults(), &mut rng);
/// assert_eq!(layer.weights().shape(), (2, 3));
/// ```
#[derive(Debug)]
pub struct DenseLayer {
    weights: Matrix,
    /// Epoch counter bumped by every [`weights_mut`](Self::weights_mut)
    /// call. The kernel mirror records which epoch it was built from, so
    /// staleness is a cheap integer comparison — no caller ever has to
    /// remember a manual `sync_caches()` call.
    weights_epoch: u64,
    /// Column-major mirror of `weights` for event-driven products with
    /// binary spike vectors (sum of active columns), tagged with the
    /// weight epoch it was built from. Rebuilt **lazily** under a write
    /// lock by the next forward pass that finds it stale; shared-read
    /// afterwards, so concurrent evaluation threads never block each
    /// other on the hot path.
    mirror: RwLock<Mirror>,
    kind: NeuronKind,
    params: NeuronParams,
}

/// The lazily-maintained kernel cache: a column-major weight mirror plus
/// the weight epoch it reflects.
#[derive(Debug)]
struct Mirror {
    epoch: u64,
    cols: ColMajor,
}

impl Clone for DenseLayer {
    fn clone(&self) -> Self {
        // The clone rebuilds a fresh mirror from the current weights and
        // restarts at epoch 0 (RwLock is not Clone, and copying a
        // possibly-stale mirror would buy nothing).
        Self::from_weights(self.weights.clone(), self.kind, self.params)
    }
}

impl DenseLayer {
    /// Creates a layer with Xavier-uniform weights.
    pub fn new(
        n_in: usize,
        n_out: usize,
        kind: NeuronKind,
        params: NeuronParams,
        rng: &mut Rng,
    ) -> Self {
        Self::from_weights(Matrix::xavier_uniform(n_out, n_in, rng), kind, params)
    }

    /// Creates a layer from an explicit weight matrix.
    pub fn from_weights(weights: Matrix, kind: NeuronKind, params: NeuronParams) -> Self {
        let cols = ColMajor::from_matrix(&weights);
        Self {
            weights,
            weights_epoch: 0,
            mirror: RwLock::new(Mirror { epoch: 0, cols }),
            kind,
            params,
        }
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        self.weights.cols()
    }

    /// Output width (population size).
    pub fn n_out(&self) -> usize {
        self.weights.rows()
    }

    /// The weight matrix (`n_out × n_in`).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutable access to the weights (used by optimizers and by the
    /// hardware deployment pipeline's quantization).
    ///
    /// Bumps the weight epoch, invalidating the column-major kernel
    /// cache. No follow-up call is required: the next forward pass
    /// notices the stale epoch and rebuilds the mirror lazily, so direct
    /// weight mutation can never silently degrade the event-driven fast
    /// path.
    pub fn weights_mut(&mut self) -> &mut Matrix {
        self.weights_epoch = self.weights_epoch.wrapping_add(1);
        &mut self.weights
    }

    /// Eagerly rebuilds the column-major mirror if it is stale.
    ///
    /// Never required for correctness or speed — the forward pass
    /// rebuilds lazily — but useful to move the (one-off) rebuild cost
    /// out of a timed or latency-sensitive region.
    pub fn refresh_cache(&self) {
        drop(self.fresh_mirror());
    }

    /// Whether the event-driven kernel cache currently matches the
    /// weights (diagnostic only; a stale cache is rebuilt on next use).
    pub fn cache_is_fresh(&self) -> bool {
        self.read_mirror().epoch == self.weights_epoch
    }

    fn read_mirror(&self) -> RwLockReadGuard<'_, Mirror> {
        self.mirror.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns a read guard over an up-to-date mirror, rebuilding it
    /// first (under the write lock) if a weight mutation outdated it.
    ///
    /// `weights_epoch` only changes through `&mut self`, so while any
    /// `&self` borrow exists the target epoch is pinned and the
    /// double-checked locking below cannot race with a mutation.
    fn fresh_mirror(&self) -> RwLockReadGuard<'_, Mirror> {
        let epoch = self.weights_epoch;
        {
            let guard = self.read_mirror();
            if guard.epoch == epoch {
                return guard;
            }
        }
        {
            let mut guard = self.mirror.write().unwrap_or_else(PoisonError::into_inner);
            if guard.epoch != epoch {
                guard.cols.refresh_from(&self.weights);
                guard.epoch = epoch;
            }
        }
        self.read_mirror()
    }

    /// The neuron dynamics this layer uses.
    pub fn kind(&self) -> NeuronKind {
        self.kind
    }

    /// Swaps the neuron dynamics while keeping the trained weights —
    /// exactly the Table II "HR" experiment.
    pub fn set_kind(&mut self, kind: NeuronKind) {
        self.kind = kind;
    }

    /// Neuron hyper-parameters.
    pub fn params(&self) -> NeuronParams {
        self.params
    }

    /// Dense reference rollout over a `T × n_in` binary spike matrix
    /// (nonzero entries are spikes), returning the full cache. State
    /// starts from zero (independent sample) and is never cleared
    /// mid-sequence.
    ///
    /// The same timestep as [`forward_steps`](Self::forward_steps), fed
    /// by the [`Drive::Dense`] matrix–vector product instead of the
    /// event-driven column sums.
    ///
    /// # Panics
    ///
    /// Panics if `input.cols() != n_in`.
    pub fn forward(&self, input: &Matrix) -> LayerRecord {
        assert_eq!(
            input.cols(),
            self.n_in(),
            "layer expects {} inputs, got {}",
            self.n_in(),
            input.cols()
        );
        let mut active_in = ActiveIndices::new();
        for t in 0..input.rows() {
            for (c, &x) in input.row(t).iter().enumerate() {
                if x != 0.0 {
                    active_in.push(c);
                }
            }
            active_in.end_step();
        }
        let mut rec = LayerRecord::empty();
        self.rollout(
            Drive::Dense,
            &active_in,
            &mut rec,
            &mut LayerScratch::default(),
            &mut ActiveIndices::new(),
        );
        rec
    }

    /// Event-driven rollout over per-step active-input lists — the hot
    /// path of training and inference.
    ///
    /// Because layer inputs are **binary** spike vectors, the weighted
    /// drive factors as `W·k[t] = α·(W·k[t−1]) + W·x[t]`, and `W·x[t]`
    /// is just the sum of the weight columns selected by `x[t]`'s active
    /// indices. Each timestep therefore costs
    /// `O(n_in + n_out + n_out·nnz(x[t]))` instead of the dense
    /// `O(n_out·n_in)`. The incremental recurrence is algebraically
    /// identical to the dense rollout ([`forward`](Self::forward)); it
    /// reassociates floating-point sums, so potentials may differ from
    /// the dense reference by a few ULPs.
    ///
    /// `rec` and the buffers in `scratch` are resized and re-initialised
    /// here; `active_out` receives the output spike lists (consumable as
    /// the next layer's `active_in`). If a weight mutation left the
    /// kernel cache stale (see [`weights_mut`](Self::weights_mut)) it is
    /// rebuilt here, once, before the rollout starts.
    pub fn forward_steps(
        &self,
        active_in: &ActiveIndices,
        rec: &mut LayerRecord,
        scratch: &mut LayerScratch,
        active_out: &mut ActiveIndices,
    ) {
        self.rollout(Drive::Events, active_in, rec, scratch, active_out);
    }

    /// The batch rollout under either drive: a loop of recorded
    /// timesteps from zero state.
    pub(crate) fn rollout(
        &self,
        drive: Drive,
        active_in: &ActiveIndices,
        rec: &mut LayerRecord,
        scratch: &mut LayerScratch,
        active_out: &mut ActiveIndices,
    ) {
        let t_steps = active_in.steps();
        let (n_in, n_out) = (self.n_in(), self.n_out());
        rec.resize_zeroed(t_steps, n_in, n_out);
        scratch.ensure(n_in, n_out);
        active_out.clear();
        let mirror = self.mirror_for(drive);
        let cols = mirror.as_ref().map(|m| &m.cols);
        let constants = self.step_constants();
        for t in 0..t_steps {
            self.step_with(
                constants,
                cols,
                active_in.step(t),
                scratch,
                Some((rec.pre.row_mut(t), rec.v.row_mut(t), rec.o.row_mut(t))),
            );
            active_out.push_step(&scratch.fired);
        }
    }

    /// One timestep over **carried** state — the streaming form of the
    /// rollouts, and the same timestep they loop over minus the BPTT
    /// record writes (which feed no dynamics). A step-at-a-time rollout
    /// over a stream of chunks is therefore **bitwise identical** to the
    /// batch rollout under the same `drive` over the concatenated
    /// raster.
    ///
    /// `active` lists this step's input spike channels (ascending), and
    /// `scratch` carries the layer state across calls — the caller owns
    /// it, sizes it for this layer before the first step, and never
    /// resizes it mid-stream. Afterwards `scratch.fired` holds this
    /// step's output spikes (ascending).
    pub fn step(&self, drive: Drive, active: &[usize], scratch: &mut LayerScratch) {
        let mirror = self.mirror_for(drive);
        let cols = mirror.as_ref().map(|m| &m.cols);
        self.step_with(self.step_constants(), cols, active, scratch, None);
    }

    /// The event-driven drive reads the column-major mirror; the dense
    /// drive reads `weights` directly and leaves the mirror alone.
    fn mirror_for(&self, drive: Drive) -> Option<RwLockReadGuard<'_, Mirror>> {
        match drive {
            Drive::Events => Some(self.fresh_mirror()),
            Drive::Dense => None,
        }
    }

    /// The constants of this layer's dynamics — synapse decay, reset
    /// decay and input gain — resolved once per rollout, not per step
    /// (each decay is an `exp`).
    fn step_constants(&self) -> (f32, f32, f32) {
        let p = &self.params;
        (p.synapse_decay(), p.reset_decay(), self.kind.input_gain(p))
    }

    /// The single definition of a timestep, per neuron kind. `cols` is
    /// the [`Drive::Events`] column mirror, or `None` for the
    /// [`Drive::Dense`] product. `rec` holds this step's `(pre, v, o)`
    /// BPTT record rows, zero-filled. Always inlined, so the rollout
    /// loop and the streaming step each get a copy specialised for
    /// whether they record. The rollouts themselves are left to the
    /// compiler: forcing them inline as well measured slower.
    #[inline(always)]
    fn step_with(
        &self,
        (alpha, beta, gain): (f32, f32, f32),
        cols: Option<&ColMajor>,
        active: &[usize],
        scratch: &mut LayerScratch,
        rec: Option<(&mut [f32], &mut [f32], &mut [f32])>,
    ) {
        let LayerScratch {
            trace_in,
            trace_out,
            drive,
            fired,
            prev_fired,
        } = scratch;
        std::mem::swap(fired, prev_fired);
        let (pre, vrow, orow) = match rec {
            Some((pre, v, o)) => (Some(pre), Some(v), Some(o)),
            None => (None, None, None),
        };
        let p = &self.params;
        match self.kind {
            NeuronKind::Adaptive => {
                // eq. 9: the synapse trace k, read by the dense product
                // and the record only
                if cols.is_none() || pre.is_some() {
                    kernels::decay_add_unit(alpha, trace_in, active);
                }
                if let Some(pre) = pre {
                    pre.copy_from_slice(trace_in);
                }
                match cols {
                    // g[t] = α·g[t−1] + Σ active columns (eq. 7, factored)
                    Some(cols) => kernels::fused_decay_accumulate(alpha, cols, active, drive),
                    // g[t] = W·k[t] (eq. 7)
                    None => self.weights.matvec_into(trace_in, drive),
                }
                // eq. 8: decay + last step's spikes charge h
                kernels::decay_add_unit(beta, trace_out, prev_fired);
                // eqs. 6 + 10: membrane, threshold, and record writes fused
                kernels::fused_adaptive_membrane(
                    p.theta,
                    p.v_th,
                    drive,
                    trace_out,
                    vrow,
                    orow,
                    Some(fired),
                );
            }
            NeuronKind::HardReset | NeuronKind::HardResetMatched => {
                if let Some(pre) = pre {
                    for &j in active {
                        pre[j] = 1.0;
                    }
                }
                match cols {
                    // `W·x[t]` from scratch each step: the alpha = 0 case
                    // of the fused kernel is an exact clear + accumulation
                    Some(cols) => kernels::fused_decay_accumulate(0.0, cols, active, drive),
                    // stage the 0/1 row in `trace_in`, unused by this kind
                    None => {
                        trace_in.fill(0.0);
                        for &j in active {
                            trace_in[j] = 1.0;
                        }
                        self.weights.matvec_into(trace_in, drive);
                    }
                }
                // eq. 1b: membrane decay + threshold + hard reset + record
                // writes in one sweep (the v row caches the pre-reset
                // potential)
                kernels::fused_hard_reset_membrane(
                    alpha,
                    gain,
                    p.v_th,
                    drive,
                    trace_out,
                    vrow,
                    orow,
                    Some(fired),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_neuron::{AdaptiveThresholdNeuron, ExpFilter, HardResetNeuron};

    fn spikes(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(rows)
    }

    #[test]
    fn adaptive_layer_matches_neuron_crate_dynamics() {
        // The layer's fused rollout must agree with composing the
        // snn-neuron building blocks by hand.
        let params = NeuronParams::paper_defaults();
        let mut rng = Rng::seed_from(42);
        let layer = DenseLayer::new(3, 2, NeuronKind::Adaptive, params, &mut rng);

        let input = spikes(&[
            &[1.0, 0.0, 1.0],
            &[0.0, 1.0, 0.0],
            &[1.0, 1.0, 1.0],
            &[0.0, 0.0, 0.0],
            &[1.0, 0.0, 0.0],
        ]);
        let rec = layer.forward(&input);

        let mut filt = ExpFilter::new(3, params.synapse_decay());
        let mut neuron = AdaptiveThresholdNeuron::new(2, params);
        for t in 0..input.rows() {
            let k = filt.step(input.row(t)).to_vec();
            let g = layer.weights().matvec(&k);
            // The layer compares v >= Vth where v = g − θh; the neuron crate
            // compares g > Vth + θh. Equality-at-threshold differs only on a
            // measure-zero set; random weights keep us off it.
            let out = neuron.step(&g);
            for i in 0..2 {
                assert_eq!(
                    rec.o.row(t)[i] != 0.0,
                    out[i],
                    "mismatch at t={t}, neuron {i}"
                );
            }
            for (a, b) in rec.pre.row(t).iter().zip(&k) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn hard_reset_matched_layer_matches_neuron_crate() {
        // The snn-neuron HardResetNeuron integrates its input directly
        // (unit gain), so compare against the gain-matched variant.
        let params = NeuronParams::paper_defaults();
        let mut rng = Rng::seed_from(7);
        let layer = DenseLayer::new(4, 3, NeuronKind::HardResetMatched, params, &mut rng);
        let input = spikes(&[
            &[1.0, 1.0, 0.0, 0.0],
            &[0.0, 1.0, 1.0, 1.0],
            &[1.0, 0.0, 0.0, 1.0],
            &[1.0, 1.0, 1.0, 1.0],
        ]);
        let rec = layer.forward(&input);
        let mut neuron = HardResetNeuron::new(3, params);
        for t in 0..input.rows() {
            let current = layer.weights().matvec(input.row(t));
            let out = neuron.step(&current);
            for i in 0..3 {
                assert_eq!(rec.o.row(t)[i] != 0.0, out[i], "t={t} i={i}");
            }
        }
    }

    #[test]
    fn adaptive_threshold_suppresses_repeat_firing() {
        // One strong input spike; the filtered PSP stays high for several
        // steps but the neuron must not fire continuously.
        let params = NeuronParams::paper_defaults();
        let w = Matrix::from_rows(&[&[3.0]]);
        let layer = DenseLayer::from_weights(w, NeuronKind::Adaptive, params);
        let mut rows: Vec<Vec<f32>> = vec![vec![0.0]; 12];
        rows[0][0] = 1.0;
        let input = Matrix::from_rows(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>());
        let rec = layer.forward(&input);
        let total: f32 = (0..12).map(|t| rec.o.row(t)[0]).sum();
        assert!(total >= 1.0, "must fire at least once");
        assert!(
            total <= 3.0,
            "adaptive threshold should suppress, fired {total}"
        );
    }

    #[test]
    fn swap_kind_keeps_weights() {
        let mut rng = Rng::seed_from(3);
        let mut layer = DenseLayer::new(
            5,
            4,
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        let w_before = layer.weights().clone();
        layer.set_kind(NeuronKind::HardReset);
        assert_eq!(layer.kind(), NeuronKind::HardReset);
        assert_eq!(layer.weights(), &w_before);
    }

    #[test]
    fn record_shapes() {
        let mut rng = Rng::seed_from(3);
        let layer = DenseLayer::new(
            5,
            4,
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        let input = Matrix::zeros(7, 5);
        let rec = layer.forward(&input);
        assert_eq!(rec.pre.shape(), (7, 5));
        assert_eq!(rec.v.shape(), (7, 4));
        assert_eq!(rec.o.shape(), (7, 4));
        assert_eq!(rec.steps(), 7);
    }

    #[test]
    fn ode_hard_reset_input_gain_is_one_minus_decay() {
        // Eq. 1 exactly: the ODE's impulse response is τ-fold weaker
        // than the SRM kernel, so a single spike deposits (1−λ)·w.
        let params = NeuronParams::paper_defaults();
        let w = Matrix::from_rows(&[&[0.5]]);
        let layer = DenseLayer::from_weights(w, NeuronKind::HardReset, params);
        let input = Matrix::from_rows(&[&[1.0], &[0.0]]);
        let rec = layer.forward(&input);
        let expected = (1.0 - params.synapse_decay()) * 0.5;
        assert!((rec.v.row(0)[0] - expected).abs() < 1e-6);
        // Matched variant deposits the full weight.
        let w = Matrix::from_rows(&[&[0.5]]);
        let layer = DenseLayer::from_weights(w, NeuronKind::HardResetMatched, params);
        let rec = layer.forward(&input);
        assert!((rec.v.row(0)[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn silent_input_produces_silent_output() {
        let mut rng = Rng::seed_from(5);
        for kind in [
            NeuronKind::Adaptive,
            NeuronKind::HardReset,
            NeuronKind::HardResetMatched,
        ] {
            let layer = DenseLayer::new(3, 3, kind, NeuronParams::paper_defaults(), &mut rng);
            let rec = layer.forward(&Matrix::zeros(10, 3));
            assert_eq!(rec.o.as_slice().iter().filter(|&&x| x != 0.0).count(), 0);
        }
    }

    #[test]
    fn weights_mut_bumps_epoch_and_forward_rebuilds_lazily() {
        let mut rng = Rng::seed_from(13);
        let mut layer = DenseLayer::new(
            4,
            3,
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        assert!(layer.cache_is_fresh());
        // Scale the weights so stale-mirror output would be wrong.
        layer.weights_mut().scale(5.0);
        assert!(!layer.cache_is_fresh());

        let raster = crate::SpikeRaster::from_events(6, 4, &[(0, 0), (1, 2), (3, 3), (4, 1)]);
        let mut active_in = ActiveIndices::new();
        active_in.fill_from(&raster);
        let mut rec = LayerRecord::empty();
        let mut scratch = LayerScratch::default();
        let mut active_out = ActiveIndices::new();
        layer.forward_steps(&active_in, &mut rec, &mut scratch, &mut active_out);
        assert!(layer.cache_is_fresh(), "forward must rebuild the mirror");

        // The event-driven pass must agree with the dense rollout over
        // the *mutated* weights (spikes are exact; a stale mirror would
        // produce the pre-mutation spike train).
        let dense = layer.forward(&raster.to_matrix());
        assert_eq!(rec.o.as_slice(), dense.o.as_slice());
    }

    #[test]
    fn clone_carries_weights_and_fresh_cache() {
        let mut rng = Rng::seed_from(14);
        let mut layer = DenseLayer::new(
            3,
            2,
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        layer.weights_mut()[(0, 0)] = 2.5;
        let clone = layer.clone();
        assert_eq!(clone.weights(), layer.weights());
        assert!(clone.cache_is_fresh());
    }

    #[test]
    #[should_panic(expected = "layer expects")]
    fn wrong_input_width_panics() {
        let mut rng = Rng::seed_from(5);
        let layer = DenseLayer::new(
            3,
            3,
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        layer.forward(&Matrix::zeros(4, 2));
    }
}
