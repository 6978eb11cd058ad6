//! Reusable scratch buffers for allocation-free training steps.
//!
//! # Ownership rules
//!
//! A [`ScratchSpace`] is **owned by exactly one worker** (one thread of
//! the trainer, or one caller of the `*_into` APIs) and is handed
//! **mutably** into [`Network::forward_into`](crate::Network::forward_into)
//! and [`backward_into`](crate::train::backward_into). It is never shared:
//! the parallel trainer creates one per worker thread, which is what makes
//! the fan-out safe without locks. The buffers inside carry no semantic
//! state between calls — every entry point re-sizes and re-initialises
//! what it uses — so a scratch can be freely reused across samples,
//! batches, epochs, and even across *different* networks (buffers grow to
//! the largest network seen and then stop allocating).
//!
//! The capacity-retaining pattern is the point: after the first sample,
//! a forward + backward training step performs **zero per-timestep and
//! zero per-sample heap allocations** (the losses still build their small
//! `d_output` gradient into a scratch matrix the caller provides).

use crate::spike::ActiveIndices;
use crate::Network;
use snn_tensor::{GradRaster, Matrix};

/// Per-layer forward-state buffers (synapse trace, reset trace / membrane
/// potential, drive accumulator).
#[derive(Debug, Clone, Default)]
pub struct LayerScratch {
    /// Input-side trace `k[t]` (adaptive), or the staged 0/1 input row
    /// of the dense drive (hard reset) — length `n_in`.
    pub trace_in: Vec<f32>,
    /// Output-side state: reset trace `h[t]` (adaptive) or membrane
    /// potential (hard reset) — length `n_out`.
    pub trace_out: Vec<f32>,
    /// Drive accumulator `g[t] = W·k[t]` (adaptive, maintained
    /// incrementally) or the per-step current `W·x[t]` — length `n_out`.
    pub drive: Vec<f32>,
    /// The indices fired at the most recent step (filled by the fused
    /// membrane kernels; the rollouts bulk-append it to the output
    /// `ActiveIndices`, the stream feeds it to the next layer).
    pub fired: Vec<usize>,
    /// The previous step's fired indices (swapped with
    /// [`fired`](Self::fired) at the start of each step; the eq. 8
    /// reset-trace charge reads it).
    pub prev_fired: Vec<usize>,
}

impl LayerScratch {
    /// Sizes and zero-fills the three state buffers and clears the fired
    /// staging lists (the single home of the buffer-initialization
    /// invariant — called by `ScratchSpace::ensure` and by
    /// the `DenseLayer` rollouts).
    pub(crate) fn ensure(&mut self, n_in: usize, n_out: usize) {
        self.trace_in.clear();
        self.trace_in.resize(n_in, 0.0);
        self.trace_out.clear();
        self.trace_out.resize(n_out, 0.0);
        self.drive.clear();
        self.drive.resize(n_out, 0.0);
        self.fired.clear();
        self.prev_fired.clear();
    }
}

/// All reusable buffers one worker needs for forward + BPTT.
///
/// # Ownership rules
///
/// A scratch is **owned by exactly one worker** (one trainer thread, one
/// engine session, or one caller of the `*_into` APIs) and is never
/// shared. Its buffers carry no semantic state between calls — every
/// entry point re-sizes and re-initialises what it uses — so one scratch
/// can be reused across samples, batches, epochs, and even different
/// networks; buffers grow to the largest network seen and then stop
/// allocating.
#[derive(Debug, Clone, Default)]
pub struct ScratchSpace {
    /// `active[0]` is the input raster's event lists; `active[l + 1]` is
    /// layer `l`'s output spike lists (filled by the forward pass, read
    /// by the backward pass).
    pub(crate) active: Vec<ActiveIndices>,
    /// Per-layer forward state.
    pub(crate) layers: Vec<LayerScratch>,
    /// Upstream adjoint `∂E/∂O_l[t]` for the layer currently being
    /// differentiated (`T × n_out`).
    pub(crate) d_o: Matrix,
    /// Downstream adjoint being produced (`T × n_in`); swapped with
    /// `d_o` after each layer. Not formed for the bottom layer, whose
    /// input adjoint no layer reads.
    pub(crate) d_pre: Matrix,
    /// `dv[t]` adjoint of the membrane potential — length ≥ widest layer.
    pub(crate) dv: Vec<f32>,
    /// Next-step `dv` carry (hard reset) — length ≥ widest layer.
    pub(crate) dv_next: Vec<f32>,
    /// Reset-trace adjoint carry `dh[t + 1]` — length ≥ widest layer.
    pub(crate) dh_next: Vec<f32>,
    /// Synapse-trace adjoint carry `dk[t + 1]` — length ≥ widest layer.
    pub(crate) dk_next: Vec<f32>,
    /// `Wᵀ·dv` staging buffer — length ≥ widest layer.
    pub(crate) wt_dv: Vec<f32>,
    /// Active-index staging for sparse rank-1 gradient updates.
    pub(crate) active_tmp: Vec<usize>,
    /// Per-timestep surviving error-event lists recorded by
    /// [`backward_sparse_into`](crate::train::backward_sparse_into)
    /// (cleared at the start of each backward pass; steps are recorded
    /// in reverse-time order, all layers concatenated).
    pub(crate) grad_events: GradRaster,
    /// Scratch `d_output` the trainer hands to the losses.
    pub(crate) d_loss: Matrix,
}

impl ScratchSpace {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes every buffer for `net` (idempotent, allocation-free once the
    /// sizes have been seen).
    pub(crate) fn ensure(&mut self, net: &Network) {
        let n_layers = net.layers().len();
        self.active.resize_with(n_layers + 1, ActiveIndices::new);
        self.layers.resize_with(n_layers, LayerScratch::default);
        let mut max_w = 0;
        for (layer, ls) in net.layers().iter().zip(&mut self.layers) {
            ls.ensure(layer.n_in(), layer.n_out());
            max_w = max_w.max(layer.n_in()).max(layer.n_out());
        }
        for buf in [
            &mut self.dv,
            &mut self.dv_next,
            &mut self.dh_next,
            &mut self.dk_next,
            &mut self.wt_dv,
        ] {
            buf.clear();
            buf.resize(max_w, 0.0);
        }
    }

    /// The input-side active lists (index 0) and per-layer output lists
    /// (index `l + 1`) recorded by the most recent forward pass.
    pub fn active_lists(&self) -> &[ActiveIndices] {
        &self.active
    }

    /// The surviving error-event lists recorded by the most recent
    /// [`backward_sparse_into`](crate::train::backward_sparse_into)
    /// call: its [`GradRaster::density`] is the "how sparse was the
    /// backward pass?" diagnostic the kernel bench reports. Empty until
    /// a sparse backward pass has run with this scratch, and again after
    /// a dense [`backward_into`](crate::train::backward_into).
    pub fn backward_events(&self) -> &GradRaster {
        &self.grad_events
    }
}
