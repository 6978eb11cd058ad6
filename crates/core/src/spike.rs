//! Spike-train containers and kernel methods.
//!
//! A spike train is a sequence of time-shifted Dirac deltas; to compare
//! two of them the paper maps trains to continuous traces with the kernel
//! `f[t] = e^{−t/τm} − e^{−t/τs}` and measures the squared trace distance
//! (eqs. 15–16, after Park et al.). This module provides the bit-packed
//! [`SpikeRaster`] container used throughout the workspace, its
//! event-driven view [`ActiveIndices`], plus those kernel utilities.

use snn_json::Json;
use snn_tensor::Matrix;
use std::fmt;

/// Bits per storage word of a [`SpikeRaster`].
const WORD_BITS: usize = u64::BITS as usize;

/// Binary spike tensor: `steps` timesteps × `channels` spike trains.
///
/// Stored bit-packed, one bit per cell: each timestep is a row of
/// `channels.div_ceil(64)` `u64` words with channel `c` at bit `c % 64`
/// of word `c / 64`, and the padding bits past `channels` always zero.
/// An SHD raster (100 × 700) is 1,100 words (8.8 KB) instead of 70,000
/// `f32`s (280 KB). The network consumes rasters through
/// [`ActiveIndices`], which walks each row's set bits; use
/// [`to_matrix`](Self::to_matrix) where a dense 0/1 matrix is needed.
///
/// # Examples
///
/// ```
/// use snn_core::SpikeRaster;
///
/// let mut r = SpikeRaster::zeros(5, 3);
/// r.set(2, 1, true);
/// assert_eq!(r.spike_count(), 1);
/// assert!(r.get(2, 1));
/// assert_eq!(r.to_matrix().row(2), &[0.0, 1.0, 0.0]);
/// assert_eq!(r.active_indices().step(2), &[1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpikeRaster {
    steps: usize,
    channels: usize,
    /// `steps` rows of `channels.div_ceil(64)` words; padding bits zero.
    bits: Vec<u64>,
}

/// The channels of the set bits in one packed row, ascending: the not
/// yet emitted bits of the word whose bit 0 is channel `base`, then the
/// `rest` of the row.
struct SetBits<'a> {
    word: u64,
    base: usize,
    rest: &'a [u64],
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (&next, rest) = self.rest.split_first()?;
            self.word = next;
            self.base += WORD_BITS;
            self.rest = rest;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

impl SpikeRaster {
    /// Creates an empty raster of `steps × channels`.
    pub fn zeros(steps: usize, channels: usize) -> Self {
        Self {
            steps,
            channels,
            bits: vec![0; steps * channels.div_ceil(WORD_BITS)],
        }
    }

    /// Reshapes to `steps × channels` and clears every spike, reusing
    /// the backing buffer (no allocation once grown) — the
    /// buffer-recycling entry point for session-owned output rasters.
    pub fn resize_zeroed(&mut self, steps: usize, channels: usize) {
        self.steps = steps;
        self.channels = channels;
        self.bits.clear();
        self.bits.resize(steps * channels.div_ceil(WORD_BITS), 0);
    }

    /// Builds a raster from `(t, channel)` event pairs; events outside
    /// the raster are ignored (event-camera crops routinely produce a few).
    pub fn from_events(steps: usize, channels: usize, events: &[(usize, usize)]) -> Self {
        let mut r = Self::zeros(steps, channels);
        for &(t, c) in events {
            if t < steps && c < channels {
                r.set(t, c, true);
            }
        }
        r
    }

    /// Number of timesteps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Number of channels (spike trains).
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Word index and bit mask of cell `(t, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    fn locate(&self, t: usize, c: usize) -> (usize, u64) {
        assert!(
            t < self.steps && c < self.channels,
            "({t},{c}) out of range"
        );
        let word = t * self.channels.div_ceil(WORD_BITS) + c / WORD_BITS;
        (word, 1 << (c % WORD_BITS))
    }

    /// Whether channel `c` spikes at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, t: usize, c: usize) -> bool {
        let (word, mask) = self.locate(t, c);
        self.bits[word] & mask != 0
    }

    /// Sets or clears the spike at `(t, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, t: usize, c: usize, spike: bool) {
        let (word, mask) = self.locate(t, c);
        if spike {
            self.bits[word] |= mask;
        } else {
            self.bits[word] &= !mask;
        }
    }

    /// Total number of spikes.
    pub fn spike_count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Channels that spike at time `t`, ascending: a scan of the step's
    /// packed words for set bits.
    pub(crate) fn step_channels(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        let words = self.channels.div_ceil(WORD_BITS);
        let row = &self.bits[t * words..(t + 1) * words];
        let (word, rest) = row.split_first().map_or((0, row), |(&w, rest)| (w, rest));
        SetBits {
            word,
            base: 0,
            rest,
        }
    }

    /// Per-channel spike counts (the rate-coding summary).
    pub fn channel_counts(&self) -> Vec<f32> {
        let mut counts = vec![0.0; self.channels];
        for t in 0..self.steps {
            for c in self.step_channels(t) {
                counts[c] += 1.0;
            }
        }
        counts
    }

    /// Mean firing rate over all trains (spikes per channel per step).
    pub fn mean_rate(&self) -> f32 {
        let cells = self.steps * self.channels;
        if cells == 0 {
            return 0.0;
        }
        self.spike_count() as f32 / cells as f32
    }

    /// Spike events as `(t, channel)` pairs in time order.
    pub fn events(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.spike_count());
        for t in 0..self.steps {
            out.extend(self.step_channels(t).map(|c| (t, c)));
        }
        out
    }

    /// One channel as a 0/1 time series.
    ///
    /// # Panics
    ///
    /// Panics if `c >= channels`.
    pub fn channel(&self, c: usize) -> Vec<f32> {
        assert!(
            c < self.channels,
            "channel {c} out of range {}",
            self.channels
        );
        (0..self.steps)
            .map(|t| if self.get(t, c) { 1.0 } else { 0.0 })
            .collect()
    }

    /// The raster as a dense `steps × channels` 0/1 matrix (row `t` is
    /// the input vector at time `t`) — for the dense reference paths and
    /// losses that read spikes as values.
    pub fn to_matrix(&self) -> Matrix {
        let mut m = Matrix::zeros(self.steps, self.channels);
        for t in 0..self.steps {
            let row = m.row_mut(t);
            for c in self.step_channels(t) {
                row[c] = 1.0;
            }
        }
        m
    }

    /// Builds the per-step active-channel index lists (CSR layout) for
    /// this raster — the event-driven view the sparsity-aware kernels
    /// consume. Allocates; hot paths reuse a list via
    /// [`ActiveIndices::fill_from`].
    pub fn active_indices(&self) -> ActiveIndices {
        let mut out = ActiveIndices::new();
        out.fill_from(self);
        out
    }

    /// Serializes to the event-list wire format used by the network
    /// serving layer (`snn-serve`): `{"steps": T, "channels": C,
    /// "events": [[t, c], …]}`. Events are emitted in time order, so the
    /// output is deterministic and diff-friendly; for the sparse rasters
    /// this workspace serves, the event list is far smaller than a dense
    /// 0/1 matrix.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("steps", Json::from(self.steps)),
            ("channels", Json::from(self.channels)),
            (
                "events",
                Json::Arr(
                    self.events()
                        .into_iter()
                        .map(|(t, c)| Json::Arr(vec![Json::from(t), Json::from(c)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes the wire format written by [`to_json`](Self::to_json).
    ///
    /// Unlike [`from_events`](Self::from_events) (which tolerates
    /// out-of-range event-camera crops), the wire format is strict: an
    /// event outside `steps × channels` is a protocol error, as are
    /// missing or non-integer fields — a serving endpoint must reject
    /// malformed payloads loudly rather than silently dropping spikes.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let steps = v
            .get("steps")
            .and_then(Json::as_usize)
            .ok_or("missing or non-integer \"steps\"")?;
        let channels = v
            .get("channels")
            .and_then(Json::as_usize)
            .ok_or("missing or non-integer \"channels\"")?;
        steps
            .checked_mul(channels)
            .ok_or_else(|| format!("raster dimensions {steps}x{channels} overflow"))?;
        let events = v
            .get("events")
            .and_then(Json::as_array)
            .ok_or("missing or non-array \"events\"")?;
        let mut r = Self::zeros(steps, channels);
        for (i, ev) in events.iter().enumerate() {
            let pair = ev
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("event {i} is not a [t, c] pair"))?;
            let t = pair[0]
                .as_usize()
                .ok_or_else(|| format!("event {i}: non-integer time"))?;
            let c = pair[1]
                .as_usize()
                .ok_or_else(|| format!("event {i}: non-integer channel"))?;
            if t >= steps || c >= channels {
                return Err(format!(
                    "event {i} at ({t},{c}) outside {steps}x{channels} raster"
                ));
            }
            r.set(t, c, true);
        }
        Ok(r)
    }

    /// Encodes the raster as `(dt, channel)` event deltas — the payload
    /// of the binary streaming wire format (`snn-serve` `EVENTS`
    /// frames). `dt` is the timestep delta from the previous event (the
    /// first event's delta is from step 0), so a time-ordered event
    /// stream needs only small non-negative integers regardless of the
    /// raster length.
    pub fn delta_events(&self) -> Vec<(usize, usize)> {
        let mut prev = 0usize;
        self.events()
            .into_iter()
            .map(|(t, c)| {
                let dt = t - prev;
                prev = t;
                (dt, c)
            })
            .collect()
    }

    /// Rebuilds a raster from `(dt, channel)` deltas written by
    /// [`delta_events`](Self::delta_events). Like
    /// [`from_json`](Self::from_json) this is the strict wire-format
    /// decoder: an event that lands outside `steps × channels` is a
    /// protocol error, not a droppable crop artefact.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first out-of-range
    /// event.
    pub fn from_delta_events(
        steps: usize,
        channels: usize,
        deltas: &[(usize, usize)],
    ) -> Result<Self, String> {
        let mut r = Self::zeros(steps, channels);
        let mut t = 0usize;
        for (i, &(dt, c)) in deltas.iter().enumerate() {
            t = t
                .checked_add(dt)
                .ok_or_else(|| format!("event {i}: timestep overflow"))?;
            if t >= steps || c >= channels {
                return Err(format!(
                    "event {i} at ({t},{c}) outside {steps}x{channels} raster"
                ));
            }
            r.set(t, c, true);
        }
        Ok(r)
    }

    /// Renders a textual raster plot (`time →` on x, channels on y),
    /// used by the figure harnesses. Channels are downsampled to at most
    /// `max_rows` rows.
    pub fn render_ascii(&self, max_rows: usize) -> String {
        if self.channels == 0 {
            return String::new();
        }
        let rows = self.channels.min(max_rows.max(1));
        let group = self.channels.div_ceil(rows);
        let mut out = String::new();
        for r in (0..rows).rev() {
            for t in 0..self.steps {
                let lo = r * group;
                let hi = ((r + 1) * group).min(self.channels);
                let any = (lo..hi).any(|c| self.get(t, c));
                out.push(if any { '|' } else { '.' });
            }
            out.push('\n');
        }
        out
    }
}

/// Per-timestep active-channel index lists in CSR layout: the
/// event-driven representation of a binary spike tensor.
///
/// `step(t)` is the sorted list of channels that spike at time `t`. The
/// sparsity-aware kernels ([`snn_tensor::kernels::ColMajor`] column
/// accumulation, `Matrix::add_outer_indexed`) consume these lists so the
/// cost of a timestep scales with the number of *events*, not the layer
/// width. The two backing vectors are reused across refills, so a
/// training loop that recycles one `ActiveIndices` per layer performs no
/// per-sample allocation once warmed up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActiveIndices {
    /// `offsets[t]..offsets[t + 1]` indexes `indices` for step `t`.
    offsets: Vec<usize>,
    /// Concatenated active-channel lists.
    indices: Vec<usize>,
}

impl ActiveIndices {
    /// Creates an empty list (0 steps).
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            indices: Vec::new(),
        }
    }

    /// Number of recorded steps.
    pub fn steps(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of events across all steps.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Active channels at step `t` (sorted ascending).
    ///
    /// # Panics
    ///
    /// Panics if `t >= steps()`.
    pub fn step(&self, t: usize) -> &[usize] {
        assert!(
            t + 1 < self.offsets.len(),
            "step {t} out of range {}",
            self.steps()
        );
        &self.indices[self.offsets[t]..self.offsets[t + 1]]
    }

    /// Clears all recorded steps (buffers retain capacity).
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.indices.clear();
    }

    /// Appends one channel to the step currently being recorded.
    pub fn push(&mut self, channel: usize) {
        self.indices.push(channel);
    }

    /// Closes the step currently being recorded; subsequent
    /// [`push`](Self::push) calls go to the next step.
    pub fn end_step(&mut self) {
        self.offsets.push(self.indices.len());
    }

    /// Appends `channels` as one complete step (a [`push`](Self::push)
    /// per channel followed by [`end_step`](Self::end_step)) — the bulk
    /// form the fused membrane kernels feed with their staged fired
    /// lists.
    pub fn push_step(&mut self, channels: &[usize]) {
        self.indices.extend_from_slice(channels);
        self.offsets.push(self.indices.len());
    }

    /// Refills from a raster, reusing the backing buffers: a scan of
    /// each step's packed words for set bits.
    pub fn fill_from(&mut self, raster: &SpikeRaster) {
        self.clear();
        for t in 0..raster.steps() {
            self.indices.extend(raster.step_channels(t));
            self.end_step();
        }
    }
}

impl fmt::Display for SpikeRaster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SpikeRaster({} steps x {} channels, {} spikes)",
            self.steps,
            self.channels,
            self.spike_count()
        )
    }
}

/// The double-exponential kernel `f[t] = e^{−t/τm} − e^{−t/τs}` of eq. 15.
///
/// With Table I values `τm = 4`, `τs = 1` this is a smooth bump that
/// rises on the fast time constant and decays on the slow one, giving a
/// differentiable notion of "a spike happened around here".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceKernel {
    /// Slow (membrane) time constant `τm`.
    pub tau_m: f32,
    /// Fast (synaptic) time constant `τs`.
    pub tau_s: f32,
}

impl TraceKernel {
    /// Paper Table I values `τm = 4`, `τs = 1`.
    pub fn paper_defaults() -> Self {
        Self {
            tau_m: 4.0,
            tau_s: 1.0,
        }
    }

    /// Kernel value at lag `t ≥ 0`.
    pub fn eval(&self, t: f32) -> f32 {
        if t < 0.0 {
            return 0.0;
        }
        (-t / self.tau_m).exp() - (-t / self.tau_s).exp()
    }

    /// Convolves a 0/1 spike train with the kernel, producing the
    /// continuous trace `f ∗ S`. Runs in O(T) using the two-exponential
    /// decomposition.
    pub fn trace(&self, train: &[f32]) -> Vec<f32> {
        let am = (-1.0 / self.tau_m).exp();
        let as_ = (-1.0 / self.tau_s).exp();
        let mut m = 0.0f32;
        let mut s = 0.0f32;
        let mut out = Vec::with_capacity(train.len());
        for &x in train {
            // f[0] = 0, so the spike at time t contributes from t onward
            // with value a^{lag} - b^{lag}; implement as two leaky
            // integrators fed *after* scaling.
            m = am * m + x;
            s = as_ * s + x;
            out.push(m - s);
        }
        out
    }
}

impl Default for TraceKernel {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Van Rossum-style distance between two spike trains (paper eq. 15):
/// `D = 1/(2T) Σ_t (f∗Si − f∗Sj)²`.
///
/// # Panics
///
/// Panics if the trains have different lengths.
pub fn van_rossum_distance(kernel: TraceKernel, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "spike trains must have equal length");
    if a.is_empty() {
        return 0.0;
    }
    let ta = kernel.trace(a);
    let tb = kernel.trace(b);
    let sum: f32 = ta.iter().zip(&tb).map(|(x, y)| (x - y).powi(2)).sum();
    sum / (2.0 * a.len() as f32)
}

/// Total van Rossum distance between two rasters, summed over channels
/// (paper eq. 16).
///
/// # Panics
///
/// Panics if the rasters have different shapes.
pub fn raster_distance(kernel: TraceKernel, a: &SpikeRaster, b: &SpikeRaster) -> f32 {
    assert_eq!(a.steps(), b.steps(), "rasters must have equal steps");
    assert_eq!(
        a.channels(),
        b.channels(),
        "rasters must have equal channels"
    );
    (0..a.channels())
        .map(|c| van_rossum_distance(kernel, &a.channel(c), &b.channel(c)))
        .sum()
}

/// Summary statistics of a single spike train.
///
/// Inter-spike-interval (ISI) statistics are the standard way to
/// characterise firing regularity: a coefficient of variation (CV) near
/// 0 means clock-like firing, near 1 means Poisson-like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Number of spikes.
    pub count: usize,
    /// Mean firing rate (spikes per step).
    pub rate: f32,
    /// Mean inter-spike interval (0 when fewer than two spikes).
    pub mean_isi: f32,
    /// Coefficient of variation of the ISI (0 when fewer than three
    /// spikes).
    pub cv_isi: f32,
    /// Time of the first spike, if any.
    pub first_spike: Option<usize>,
}

/// Computes [`TrainStats`] for one 0/1 spike train.
pub fn train_stats(train: &[f32]) -> TrainStats {
    let times: Vec<usize> = train
        .iter()
        .enumerate()
        .filter(|(_, &x)| x != 0.0)
        .map(|(t, _)| t)
        .collect();
    let count = times.len();
    let rate = if train.is_empty() {
        0.0
    } else {
        count as f32 / train.len() as f32
    };
    let isis: Vec<f32> = times.windows(2).map(|w| (w[1] - w[0]) as f32).collect();
    let mean_isi = if isis.is_empty() {
        0.0
    } else {
        isis.iter().sum::<f32>() / isis.len() as f32
    };
    let cv_isi = if isis.len() < 2 || mean_isi == 0.0 {
        0.0
    } else {
        let var = isis.iter().map(|x| (x - mean_isi).powi(2)).sum::<f32>() / isis.len() as f32;
        var.sqrt() / mean_isi
    };
    TrainStats {
        count,
        rate,
        mean_isi,
        cv_isi,
        first_spike: times.first().copied(),
    }
}

/// Pairwise spike-time synchrony between two rasters: the fraction of
/// spikes in `a` that have a spike in the same channel of `b` within
/// `±window` steps. 1.0 means every spike is matched.
///
/// # Panics
///
/// Panics if the rasters have different shapes.
pub fn synchrony(a: &SpikeRaster, b: &SpikeRaster, window: usize) -> f32 {
    assert_eq!(a.steps(), b.steps(), "step mismatch");
    assert_eq!(a.channels(), b.channels(), "channel mismatch");
    let events = a.events();
    if events.is_empty() {
        return 0.0;
    }
    let matched = events
        .iter()
        .filter(|&&(t, c)| {
            let lo = t.saturating_sub(window);
            let hi = (t + window).min(a.steps().saturating_sub(1));
            (lo..=hi).any(|s| b.get(s, c))
        })
        .count();
    matched as f32 / events.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_stats_regular_train() {
        // Spikes every 4 steps: CV = 0, mean ISI = 4.
        let mut train = vec![0.0f32; 20];
        for t in (0..20).step_by(4) {
            train[t] = 1.0;
        }
        let s = train_stats(&train);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean_isi, 4.0);
        assert_eq!(s.cv_isi, 0.0);
        assert_eq!(s.first_spike, Some(0));
        assert!((s.rate - 0.25).abs() < 1e-6);
    }

    #[test]
    fn train_stats_irregular_has_positive_cv() {
        let mut train = vec![0.0f32; 30];
        for &t in &[0usize, 1, 9, 10, 25] {
            train[t] = 1.0;
        }
        let s = train_stats(&train);
        assert!(
            s.cv_isi > 0.5,
            "irregular ISIs should have high CV, got {}",
            s.cv_isi
        );
    }

    #[test]
    fn train_stats_empty_and_single() {
        let s = train_stats(&[0.0; 10]);
        assert_eq!(s.count, 0);
        assert_eq!(s.first_spike, None);
        let mut one = vec![0.0f32; 10];
        one[3] = 1.0;
        let s = train_stats(&one);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean_isi, 0.0);
        assert_eq!(s.first_spike, Some(3));
    }

    #[test]
    fn synchrony_identical_is_one() {
        let r = SpikeRaster::from_events(10, 3, &[(1, 0), (5, 2), (9, 1)]);
        assert_eq!(synchrony(&r, &r, 0), 1.0);
    }

    #[test]
    fn synchrony_window_tolerance() {
        let a = SpikeRaster::from_events(20, 1, &[(5, 0)]);
        let b = SpikeRaster::from_events(20, 1, &[(7, 0)]);
        assert_eq!(synchrony(&a, &b, 0), 0.0);
        assert_eq!(synchrony(&a, &b, 1), 0.0);
        assert_eq!(synchrony(&a, &b, 2), 1.0);
    }

    #[test]
    fn synchrony_empty_is_zero() {
        let a = SpikeRaster::zeros(5, 2);
        let b = SpikeRaster::from_events(5, 2, &[(0, 0)]);
        assert_eq!(synchrony(&a, &b, 1), 0.0);
    }

    #[test]
    fn raster_set_get_roundtrip() {
        let mut r = SpikeRaster::zeros(4, 3);
        r.set(1, 2, true);
        assert!(r.get(1, 2));
        r.set(1, 2, false);
        assert!(!r.get(1, 2));
    }

    #[test]
    fn from_events_ignores_out_of_range() {
        let r = SpikeRaster::from_events(3, 2, &[(0, 0), (2, 1), (5, 0), (0, 9)]);
        assert_eq!(r.spike_count(), 2);
    }

    #[test]
    fn events_roundtrip() {
        let events = vec![(0, 1), (2, 0), (3, 4)];
        let r = SpikeRaster::from_events(5, 5, &events);
        assert_eq!(r.events(), events);
    }

    #[test]
    fn channel_counts_match_manual() {
        let r = SpikeRaster::from_events(4, 2, &[(0, 0), (1, 0), (3, 1)]);
        assert_eq!(r.channel_counts(), vec![2.0, 1.0]);
        assert!((r.mean_rate() - 3.0 / 8.0).abs() < 1e-7);
    }

    #[test]
    fn kernel_is_zero_at_origin_and_positive_after() {
        let k = TraceKernel::paper_defaults();
        assert_eq!(k.eval(0.0), 0.0);
        assert!(k.eval(1.0) > 0.0);
        assert!(k.eval(50.0) < 1e-4);
    }

    #[test]
    fn trace_matches_direct_convolution() {
        let k = TraceKernel::paper_defaults();
        let train = [0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0];
        let fast = k.trace(&train);
        // Direct O(T²) convolution: sum over spikes s ≤ t of f[t−s].
        // Note our recursive trace treats a spike at s as contributing
        // a^{t-s+1}−b^{t-s+1}? No: m[t] = Σ_s a^{t−s} x[s], so trace[t]
        // = Σ_s (a^{t−s} − b^{t−s}) x[s] = Σ f_geom[t−s]x[s] where
        // f_geom[0] = 0 only when a=b... check against that formula.
        let am = (-1.0f32 / 4.0).exp();
        let as_ = (-1.0f32 / 1.0).exp();
        for t in 0..train.len() {
            let direct: f32 = (0..=t)
                .map(|s| (am.powi((t - s) as i32) - as_.powi((t - s) as i32)) * train[s])
                .sum();
            assert!(
                (fast[t] - direct).abs() < 1e-5,
                "t={t}: {} vs {direct}",
                fast[t]
            );
        }
    }

    #[test]
    fn distance_zero_for_identical_trains() {
        let k = TraceKernel::paper_defaults();
        let t = [0.0, 1.0, 0.0, 1.0];
        assert_eq!(van_rossum_distance(k, &t, &t), 0.0);
    }

    #[test]
    fn distance_grows_with_time_shift() {
        let k = TraceKernel::paper_defaults();
        let steps = 40;
        let base = SpikeRaster::from_events(steps, 1, &[(10, 0)]);
        let mut prev = 0.0;
        for shift in [1usize, 3, 8, 20] {
            let shifted = SpikeRaster::from_events(steps, 1, &[(10 + shift, 0)]);
            let d = raster_distance(k, &base, &shifted);
            assert!(d > prev, "shift {shift}: {d} should exceed {prev}");
            prev = d;
        }
    }

    #[test]
    fn distance_is_symmetric() {
        let k = TraceKernel::paper_defaults();
        let a = [1.0, 0.0, 0.0, 1.0, 0.0];
        let b = [0.0, 0.0, 1.0, 0.0, 1.0];
        assert!((van_rossum_distance(k, &a, &b) - van_rossum_distance(k, &b, &a)).abs() < 1e-7);
    }

    #[test]
    fn distance_triangle_like_monotonicity() {
        // More differing spikes → larger distance.
        let k = TraceKernel::paper_defaults();
        let empty = vec![0.0; 30];
        let mut one = empty.clone();
        one[5] = 1.0;
        let mut two = one.clone();
        two[20] = 1.0;
        assert!(van_rossum_distance(k, &empty, &two) > van_rossum_distance(k, &empty, &one));
    }

    #[test]
    fn wire_json_roundtrips() {
        let r = SpikeRaster::from_events(9, 4, &[(0, 3), (2, 0), (8, 1)]);
        let doc = r.to_json().to_string();
        let back = SpikeRaster::from_json(&Json::parse(&doc).unwrap()).unwrap();
        assert_eq!(back, r);
        let empty = SpikeRaster::zeros(3, 2);
        let back = SpikeRaster::from_json(&Json::parse(&empty.to_json().to_string()).unwrap());
        assert_eq!(back.unwrap(), empty);
    }

    #[test]
    fn wire_json_rejects_malformed_payloads() {
        for (src, why) in [
            (r#"{"channels": 2, "events": []}"#, "steps"),
            (r#"{"steps": 2, "channels": 2}"#, "events"),
            (r#"{"steps": 2, "channels": 2, "events": [[0]]}"#, "pair"),
            (
                r#"{"steps": 2, "channels": 2, "events": [[0, 5]]}"#,
                "outside",
            ),
            (
                r#"{"steps": 2, "channels": 2, "events": [[3, 0]]}"#,
                "outside",
            ),
            (
                r#"{"steps": 2, "channels": 2, "events": [[0.5, 0]]}"#,
                "non-integer",
            ),
        ] {
            let err = SpikeRaster::from_json(&Json::parse(src).unwrap()).unwrap_err();
            assert!(err.contains(why), "{src}: {err}");
        }
    }

    #[test]
    fn delta_events_roundtrip() {
        let r = SpikeRaster::from_events(12, 5, &[(0, 1), (0, 4), (3, 0), (3, 2), (11, 3)]);
        let deltas = r.delta_events();
        assert_eq!(deltas, vec![(0, 1), (0, 4), (3, 0), (0, 2), (8, 3)]);
        let back = SpikeRaster::from_delta_events(12, 5, &deltas).unwrap();
        assert_eq!(back, r);
        let empty = SpikeRaster::zeros(4, 3);
        let back = SpikeRaster::from_delta_events(4, 3, &empty.delta_events()).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn delta_events_rejects_out_of_range() {
        let err = SpikeRaster::from_delta_events(3, 2, &[(0, 0), (3, 1)]).unwrap_err();
        assert!(err.contains("outside"), "{err}");
        let err = SpikeRaster::from_delta_events(3, 2, &[(0, 2)]).unwrap_err();
        assert!(err.contains("outside"), "{err}");
        let err = SpikeRaster::from_delta_events(3, 2, &[(1, 0), (usize::MAX, 0)]).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn ascii_render_has_expected_shape() {
        let r = SpikeRaster::from_events(10, 4, &[(3, 0)]);
        let art = r.render_ascii(4);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == 10));
        assert!(lines[3].contains('|')); // channel 0 is the bottom row
    }

    #[test]
    fn ascii_render_of_zero_channels_is_empty() {
        assert_eq!(SpikeRaster::zeros(5, 0).render_ascii(4), "");
        assert_eq!(SpikeRaster::zeros(0, 0).render_ascii(0), "");
    }

    #[test]
    fn raster_packs_one_bit_per_cell() {
        // 700 channels pad to 11 words per step.
        let r = SpikeRaster::zeros(100, 700);
        assert_eq!(r.bits.len(), 1_100);
        assert_eq!(SpikeRaster::zeros(3, 64).bits.len(), 3);
        assert_eq!(SpikeRaster::zeros(3, 65).bits.len(), 6);
    }

    #[test]
    fn to_matrix_is_dense_zero_one() {
        let r = SpikeRaster::from_events(3, 66, &[(0, 65), (2, 0), (2, 64)]);
        let m = r.to_matrix();
        assert_eq!(m.shape(), (3, 66));
        for t in 0..3 {
            for c in 0..66 {
                assert_eq!(m.row(t)[c], if r.get(t, c) { 1.0 } else { 0.0 });
            }
        }
        assert_eq!(m.as_slice().iter().sum::<f32>(), 3.0);
    }

    #[test]
    fn display_summarises() {
        let r = SpikeRaster::from_events(5, 2, &[(1, 1)]);
        let s = r.to_string();
        assert!(s.contains("5 steps"));
        assert!(s.contains("1 spikes"));
    }
}
