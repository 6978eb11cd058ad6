//! Stateful streaming inference: resident membrane state between event
//! chunks.
//!
//! The engine's forward pass is already incremental (`g[t] = α·g[t−1] +
//! Σ active columns`, eq. 7), so nothing forces a caller to ship a full
//! raster and replay all `T` timesteps at once. A [`StreamSession`]
//! keeps each layer's carried state (synaptic drive `g`, reset trace `h`
//! or membrane potential `v`, and the previous step's output spikes)
//! resident between calls, accepts events as `(dt, channel)` deltas,
//! and commits timesteps on demand — the neuromorphic-native serving
//! mode behind the `snn-serve` binary wire protocol.
//!
//! The contract is strict: a chunked rollout is **bitwise identical** to
//! a single-shot [`Session::classify`](crate::engine::Session::classify)
//! of the concatenated raster, for every backend. It holds by
//! construction: each committed step calls [`DenseLayer::step`] under
//! the backend's [`Drive`], the same timestep the batch rollouts loop
//! over, and the readout accumulates spike counts in the same
//! time-ascending order as `Forward::spike_counts_into`.
//!
//! [`DenseLayer::step`]: crate::DenseLayer::step
//! [`Drive`]: crate::Drive
//!
//! # Examples
//!
//! ```
//! use snn_core::engine::Engine;
//! use snn_core::{Network, NeuronKind, SpikeRaster};
//! use snn_neuron::NeuronParams;
//! use snn_tensor::Rng;
//!
//! let mut rng = Rng::seed_from(7);
//! let net = Network::mlp(&[4, 8, 3], NeuronKind::Adaptive,
//!                        NeuronParams::paper_defaults(), &mut rng);
//! let engine = Engine::from_network(net).build();
//! let raster = SpikeRaster::from_events(10, 4, &[(0, 1), (3, 2), (7, 0)]);
//!
//! // Stream the raster in two chunks of five steps each.
//! let mut stream = engine.stream_session();
//! stream.feed_events(&raster.delta_events()).unwrap();
//! stream.advance(5);
//! stream.advance(5);
//!
//! let mut session = engine.session();
//! assert_eq!(stream.readout(), session.classify(&raster));
//! ```

use crate::engine::Engine;
use crate::scratch::LayerScratch;
use crate::Drive;
use snn_tensor::stats;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Default cap on how far ahead of the committed frontier events may be
/// buffered (in timesteps). Bounds per-session memory no matter what a
/// client sends; see [`StreamSession::with_max_pending`].
pub const DEFAULT_MAX_PENDING: usize = 4096;

/// A rejected event feed. Every variant is a *caller* error: the session
/// state is untouched beyond the events already applied, and the stream
/// remains usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The event's channel is outside the network input width.
    ChannelOutOfRange {
        /// Offending channel.
        channel: usize,
        /// Network input width.
        n_in: usize,
    },
    /// The event targets a timestep that has already been committed;
    /// resident state cannot be rewound.
    EventBeforeFrontier {
        /// Absolute timestep of the event.
        t: usize,
        /// Number of committed steps (the frontier).
        committed: usize,
    },
    /// The event lies further past the frontier than the session's
    /// pending-step horizon allows.
    HorizonExceeded {
        /// Absolute timestep of the event.
        t: usize,
        /// Number of committed steps (the frontier).
        committed: usize,
        /// Maximum pending steps past the frontier.
        horizon: usize,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StreamError::ChannelOutOfRange { channel, n_in } => {
                write!(f, "channel {channel} outside input width {n_in}")
            }
            StreamError::EventBeforeFrontier { t, committed } => {
                write!(f, "event at step {t} behind committed frontier {committed}")
            }
            StreamError::HorizonExceeded {
                t,
                committed,
                horizon,
            } => write!(
                f,
                "event at step {t} exceeds horizon {horizon} past frontier {committed}"
            ),
        }
    }
}

impl Error for StreamError {}

/// A stateful streaming inference session.
///
/// Opened with [`Engine::stream_session`]; owns a cheap clone of the
/// engine (the backend is shared) plus per-layer carried state, so it is
/// `'static` and can live in a worker's resident-session map. All
/// buffers are allocated up front and reused — the feed/advance hot path
/// performs no allocation once the pending queue has grown to the
/// stream's working depth.
///
/// Lifecycle: [`feed_events`](Self::feed_events) buffers events at or
/// past the committed frontier, [`advance`](Self::advance) commits
/// timesteps through the network (consuming buffered events),
/// [`readout`](Self::readout) classifies from the accumulated output
/// spike counts, and [`reset`](Self::reset) returns the session to the
/// freshly-opened state without reallocating.
#[derive(Debug)]
pub struct StreamSession {
    engine: Engine,
    drive: Drive,
    n_in: usize,
    n_out: usize,
    /// Per-layer carried state, including each layer's output spikes
    /// from the last committed step (`fired`).
    layers: Vec<LayerScratch>,
    /// Output spike counts accumulated over all committed steps, in the
    /// same order as `Forward::spike_counts_into`.
    counts: Vec<f32>,
    committed: usize,
    /// Delta-decode base: absolute timestep of the last fed event, or
    /// the frontier if that is later.
    cursor: usize,
    /// `pending[i]` holds the (unsorted, possibly duplicated) event
    /// channels for step `committed + i`.
    pending: VecDeque<Vec<usize>>,
    /// Recycled channel lists for `pending`.
    spare: Vec<Vec<usize>>,
    max_pending: usize,
}

impl StreamSession {
    /// Opens a streaming session on the engine's backend. Prefer
    /// [`Engine::stream_session`].
    pub fn new(engine: &Engine) -> Self {
        let engine = engine.clone();
        let net = engine.network();
        let mut session = Self {
            drive: engine.backend().drive(),
            n_in: net.n_in(),
            n_out: net.n_out(),
            layers: vec![LayerScratch::default(); net.layers().len()],
            counts: vec![0.0; net.n_out()],
            committed: 0,
            cursor: 0,
            pending: VecDeque::new(),
            spare: Vec::new(),
            max_pending: DEFAULT_MAX_PENDING,
            engine,
        };
        // Sizes and zeroes the per-layer state.
        session.reset();
        session
    }

    /// Sets the pending-step horizon (events may be buffered at most
    /// this many steps past the committed frontier). Values below 1 are
    /// clamped to 1.
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending.max(1);
        self
    }

    /// Network input width.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Network output width (number of classes).
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Number of committed timesteps since open or [`reset`](Self::reset).
    pub fn steps(&self) -> usize {
        self.committed
    }

    /// Number of buffered (not yet committed) events.
    pub fn pending_events(&self) -> usize {
        self.pending.iter().map(Vec::len).sum()
    }

    /// The pending-step horizon (see [`with_max_pending`](Self::with_max_pending)).
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// Accumulated per-class output spike counts.
    pub fn counts(&self) -> &[f32] {
        &self.counts
    }

    /// Feeds `(dt, channel)` event deltas (the
    /// [`SpikeRaster::delta_events`](crate::SpikeRaster::delta_events)
    /// encoding). `dt` is relative to the previous event in the stream;
    /// after [`advance`](Self::advance) the base moves up to the new
    /// frontier, so `dt = 0` always means "the first uncommitted step or
    /// later".
    ///
    /// # Errors
    ///
    /// Returns the first [`StreamError`] encountered; events before the
    /// failing one are already applied. A timestep overflow is reported
    /// as [`StreamError::HorizonExceeded`].
    pub fn feed_events(&mut self, deltas: &[(usize, usize)]) -> Result<(), StreamError> {
        for &(dt, channel) in deltas {
            let t = self
                .cursor
                .checked_add(dt)
                .ok_or(StreamError::HorizonExceeded {
                    t: usize::MAX,
                    committed: self.committed,
                    horizon: self.max_pending,
                })?;
            self.feed_at(t, channel)?;
        }
        Ok(())
    }

    /// Buffers one event at absolute timestep `t` (0-based from stream
    /// open). Unlike the delta form this can name steps out of order,
    /// as long as they are at or past the committed frontier.
    ///
    /// # Errors
    ///
    /// Rejects channels outside the input width, steps behind the
    /// frontier, and steps beyond the pending horizon.
    pub fn feed_at(&mut self, t: usize, channel: usize) -> Result<(), StreamError> {
        if channel >= self.n_in {
            return Err(StreamError::ChannelOutOfRange {
                channel,
                n_in: self.n_in,
            });
        }
        if t < self.committed {
            return Err(StreamError::EventBeforeFrontier {
                t,
                committed: self.committed,
            });
        }
        let idx = t - self.committed;
        if idx >= self.max_pending {
            return Err(StreamError::HorizonExceeded {
                t,
                committed: self.committed,
                horizon: self.max_pending,
            });
        }
        while self.pending.len() <= idx {
            self.pending.push_back(self.spare.pop().unwrap_or_default());
        }
        self.pending[idx].push(channel);
        self.cursor = self.cursor.max(t);
        Ok(())
    }

    /// Commits `steps` timesteps through the network, consuming buffered
    /// events (steps with no buffered events are silent). Duplicate
    /// events at the same `(t, channel)` collapse, exactly as raster
    /// cells are 0/1.
    pub fn advance(&mut self, steps: usize) {
        let engine = self.engine.clone();
        let net = engine.network();
        for _ in 0..steps {
            let mut chans = self.pending.pop_front().unwrap_or_default();
            chans.sort_unstable();
            chans.dedup();
            // Layer `l` reads the spikes layer `l − 1` fired this step.
            for (l, layer) in net.layers().iter().enumerate() {
                let (below, rest) = self.layers.split_at_mut(l);
                let input = below.last().map_or(&chans[..], |s| &s.fired);
                layer.step(self.drive, input, &mut rest[0]);
            }
            let top = self.layers.last().expect("empty network");
            for &c in &top.fired {
                self.counts[c] += 1.0;
            }
            self.committed += 1;
            self.recycle(chans);
        }
        // Delta base never trails the frontier: after a TICK, dt = 0
        // addresses the first uncommitted step.
        self.cursor = self.cursor.max(self.committed);
    }

    /// Classifies from the accumulated output spike counts — identical
    /// to `Session::classify` on the concatenated raster (argmax of
    /// per-class counts, ties to the lowest class, class 0 when no
    /// output has spiked).
    pub fn readout(&self) -> usize {
        stats::argmax(&self.counts).unwrap_or(0)
    }

    /// Returns the session to the freshly-opened state — state zeroed,
    /// counters cleared, buffered events dropped — without reallocating.
    pub fn reset(&mut self) {
        let engine = self.engine.clone();
        let net = engine.network();
        for (scratch, layer) in self.layers.iter_mut().zip(net.layers()) {
            scratch.ensure(layer.n_in(), layer.n_out());
        }
        self.counts.fill(0.0);
        self.committed = 0;
        self.cursor = 0;
        while let Some(chans) = self.pending.pop_front() {
            self.recycle(chans);
        }
    }

    /// Returns a consumed channel list to the spare pool. Only lists that
    /// own an allocation are kept: silent steps yield zero-capacity lists,
    /// and pooling those would grow `spare` by one entry per silent step
    /// for as long as the stream lives. Allocated lists only ever come
    /// out of `pending`, so the pool stays within `max_pending` entries.
    fn recycle(&mut self, mut chans: Vec<usize>) {
        if chans.capacity() > 0 {
            chans.clear();
            self.spare.push(chans);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Backend;
    use crate::{Network, NeuronKind, SpikeRaster};
    use snn_neuron::NeuronParams;
    use snn_tensor::Rng;

    fn raster(seed: usize) -> SpikeRaster {
        let mut r = SpikeRaster::zeros(12, 6);
        for t in 0..12 {
            for c in 0..6 {
                if (t * 7 + c * 13 + seed * 31).is_multiple_of(5) {
                    r.set(t, c, true);
                }
            }
        }
        r
    }

    fn net(kind: NeuronKind) -> Network {
        let mut rng = Rng::seed_from(3);
        Network::mlp(
            &[6, 12, 4],
            kind,
            NeuronParams::paper_defaults().with_v_th(0.4),
            &mut rng,
        )
    }

    fn engines() -> Vec<Engine> {
        let mut out = Vec::new();
        for kind in [
            NeuronKind::Adaptive,
            NeuronKind::HardReset,
            NeuronKind::HardResetMatched,
        ] {
            out.push(Engine::from_network(net(kind)).build());
            out.push(
                Engine::from_network(net(kind))
                    .backend(Backend::Dense)
                    .build(),
            );
        }
        out
    }

    #[test]
    fn single_advance_matches_session_classify() {
        for engine in engines() {
            let mut session = engine.session();
            let mut stream = engine.stream_session();
            for seed in 0..8 {
                let r = raster(seed);
                stream.feed_events(&r.delta_events()).unwrap();
                stream.advance(r.steps());
                let got = stream.readout();
                let want = session.classify(&r);
                assert_eq!(got, want, "seed {seed} on {}", engine.backend().label());
                stream.reset();
            }
        }
    }

    #[test]
    fn chunked_advance_is_bitwise_identical() {
        for engine in engines() {
            let mut session = engine.session();
            let r = raster(1);
            let (class, probs) = session.classify_with_probs(&r);
            for chunk in [1usize, 2, 3, 5, 12] {
                let mut stream = engine.stream_session();
                stream.feed_events(&r.delta_events()).unwrap();
                let mut done = 0;
                while done < r.steps() {
                    let n = chunk.min(r.steps() - done);
                    stream.advance(n);
                    done += n;
                }
                assert_eq!(stream.readout(), class);
                // Counts must be bitwise equal, not merely argmax-equal.
                let total: f32 = stream.counts().iter().sum();
                assert!(total >= 0.0);
                let mut counts = vec![0.0f32; stream.n_out()];
                let mut fwd = crate::Forward::default();
                let mut scratch = crate::ScratchSpace::default();
                engine.backend().forward_into(&r, &mut fwd, &mut scratch);
                fwd.spike_counts_into(&mut counts);
                assert_eq!(
                    stream.counts(),
                    &counts[..],
                    "chunk {chunk} on {}",
                    engine.backend().label()
                );
            }
            let _ = probs;
        }
    }

    #[test]
    fn silent_steps_and_empty_feeds_are_fine() {
        let engine = engines().remove(0);
        let mut stream = engine.stream_session();
        stream.feed_events(&[]).unwrap();
        stream.advance(4);
        assert_eq!(stream.steps(), 4);
        assert_eq!(stream.readout(), 0);
    }

    #[test]
    fn spare_pool_stays_bounded_over_a_long_silent_stream() {
        let engine = engines().remove(0);
        let mut stream = engine.stream_session().with_max_pending(8);
        for round in 0..1000 {
            if round % 10 == 0 {
                stream.feed_events(&[(0, 1), (3, 2)]).unwrap();
            }
            stream.advance(100);
            assert!(
                stream.spare.len() <= stream.max_pending(),
                "round {round}: {} spare lists for a horizon of {}",
                stream.spare.len(),
                stream.max_pending()
            );
        }
        assert_eq!(stream.steps(), 100_000);
        stream.reset();
        assert!(stream.spare.len() <= stream.max_pending());
    }

    #[test]
    fn delta_base_moves_up_after_advance() {
        let engine = engines().remove(0);
        let mut stream = engine.stream_session();
        stream.advance(5);
        // dt = 0 now addresses step 5, the first uncommitted step.
        stream.feed_events(&[(0, 2)]).unwrap();
        stream.advance(1);
        assert_eq!(stream.steps(), 6);
        let mut session = engine.session();
        let r = SpikeRaster::from_events(6, 6, &[(5, 2)]);
        assert_eq!(stream.readout(), session.classify(&r));
    }

    #[test]
    fn feed_errors_are_typed() {
        let engine = engines().remove(0);
        let mut stream = engine.stream_session().with_max_pending(8);
        assert_eq!(
            stream.feed_at(0, 99),
            Err(StreamError::ChannelOutOfRange {
                channel: 99,
                n_in: 6
            })
        );
        stream.advance(3);
        assert_eq!(
            stream.feed_at(1, 0),
            Err(StreamError::EventBeforeFrontier { t: 1, committed: 3 })
        );
        assert_eq!(
            stream.feed_at(3 + 8, 0),
            Err(StreamError::HorizonExceeded {
                t: 11,
                committed: 3,
                horizon: 8
            })
        );
        // The stream stays usable after a rejected feed.
        stream.feed_at(3, 1).unwrap();
        stream.advance(1);
        assert_eq!(stream.steps(), 4);
    }

    #[test]
    fn reset_reuses_buffers_and_matches_fresh_session() {
        let engine = engines().remove(0);
        let mut stream = engine.stream_session();
        let a = raster(2);
        stream.feed_events(&a.delta_events()).unwrap();
        stream.advance(a.steps());
        stream.reset();
        assert_eq!(stream.steps(), 0);
        assert_eq!(stream.pending_events(), 0);
        let b = raster(3);
        stream.feed_events(&b.delta_events()).unwrap();
        stream.advance(b.steps());
        let mut session = engine.session();
        assert_eq!(stream.readout(), session.classify(&b));
    }

    #[test]
    fn duplicate_events_collapse() {
        let engine = engines().remove(0);
        let mut stream = engine.stream_session();
        stream.feed_events(&[(0, 2), (0, 2), (0, 2)]).unwrap();
        stream.advance(1);
        let mut session = engine.session();
        let r = SpikeRaster::from_events(1, 6, &[(0, 2)]);
        assert!(stream.counts().iter().sum::<f32>() >= 0.0);
        assert_eq!(stream.readout(), session.classify(&r));
    }
}
