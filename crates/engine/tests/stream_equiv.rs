//! Property tests: a [`StreamSession`] chunked rollout is **bitwise
//! identical** to single-shot classification of the concatenated raster,
//! on all three backends (sparse / dense / RRAM hardware), for arbitrary
//! chunk boundaries — including empty chunks (silent `advance` with no
//! events) and mid-timestep splits (one timestep's events fed across
//! several `feed` calls).

use proptest::prelude::*;
use snn_core::{Forward, Network, NeuronKind, ScratchSpace, SpikeRaster};
use snn_engine::{hardware, Backend, DeployConfig, Engine};
use snn_neuron::NeuronParams;
use snn_tensor::Rng;

const STEPS: usize = 14;
const KINDS: [NeuronKind; 3] = [
    NeuronKind::Adaptive,
    NeuronKind::HardReset,
    NeuronKind::HardResetMatched,
];
const CHANNELS: usize = 6;

fn net(kind: NeuronKind) -> Network {
    let mut rng = Rng::seed_from(11);
    Network::mlp(
        &[CHANNELS, 12, 4],
        kind,
        NeuronParams::paper_defaults().with_v_th(0.4),
        &mut rng,
    )
}

fn engines(kind: NeuronKind) -> Vec<Engine> {
    vec![
        Engine::from_network(net(kind))
            .backend(Backend::Sparse)
            .build(),
        Engine::from_network(net(kind))
            .backend(Backend::Dense)
            .build(),
        Engine::from_network(net(kind))
            .backend(hardware(DeployConfig::four_bit().with_deviation(0.2), 5))
            .build(),
    ]
}

fn raster_strategy() -> impl Strategy<Value = SpikeRaster> {
    proptest::collection::vec(any::<bool>(), STEPS * CHANNELS).prop_map(|bits| {
        let mut r = SpikeRaster::zeros(STEPS, CHANNELS);
        for (i, b) in bits.into_iter().enumerate() {
            if b {
                r.set(i / CHANNELS, i % CHANNELS, true);
            }
        }
        r
    })
}

/// Reference counts from the backend's own batch rollout.
fn reference_counts(engine: &Engine, r: &SpikeRaster) -> Vec<f32> {
    let mut fwd = Forward::default();
    let mut scratch = ScratchSpace::default();
    engine.backend().forward_into(r, &mut fwd, &mut scratch);
    let mut counts = Vec::new();
    fwd.spike_counts_into(&mut counts);
    counts
}

proptest! {
    /// Arbitrary interleaving of single-event feeds and single-step
    /// advances (absolute-time API): the schedule only commits a step
    /// once all of that step's events are fed, everything else is free —
    /// so chunk boundaries fall anywhere, including mid-timestep.
    #[test]
    fn interleaved_feed_advance_is_bitwise_identical(
        r in raster_strategy(),
        actions in proptest::collection::vec(any::<u8>(), 0..80),
        kind in 0usize..3,
    ) {
        let kind = KINDS[kind];
        for engine in engines(kind) {
            let events = r.events();
            let mut stream = engine.stream_session();
            let mut ei = 0;
            for &a in &actions {
                if a % 2 == 0 && ei < events.len() {
                    let (t, c) = events[ei];
                    stream.feed_at(t, c).unwrap();
                    ei += 1;
                } else {
                    let next_t = events.get(ei).map_or(usize::MAX, |&(t, _)| t);
                    if stream.steps() < r.steps() && next_t > stream.steps() {
                        stream.advance(1);
                    }
                }
            }
            for &(t, c) in &events[ei..] {
                stream.feed_at(t, c).unwrap();
            }
            stream.advance(r.steps() - stream.steps());

            let counts = reference_counts(&engine, &r);
            prop_assert_eq!(
                stream.counts(), &counts[..],
                "counts diverge on {} backend", engine.backend().label()
            );
            let mut session = engine.session();
            prop_assert_eq!(stream.readout(), session.classify(&r));
        }
    }

    /// Delta-encoded feeds (the wire encoding) split at arbitrary event
    /// boundaries, with advances interleaved between chunks — never past
    /// the last fed event, so the delta base stays on the event cursor.
    #[test]
    fn chunked_delta_feed_is_bitwise_identical(
        r in raster_strategy(),
        cuts in proptest::collection::vec(any::<u16>(), 0..5),
        kind in 0usize..3,
    ) {
        let kind = KINDS[kind];
        let deltas = r.delta_events();
        let mut bounds: Vec<usize> = cuts
            .iter()
            .map(|&i| i as usize % (deltas.len() + 1))
            .collect();
        bounds.push(0);
        bounds.push(deltas.len());
        bounds.sort_unstable();
        bounds.dedup();
        for engine in engines(kind) {
            let mut stream = engine.stream_session();
            let mut fed_t = 0usize; // absolute t of the last fed event
            for pair in bounds.windows(2) {
                let chunk = &deltas[pair[0]..pair[1]];
                stream.feed_events(chunk).unwrap();
                for &(dt, _) in chunk {
                    fed_t += dt;
                }
                // Advance to the last fed event; empty chunks advance 0.
                if fed_t >= stream.steps() {
                    stream.advance(fed_t - stream.steps());
                }
            }
            stream.advance(r.steps() - stream.steps());

            let counts = reference_counts(&engine, &r);
            prop_assert_eq!(
                stream.counts(), &counts[..],
                "counts diverge on {} backend", engine.backend().label()
            );
            let mut session = engine.session();
            prop_assert_eq!(stream.readout(), session.classify(&r));
        }
    }

    /// Reset between rasters leaves no residue: stream N rasters through
    /// one session with resets, each matches a fresh single-shot run.
    #[test]
    fn reset_between_rasters_leaves_no_residue(
        a in raster_strategy(),
        b in raster_strategy(),
    ) {
        for engine in engines(NeuronKind::Adaptive) {
            let mut stream = engine.stream_session();
            let mut session = engine.session();
            for r in [&a, &b, &a] {
                stream.feed_events(&r.delta_events()).unwrap();
                stream.advance(r.steps());
                prop_assert_eq!(stream.readout(), session.classify(r));
                prop_assert_eq!(stream.counts(), &reference_counts(&engine, r)[..]);
                stream.reset();
            }
        }
    }
}
