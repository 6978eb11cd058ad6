//! Backend-agnostic, batched inference: the serving surface of the
//! workspace.
//!
//! The paper is an algorithm–hardware *codesign*: the same trained
//! network must run identically as an event-driven software model, as a
//! dense reference, and as a quantized RRAM crossbar. This module
//! unifies those run paths behind one [`InferenceBackend`] trait and a
//! small serving stack:
//!
//! * [`Engine`] — owns a backend (built from a [`Network`] via
//!   [`Engine::from_network`] or a checkpoint via [`Engine::load`]) and
//!   a thread policy, and fans batched work across workers with the
//!   same fixed-chunk discipline as the trainer, so results are
//!   **deterministic for any thread count**.
//! * [`Session`] — a single-worker handle owning the reusable
//!   [`ScratchSpace`], [`Forward`], count/probability and raster
//!   buffers; after the first call its [`infer`](Session::infer) /
//!   [`classify`](Session::classify) hot path performs **zero
//!   per-sample heap allocations**.
//! * [`Network`] / [`DenseBackend`] — the event-driven kernels and the
//!   dense reference. The hardware backend lives with the
//!   crossbar model: `snn_hardware::Deployment` implements
//!   [`InferenceBackend`], and the `snn-engine` crate packages it as a
//!   [`Backend`] factory with quantization/variation config.
//!
//! # Examples
//!
//! ```
//! use snn_core::engine::{Backend, Engine};
//! use snn_core::{Network, NeuronKind, SpikeRaster};
//! use snn_neuron::NeuronParams;
//! use snn_tensor::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let net = Network::mlp(&[4, 12, 3], NeuronKind::Adaptive,
//!                        NeuronParams::paper_defaults(), &mut rng);
//! let engine = Engine::from_network(net)
//!     .backend(Backend::Sparse)
//!     .threads(2)
//!     .build();
//! let inputs: Vec<SpikeRaster> = (0..5)
//!     .map(|i| SpikeRaster::from_events(10, 4, &[(i, i % 4), (i + 2, 0)]))
//!     .collect();
//! let preds = engine.classify_batch(&inputs);
//! assert_eq!(preds.len(), 5);
//!
//! // Latency path: one session, reused buffers.
//! let mut session = engine.session();
//! let (class, probs) = session.classify_with_probs(&inputs[0]);
//! assert_eq!(class, preds[0]);
//! assert_eq!(probs.len(), 3);
//! ```

use crate::checkpoint::{self, CheckpointError};
use crate::scratch::ScratchSpace;
use crate::{Drive, Forward, Network, SpikeRaster};
use snn_tensor::stats;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Samples per evaluation chunk: the unit of parallel work distribution
/// for [`Engine::classify_batch`] / [`Engine::evaluate`]. Fixed (never
/// derived from the thread count) so the partition — and therefore every
/// observable result — is identical no matter how many workers run, the
/// same discipline as the trainer's `GRAD_CHUNK`.
pub const BATCH_CHUNK: usize = 8;

/// One way of running a trained network forward.
///
/// Implementations must be cheap to call repeatedly: `forward_into`
/// reuses the caller's buffers and performs no per-sample allocations
/// once they are warm. Backends are immutable after construction
/// (`Sync`), which is what lets the engine share one across workers.
pub trait InferenceBackend: Send + Sync {
    /// The network this backend evaluates (for the hardware backend,
    /// the crossbars' *effective* network).
    fn network(&self) -> &Network;

    /// Short human-readable backend name (`"sparse"`, `"dense"`,
    /// `"hardware"`…), used in reports and benchmarks.
    fn label(&self) -> &str;

    /// Runs one input through the backend into reusable buffers.
    fn forward_into(&self, input: &SpikeRaster, fwd: &mut Forward, scratch: &mut ScratchSpace);

    /// The [`Drive`] this backend's rollout runs under, which a
    /// [`StreamSession`](crate::stream::StreamSession) steps with so its
    /// step-at-a-time rollout is bitwise identical to
    /// [`forward_into`](Self::forward_into).
    ///
    /// The default is [`Drive::Events`], correct for any backend whose
    /// `forward_into` bottoms out in the event-driven
    /// [`Network::forward_into`] rollout (the bare network and the
    /// hardware backend, which replays its *effective* network through
    /// the sparse kernels). The dense reference overrides it with
    /// [`Drive::Dense`], because its per-step matrix–vector products
    /// order the floating-point reductions differently.
    fn drive(&self) -> Drive {
        Drive::Events
    }
}

/// A bare [`Network`] is the sparse (event-driven) backend that
/// [`Backend::Sparse`] builds. Borrowing callers — e.g.
/// [`evaluate_classification`](crate::train::evaluate_classification) —
/// reuse the engine's batched evaluation machinery without cloning.
impl InferenceBackend for Network {
    fn network(&self) -> &Network {
        self
    }

    fn label(&self) -> &str {
        "sparse"
    }

    fn forward_into(&self, input: &SpikeRaster, fwd: &mut Forward, scratch: &mut ScratchSpace) {
        Network::forward_into(self, input, fwd, scratch);
    }
}

/// Dense reference backend: naive per-step matrix–vector products, the
/// correctness yardstick and benchmark baseline.
#[derive(Debug, Clone)]
pub struct DenseBackend {
    net: Network,
}

impl DenseBackend {
    /// Wraps a network.
    pub fn new(net: Network) -> Self {
        Self { net }
    }
}

impl InferenceBackend for DenseBackend {
    fn network(&self) -> &Network {
        &self.net
    }

    fn label(&self) -> &str {
        "dense"
    }

    fn forward_into(&self, input: &SpikeRaster, fwd: &mut Forward, scratch: &mut ScratchSpace) {
        self.net.forward_dense_into(input, fwd, scratch);
    }

    fn drive(&self) -> Drive {
        Drive::Dense
    }
}

/// Builds a backend from the network an [`EngineBuilder`] holds — the
/// extension point for backends this crate cannot know about (the
/// `snn-engine` crate uses it to plug in the RRAM hardware backend).
pub trait BackendFactory: Send + Sync {
    /// Consumes the builder's network and produces the backend.
    fn build(&self, net: Network) -> Arc<dyn InferenceBackend>;

    /// Short name for debug output.
    fn describe(&self) -> &str {
        "custom"
    }
}

/// Backend selection for [`EngineBuilder::backend`].
pub enum Backend {
    /// Event-driven sparse kernels (default).
    Sparse,
    /// Dense per-step reference products.
    Dense,
    /// A custom backend built by a [`BackendFactory`] (e.g. the RRAM
    /// hardware backend from `snn-engine`).
    Custom(Box<dyn BackendFactory>),
}

impl fmt::Debug for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Sparse => f.write_str("Sparse"),
            Backend::Dense => f.write_str("Dense"),
            Backend::Custom(factory) => write!(f, "Custom({})", factory.describe()),
        }
    }
}

/// Configures and builds an [`Engine`].
#[derive(Debug)]
pub struct EngineBuilder {
    net: Network,
    backend: Backend,
    threads: usize,
}

impl EngineBuilder {
    /// Selects the backend (default [`Backend::Sparse`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Worker threads for batched calls; `0` (default) means one per
    /// available core. Results are identical for any value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builds the engine, consuming the network into the backend.
    pub fn build(self) -> Engine {
        let backend: Arc<dyn InferenceBackend> = match self.backend {
            Backend::Sparse => Arc::new(self.net),
            Backend::Dense => Arc::new(DenseBackend::new(self.net)),
            Backend::Custom(factory) => factory.build(self.net),
        };
        Engine {
            backend,
            threads: self.threads,
        }
    }
}

/// A backend plus a thread policy: the long-lived serving object.
///
/// Cheap to clone (the backend is shared); create one per model and hand
/// out [`Session`]s to workers, or call the batched entry points
/// directly.
#[derive(Clone)]
pub struct Engine {
    backend: Arc<dyn InferenceBackend>,
    threads: usize,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("backend", &self.backend.label())
            .field("threads", &self.threads)
            .finish()
    }
}

impl Engine {
    /// Starts a builder from an in-memory network.
    pub fn from_network(net: Network) -> EngineBuilder {
        EngineBuilder {
            net,
            backend: Backend::Sparse,
            threads: 0,
        }
    }

    /// Starts a builder from a JSON checkpoint (see
    /// [`crate::checkpoint`] module).
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the file cannot be read or
    /// parsed.
    pub fn load(path: impl AsRef<Path>) -> Result<EngineBuilder, CheckpointError> {
        Ok(Self::from_network(checkpoint::load(path)?))
    }

    /// Wraps an already-built backend (e.g. a hand-constructed hardware
    /// deployment) with the default thread policy.
    pub fn from_backend(backend: Arc<dyn InferenceBackend>) -> Self {
        Self {
            backend,
            threads: 0,
        }
    }

    /// The backend's network (for the hardware backend, the effective
    /// post-quantization weights).
    pub fn network(&self) -> &Network {
        self.backend.network()
    }

    /// The backend itself.
    pub fn backend(&self) -> &dyn InferenceBackend {
        &*self.backend
    }

    /// The configured worker-thread count (`0` = one per core).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Opens a session: a single-worker handle with private reusable
    /// buffers. Sessions are independent; open one per worker.
    pub fn session(&self) -> Session<'_> {
        Session::new(&*self.backend)
    }

    /// Opens a stateful streaming session: membrane and trace state stay
    /// resident between event chunks, and the rollout is bitwise
    /// identical to replaying the concatenated raster through
    /// [`session`](Self::session). See [`crate::stream`].
    pub fn stream_session(&self) -> crate::stream::StreamSession {
        crate::stream::StreamSession::new(self)
    }

    /// Classifies a batch, fanning chunks of [`BATCH_CHUNK`] samples
    /// across the configured workers. Predictions come back in input
    /// order and are bitwise identical for any thread count.
    pub fn classify_batch(&self, inputs: &[SpikeRaster]) -> Vec<usize> {
        classify_batch_with(&*self.backend, inputs, self.threads)
    }

    /// Classification accuracy over labelled data (parallel, chunked,
    /// deterministic — see [`classify_batch`](Self::classify_batch)).
    pub fn evaluate(&self, data: &[(SpikeRaster, usize)]) -> f32 {
        evaluate_with(&*self.backend, data, self.threads)
    }
}

/// The reusable buffer set behind a [`Session`] / [`PooledSession`]:
/// forward cache, scratch, count/probability and raster buffers. Keeping
/// the buffers separate from the backend borrow is what lets a
/// [`SessionPool`] recycle warm buffers across short-lived checkouts.
#[derive(Debug)]
struct SessionBuffers {
    fwd: Forward,
    scratch: ScratchSpace,
    counts: Vec<f32>,
    probs: Vec<f32>,
    raster: SpikeRaster,
}

impl SessionBuffers {
    fn new() -> Self {
        Self {
            fwd: Forward::empty(),
            scratch: ScratchSpace::new(),
            counts: Vec::new(),
            probs: Vec::new(),
            raster: SpikeRaster::zeros(0, 0),
        }
    }

    fn infer(&mut self, backend: &dyn InferenceBackend, input: &SpikeRaster) -> &Forward {
        backend.forward_into(input, &mut self.fwd, &mut self.scratch);
        &self.fwd
    }

    fn infer_raster(
        &mut self,
        backend: &dyn InferenceBackend,
        input: &SpikeRaster,
    ) -> &SpikeRaster {
        backend.forward_into(input, &mut self.fwd, &mut self.scratch);
        self.fwd.output_raster_into(&mut self.raster);
        &self.raster
    }

    fn classify(&mut self, backend: &dyn InferenceBackend, input: &SpikeRaster) -> usize {
        backend.forward_into(input, &mut self.fwd, &mut self.scratch);
        self.fwd.spike_counts_into(&mut self.counts);
        stats::argmax(&self.counts).unwrap_or(0)
    }

    fn classify_with_probs(
        &mut self,
        backend: &dyn InferenceBackend,
        input: &SpikeRaster,
    ) -> (usize, &[f32]) {
        let class = self.classify(backend, input);
        stats::softmax_into(&self.counts, &mut self.probs);
        (class, &self.probs)
    }
}

/// A single worker's inference handle: owns every reusable buffer the
/// hot path needs, so once warm its calls make **zero per-sample heap
/// allocations** (pinned by the `zero_alloc` integration test in
/// `snn-engine`).
///
/// One worker, one session: every hot-path method takes `&mut self`, so
/// a session can never serve two inputs concurrently — workers each open
/// their own. Sessions borrow their backend, so they are cheap to create
/// per batch; long-lived servers that open sessions per request should
/// check warm buffers out of a [`SessionPool`] instead.
pub struct Session<'e> {
    backend: &'e dyn InferenceBackend,
    buf: SessionBuffers,
}

impl fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("backend", &self.backend.label())
            .finish_non_exhaustive()
    }
}

impl<'e> Session<'e> {
    /// Opens a session on a backend ([`Engine::session`] is the usual
    /// entry point).
    pub fn new(backend: &'e dyn InferenceBackend) -> Self {
        Self {
            backend,
            buf: SessionBuffers::new(),
        }
    }

    /// The backend this session runs on.
    pub fn backend(&self) -> &dyn InferenceBackend {
        self.backend
    }

    /// Runs one input and returns the full per-layer forward cache
    /// (valid until the next call on this session).
    pub fn infer(&mut self, input: &SpikeRaster) -> &Forward {
        self.buf.infer(self.backend, input)
    }

    /// Runs one input and returns the output spike raster, reusing the
    /// session's raster buffer.
    pub fn infer_raster(&mut self, input: &SpikeRaster) -> &SpikeRaster {
        self.buf.infer_raster(self.backend, input)
    }

    /// Predicted class (argmax of output spike counts).
    pub fn classify(&mut self, input: &SpikeRaster) -> usize {
        self.buf.classify(self.backend, input)
    }

    /// Predicted class plus softmax probabilities over the output spike
    /// counts (borrowed from the session's buffer).
    pub fn classify_with_probs(&mut self, input: &SpikeRaster) -> (usize, &[f32]) {
        self.buf.classify_with_probs(self.backend, input)
    }

    /// The forward cache of the most recent call.
    pub fn last_output(&self) -> &Forward {
        &self.buf.fwd
    }
}

/// A shared, thread-safe pool of warm session buffers over one
/// [`Engine`] — the serving-layer primitive behind `snn-serve`'s worker
/// pool.
///
/// [`acquire`](Self::acquire) checks out a [`PooledSession`]; dropping it
/// returns its buffers to the pool, so a server that serves requests from
/// arbitrary worker threads still performs zero per-sample allocations
/// once every checkout path is warm. The pool never blocks: if all
/// buffers are checked out, `acquire` creates a fresh set (the pool grows
/// to the peak concurrency and then stops allocating).
///
/// # Examples
///
/// ```
/// use snn_core::engine::{Engine, SessionPool};
/// use snn_core::{Network, NeuronKind, SpikeRaster};
/// use snn_neuron::NeuronParams;
/// use snn_tensor::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let net = Network::mlp(&[4, 8, 2], NeuronKind::Adaptive,
///                        NeuronParams::paper_defaults(), &mut rng);
/// let pool = SessionPool::new(Engine::from_network(net).build());
/// let input = SpikeRaster::from_events(10, 4, &[(1, 2), (4, 0)]);
/// let class = pool.acquire().classify(&input);
/// assert!(class < 2);
/// assert_eq!(pool.idle(), 1); // buffers came back on drop
/// ```
pub struct SessionPool {
    engine: Engine,
    idle: std::sync::Mutex<Vec<SessionBuffers>>,
}

impl fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionPool")
            .field("engine", &self.engine)
            .field("idle", &self.idle())
            .finish()
    }
}

impl SessionPool {
    /// Creates an empty pool over an engine.
    pub fn new(engine: Engine) -> Self {
        Self {
            engine,
            idle: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// The engine the pool serves.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of idle buffer sets currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.idle.lock().expect("session pool poisoned").len()
    }

    /// Checks out a session, reusing warm buffers when any are idle.
    pub fn acquire(&self) -> PooledSession<'_> {
        let buf = self
            .idle
            .lock()
            .expect("session pool poisoned")
            .pop()
            .unwrap_or_else(SessionBuffers::new);
        PooledSession {
            pool: self,
            buf: Some(buf),
            poisoned: false,
        }
    }
}

/// A session checked out of a [`SessionPool`]; its buffers return to the
/// pool on drop. Same hot-path surface as [`Session`].
///
/// A supervisor that catches a panic mid-inference should call
/// [`poison`](Self::poison) before dropping the session: the buffers may
/// hold a half-updated state, so they are quarantined (discarded) instead
/// of being recycled, and the pool lazily respawns a fresh set on the
/// next [`acquire`](SessionPool::acquire).
pub struct PooledSession<'p> {
    pool: &'p SessionPool,
    buf: Option<SessionBuffers>,
    poisoned: bool,
}

impl fmt::Debug for PooledSession<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PooledSession")
            .field("backend", &self.backend().label())
            .finish_non_exhaustive()
    }
}

impl PooledSession<'_> {
    fn buffers(&mut self) -> &mut SessionBuffers {
        self.buf.as_mut().expect("buffers present until drop")
    }

    /// The backend this session runs on.
    pub fn backend(&self) -> &dyn InferenceBackend {
        self.pool.engine.backend()
    }

    /// Runs one input and returns the full per-layer forward cache
    /// (valid until the next call on this session).
    pub fn infer(&mut self, input: &SpikeRaster) -> &Forward {
        let backend = self.pool.engine.backend();
        self.buffers().infer(backend, input)
    }

    /// Runs one input and returns the output spike raster, reusing the
    /// session's raster buffer.
    pub fn infer_raster(&mut self, input: &SpikeRaster) -> &SpikeRaster {
        let backend = self.pool.engine.backend();
        self.buffers().infer_raster(backend, input)
    }

    /// Predicted class (argmax of output spike counts).
    pub fn classify(&mut self, input: &SpikeRaster) -> usize {
        let backend = self.pool.engine.backend();
        self.buffers().classify(backend, input)
    }

    /// Predicted class plus softmax probabilities over the output spike
    /// counts (borrowed from the session's buffer).
    pub fn classify_with_probs(&mut self, input: &SpikeRaster) -> (usize, &[f32]) {
        let backend = self.pool.engine.backend();
        self.buffers().classify_with_probs(backend, input)
    }

    /// Marks the session's buffers as unrecoverable: they are discarded
    /// on drop instead of returning to the pool.
    ///
    /// Call this after catching a panic that unwound through an inference
    /// call on this session — the buffers may be in a half-updated state,
    /// and recycling them would leak the corruption into later requests.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }
}

impl Drop for PooledSession<'_> {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            // Quarantine poisoned buffers: drop them on the floor and let
            // the pool allocate a fresh set on the next acquire.
            if self.poisoned {
                return;
            }
            // A poisoned pool just drops the buffers: the next acquire
            // would panic anyway, and Drop must not.
            if let Ok(mut idle) = self.pool.idle.lock() {
                idle.push(buf);
            }
        }
    }
}

fn resolved_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// [`Engine::classify_batch`] against a borrowed backend — `threads = 0`
/// means one worker per core.
pub fn classify_batch_with(
    backend: &dyn InferenceBackend,
    inputs: &[SpikeRaster],
    threads: usize,
) -> Vec<usize> {
    let mut out = vec![0usize; inputs.len()];
    classify_indexed(backend, inputs.len(), &|i| &inputs[i], threads, &mut out);
    out
}

/// [`Engine::evaluate`] against a borrowed backend: classification
/// accuracy over labelled data. This free function is the **single
/// evaluation code path** of the workspace —
/// [`evaluate_classification`](crate::train::evaluate_classification)
/// and the engine both delegate here.
pub fn evaluate_with(
    backend: &dyn InferenceBackend,
    data: &[(SpikeRaster, usize)],
    threads: usize,
) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let mut preds = vec![0usize; data.len()];
    classify_indexed(backend, data.len(), &|i| &data[i].0, threads, &mut preds);
    let correct = preds
        .iter()
        .zip(data)
        .filter(|(p, (_, label))| *p == label)
        .count();
    correct as f32 / data.len() as f32
}

/// Shared batched-classification core: fixed [`BATCH_CHUNK`] partition,
/// static round-robin chunk ownership (chunk `c` belongs to worker
/// `c % workers`), predictions written straight into disjoint slices of
/// `out` — no per-sample allocation, results independent of `threads`.
fn classify_indexed<'d, F>(
    backend: &dyn InferenceBackend,
    n: usize,
    input_at: &F,
    threads: usize,
    out: &mut [usize],
) where
    F: Fn(usize) -> &'d SpikeRaster + Sync,
{
    debug_assert_eq!(out.len(), n);
    let n_chunks = n.div_ceil(BATCH_CHUNK).max(1);
    let workers = resolved_threads(threads).clamp(1, n_chunks);
    if workers == 1 || n < 2 * BATCH_CHUNK {
        let mut session = Session::new(backend);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = session.classify(input_at(i));
        }
        return;
    }
    let mut per_worker: Vec<Vec<(usize, &mut [usize])>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (c, slice) in out.chunks_mut(BATCH_CHUNK).enumerate() {
        per_worker[c % workers].push((c, slice));
    }
    std::thread::scope(|scope| {
        for chunks in per_worker {
            scope.spawn(move || {
                let mut session = Session::new(backend);
                for (c, slice) in chunks {
                    let base = c * BATCH_CHUNK;
                    for (j, slot) in slice.iter_mut().enumerate() {
                        *slot = session.classify(input_at(base + j));
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NeuronKind;
    use snn_neuron::NeuronParams;
    use snn_tensor::Rng;

    fn small_net(seed: u64) -> Network {
        let mut rng = Rng::seed_from(seed);
        Network::mlp(
            &[6, 14, 4],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.4),
            &mut rng,
        )
    }

    fn random_inputs(n: usize, seed: u64) -> Vec<SpikeRaster> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| {
                let mut r = SpikeRaster::zeros(12, 6);
                for t in 0..12 {
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
    fn builder_selects_backends() {
        let net = small_net(1);
        let sparse = Engine::from_network(net.clone()).build();
        assert_eq!(sparse.backend().label(), "sparse");
        let dense = Engine::from_network(net).backend(Backend::Dense).build();
        assert_eq!(dense.backend().label(), "dense");
        assert_eq!(format!("{:?}", Backend::Dense), "Dense");
    }

    #[test]
    fn sparse_and_dense_backends_agree_on_predictions() {
        let net = small_net(2);
        let inputs = random_inputs(20, 3);
        let sparse = Engine::from_network(net.clone()).build();
        let dense = Engine::from_network(net).backend(Backend::Dense).build();
        assert_eq!(
            sparse.classify_batch(&inputs),
            dense.classify_batch(&inputs)
        );
    }

    #[test]
    fn classify_batch_is_identical_for_any_thread_count() {
        let net = small_net(4);
        let inputs = random_inputs(37, 5);
        let reference = Engine::from_network(net.clone())
            .threads(1)
            .build()
            .classify_batch(&inputs);
        for threads in [2, 3, 4, 16] {
            let engine = Engine::from_network(net.clone()).threads(threads).build();
            assert_eq!(
                engine.classify_batch(&inputs),
                reference,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn session_matches_batched_results_and_network_classify() {
        let net = small_net(6);
        let inputs = random_inputs(10, 7);
        let engine = Engine::from_network(net.clone()).build();
        let batched = engine.classify_batch(&inputs);
        let mut session = engine.session();
        for (input, &expected) in inputs.iter().zip(&batched) {
            assert_eq!(session.classify(input), expected);
            assert_eq!(net.classify(input).0, expected);
        }
        let (class, probs) = session.classify_with_probs(&inputs[0]);
        assert_eq!(class, batched[0]);
        assert_eq!(probs.len(), 4);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn session_infer_raster_reuses_buffer() {
        let net = small_net(8);
        let inputs = random_inputs(3, 9);
        let engine = Engine::from_network(net.clone()).build();
        let mut session = engine.session();
        let expected = net.forward(&inputs[0]).output_raster();
        assert_eq!(session.infer_raster(&inputs[0]), &expected);
        // Second call with a different input must overwrite, not append.
        let expected2 = net.forward(&inputs[1]).output_raster();
        assert_eq!(session.infer_raster(&inputs[1]), &expected2);
    }

    #[test]
    fn evaluate_scores_known_labels() {
        let net = small_net(10);
        let inputs = random_inputs(24, 11);
        let engine = Engine::from_network(net.clone()).threads(3).build();
        let preds = engine.classify_batch(&inputs);
        let data: Vec<(SpikeRaster, usize)> =
            inputs.iter().cloned().zip(preds.iter().cloned()).collect();
        assert_eq!(engine.evaluate(&data), 1.0);
        let wrong: Vec<(SpikeRaster, usize)> =
            data.iter().map(|(r, l)| (r.clone(), (l + 1) % 4)).collect();
        assert_eq!(engine.evaluate(&wrong), 0.0);
        assert_eq!(engine.evaluate(&[]), 0.0);
    }

    #[test]
    fn engine_load_roundtrips_checkpoint() {
        let net = small_net(12);
        let path = std::env::temp_dir().join("neurosnn_engine_load_test.json");
        checkpoint::save(&net, &path).unwrap();
        let engine = Engine::load(&path)
            .unwrap()
            .backend(Backend::Sparse)
            .build();
        let _ = std::fs::remove_file(&path);
        let inputs = random_inputs(6, 13);
        let direct = Engine::from_network(net).build();
        assert_eq!(
            engine.classify_batch(&inputs),
            direct.classify_batch(&inputs)
        );
    }

    #[test]
    fn engine_and_pool_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<SessionPool>();
        assert_send_sync::<PooledSession<'_>>();
    }

    #[test]
    fn pooled_sessions_match_plain_sessions_and_recycle_buffers() {
        let net = small_net(16);
        let inputs = random_inputs(6, 17);
        let engine = Engine::from_network(net).build();
        let expected = engine.classify_batch(&inputs);
        let pool = SessionPool::new(engine);
        assert_eq!(pool.idle(), 0);
        {
            let mut a = pool.acquire();
            let mut b = pool.acquire();
            for (input, &want) in inputs.iter().zip(&expected) {
                assert_eq!(a.classify(input), want);
                assert_eq!(b.classify(input), want);
            }
            let (class, probs) = a.classify_with_probs(&inputs[0]);
            assert_eq!(class, expected[0]);
            assert_eq!(probs.len(), 4);
        }
        // Both buffer sets returned; the next checkout reuses one.
        assert_eq!(pool.idle(), 2);
        let mut warm = pool.acquire();
        assert_eq!(pool.idle(), 1);
        assert_eq!(warm.classify(&inputs[0]), expected[0]);
        assert_eq!(warm.backend().label(), "sparse");
    }

    #[test]
    fn pool_serves_concurrent_workers() {
        let net = small_net(18);
        let inputs = random_inputs(16, 19);
        let engine = Engine::from_network(net).build();
        let expected = engine.classify_batch(&inputs);
        let pool = SessionPool::new(engine);
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let (pool, inputs, expected) = (&pool, &inputs, &expected);
                scope.spawn(move || {
                    let mut session = pool.acquire();
                    for (input, &want) in inputs.iter().zip(expected) {
                        assert_eq!(session.classify(input), want, "worker {worker}");
                    }
                });
            }
        });
        assert!(pool.idle() >= 1 && pool.idle() <= 4);
    }

    #[test]
    fn poisoned_session_buffers_are_quarantined_not_recycled() {
        let net = small_net(21);
        let inputs = random_inputs(2, 22);
        let engine = Engine::from_network(net).build();
        let expected = engine.classify_batch(&inputs);
        let pool = SessionPool::new(engine);
        {
            let mut session = pool.acquire();
            session.classify(&inputs[0]);
            session.poison();
        }
        // The poisoned buffers were discarded, not parked.
        assert_eq!(pool.idle(), 0);
        // The pool respawns a fresh set and keeps serving correctly.
        let mut fresh = pool.acquire();
        assert_eq!(fresh.classify(&inputs[1]), expected[1]);
        drop(fresh);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn borrowed_network_is_a_sparse_backend() {
        let net = small_net(14);
        let inputs = random_inputs(9, 15);
        let via_trait = classify_batch_with(&net, &inputs, 2);
        let via_engine = Engine::from_network(net).build().classify_batch(&inputs);
        assert_eq!(via_trait, via_engine);
    }
}
