//! Model checkpointing: save and load trained networks as JSON.
//!
//! The deployment pipeline (train in software → program crossbars) needs
//! trained weights to outlive a process; JSON keeps checkpoints
//! human-inspectable and diff-able, which matters for a reproduction
//! repository. Serialization is hand-rolled on top of [`snn_json`]
//! (shortest-roundtrip float formatting), so weights survive
//! save → load bit-exactly with no third-party dependencies.
//!
//! # Crash safety
//!
//! Checkpoints feed hot reload in the serving layer, so a half-written or
//! bit-rotted file must never be loaded as a model. Two defenses:
//!
//! - [`save`] writes atomically: the document goes to a temporary file in
//!   the target directory, is fsynced, and is renamed over the destination
//!   (rename within a directory is atomic on POSIX). Readers see either the
//!   old complete file or the new complete file, never a prefix.
//! - Saved files end in an integrity trailer
//!   (`#neurosnn-trailer v1 len=… crc32=…`, see [`snn_json::integrity`]).
//!   The loader verifies it before parsing and rejects damage with typed
//!   errors: [`CheckpointError::Truncated`] and
//!   [`CheckpointError::ChecksumMismatch`]. Trailer-less files (written by
//!   older versions, or by hand) still load; their damage is only caught
//!   when it breaks the JSON or the shape checks.
//!
//! Non-finite weights (NaN/Inf serialize as `null`) are rejected at load
//! with [`CheckpointError::NonFinite`] rather than propagating garbage
//! into inference.

use crate::{DenseLayer, Network, NeuronKind};
use snn_json::integrity::{self, IntegrityError};
use snn_json::Json;
use snn_neuron::NeuronParams;
use snn_tensor::Matrix;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Schema tag written into every checkpoint.
const FORMAT: &str = "neurosnn-checkpoint-v1";

/// Error loading or saving a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Malformed checkpoint contents.
    Parse(String),
    /// The integrity trailer declares more payload bytes than the file
    /// holds — the file was cut short (partial write, partial copy).
    Truncated {
        /// Payload bytes the trailer declares.
        expected: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The payload does not hash to the checksum in the integrity
    /// trailer — the bytes were altered after the checkpoint was sealed.
    ChecksumMismatch {
        /// CRC32 the trailer declares.
        expected: u32,
        /// CRC32 of the payload as found.
        actual: u32,
    },
    /// A weight in the given layer is NaN or infinite.
    NonFinite {
        /// Index of the offending layer.
        layer: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Parse(e) => write!(f, "checkpoint parse error: {e}"),
            CheckpointError::Truncated { expected, actual } => write!(
                f,
                "checkpoint truncated: trailer declares {expected} payload bytes, found {actual}"
            ),
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint corrupt: crc32 {actual:08x} does not match trailer {expected:08x}"
            ),
            CheckpointError::NonFinite { layer } => {
                write!(f, "layer {layer}: non-finite weight")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<IntegrityError> for CheckpointError {
    fn from(e: IntegrityError) -> Self {
        match e {
            IntegrityError::Truncated { expected, actual } => {
                CheckpointError::Truncated { expected, actual }
            }
            IntegrityError::ChecksumMismatch { expected, actual } => {
                CheckpointError::ChecksumMismatch { expected, actual }
            }
            IntegrityError::MalformedTrailer => {
                CheckpointError::Parse("unparsable integrity trailer".into())
            }
        }
    }
}

fn parse_err(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Parse(msg.into())
}

fn kind_name(kind: NeuronKind) -> &'static str {
    match kind {
        NeuronKind::Adaptive => "Adaptive",
        NeuronKind::HardReset => "HardReset",
        NeuronKind::HardResetMatched => "HardResetMatched",
    }
}

fn kind_from_name(name: &str) -> Result<NeuronKind, CheckpointError> {
    match name {
        "Adaptive" => Ok(NeuronKind::Adaptive),
        "HardReset" => Ok(NeuronKind::HardReset),
        "HardResetMatched" => Ok(NeuronKind::HardResetMatched),
        other => Err(parse_err(format!("unknown neuron kind {other:?}"))),
    }
}

/// Serializes a network to a JSON string.
///
/// # Errors
///
/// Infallible in practice (kept as a `Result` for API stability);
/// non-finite weights serialize as `null` and fail on reload.
pub fn to_json(net: &Network) -> Result<String, CheckpointError> {
    let layers: Vec<Json> = net
        .layers()
        .iter()
        .map(|layer| {
            let p = layer.params();
            Json::obj(vec![
                ("kind", Json::from(kind_name(layer.kind()))),
                (
                    "params",
                    Json::obj(vec![
                        ("tau", Json::from(p.tau)),
                        ("tau_r", Json::from(p.tau_r)),
                        ("theta", Json::from(p.theta)),
                        ("v_th", Json::from(p.v_th)),
                    ]),
                ),
                ("rows", Json::from(layer.n_out())),
                ("cols", Json::from(layer.n_in())),
                ("weights", Json::f32_array(layer.weights().as_slice())),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("format", Json::from(FORMAT)),
        ("layers", Json::Arr(layers)),
    ]);
    Ok(doc.to_string())
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, CheckpointError> {
    obj.get(key)
        .ok_or_else(|| parse_err(format!("missing field {key:?}")))
}

fn f32_field(obj: &Json, key: &str) -> Result<f32, CheckpointError> {
    field(obj, key)?
        .as_f32()
        .ok_or_else(|| parse_err(format!("field {key:?} is not a number")))
}

/// Deserializes a network from a JSON string.
///
/// If the document carries an integrity trailer (as written by [`save`]
/// and [`to_sealed_json`]), it is verified before the JSON is parsed;
/// trailer-less documents are accepted as-is.
///
/// # Errors
///
/// [`CheckpointError::Truncated`] / [`CheckpointError::ChecksumMismatch`]
/// when a trailer disagrees with the payload,
/// [`CheckpointError::NonFinite`] on NaN/Inf weights, and
/// [`CheckpointError::Parse`] on malformed input, an unknown format tag,
/// or inconsistent shapes.
pub fn from_json(json: &str) -> Result<Network, CheckpointError> {
    let (json, _sealed) = integrity::verify(json)?;
    let doc = Json::parse(json).map_err(|e| parse_err(e.to_string()))?;
    let format = field(&doc, "format")?
        .as_str()
        .ok_or_else(|| parse_err("format tag is not a string"))?;
    if format != FORMAT {
        return Err(parse_err(format!(
            "unsupported checkpoint format {format:?}"
        )));
    }
    let layers_json = field(&doc, "layers")?
        .as_array()
        .ok_or_else(|| parse_err("layers is not an array"))?;
    let mut layers = Vec::with_capacity(layers_json.len());
    for (i, lj) in layers_json.iter().enumerate() {
        let kind = kind_from_name(
            field(lj, "kind")?
                .as_str()
                .ok_or_else(|| parse_err("kind is not a string"))?,
        )?;
        let pj = field(lj, "params")?;
        let params = NeuronParams {
            tau: f32_field(pj, "tau")?,
            tau_r: f32_field(pj, "tau_r")?,
            theta: f32_field(pj, "theta")?,
            v_th: f32_field(pj, "v_th")?,
        };
        let rows = field(lj, "rows")?
            .as_usize()
            .ok_or_else(|| parse_err("rows is not an integer"))?;
        let cols = field(lj, "cols")?
            .as_usize()
            .ok_or_else(|| parse_err("cols is not an integer"))?;
        let wj = field(lj, "weights")?
            .as_array()
            .ok_or_else(|| parse_err("weights is not an array"))?;
        // checked_mul: absurd dims in a malformed file must be a parse
        // error, not an overflow panic (or a wrapped-to-0 silent accept).
        // A zero side is rejected too: the weight count is 0 whatever
        // the other side is, and inference would size buffers by it.
        let expected = rows.checked_mul(cols).filter(|&n| n > 0).ok_or_else(|| {
            parse_err(format!(
                "layer {i}: dimensions {rows}x{cols} are zero or overflow"
            ))
        })?;
        if wj.len() != expected {
            return Err(parse_err(format!(
                "layer {i}: weight count {} does not match {rows}x{cols}",
                wj.len()
            )));
        }
        let mut data = Vec::with_capacity(wj.len());
        for w in wj {
            // NaN/Inf serialize as `null`; both shapes are the same defect.
            if matches!(w, Json::Null) {
                return Err(CheckpointError::NonFinite { layer: i });
            }
            let x = w
                .as_f32()
                .ok_or_else(|| parse_err(format!("layer {i}: non-numeric weight")))?;
            if !x.is_finite() {
                return Err(CheckpointError::NonFinite { layer: i });
            }
            data.push(x);
        }
        layers.push(DenseLayer::from_weights(
            Matrix::from_vec(rows, cols, data),
            kind,
            params,
        ));
    }
    if layers.is_empty() {
        return Err(parse_err("checkpoint has no layers"));
    }
    // Validate chaining here: `Network::from_layers` asserts on
    // mismatched widths, but malformed *input* must surface as a parse
    // error, not a panic.
    for (i, pair) in layers.windows(2).enumerate() {
        if pair[0].n_out() != pair[1].n_in() {
            return Err(parse_err(format!(
                "layer widths do not chain: layer {i} outputs {} but layer {} expects {}",
                pair[0].n_out(),
                i + 1,
                pair[1].n_in()
            )));
        }
    }
    Ok(Network::from_layers(layers))
}

/// Serializes a network to a JSON string with an integrity trailer
/// appended (the on-disk format written by [`save`]).
///
/// # Errors
///
/// Infallible in practice (see [`to_json`]).
pub fn to_sealed_json(net: &Network) -> Result<String, CheckpointError> {
    Ok(integrity::seal(&to_json(net)?))
}

/// Distinguishes temp files of concurrent saves within one process;
/// the pid in the name distinguishes processes.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes `contents` to `path` atomically: temp file in the same
/// directory → fsync → rename → best-effort fsync of the directory.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "checkpoint".into());
    let temp_name = format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    let temp_path = match dir {
        Some(d) => d.join(&temp_name),
        None => Path::new(&temp_name).to_path_buf(),
    };
    let result = (|| {
        let mut file = fs::File::create(&temp_path)?;
        file.write_all(contents.as_bytes())?;
        // Data must be durable before the rename publishes it, or a crash
        // can leave the *destination* name pointing at a hole.
        file.sync_all()?;
        fs::rename(&temp_path, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&temp_path);
        return result;
    }
    // Durability of the rename itself needs the directory synced; failure
    // here does not un-publish the file, so it is best-effort.
    if let Some(d) = dir {
        if let Ok(dirfd) = fs::File::open(d) {
            let _ = dirfd.sync_all();
        }
    }
    Ok(())
}

/// Saves a network to a file: sealed with an integrity trailer and
/// written atomically (write-temp → fsync → rename), so a crash mid-save
/// leaves either the previous checkpoint or the new one, never a torn
/// file under the destination name.
///
/// # Errors
///
/// Returns an error if the file cannot be written.
pub fn save(net: &Network, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    write_atomic(path.as_ref(), &to_sealed_json(net)?)?;
    Ok(())
}

/// Loads a network from a file, verifying the integrity trailer when
/// present (see [`from_json`]).
///
/// # Errors
///
/// Returns an error if the file cannot be read, fails integrity
/// verification, or cannot be parsed.
pub fn load(path: impl AsRef<Path>) -> Result<Network, CheckpointError> {
    from_json(&fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpikeRaster;
    use snn_tensor::Rng;

    fn sample_net() -> Network {
        let mut rng = Rng::seed_from(17);
        Network::mlp(
            &[5, 8, 3],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        )
    }

    #[test]
    fn json_roundtrip_preserves_behaviour() {
        let net = sample_net();
        let restored = from_json(&to_json(&net).unwrap()).unwrap();
        let input = SpikeRaster::from_events(12, 5, &[(0, 0), (3, 2), (7, 4), (9, 1)]);
        assert_eq!(
            net.forward(&input).output().as_slice(),
            restored.forward(&input).output().as_slice()
        );
        assert_eq!(net.layers()[0].weights(), restored.layers()[0].weights());
    }

    #[test]
    fn file_roundtrip() {
        let net = sample_net();
        let path = std::env::temp_dir().join("neurosnn_checkpoint_test.json");
        save(&net, &path).unwrap();
        let restored = load(&path).unwrap();
        assert_eq!(net.layers()[1].weights(), restored.layers()[1].weights());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn roundtrip_preserves_neuron_kind() {
        let mut net = sample_net();
        net.set_neuron_kind(NeuronKind::HardReset);
        let restored = from_json(&to_json(&net).unwrap()).unwrap();
        assert!(restored
            .layers()
            .iter()
            .all(|l| l.kind() == NeuronKind::HardReset));
    }

    #[test]
    fn roundtrip_preserves_custom_params() {
        let mut rng = Rng::seed_from(3);
        let params = NeuronParams::paper_defaults().with_v_th(0.35).with_tau(7.5);
        let net = Network::mlp(&[3, 2], NeuronKind::HardResetMatched, params, &mut rng);
        let restored = from_json(&to_json(&net).unwrap()).unwrap();
        assert_eq!(restored.layers()[0].params(), params);
        assert_eq!(restored.layers()[0].kind(), NeuronKind::HardResetMatched);
    }

    #[test]
    fn malformed_json_is_an_error() {
        let err = from_json("{not json").unwrap_err();
        assert!(err.to_string().contains("parse"));
    }

    #[test]
    fn wrong_format_tag_is_an_error() {
        let err = from_json(r#"{"format": "something-else", "layers": []}"#).unwrap_err();
        assert!(err.to_string().contains("unsupported"));
    }

    #[test]
    fn non_finite_weight_is_an_error() {
        let mut net = sample_net();
        net.layers_mut()[0].weights_mut()[(0, 0)] = f32::NAN;
        let json = to_json(&net).unwrap();
        let err = from_json(&json).unwrap_err();
        assert!(err.to_string().contains("non-"), "{err}");
    }

    #[test]
    fn unchained_layer_widths_are_a_parse_error_not_a_panic() {
        let json = r#"{"format": "neurosnn-checkpoint-v1", "layers": [
            {"kind": "Adaptive",
             "params": {"tau": 4, "tau_r": 4, "theta": 1, "v_th": 1},
             "rows": 2, "cols": 3, "weights": [0, 0, 0, 0, 0, 0]},
            {"kind": "Adaptive",
             "params": {"tau": 4, "tau_r": 4, "theta": 1, "v_th": 1},
             "rows": 1, "cols": 5, "weights": [0, 0, 0, 0, 0]}
        ]}"#;
        let err = from_json(json).unwrap_err();
        assert!(err.to_string().contains("do not chain"), "{err}");
    }

    #[test]
    fn zero_layer_dimension_is_a_parse_error_not_an_abort() {
        // `rows·cols = 0` passes the weight-count check, so without the
        // zero-side check this loads and the first inference tries to
        // allocate `rows` floats.
        let json = r#"{"format": "neurosnn-checkpoint-v1", "layers": [
            {"kind": "Adaptive",
             "params": {"tau": 4, "tau_r": 4, "theta": 1, "v_th": 1},
             "rows": 1000000000000, "cols": 0, "weights": []},
            {"kind": "Adaptive",
             "params": {"tau": 4, "tau_r": 4, "theta": 1, "v_th": 1},
             "rows": 0, "cols": 1000000000000, "weights": []}
        ]}"#;
        let err = from_json(json).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse(_)), "{err}");
        assert!(err.to_string().contains("zero"), "{err}");
    }

    #[test]
    fn overflowing_dimensions_are_a_parse_error() {
        let json = format!(
            r#"{{"format": "neurosnn-checkpoint-v1", "layers": [
                {{"kind": "Adaptive",
                  "params": {{"tau": 4, "tau_r": 4, "theta": 1, "v_th": 1}},
                  "rows": {0}, "cols": {0}, "weights": []}}
            ]}}"#,
            1u64 << 33
        );
        let err = from_json(&json).unwrap_err();
        assert!(
            err.to_string().contains("overflow") || err.to_string().contains("not an integer"),
            "{err}"
        );
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load("/nonexistent/dir/ckpt.json").unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn non_finite_weight_is_a_typed_error() {
        let mut net = sample_net();
        net.layers_mut()[1].weights_mut()[(0, 0)] = f32::INFINITY;
        let err = from_json(&to_json(&net).unwrap()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::NonFinite { layer: 1 }),
            "{err}"
        );
    }

    #[test]
    fn sealed_roundtrip_verifies_and_loads() {
        let net = sample_net();
        let sealed = to_sealed_json(&net).unwrap();
        assert!(sealed.contains(snn_json::integrity::TRAILER_PREFIX));
        let restored = from_json(&sealed).unwrap();
        assert_eq!(net.layers()[0].weights(), restored.layers()[0].weights());
    }

    #[test]
    fn tampered_checkpoint_is_a_checksum_mismatch() {
        let net = sample_net();
        let sealed = to_sealed_json(&net).unwrap();
        // Flip one digit somewhere in the weights, keeping length equal.
        let tampered = sealed.replacen('3', "4", 1);
        assert_eq!(tampered.len(), sealed.len());
        let err = from_json(&tampered).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ChecksumMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn truncated_checkpoint_is_a_typed_error() {
        let net = sample_net();
        let sealed = to_sealed_json(&net).unwrap();
        // Drop payload bytes but keep the newline + trailer line intact
        // (torn copy shape).
        let newline_at = sealed.rfind(snn_json::integrity::TRAILER_PREFIX).unwrap() - 1;
        assert_eq!(sealed.as_bytes()[newline_at], b'\n');
        let mangled = format!("{}{}", &sealed[..newline_at - 40], &sealed[newline_at..]);
        let err = from_json(&mangled).unwrap_err();
        assert!(matches!(err, CheckpointError::Truncated { .. }), "{err}");
    }

    #[test]
    fn legacy_unsealed_file_still_loads() {
        let net = sample_net();
        let path = std::env::temp_dir().join("neurosnn_legacy_checkpoint_test.json");
        fs::write(&path, to_json(&net).unwrap()).unwrap();
        let restored = load(&path).unwrap();
        assert_eq!(net.layers()[0].weights(), restored.layers()[0].weights());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn save_is_sealed_and_leaves_no_temp_file() {
        let net = sample_net();
        let dir =
            std::env::temp_dir().join(format!("neurosnn_atomic_save_test_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        save(&net, &path).unwrap();
        // Overwrite in place: the save path must also replace atomically.
        save(&net, &path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains(snn_json::integrity::TRAILER_PREFIX));
        let entries: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(entries, vec!["ckpt.json"], "no temp files left behind");
        let _ = fs::remove_dir_all(&dir);
    }
}
