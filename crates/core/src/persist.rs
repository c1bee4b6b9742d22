//! Persistence for trained networks (victims and surrogates) as JSON
//! files.
//!
//! The attacker's state must round-trip through disk between CLI
//! sessions; these helpers add the file plumbing with a version/kind
//! header so a file can't be silently loaded as the wrong artifact.

use crate::{AttackError, Result};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize, Value};
use std::io::{Read, Write};
use std::path::Path;
use xbar_nn::network::SingleLayerNet;

/// Format version written into every artifact file.
const FORMAT_VERSION: u32 = 1;

/// A typed, versioned envelope around a serialisable artifact.
#[derive(Debug, Serialize, Deserialize)]
struct Envelope<T> {
    format_version: u32,
    kind: String,
    payload: T,
}

fn io_err(e: std::io::Error) -> AttackError {
    // Reuse the InvalidParameter variant's spirit without widening the
    // public error enum for io: wrap through a crossbar-free path.
    AttackError::Io(e)
}

/// Writes an artifact of the given `kind` to a writer.
///
/// # Errors
///
/// Returns [`AttackError::Io`] on write failures or
/// [`AttackError::Serde`] on serialisation failures.
fn save_artifact<T: Serialize, W: Write>(writer: W, kind: &str, payload: &T) -> Result<()> {
    let env = Envelope {
        format_version: FORMAT_VERSION,
        kind: kind.to_string(),
        payload,
    };
    serde_json::to_writer_pretty(writer, &env).map_err(AttackError::Serde)
}

/// Reads an artifact of the given `kind` from a reader, verifying the
/// header.
///
/// # Errors
///
/// * [`AttackError::Serde`] on malformed JSON.
/// * [`AttackError::InvalidParameter`] if the file holds a different kind
///   or format version.
fn load_artifact<T: DeserializeOwned, R: Read>(reader: R, kind: &str) -> Result<T> {
    let env: Envelope<T> = serde_json::from_reader(reader).map_err(AttackError::Serde)?;
    if env.format_version != FORMAT_VERSION {
        return Err(AttackError::InvalidParameter {
            name: "format_version",
        });
    }
    if env.kind != kind {
        return Err(AttackError::InvalidParameter { name: "kind" });
    }
    Ok(env.payload)
}

/// Saves a trained network (e.g. a surrogate) to a JSON file.
///
/// # Errors
///
/// [`AttackError::Io`] if the file cannot be created;
/// [`AttackError::Serde`] on serialisation or write failures.
pub fn save_network<P: AsRef<Path>>(path: P, net: &SingleLayerNet) -> Result<()> {
    let f = std::fs::File::create(path).map_err(io_err)?;
    save_artifact(std::io::BufWriter::new(f), "single-layer-net", net)
}

/// Loads a network saved by [`save_network`].
///
/// # Errors
///
/// * [`AttackError::Io`] if the file cannot be opened.
/// * [`AttackError::Serde`] on malformed JSON.
/// * [`AttackError::InvalidParameter`] if the file holds a different
///   kind of artifact or format version, or a network with a non-null
///   `bias` (`name: "bias"`).
pub fn load_network<P: AsRef<Path>>(path: P) -> Result<SingleLayerNet> {
    let f = std::fs::File::open(path).map_err(io_err)?;
    let payload = load_artifact(std::io::BufReader::new(f), "single-layer-net")?;
    network_from_payload(payload)
}

/// Decodes a saved network's payload. The network has no bias: files
/// saved while it had one carry `"bias": null`, which loads, but the
/// derived decoder skips unknown keys and would silently drop a real
/// bias, so a non-null one is refused.
fn network_from_payload(payload: Value) -> Result<SingleLayerNet> {
    if payload.get("bias").is_some_and(|bias| *bias != Value::Null) {
        return Err(AttackError::InvalidParameter { name: "bias" });
    }
    serde_json::from_value(payload).map_err(AttackError::Serde)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use xbar_nn::activation::Activation;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xbar-persist-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn network_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = SingleLayerNet::new_random(8, 3, Activation::Softmax, &mut rng);
        let path = tmp("net");
        save_network(&path, &net).unwrap();
        let loaded = load_network(&path).unwrap();
        assert_eq!(net, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saved_model_with_a_null_bias_still_loads() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = SingleLayerNet::new_random(4, 2, Activation::Identity, &mut rng);
        let mut buf = Vec::new();
        save_artifact(&mut buf, "single-layer-net", &net).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.contains("\"bias\""), "{text}");
        // Models saved before the bias field was dropped carry it as null.
        let old = text.replacen("\"payload\": {", "\"payload\": {\"bias\": null,", 1);
        assert_ne!(old, text);
        let loaded: SingleLayerNet = load_artifact(old.as_bytes(), "single-layer-net").unwrap();
        assert_eq!(loaded, net);
    }

    #[test]
    fn saved_model_with_a_bias_is_refused() {
        let net = SingleLayerNet::new_random(
            3,
            2,
            Activation::Identity,
            &mut ChaCha8Rng::seed_from_u64(4),
        );
        let path = tmp("bias");
        save_network(&path, &net).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for (bias, loads) in [("null", true), ("[0.5, -0.5]", false), ("0.0", false)] {
            let old = text.replacen(
                "\"payload\": {",
                &format!("\"payload\": {{\"bias\": {bias},"),
                1,
            );
            std::fs::write(&path, old).unwrap();
            match load_network(&path) {
                Ok(loaded) => assert!(loads && loaded == net, "bias {bias}"),
                Err(e) => assert!(
                    !loads && matches!(e, AttackError::InvalidParameter { name: "bias" }),
                    "bias {bias}: {e}"
                ),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kind_mismatch_rejected() {
        let net = SingleLayerNet::new_random(
            2,
            1,
            Activation::Identity,
            &mut ChaCha8Rng::seed_from_u64(2),
        );
        let mut buf = Vec::new();
        save_artifact(&mut buf, "query-log", &net).unwrap();
        let res: Result<SingleLayerNet> = load_artifact(buf.as_slice(), "single-layer-net");
        assert!(matches!(
            res,
            Err(AttackError::InvalidParameter { name: "kind" })
        ));
    }

    #[test]
    fn malformed_json_rejected() {
        let res: Result<SingleLayerNet> = load_artifact(&b"not json"[..], "single-layer-net");
        assert!(matches!(res, Err(AttackError::Serde(_))));
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_network("/nonexistent/path/net.json"),
            Err(AttackError::Io(_))
        ));
    }
}
