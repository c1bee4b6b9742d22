//! Serializable fault specifications.

use serde::{Deserialize, Serialize, Value};

use crate::{FaultsError, Result};

/// A serializable description of device fault *rates* and magnitudes —
/// no randomness, no array shape. Compile it with [`FaultSpec::compile`]
/// to get a deterministic per-device [`crate::FaultPlan`].
///
/// The default ([`FaultSpec::none`]) injects nothing: every field is
/// zero, [`FaultSpec::is_empty`] is true, and the compiled plan is a
/// no-op that leaves arrays bit-identical.
///
/// Fault models, applied per device in this order (stuck-at wins):
///
/// * **Stuck-at**: with probability `stuck_on_rate` a device is pinned
///   to `g_max`, with probability `stuck_off_rate` to `g_min`
///   (mutually exclusive; the rates must sum to at most 1).
/// * **Programming variation**: free devices are scaled by a lognormal
///   factor `exp(variation_sigma · z)`, `z ~ N(0,1)`, then clamped to
///   the device's conductance range.
/// * **Conductance drift**: free devices relax toward `g_min` by the
///   time-indexed factor `(1 + drift_time)^(-ν_d)` with a per-device
///   exponent `ν_d = drift_nu · exp(drift_sigma · z)` — the standard
///   PCM power-law drift with lognormal exponent dispersion. Drift is
///   inert when `drift_nu` or `drift_time` is zero.
/// * **Line resistance**: every device on input line `j` (both planes)
///   is attenuated by `1 / (1 + line_resistance · j)`, a lumped model
///   of the series wire resistance between the line driver and column
///   `j`. Line 0 sits at the driver and is never attenuated.
///
/// When serialised as a JSON document for `--faults`, all seven fields
/// must be present (see [`FaultSpec::from_json_str`] for the lenient
/// loader that fills omitted fields with zero).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Probability that a device is stuck at `g_max`.
    pub stuck_on_rate: f64,
    /// Probability that a device is stuck at `g_min`.
    pub stuck_off_rate: f64,
    /// Sigma of the lognormal programming-variation factor.
    pub variation_sigma: f64,
    /// Nominal drift exponent `ν` (PCM-like power-law drift).
    pub drift_nu: f64,
    /// Lognormal dispersion of the per-device drift exponent.
    pub drift_sigma: f64,
    /// Time index `t` of the drift model, in arbitrary units since
    /// programming.
    pub drift_time: f64,
    /// Per-line series-resistance coefficient (attenuation
    /// `1 / (1 + r·j)` for input line `j`).
    pub line_resistance: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

impl FaultSpec {
    /// The empty spec: injects nothing.
    pub const fn none() -> Self {
        FaultSpec {
            stuck_on_rate: 0.0,
            stuck_off_rate: 0.0,
            variation_sigma: 0.0,
            drift_nu: 0.0,
            drift_sigma: 0.0,
            drift_time: 0.0,
            line_resistance: 0.0,
        }
    }

    /// Builder-style setter for [`FaultSpec::stuck_on_rate`].
    #[must_use]
    pub fn with_stuck_on_rate(mut self, rate: f64) -> Self {
        self.stuck_on_rate = rate;
        self
    }

    /// Builder-style setter for [`FaultSpec::stuck_off_rate`].
    #[must_use]
    pub fn with_stuck_off_rate(mut self, rate: f64) -> Self {
        self.stuck_off_rate = rate;
        self
    }

    /// Builder-style setter for [`FaultSpec::variation_sigma`].
    #[must_use]
    pub fn with_variation_sigma(mut self, sigma: f64) -> Self {
        self.variation_sigma = sigma;
        self
    }

    /// Builder-style setter for the drift model: nominal exponent,
    /// exponent dispersion, and time index.
    #[must_use]
    pub fn with_drift(mut self, nu: f64, sigma: f64, time: f64) -> Self {
        self.drift_nu = nu;
        self.drift_sigma = sigma;
        self.drift_time = time;
        self
    }

    /// Builder-style setter for [`FaultSpec::line_resistance`].
    #[must_use]
    pub fn with_line_resistance(mut self, r: f64) -> Self {
        self.line_resistance = r;
        self
    }

    /// Whether this spec injects nothing at all (the compiled plan is a
    /// guaranteed-bit-identical no-op).
    pub fn is_empty(&self) -> bool {
        self.stuck_on_rate == 0.0
            && self.stuck_off_rate == 0.0
            && self.variation_sigma == 0.0
            && self.line_resistance == 0.0
            && !self.drift_active()
    }

    /// Whether the drift model perturbs anything: a zero time index or
    /// a zero nominal exponent makes the drift factor exactly 1.
    pub(crate) fn drift_active(&self) -> bool {
        self.drift_time > 0.0 && self.drift_nu > 0.0
    }

    /// Validates every parameter's domain.
    ///
    /// # Errors
    ///
    /// Returns [`FaultsError::InvalidSpec`] naming the first offending
    /// parameter: rates must lie in `[0, 1]` and sum to at most 1,
    /// sigmas / drift parameters / line resistance must be finite and
    /// non-negative.
    pub fn validate(&self) -> Result<()> {
        let unit = |v: f64| (0.0..=1.0).contains(&v);
        if !unit(self.stuck_on_rate) {
            return Err(FaultsError::InvalidSpec {
                name: "stuck_on_rate",
            });
        }
        if !unit(self.stuck_off_rate) {
            return Err(FaultsError::InvalidSpec {
                name: "stuck_off_rate",
            });
        }
        if self.stuck_on_rate + self.stuck_off_rate > 1.0 {
            return Err(FaultsError::InvalidSpec {
                name: "stuck_on_rate + stuck_off_rate",
            });
        }
        let nonneg = |v: f64| v.is_finite() && v >= 0.0;
        if !nonneg(self.variation_sigma) {
            return Err(FaultsError::InvalidSpec {
                name: "variation_sigma",
            });
        }
        if !nonneg(self.drift_nu) {
            return Err(FaultsError::InvalidSpec { name: "drift_nu" });
        }
        if !nonneg(self.drift_sigma) {
            return Err(FaultsError::InvalidSpec {
                name: "drift_sigma",
            });
        }
        if !nonneg(self.drift_time) {
            return Err(FaultsError::InvalidSpec { name: "drift_time" });
        }
        if !nonneg(self.line_resistance) {
            return Err(FaultsError::InvalidSpec {
                name: "line_resistance",
            });
        }
        Ok(())
    }

    /// Loads a spec from JSON text, treating omitted fields as zero and
    /// rejecting unknown keys (the strict derive requires every field;
    /// config files get this lenient loader so `{"stuck_off_rate": 0.05}`
    /// is a valid spec).
    ///
    /// Errors carry source locations: malformed JSON reports the line
    /// and column of the parse failure, and unknown or non-numeric
    /// fields report the line their key appears on — so a typo in a
    /// sweep spec points at the offending line, not at "bad file".
    ///
    /// # Errors
    ///
    /// Returns [`FaultsError::BadSpecFile`] for malformed JSON,
    /// non-objects, unknown keys, or non-numeric values, and propagates
    /// [`FaultSpec::validate`].
    pub fn from_json_str(text: &str) -> Result<FaultSpec> {
        let value = serde_json::parse_value(text).map_err(|e| FaultsError::BadSpecFile {
            reason: describe_parse_error(text, &e.to_string()),
        })?;
        let locate = |key: &str| match key_line(text, key) {
            Some(line) => format!(" (line {line})"),
            None => String::new(),
        };
        let fields = value.as_object().ok_or_else(|| FaultsError::BadSpecFile {
            reason: format!("expected an object, got {}", value.type_name()),
        })?;
        let mut spec = FaultSpec::none();
        for (key, v) in fields {
            let num = as_f64(v).ok_or_else(|| FaultsError::BadSpecFile {
                reason: format!(
                    "field {key:?} must be a number, got {}{}",
                    v.type_name(),
                    locate(key)
                ),
            })?;
            match key.as_str() {
                "stuck_on_rate" => spec.stuck_on_rate = num,
                "stuck_off_rate" => spec.stuck_off_rate = num,
                "variation_sigma" => spec.variation_sigma = num,
                "drift_nu" => spec.drift_nu = num,
                "drift_sigma" => spec.drift_sigma = num,
                "drift_time" => spec.drift_time = num,
                "line_resistance" => spec.line_resistance = num,
                other => {
                    return Err(FaultsError::BadSpecFile {
                        reason: format!(
                            "unknown field {other:?}{}; expected one of stuck_on_rate, \
                             stuck_off_rate, variation_sigma, drift_nu, drift_sigma, \
                             drift_time, line_resistance",
                            locate(other)
                        ),
                    })
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

/// 1-based line number of the byte offset `byte` in `text`.
fn line_of_byte(text: &str, byte: usize) -> usize {
    let byte = byte.min(text.len());
    1 + text.as_bytes()[..byte]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

/// 1-based line number of the first occurrence of `"key"` in `text`.
fn key_line(text: &str, key: &str) -> Option<usize> {
    let needle = format!("{key:?}");
    text.find(&needle).map(|pos| line_of_byte(text, pos))
}

/// Rewrites the parser's `... at byte N` suffix into a line/column
/// location, which is what a human editing a sweep spec actually needs.
fn describe_parse_error(text: &str, message: &str) -> String {
    let message = message.strip_prefix("JSON error: ").unwrap_or(message);
    if let Some((head, tail)) = message.rsplit_once(" at byte ") {
        if let Ok(byte) = tail.trim().parse::<usize>() {
            let clamped = byte.min(text.len());
            let line_start = text.as_bytes()[..clamped]
                .iter()
                .rposition(|&b| b == b'\n')
                .map(|p| p + 1)
                .unwrap_or(0);
            let line = line_of_byte(text, clamped);
            let column = clamped - line_start + 1;
            return format!("{head} at line {line} column {column} (byte {byte})");
        }
    }
    message.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_empty_and_valid() {
        let spec = FaultSpec::default();
        assert_eq!(spec, FaultSpec::none());
        assert!(spec.is_empty());
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn builders_flip_emptiness() {
        assert!(!FaultSpec::none().with_stuck_on_rate(0.1).is_empty());
        assert!(!FaultSpec::none().with_stuck_off_rate(0.1).is_empty());
        assert!(!FaultSpec::none().with_variation_sigma(0.2).is_empty());
        assert!(!FaultSpec::none().with_line_resistance(1e-3).is_empty());
        assert!(!FaultSpec::none().with_drift(0.1, 0.0, 100.0).is_empty());
        // Drift with zero time or zero nominal exponent is inert.
        assert!(FaultSpec::none().with_drift(0.1, 0.1, 0.0).is_empty());
        assert!(FaultSpec::none().with_drift(0.0, 0.1, 100.0).is_empty());
    }

    #[test]
    fn validate_rejects_out_of_domain() {
        assert!(FaultSpec::none()
            .with_stuck_on_rate(-0.1)
            .validate()
            .is_err());
        assert!(FaultSpec::none()
            .with_stuck_on_rate(1.1)
            .validate()
            .is_err());
        assert!(FaultSpec::none()
            .with_stuck_on_rate(0.6)
            .with_stuck_off_rate(0.6)
            .validate()
            .is_err());
        assert!(FaultSpec::none()
            .with_variation_sigma(f64::NAN)
            .validate()
            .is_err());
        assert!(FaultSpec::none()
            .with_drift(-1.0, 0.0, 1.0)
            .validate()
            .is_err());
        assert!(FaultSpec::none()
            .with_line_resistance(-1.0)
            .validate()
            .is_err());
        assert!(FaultSpec::none()
            .with_stuck_on_rate(0.5)
            .with_stuck_off_rate(0.5)
            .validate()
            .is_ok());
    }

    #[test]
    fn json_roundtrip_via_derive() {
        let spec = FaultSpec::none()
            .with_stuck_off_rate(0.05)
            .with_variation_sigma(0.1)
            .with_drift(0.05, 0.2, 1000.0)
            .with_line_resistance(1e-4);
        let text = serde_json::to_string(&spec).unwrap();
        let back: FaultSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, spec);
        // The strict derive output is also accepted by the lenient loader.
        assert_eq!(FaultSpec::from_json_str(&text).unwrap(), spec);
    }

    #[test]
    fn lenient_loader_fills_missing_fields() {
        let spec = FaultSpec::from_json_str(r#"{"stuck_off_rate": 0.05}"#).unwrap();
        assert_eq!(spec, FaultSpec::none().with_stuck_off_rate(0.05));
        assert_eq!(FaultSpec::from_json_str("{}").unwrap(), FaultSpec::none());
        // Integers are accepted where floats are expected.
        let spec = FaultSpec::from_json_str(r#"{"drift_nu": 1, "drift_time": 100}"#).unwrap();
        assert_eq!(spec.drift_nu, 1.0);
        assert_eq!(spec.drift_time, 100.0);
    }

    #[test]
    fn lenient_loader_rejects_garbage() {
        assert!(FaultSpec::from_json_str("[]").is_err());
        assert!(FaultSpec::from_json_str("not json").is_err());
        assert!(FaultSpec::from_json_str(r#"{"stuck_off_rat": 0.05}"#).is_err());
        assert!(FaultSpec::from_json_str(r#"{"stuck_off_rate": "high"}"#).is_err());
        assert!(FaultSpec::from_json_str(r#"{"stuck_off_rate": 2.0}"#).is_err());
    }

    #[test]
    fn loader_errors_carry_key_and_line() {
        // The typo'd key is named, with the line it appears on and the
        // accepted field names.
        let text = "{\n  \"stuck_off_rate\": 0.05,\n  \"stuck_off_rat\": 0.1\n}";
        let err = FaultSpec::from_json_str(text).unwrap_err().to_string();
        assert!(err.contains("\"stuck_off_rat\""), "{err}");
        assert!(err.contains("(line 3)"), "{err}");
        assert!(err.contains("expected one of"), "{err}");

        // Non-numeric values are located too.
        let text = "{\n  \"drift_nu\": \"fast\"\n}";
        let err = FaultSpec::from_json_str(text).unwrap_err().to_string();
        assert!(err.contains("\"drift_nu\""), "{err}");
        assert!(err.contains("(line 2)"), "{err}");

        // Parse failures report line and column instead of a raw byte
        // offset.
        let text = "{\n  \"drift_nu\": 0.1,\n  oops\n}";
        let err = FaultSpec::from_json_str(text).unwrap_err().to_string();
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("column"), "{err}");
    }
}
