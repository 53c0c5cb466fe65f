//! The typed error hierarchy of the fallible engine layer.
//!
//! Every `try_*` entry point of the analysis pipeline ([`crate::engine`])
//! and every validated constructor ([`crate::spec::DesignSpec::build`],
//! [`crate::codec`]) returns a [`QisimError`]. The four variants mirror
//! the places the Fig. 6 pipeline can reject an input:
//!
//! * [`QisimError::Config`] — a design-spec knob is out of range or does
//!   not exist on the design's technology;
//! * [`QisimError::Power`] — the runtime-power model rejected a request
//!   (wraps [`qisim_power::PowerError`], source-chained);
//! * [`QisimError::Decode`] — a serialized spec or report failed to
//!   parse ([`crate::codec`]);
//! * [`QisimError::Target`] — a roadmap target is malformed.
//!
//! The error-handling policy (DESIGN.md §error handling): **libraries
//! return `Result`, binaries and examples may unwrap.** The infallible
//! `analyze` and `analyze_on` survive as thin wrappers that panic with
//! the typed error's `Display` text, so the paper drivers keep their
//! exact behavior.

use qisim_hal::fridge::Stage;
use qisim_power::PowerError;
use std::fmt;

/// Top-level error of the `qisim` analysis engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QisimError {
    /// A design-spec knob failed validation.
    Config(ConfigError),
    /// The runtime-power model rejected a request.
    Power(PowerError),
    /// A serialized artifact failed to parse.
    Decode(DecodeError),
    /// A roadmap target is malformed.
    Target(TargetError),
}

impl fmt::Display for QisimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QisimError::Config(e) => write!(f, "invalid design spec: {e}"),
            QisimError::Power(e) => write!(f, "power model: {e}"),
            QisimError::Decode(e) => write!(f, "decode error: {e}"),
            QisimError::Target(e) => write!(f, "invalid target: {e}"),
        }
    }
}

impl std::error::Error for QisimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QisimError::Config(e) => Some(e),
            QisimError::Power(e) => Some(e),
            QisimError::Decode(e) => Some(e),
            QisimError::Target(e) => Some(e),
        }
    }
}

impl From<ConfigError> for QisimError {
    fn from(e: ConfigError) -> Self {
        QisimError::Config(e)
    }
}

impl From<PowerError> for QisimError {
    fn from(e: PowerError) -> Self {
        QisimError::Power(e)
    }
}

impl From<DecodeError> for QisimError {
    fn from(e: DecodeError) -> Self {
        QisimError::Decode(e)
    }
}

impl From<TargetError> for QisimError {
    fn from(e: TargetError) -> Self {
        QisimError::Target(e)
    }
}

/// A design-spec knob failed validation ([`crate::spec`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// An integer knob is outside its validated range.
    OutOfRange {
        /// Knob name (`"drive_fdm"`, `"drive_bits"`, `"bs"`).
        knob: &'static str,
        /// The rejected value.
        value: u64,
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value.
        max: u64,
    },
    /// A real-valued knob must be positive and finite.
    NotPositive {
        /// Knob name (`"readout_ns"`, `"analog_scale"`).
        knob: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The knob does not exist on the design's technology (e.g. a DAC
    /// precision on an SFQ QCI).
    KnobMismatch {
        /// Knob name.
        knob: &'static str,
        /// Display name of the design that rejected it.
        design: String,
    },
    /// The spec's display-name override is empty.
    EmptyName,
    /// A refrigerator stage budget override must be positive and finite.
    Budget {
        /// The stage whose budget was overridden.
        stage: Stage,
        /// The rejected budget in watts.
        value: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::OutOfRange { knob, value, min, max } => {
                write!(f, "{knob} = {value} is outside the supported range {min}..={max}")
            }
            ConfigError::NotPositive { knob, value } => {
                write!(f, "{knob} = {value} must be positive and finite")
            }
            ConfigError::KnobMismatch { knob, design } => {
                write!(f, "knob `{knob}` does not exist on `{design}`")
            }
            ConfigError::EmptyName => f.write_str("design name must not be empty"),
            ConfigError::Budget { stage, value } => {
                write!(f, "{stage} budget = {value} W must be positive and finite")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A serialized artifact failed to parse ([`crate::codec`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// 1-based line number of the offending input line (0 when the
    /// failure is about the document as a whole, e.g. a missing key).
    pub line: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl DecodeError {
    /// Creates a decode error anchored at `line` (1-based; 0 = whole
    /// document).
    pub fn new(line: usize, reason: impl Into<String>) -> Self {
        DecodeError { line, reason: reason.into() }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            f.write_str(&self.reason)
        } else {
            write!(f, "line {}: {}", self.line, self.reason)
        }
    }
}

impl std::error::Error for DecodeError {}

/// A roadmap target is malformed ([`qisim_surface::target::Target`] is a
/// plain-old-data struct, so the engine validates it on entry).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TargetError {
    /// `logical_ops` must be positive and finite (it divides the error
    /// budget).
    InvalidOps {
        /// The rejected operation count.
        value: f64,
    },
    /// `logical_qubits` must be at least 1.
    NoLogicalQubits,
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetError::InvalidOps { value } => {
                write!(f, "logical_ops = {value} must be positive and finite")
            }
            TargetError::NoLogicalQubits => f.write_str("logical_qubits must be at least 1"),
        }
    }
}

impl std::error::Error for TargetError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_is_prefixed_by_variant_context() {
        let e = QisimError::from(ConfigError::OutOfRange {
            knob: "drive_bits",
            value: 40,
            min: 1,
            max: 16,
        });
        assert_eq!(
            e.to_string(),
            "invalid design spec: drive_bits = 40 is outside the supported range 1..=16"
        );
        let e = QisimError::from(PowerError::NoQubits);
        assert_eq!(e.to_string(), "power model: need at least one qubit");
        let e = QisimError::from(DecodeError::new(3, "unknown key `frobnicate`"));
        assert_eq!(e.to_string(), "decode error: line 3: unknown key `frobnicate`");
        let e = QisimError::from(TargetError::NoLogicalQubits);
        assert_eq!(e.to_string(), "invalid target: logical_qubits must be at least 1");
    }

    #[test]
    fn sources_chain_across_crates() {
        let e = QisimError::from(PowerError::NoQubits);
        let src = e.source().expect("power errors are source-chained");
        assert_eq!(src.to_string(), "need at least one qubit");
        // The chain bottoms out at the component crate's error.
        assert!(src.source().is_none());
        let e = QisimError::from(ConfigError::EmptyName);
        assert!(e.source().is_some());
    }

    #[test]
    fn decode_errors_render_line_numbers() {
        assert_eq!(DecodeError::new(0, "missing key `preset`").to_string(), "missing key `preset`");
        assert_eq!(DecodeError::new(7, "bad float").to_string(), "line 7: bad float");
    }
}
