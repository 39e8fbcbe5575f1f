//! Error type shared by all sketches in the workspace.

use std::fmt;

/// Errors returned by sketch constructors and operations.
///
/// Sketch *updates* and *queries* are infallible by design (they are the
/// hot path); errors can only arise from invalid configuration or from
/// operations that combine incompatible sketches.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SketchError {
    /// A configuration parameter was out of its documented range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
    /// Two sketches could not be combined (merge / set operation) because
    /// their configurations are incompatible.
    Incompatible {
        /// Description of the mismatch.
        reason: String,
    },
}

impl SketchError {
    /// Convenience constructor for [`SketchError::InvalidParameter`].
    pub fn invalid(name: &'static str, reason: impl Into<String>) -> Self {
        SketchError::InvalidParameter {
            name,
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`SketchError::Incompatible`].
    pub fn incompatible(reason: impl Into<String>) -> Self {
        SketchError::Incompatible {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            SketchError::Incompatible { reason } => {
                write!(f, "incompatible sketches: {reason}")
            }
        }
    }
}

impl std::error::Error for SketchError {}

/// Result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, SketchError>;

/// Decoding failures of the unified wire format (see the [`crate::wire`]
/// module).
///
/// Every way an untrusted byte string can fail to be a valid sketch image
/// maps to exactly one variant, so tests (and callers) can assert *which*
/// corruption class was detected. Decoders never panic and never allocate
/// proportionally to an unvalidated length field.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The input ended before a complete structure could be read.
    Truncated {
        /// What was being read when the input ran out.
        context: &'static str,
        /// Bytes the structure needs.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The leading magic number is not `FCDS`.
    BadMagic {
        /// The 32-bit value found in the magic position.
        found: u32,
    },
    /// The header's format version is not one this build understands.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// The header's sketch-family code is not assigned.
    UnknownFamily {
        /// The family byte found.
        found: u8,
    },
    /// The image is a valid family, but not the one the caller asked for.
    FamilyMismatch {
        /// Family the decoder expected.
        expected: &'static str,
        /// Family named by the header.
        found: &'static str,
    },
    /// The header's declared payload length disagrees with the bytes
    /// actually present after the header.
    PayloadLength {
        /// Length the header declares.
        declared: u64,
        /// Payload bytes actually present.
        have: u64,
    },
    /// The header's item width disagrees with the item type being decoded.
    ItemWidth {
        /// Width the decoder's item type requires.
        expected: u8,
        /// Width named by the header.
        found: u8,
    },
    /// The payload parsed, but violates a structural invariant of its
    /// sketch family (unsorted hashes, weight mismatch, out-of-range
    /// register, …).
    Invariant {
        /// Which invariant check failed.
        context: &'static str,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// Two wire images could not be merged (seed / parameter mismatch).
    Incompatible {
        /// Description of the mismatch.
        detail: String,
    },
}

impl WireError {
    /// Convenience constructor for [`WireError::Invariant`].
    pub fn invariant(context: &'static str, detail: impl Into<String>) -> Self {
        WireError::Invariant {
            context,
            detail: detail.into(),
        }
    }

    /// Convenience constructor for [`WireError::Incompatible`].
    pub fn incompatible(detail: impl Into<String>) -> Self {
        WireError::Incompatible {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated {
                context,
                needed,
                have,
            } => write!(f, "truncated {context}: need {needed} bytes, have {have}"),
            WireError::BadMagic { found } => write!(f, "bad magic {found:#010x}"),
            WireError::UnsupportedVersion { found } => {
                write!(f, "unsupported wire version {found}")
            }
            WireError::UnknownFamily { found } => write!(f, "unknown sketch family {found:#04x}"),
            WireError::FamilyMismatch { expected, found } => {
                write!(f, "family mismatch: expected {expected}, found {found}")
            }
            WireError::PayloadLength { declared, have } => write!(
                f,
                "payload length mismatch: header declares {declared} bytes, {have} present"
            ),
            WireError::ItemWidth { expected, found } => {
                write!(f, "item width mismatch: expected {expected}, found {found}")
            }
            WireError::Invariant { context, detail } => {
                write!(f, "invariant violated ({context}): {detail}")
            }
            WireError::Incompatible { detail } => {
                write!(f, "incompatible wire images: {detail}")
            }
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_invalid_parameter() {
        let e = SketchError::invalid("k", "must be a power of two");
        assert_eq!(
            e.to_string(),
            "invalid parameter `k`: must be a power of two"
        );
    }

    #[test]
    fn display_incompatible() {
        let e = SketchError::incompatible("k mismatch: 128 vs 256");
        assert_eq!(
            e.to_string(),
            "incompatible sketches: k mismatch: 128 vs 256"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SketchError::invalid("x", "y"));
    }
}
