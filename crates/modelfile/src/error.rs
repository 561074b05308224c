//! The typed error surface of the model-file layer.

use std::error::Error;
use std::fmt;

/// Every way reading, validating, or interpreting an `.adm` file can
/// fail. Hostile bytes always map to one of these variants — the
/// loaders never panic and never return silently garbled weights.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelFileError {
    /// The file could not be read or written.
    Io(String),
    /// The first four bytes are not the `ADMF` magic.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The header declares a format version this build does not speak.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The header declares an alignment other than the spec's.
    BadAlignment {
        /// Alignment found in the file.
        declared: u32,
        /// Alignment the spec requires.
        expected: u32,
    },
    /// The file ends before a declared structure does.
    Truncated {
        /// What was being parsed.
        what: String,
        /// Byte offset where parsing stopped.
        offset: u64,
    },
    /// A tensor payload offset is not a multiple of the alignment.
    MisalignedOffset {
        /// Offending tensor.
        tensor: String,
        /// Its declared offset.
        offset: u64,
    },
    /// A tensor payload does not hash to its stored checksum.
    ChecksumMismatch {
        /// Offending tensor.
        tensor: String,
        /// Checksum recorded in the index.
        stored: u64,
        /// Checksum recomputed from the payload.
        computed: u64,
    },
    /// A tensor declares a dtype tag this build does not know.
    UnknownDtype {
        /// Offending tensor.
        tensor: String,
        /// The unknown tag byte.
        tag: u8,
    },
    /// A metadata entry declares a value-type tag this build does not
    /// know (unknown *keys* are fine; unknown value types cannot be
    /// skipped because their length is unknowable).
    UnknownKvTag {
        /// The entry's key.
        key: String,
        /// The unknown tag byte.
        tag: u8,
    },
    /// A declared size exceeds what the file (or a spec cap) allows.
    Oversized {
        /// What was being parsed.
        what: String,
        /// The declared size.
        declared: u64,
        /// The applicable limit.
        limit: u64,
    },
    /// Structurally invalid in some other way (bad UTF-8, zero rank,
    /// dims/byte-count disagreement, duplicate names, ...).
    Malformed(String),
    /// The container parsed, but its contents do not form a loadable
    /// model (missing metadata, shape mismatches against the config,
    /// non-finite values, unknown architecture family, ...).
    BadModel(String),
}

impl fmt::Display for ModelFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelFileError::Io(msg) => write!(f, "model file i/o: {msg}"),
            ModelFileError::BadMagic { found } => {
                write!(f, "not a model file: magic {found:02x?}")
            }
            ModelFileError::VersionMismatch { found, expected } => {
                write!(f, "model file format version {found} (expected {expected})")
            }
            ModelFileError::BadAlignment { declared, expected } => {
                write!(f, "model file alignment {declared} (expected {expected})")
            }
            ModelFileError::Truncated { what, offset } => {
                write!(f, "model file truncated at byte {offset} while reading {what}")
            }
            ModelFileError::MisalignedOffset { tensor, offset } => {
                write!(f, "tensor {tensor}: offset {offset} is not 64-byte aligned")
            }
            ModelFileError::ChecksumMismatch {
                tensor,
                stored,
                computed,
            } => write!(
                f,
                "tensor {tensor}: checksum mismatch, stored {stored:#018x}, computed {computed:#018x}"
            ),
            ModelFileError::UnknownDtype { tensor, tag } => {
                write!(f, "tensor {tensor}: unknown dtype tag {tag}")
            }
            ModelFileError::UnknownKvTag { key, tag } => {
                write!(f, "metadata {key}: unknown value-type tag {tag}")
            }
            ModelFileError::Oversized {
                what,
                declared,
                limit,
            } => write!(f, "{what}: declares {declared}, limit {limit}"),
            ModelFileError::Malformed(msg) => write!(f, "malformed model file: {msg}"),
            ModelFileError::BadModel(msg) => write!(f, "not a loadable model: {msg}"),
        }
    }
}

impl Error for ModelFileError {}

impl From<std::io::Error> for ModelFileError {
    fn from(e: std::io::Error) -> Self {
        ModelFileError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        let cases: Vec<(ModelFileError, &str)> = vec![
            (ModelFileError::Io("gone".into()), "gone"),
            (
                ModelFileError::BadMagic { found: *b"JSON" },
                "magic",
            ),
            (
                ModelFileError::VersionMismatch {
                    found: 9,
                    expected: 1,
                },
                "version 9",
            ),
            (
                ModelFileError::BadAlignment {
                    declared: 8,
                    expected: 64,
                },
                "alignment 8",
            ),
            (
                ModelFileError::Truncated {
                    what: "tensor index".into(),
                    offset: 40,
                },
                "byte 40",
            ),
            (
                ModelFileError::MisalignedOffset {
                    tensor: "w".into(),
                    offset: 12,
                },
                "not 64-byte aligned",
            ),
            (
                ModelFileError::ChecksumMismatch {
                    tensor: "w".into(),
                    stored: 1,
                    computed: 2,
                },
                "checksum mismatch",
            ),
            (
                ModelFileError::UnknownDtype {
                    tensor: "w".into(),
                    tag: 7,
                },
                "dtype tag 7",
            ),
            (
                ModelFileError::UnknownKvTag {
                    key: "k".into(),
                    tag: 9,
                },
                "value-type tag 9",
            ),
            (
                ModelFileError::Oversized {
                    what: "tensor w".into(),
                    declared: 100,
                    limit: 10,
                },
                "declares 100",
            ),
            (ModelFileError::Malformed("zero rank".into()), "zero rank"),
            (ModelFileError::BadModel("no config".into()), "no config"),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
    }
}
