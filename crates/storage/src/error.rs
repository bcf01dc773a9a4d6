//! Error type for the storage substrate.

use std::fmt;

/// Errors produced by storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A column was addressed by a name that does not exist in the schema.
    UnknownColumn(String),
    /// A column index was out of bounds.
    ColumnIndexOutOfBounds {
        /// Requested index.
        index: usize,
        /// Number of columns in the relation.
        width: usize,
    },
    /// An operation expected a specific data type.
    TypeMismatch {
        /// The type the operation expected.
        expected: crate::value::DataType,
        /// The type it found.
        found: crate::value::DataType,
    },
    /// Columns of a relation must all have the same length.
    ColumnLengthMismatch {
        /// Expected length (cardinality of the relation).
        expected: usize,
        /// Offending column length.
        found: usize,
    },
    /// A row index was out of bounds.
    RowIndexOutOfBounds {
        /// Requested row.
        index: usize,
        /// Number of rows.
        rows: usize,
    },
    /// A relation would hold more rows than a `u32` row id can address
    /// (see [`crate::column::MAX_ROWS`]).
    TooManyRows {
        /// The offending row count.
        rows: usize,
    },
    /// A dictionary code had no entry.
    UnknownDictionaryCode(u32),
    /// A dataset specification was internally inconsistent.
    InvalidDatasetSpec(String),
    /// Decoding a row-encoded buffer failed.
    Codec(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownColumn(name) => write!(f, "unknown column: {name}"),
            StorageError::ColumnIndexOutOfBounds { index, width } => {
                write!(f, "column index {index} out of bounds for width {width}")
            }
            StorageError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            StorageError::ColumnLengthMismatch { expected, found } => {
                write!(
                    f,
                    "column length mismatch: expected {expected}, found {found}"
                )
            }
            StorageError::RowIndexOutOfBounds { index, rows } => {
                write!(f, "row index {index} out of bounds for {rows} rows")
            }
            StorageError::TooManyRows { rows } => write!(
                f,
                "{rows} rows exceed the {} a u32 row id can address",
                crate::column::MAX_ROWS
            ),
            StorageError::UnknownDictionaryCode(code) => {
                write!(f, "unknown dictionary code: {code}")
            }
            StorageError::InvalidDatasetSpec(msg) => write!(f, "invalid dataset spec: {msg}"),
            StorageError::Codec(msg) => write!(f, "codec error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    #[test]
    fn display_unknown_column() {
        let e = StorageError::UnknownColumn("foo".into());
        assert_eq!(e.to_string(), "unknown column: foo");
    }

    #[test]
    fn display_type_mismatch() {
        let e = StorageError::TypeMismatch {
            expected: DataType::U32,
            found: DataType::F64,
        };
        assert!(e.to_string().contains("expected u32"));
        assert!(e.to_string().contains("found f64"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&StorageError::UnknownDictionaryCode(7));
    }
}
