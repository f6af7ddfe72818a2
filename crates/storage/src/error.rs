//! Error type shared by the storage layer.

use std::fmt;

/// Errors produced by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A column name was not found in a schema.
    ColumnNotFound(String),
    /// A table name was not found in the catalog.
    TableNotFound(String),
    /// A table with this name already exists in the catalog.
    TableExists(String),
    /// Columns of a table disagree on row count, or a builder was misused.
    Malformed(String),
    /// A value of the wrong type was pushed into a column builder.
    TypeMismatch {
        /// Type the column expects.
        expected: crate::value::DataType,
        /// Description of what was provided instead.
        got: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ColumnNotFound(name) => write!(f, "column not found: {name}"),
            StorageError::TableNotFound(name) => write!(f, "table not found: {name}"),
            StorageError::TableExists(name) => write!(f, "table already exists: {name}"),
            StorageError::Malformed(msg) => write!(f, "malformed table: {msg}"),
            StorageError::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: expected {expected:?}, got {got}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience alias used throughout the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(
            StorageError::ColumnNotFound("x".into()).to_string(),
            "column not found: x"
        );
        assert_eq!(
            StorageError::TableNotFound("t".into()).to_string(),
            "table not found: t"
        );
        assert_eq!(
            StorageError::TableExists("t".into()).to_string(),
            "table already exists: t"
        );
        let e = StorageError::TypeMismatch {
            expected: DataType::Int64,
            got: "Utf8".into(),
        };
        assert!(e.to_string().contains("expected Int64"));
    }
}
