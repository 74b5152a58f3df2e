//! Storage error types.

use std::fmt;

/// Errors a simulated storage service can return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Request rejected by rate limiting (S3's `503 SlowDown`,
    /// DynamoDB's `ProvisionedThroughputExceededException`).
    Throttled,
    /// The client-side timeout elapsed before the service responded.
    Timeout,
    /// No object under the requested key.
    NotFound {
        /// The missing key.
        key: String,
    },
    /// Payload exceeds the service's object/item size limit.
    TooLarge {
        /// The service's limit (bytes).
        limit: u64,
        /// The offered payload size (bytes).
        got: u64,
    },
    /// Requested byte range falls outside the object.
    InvalidRange {
        /// Object length (bytes).
        len: u64,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        requested: u64,
    },
    /// Service refused the connection (concurrent-client limit).
    ConnectionRejected,
    /// Retries exhausted; carries the final error's description.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// Description of the last failure.
        last: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Throttled => write!(f, "throttled (SlowDown)"),
            StorageError::Timeout => write!(f, "request timed out"),
            StorageError::NotFound { key } => write!(f, "no such key: {key}"),
            StorageError::TooLarge { limit, got } => {
                write!(f, "payload of {got} B exceeds the {limit} B limit")
            }
            StorageError::InvalidRange {
                len,
                offset,
                requested,
            } => write!(f, "range {offset}+{requested} outside object of {len} B"),
            StorageError::ConnectionRejected => write!(f, "connection rejected"),
            StorageError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::TooLarge {
            limit: 400 * 1024,
            got: 500 * 1024,
        };
        assert!(e.to_string().contains("409600"));
        assert!(StorageError::Throttled.to_string().contains("SlowDown"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(StorageError::Throttled, StorageError::Throttled);
        assert_ne!(
            StorageError::Throttled,
            StorageError::NotFound { key: "k".into() }
        );
    }
}
