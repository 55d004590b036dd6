//! Error type for the job runtime.

use std::fmt;

/// Anything that can go wrong parsing, validating, or executing a job.
#[derive(Debug)]
pub enum RuntimeError {
    /// A typed error from `od-core` (unknown protocol, invalid params,
    /// invalid configuration).
    Core(od_core::Error),
    /// The job file could not be parsed (JSON/TOML syntax).
    Parse(String),
    /// The spec parsed but its fields are invalid or inconsistent.
    Spec(String),
    /// A checkpoint file exists but does not match the spec.
    CheckpointMismatch {
        /// Hash recorded in the checkpoint.
        found: String,
        /// Hash of the spec being run.
        expected: String,
    },
    /// Filesystem failure (reading job files, writing checkpoints).
    Io {
        /// What was being done.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A queue lease operation failed or the lease was lost to another
    /// worker (taken over after expiry, released, or corrupted).
    Lease {
        /// The job file the lease guards.
        job: std::path::PathBuf,
        /// What went wrong.
        message: String,
    },
    /// A queue job failed; carries the job file and (when the spec
    /// loaded far enough to hash) its content hash so a failure deep in
    /// a long queue names the exact job and revision that produced it.
    Job {
        /// The job file the error came from.
        path: std::path::PathBuf,
        /// The spec's content hash, when known.
        spec_hash: Option<String>,
        /// The underlying error.
        source: Box<RuntimeError>,
    },
    /// A directory queue entry has a non-UTF-8 file name. The queue's
    /// sidecar contract is defined over UTF-8 names, so the entry can
    /// be neither classified as a job nor safely skipped as a sidecar.
    NonUtf8QueueEntry {
        /// The offending directory entry.
        entry: std::path::PathBuf,
    },
    /// A job run panicked. The queue worker catches the panic, so the
    /// attempt is charged, retried or quarantined, and its lease
    /// released, like any other failure.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Core(e) => write!(f, "{e}"),
            Self::Parse(msg) => write!(f, "parse error: {msg}"),
            Self::Spec(msg) => write!(f, "invalid job spec: {msg}"),
            Self::CheckpointMismatch { found, expected } => write!(
                f,
                "checkpoint belongs to spec {found}, but this job hashes to {expected} \
                 (delete the checkpoint or restore the original spec)"
            ),
            Self::Io { context, source } => write!(f, "{context}: {source}"),
            Self::Lease { job, message } => {
                write!(f, "lease on {}: {message}", job.display())
            }
            Self::Job {
                path,
                spec_hash,
                source,
            } => match spec_hash {
                Some(hash) => write!(f, "{} (spec {hash}): {source}", path.display()),
                None => write!(f, "{}: {source}", path.display()),
            },
            Self::NonUtf8QueueEntry { entry } => write!(
                f,
                "queue entry {} has a non-UTF-8 file name; rename it (job files \
                 and sidecars are classified by UTF-8 name)",
                entry.display()
            ),
            Self::Panicked { message } => write!(f, "job panicked: {message}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Core(e) => Some(e),
            Self::Io { source, .. } => Some(source),
            Self::Job { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<od_core::Error> for RuntimeError {
    fn from(e: od_core::Error) -> Self {
        Self::Core(e)
    }
}

impl RuntimeError {
    /// Wraps an I/O error with context.
    #[must_use]
    pub fn io(context: &str, source: std::io::Error) -> Self {
        Self::Io {
            context: context.to_string(),
            source,
        }
    }
}
