//! Error types for topology construction and execution.

use std::fmt;

/// Errors raised while assembling a streaming map (`link`-time errors —
/// RaftLib performs connectivity and type checking before execution, §4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// The named kernel does not exist in the map.
    NoSuchKernel(String),
    /// The kernel exists but has no port with this name.
    NoSuchPort {
        /// Kernel display name.
        kernel: String,
        /// Requested port name.
        port: String,
        /// Ports that do exist, for the error message.
        available: Vec<String>,
    },
    /// Source output type differs from destination input type.
    TypeMismatch {
        /// Source kernel and port.
        src: String,
        /// Destination kernel and port.
        dst: String,
        /// Type name declared on the output.
        src_type: &'static str,
        /// Type name declared on the input.
        dst_type: &'static str,
    },
    /// The port is already connected to another stream.
    AlreadyLinked {
        /// Kernel display name.
        kernel: String,
        /// Port name.
        port: String,
    },
    /// Linking a kernel to itself is not supported.
    SelfLoop(String),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::NoSuchKernel(k) => write!(f, "no kernel named {k:?} in map"),
            LinkError::NoSuchPort {
                kernel,
                port,
                available,
            } => write!(
                f,
                "kernel {kernel:?} has no port {port:?} (available: {available:?})"
            ),
            LinkError::TypeMismatch {
                src,
                dst,
                src_type,
                dst_type,
            } => write!(
                f,
                "type mismatch linking {src} -> {dst}: {src_type} vs {dst_type}"
            ),
            LinkError::AlreadyLinked { kernel, port } => {
                write!(f, "port {port:?} of kernel {kernel:?} is already linked")
            }
            LinkError::SelfLoop(k) => write!(f, "kernel {k:?} cannot link to itself"),
        }
    }
}

impl std::error::Error for LinkError {}

/// Errors raised by `exe()` — graph validation and execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExeError {
    /// The static checker found blocking problems (the paper: the graph is
    /// "checked to ensure it is fully connected" before running; see
    /// [`passes`](crate::passes) for the full lint registry). Carries every
    /// diagnostic from the run — warnings included — so callers can render
    /// the whole picture; at least one entry has
    /// [`Severity::Error`](crate::diagnostics::Severity::Error).
    CheckFailed {
        /// All findings from [`crate::map::RaftMap::check`].
        diagnostics: Vec<crate::diagnostics::Diagnostic>,
    },
    /// One or more kernels with the default
    /// [`Abort`](crate::supervise::SupervisorPolicy::Abort) policy panicked
    /// during execution. Panics absorbed by `Skip`/`Restart`/`Replace`
    /// policies do *not* raise this error; they surface through the
    /// per-kernel outcomes in [`ExeReport`](crate::runtime::ExeReport).
    KernelPanicked {
        /// Display names of the kernels that panicked, sorted — concurrent
        /// panics are reported in a deterministic order.
        kernels: Vec<String>,
    },
}

impl fmt::Display for ExeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExeError::CheckFailed { diagnostics } => {
                let errors = diagnostics.iter().filter(|d| d.is_error()).count();
                write!(f, "graph check failed with {errors} error(s):")?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            ExeError::KernelPanicked { kernels } => {
                write!(f, "kernel(s) panicked during execution: {kernels:?}")
            }
        }
    }
}

impl std::error::Error for ExeError {}

/// A stream endpoint reported that the other side is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortClosed;

impl fmt::Display for PortClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream closed")
    }
}

impl std::error::Error for PortClosed {}
