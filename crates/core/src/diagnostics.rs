//! Diagnostics emitted by the static graph checker (`raft-check`).
//!
//! The paper's `exe()` "checks the graph to ensure it is fully connected,
//! then type checking is performed across each link" before anything runs.
//! [`crate::check`] generalizes that into a registry of named lint passes;
//! each finding is a [`Diagnostic`]: a stable lint code (`RC0008`), a
//! [`Severity`], a rendered message, and the kernel/link indices involved so
//! tooling (DOT export, dashboards) can highlight the offending subgraph.

use std::fmt;

/// How serious a diagnostic is. `Error` diagnostics abort `exe()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational only; never blocks execution.
    Info,
    /// Suspicious but runnable; reported and ignored by `exe()`.
    Warn,
    /// The graph is malformed; `exe()` refuses to run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warn => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding from a lint pass over a [`crate::map::RaftMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code, e.g. `"RC0008"`. Codes never change meaning across
    /// releases; new lints get new codes, and a retired code is not reused.
    pub code: &'static str,
    /// Short lint name, e.g. `"feedback-deadlock"`.
    pub lint: &'static str,
    /// Severity of this particular finding.
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// Optional actionable suggestion, rendered on its own `help:` line —
    /// what to change (a concrete capacity, an API call) rather than what
    /// is wrong.
    pub help: Option<String>,
    /// Indices of the kernels involved (positions in the map's kernel
    /// table), for graph highlighting.
    pub kernels: Vec<usize>,
    /// Indices of the links involved (positions in the map's link table).
    pub links: Vec<usize>,
}

impl Diagnostic {
    /// A new diagnostic with no kernels/links attached yet.
    pub fn new(
        code: &'static str,
        lint: &'static str,
        severity: Severity,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            lint,
            severity,
            message: message.into(),
            help: None,
            kernels: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Attach an actionable `help:` suggestion.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Attach an involved kernel index.
    pub fn with_kernel(mut self, idx: usize) -> Self {
        self.kernels.push(idx);
        self
    }

    /// Attach several involved kernel indices.
    pub fn with_kernels(mut self, idxs: impl IntoIterator<Item = usize>) -> Self {
        self.kernels.extend(idxs);
        self
    }

    /// Attach an involved link index.
    pub fn with_link(mut self, idx: usize) -> Self {
        self.links.push(idx);
        self
    }

    /// Attach several involved link indices.
    pub fn with_links(mut self, idxs: impl IntoIterator<Item = usize>) -> Self {
        self.links.extend(idxs);
        self
    }

    /// `true` iff this diagnostic blocks execution.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.lint, self.message
        )?;
        if let Some(help) = &self.help {
            write!(f, "\n    help: {help}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostic {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
    }

    #[test]
    fn display_includes_code_lint_and_message() {
        let d = Diagnostic::new(
            "RC0008",
            "feedback-deadlock",
            Severity::Error,
            "a -> b -> a",
        )
        .with_kernel(0)
        .with_kernel(1)
        .with_link(2);
        let s = d.to_string();
        assert!(s.contains("error"), "{s}");
        assert!(s.contains("RC0008"), "{s}");
        assert!(s.contains("feedback-deadlock"), "{s}");
        assert!(s.contains("a -> b -> a"), "{s}");
        assert_eq!(d.kernels, vec![0, 1]);
        assert_eq!(d.links, vec![2]);
    }

    #[test]
    fn display_renders_help_on_its_own_line() {
        let d = Diagnostic::new("RC0007", "capacity", Severity::Warn, "too small")
            .with_help("use a ceiling of 128");
        let s = d.to_string();
        assert!(
            s.contains("too small\n    help: use a ceiling of 128"),
            "{s}"
        );
        // Without help, no dangling line.
        let bare = Diagnostic::new("RC0007", "capacity", Severity::Warn, "too small");
        assert!(!bare.to_string().contains("help:"));
    }
}
