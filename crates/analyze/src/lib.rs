//! # wrht-analyze — determinism-invariant static analysis for the workspace
//!
//! Every headline property of this reproduction — byte-identical
//! parallel-vs-serial campaigns, bit-exact single-tenant equivalence, the
//! f64 bit-equality coalescing contract in the shared kernel, byte-identical
//! checkpoint/resume — rests on *source-level* invariants: no hash-ordered
//! iteration, no ambient clocks or entropy, no float-order hazards. The
//! differential and golden suites catch violations only after the fact (and
//! only when the hasher seed happens to betray them); this crate catches
//! them at commit time.
//!
//! The analyzer is a hand-rolled token scanner ([`scan`]) — comments,
//! strings and char literals are masked, `#[cfg(test)]`/`mod tests` regions
//! are exempt — plus a rule engine ([`rules`]) enforcing six invariants:
//!
//! | id | name | invariant |
//! |----|------|-----------|
//! | R1 | `hash-collections` | no `HashMap`/`HashSet` in non-test code |
//! | R2 | `ambient-time` | no `Instant`/`SystemTime`/`RandomState` |
//! | R3 | `raw-thread-spawn` | no unscoped `std::thread::spawn` |
//! | R4 | `float-order` | no `partial_cmp` chains, no `f32` sim state |
//! | R5 | `no-panic` | no `unwrap`/`expect`/`panic!` in kernel/core and the two fabric crates |
//! | R6 | `float-eq` | no bare f64 `==`/`!=` outside bit-contract sites |
//!
//! Deliberate exceptions are audited in place:
//!
//! ```text
//! let same = a.time == b.time; // wrht-analyze: allow(r6, reason = "bit-equality coalescing contract")
//! ```
//!
//! A pragma without a reason string is itself a finding (`P0 bad-pragma`).
//!
//! ```
//! use wrht_analyze::{analyze_source, RuleId};
//!
//! let (findings, _) = analyze_source(
//!     "crates/core/src/demo.rs",
//!     "use std::collections::HashMap;\n",
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, RuleId::HashCollections);
//! assert_eq!(findings[0].line, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod rules;
pub mod scan;
pub mod walk;

use std::io;
use std::path::Path;

pub use report::{render_json, render_table};
pub use rules::{analyze_source, rule_table, Finding, RuleId, RuleInfo};
pub use scan::{scan, Pragma, Scan};

/// The result of analyzing a whole workspace.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All surviving findings, sorted by (file, line, column, rule).
    pub findings: Vec<Finding>,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Number of findings suppressed by well-formed, reasoned pragmas.
    pub suppressions: usize,
}

impl Analysis {
    /// True when the workspace is clean (zero findings).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Analyze every `.rs` file under `root`'s `src/`, `crates/*/src/` and
/// `examples/` directories.
///
/// # Errors
/// Propagates filesystem errors (unreadable directories or files).
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let files = walk::workspace_files(root)?;
    let mut findings = Vec::new();
    let mut suppressions = 0usize;
    let files_scanned = files.len();
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        // Normalize to forward slashes so rule scoping and reports are
        // platform-independent.
        let rel_str = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let (mut file_findings, file_suppressions) = analyze_source(&rel_str, &source);
        findings.append(&mut file_findings);
        suppressions += file_suppressions;
    }
    report::sort_findings(&mut findings);
    Ok(Analysis {
        findings,
        files_scanned,
        suppressions,
    })
}
