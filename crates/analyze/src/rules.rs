//! The determinism-invariant rules and the per-file rule engine.
//!
//! Each rule is a textual detector over the masked source (comments,
//! strings and char literals already blanked by [`crate::scan`]), scoped to
//! the workspace paths where its invariant applies, and suppressible line
//! by line through the audited `// wrht-analyze: allow(rule, reason = "…")`
//! pragma.

use crate::scan::scan;

/// Identifier of one rule (or of the pragma grammar itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// R1: no `HashMap`/`HashSet` — iteration order leaks hasher seeds.
    HashCollections,
    /// R2: no wall-clock or ambient-entropy APIs in simulation code.
    AmbientTime,
    /// R3: no unscoped `std::thread::spawn`.
    RawThreadSpawn,
    /// R4: float-order hazards — `partial_cmp` chains and `f32` state.
    FloatOrder,
    /// R5: no `unwrap`/`expect`/`panic!` in `wrht-kernel`/`wrht-core` and
    /// the two fabric crates (`optical-sim/src/`, `electrical-sim/src/`).
    NoPanic,
    /// R6: bare f64 `==`/`!=` outside the documented bit-equality sites.
    FloatEq,
    /// A malformed suppression pragma (missing/empty reason, unknown rule).
    BadPragma,
}

impl RuleId {
    /// Short id rendered in tables (`R1`..`R6`, `P0`).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Self::HashCollections => "R1",
            Self::AmbientTime => "R2",
            Self::RawThreadSpawn => "R3",
            Self::FloatOrder => "R4",
            Self::NoPanic => "R5",
            Self::FloatEq => "R6",
            Self::BadPragma => "P0",
        }
    }

    /// Lowercase pragma key (`r1`..`r6`) for suppression matching.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Self::HashCollections => "r1",
            Self::AmbientTime => "r2",
            Self::RawThreadSpawn => "r3",
            Self::FloatOrder => "r4",
            Self::NoPanic => "r5",
            Self::FloatEq => "r6",
            Self::BadPragma => "p0",
        }
    }

    /// Human-readable rule name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::HashCollections => "hash-collections",
            Self::AmbientTime => "ambient-time",
            Self::RawThreadSpawn => "raw-thread-spawn",
            Self::FloatOrder => "float-order",
            Self::NoPanic => "no-panic",
            Self::FloatEq => "float-eq",
            Self::BadPragma => "bad-pragma",
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column of the first offending token.
    pub column: usize,
    /// The violated rule.
    pub rule: RuleId,
    /// What is wrong and what to use instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Static description of a rule, for tables and docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// `R1`..`R6`.
    pub id: &'static str,
    /// Kebab-case name, also accepted by pragmas.
    pub name: &'static str,
    /// One-line rationale.
    pub summary: &'static str,
}

/// The rule table, in id order.
#[must_use]
pub fn rule_table() -> [RuleInfo; 6] {
    [
        RuleInfo {
            id: "R1",
            name: "hash-collections",
            summary: "HashMap/HashSet iteration order depends on RandomState; \
                      use BTreeMap, slab ids or a sorted Vec",
        },
        RuleInfo {
            id: "R2",
            name: "ambient-time",
            summary: "Instant/SystemTime/RandomState read ambient machine state; \
                      only wrht-bench's timing helper may measure wall time",
        },
        RuleInfo {
            id: "R3",
            name: "raw-thread-spawn",
            summary: "std::thread::spawn escapes the scoped campaign executor; \
                      use std::thread::scope",
        },
        RuleInfo {
            id: "R4",
            name: "float-order",
            summary: "partial_cmp on float keys panics or silently equates NaN; \
                      use total_cmp (and f64, never f32, for simulator state)",
        },
        RuleInfo {
            id: "R5",
            name: "no-panic",
            summary: "wrht-kernel, wrht-core and the optical and electrical \
                      crates return typed errors; unwrap/expect/panic! are \
                      reserved for documented invariants",
        },
        RuleInfo {
            id: "R6",
            name: "float-eq",
            summary: "bare f64 ==/!= is only sanctioned at the documented \
                      bit-equality coalescing sites; compare to_bits() or use an epsilon",
        },
    ]
}

/// Paths (workspace-relative, forward slashes) where R5 applies: the crates
/// and files whose public contract is typed errors.
const NO_PANIC_SCOPE: [&str; 4] = [
    "crates/kernel/src/",
    "crates/core/src/",
    "crates/optical-sim/src/",
    "crates/electrical-sim/src/",
];

/// Paths where `f32` in state is an R4 hazard: everything that feeds the
/// bit-exact differential and golden suites.
const F32_SCOPE: [&str; 4] = [
    "crates/kernel/src/",
    "crates/core/src/",
    "crates/optical-sim/src/",
    "crates/electrical-sim/src/",
];

fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| path.starts_with(p))
}

/// Analyze one file's source text under its workspace-relative path.
///
/// Findings are ordered by (line, column, rule). Suppressed findings are
/// dropped; the count of applied suppressions is returned alongside.
#[must_use]
pub fn analyze_source(path: &str, source: &str) -> (Vec<Finding>, usize) {
    let sc = scan(source);
    let source_lines: Vec<&str> = source.split('\n').collect();
    let mut raw: Vec<Finding> = Vec::new();

    for err in &sc.pragma_errors {
        raw.push(Finding {
            file: path.to_string(),
            line: err.line,
            column: 1,
            rule: RuleId::BadPragma,
            message: format!("malformed wrht-analyze pragma: {}", err.message),
            snippet: snippet(&source_lines, err.line),
        });
    }

    for (idx, masked_line) in sc.masked.split('\n').enumerate() {
        let line_no = idx + 1;
        if sc.test_lines.get(idx).copied().unwrap_or(false) {
            continue;
        }
        check_line(path, masked_line, line_no, &source_lines, &mut raw);
    }

    let mut suppressed = 0usize;
    raw.retain(|f| {
        let hit = f.rule != RuleId::BadPragma
            && sc
                .pragmas
                .iter()
                .any(|p| p.applies_to == f.line && p.rule == f.rule.key());
        if hit {
            suppressed += 1;
        }
        !hit
    });
    raw.sort_by(|a, b| {
        a.line
            .cmp(&b.line)
            .then(a.column.cmp(&b.column))
            .then(a.rule.cmp(&b.rule))
    });
    (raw, suppressed)
}

fn snippet(source_lines: &[&str], line: usize) -> String {
    source_lines
        .get(line - 1)
        .map_or(String::new(), |l| l.trim().to_string())
}

/// Run every in-scope detector over one masked line; at most one finding
/// per (rule, line) so repeated tokens do not flood the report.
fn check_line(
    path: &str,
    masked_line: &str,
    line_no: usize,
    source_lines: &[&str],
    out: &mut Vec<Finding>,
) {
    let mut push = |rule: RuleId, column: usize, message: String| {
        out.push(Finding {
            file: path.to_string(),
            line: line_no,
            column,
            rule,
            message,
            snippet: snippet(source_lines, line_no),
        });
    };

    if let Some(col) = first_word(masked_line, &["HashMap", "HashSet"]) {
        push(
            RuleId::HashCollections,
            col,
            "hashed collection in simulator/kernel code: iteration order depends on the \
             hasher seed; use BTreeMap, slab indices or a sorted Vec"
                .to_string(),
        );
    }
    if let Some(col) = first_word(masked_line, &["Instant", "SystemTime", "RandomState"]) {
        push(
            RuleId::AmbientTime,
            col,
            "wall-clock / ambient-entropy API: simulation results must be a pure function \
             of inputs; only wrht_bench::perf's timing helper may measure wall time"
                .to_string(),
        );
    }
    if let Some(col) = find_substr(masked_line, "thread::spawn") {
        push(
            RuleId::RawThreadSpawn,
            col,
            "raw std::thread::spawn: unscoped threads escape the deterministic campaign \
             executor; use std::thread::scope"
                .to_string(),
        );
    }
    if let Some(col) = find_substr(masked_line, ".partial_cmp(") {
        push(
            RuleId::FloatOrder,
            col,
            "partial_cmp on float keys either panics on NaN or silently equates it, \
             making orderings input-dependent; use f64::total_cmp"
                .to_string(),
        );
    } else if in_scope(path, &F32_SCOPE) {
        if let Some(col) = first_word(masked_line, &["f32"]) {
            push(
                RuleId::FloatOrder,
                col,
                "f32 in simulator state: the differential and golden suites are bit-exact \
                 in f64; single precision breaks cross-substrate equivalence"
                    .to_string(),
            );
        }
    }
    if in_scope(path, &NO_PANIC_SCOPE) {
        let panics: [&str; 6] = [
            ".unwrap()",
            ".expect(",
            "panic!",
            "unreachable!",
            "todo!",
            "unimplemented!",
        ];
        if let Some(col) = panics.iter().find_map(|p| find_substr(masked_line, p)) {
            push(
                RuleId::NoPanic,
                col,
                "panic path in a typed-error crate: return WrhtError/KernelError, or \
                 pragma-annotate a documented invariant"
                    .to_string(),
            );
        }
    }
    if let Some(col) = float_eq_hit(masked_line) {
        push(
            RuleId::FloatEq,
            col,
            "bare f64 equality: exact comparison is only sanctioned at the documented \
             bit-equality coalescing sites; compare to_bits(), use an epsilon, or \
             pragma-annotate the contract"
                .to_string(),
        );
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// First word-boundary occurrence of any of `words`; 1-based column.
fn first_word(line: &str, words: &[&str]) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut best: Option<usize> = None;
    for word in words {
        let mut from = 0;
        while let Some(rel) = line[from..].find(word) {
            let at = from + rel;
            let pre_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
            let end = at + word.len();
            let post_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
            if pre_ok && post_ok {
                best = Some(best.map_or(at, |b: usize| b.min(at)));
                break;
            }
            from = at + 1;
        }
    }
    best.map(|c| c + 1)
}

/// First plain substring occurrence; 1-based column.
fn find_substr(line: &str, pat: &str) -> Option<usize> {
    line.find(pat).map(|c| c + 1)
}

/// Detect a bare float `==`/`!=`: either operand is a float literal, an
/// `f64::`/`f32::` constant path, or an identifier whose final segment is a
/// seconds-typed name (`time`, `now`, `*_s`). Returns the 1-based column of
/// the operator.
fn float_eq_hit(line: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let op = &line[i..i + 2];
        let is_eq = op == "==";
        let is_ne = op == "!=";
        if !(is_eq || is_ne) {
            i += 1;
            continue;
        }
        // Exclude `<=`, `>=`, `=>`-adjacent and chained `=` forms.
        let prev = if i == 0 { b' ' } else { bytes[i - 1] };
        let next = bytes.get(i + 2).copied().unwrap_or(b' ');
        if (is_eq && matches!(prev, b'<' | b'>' | b'=' | b'!')) || next == b'=' {
            i += 2;
            continue;
        }
        let left = left_operand(&line[..i]);
        let right = right_operand(&line[i + 2..]);
        if is_floatish(left) || is_floatish(right) {
            return Some(i + 1);
        }
        i += 2;
    }
    None
}

/// The token ending immediately before the operator.
fn left_operand(before: &str) -> &str {
    let trimmed = before.trim_end();
    let bytes = trimmed.as_bytes();
    let mut start = bytes.len();
    while start > 0 {
        let b = bytes[start - 1];
        if is_ident_byte(b) || matches!(b, b'.' | b':' | b'[' | b']') {
            start -= 1;
        } else {
            break;
        }
    }
    &trimmed[start..]
}

/// The token starting immediately after the operator.
fn right_operand(after: &str) -> &str {
    let trimmed = after.trim_start();
    let bytes = trimmed.as_bytes();
    let mut end = 0;
    if bytes.first() == Some(&b'-') {
        end = 1;
    }
    while end < bytes.len() {
        let b = bytes[end];
        if is_ident_byte(b) || matches!(b, b'.' | b':' | b'[' | b']') {
            end += 1;
        } else {
            break;
        }
    }
    &trimmed[..end]
}

/// Is this operand token a float literal, float constant path, or a
/// seconds-named identifier?
fn is_floatish(token: &str) -> bool {
    if token.is_empty() {
        return false;
    }
    if is_float_literal(token) {
        return true;
    }
    if token.contains("f64::") || token.contains("f32::") {
        return true;
    }
    // Final path/field segment heuristic: this workspace names every
    // seconds-typed f64 with an `_s` suffix (or `time`/`now`).
    let seg = token
        .rsplit(['.', ':'])
        .next()
        .unwrap_or(token)
        .trim_end_matches(']');
    seg == "time" || seg == "now" || (seg.len() > 2 && seg.ends_with("_s"))
}

/// `0.0`, `1.5e3`, `1e9`, `2.`, `-0.25_f64`, `1f64` — but not `1`, `a.0`.
fn is_float_literal(token: &str) -> bool {
    let t = token.strip_prefix('-').unwrap_or(token);
    let t = t
        .strip_suffix("f64")
        .or_else(|| t.strip_suffix("f32"))
        .map(|s| s.strip_suffix('_').unwrap_or(s))
        .unwrap_or(t);
    let bytes = t.as_bytes();
    if bytes.is_empty() || !bytes[0].is_ascii_digit() {
        return false;
    }
    let mut saw_dot_or_exp = false;
    // A `f64`/`f32` suffix was stripped if `t` differs from the
    // sign-stripped token.
    let had_suffix = token.strip_prefix('-').unwrap_or(token) != t;
    for &b in bytes {
        match b {
            b'0'..=b'9' | b'_' => {}
            b'.' => saw_dot_or_exp = true,
            b'e' | b'E' => saw_dot_or_exp = true,
            b'+' | b'-' => {}
            _ => return false,
        }
    }
    saw_dot_or_exp || had_suffix
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        analyze_source(path, src).0
    }

    #[test]
    fn r1_fires_on_hash_collections_and_not_in_strings() {
        let f = findings("crates/core/src/x.rs", "use std::collections::HashMap;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::HashCollections);
        assert!(findings("crates/core/src/x.rs", "let s = \"HashMap\";\n").is_empty());
    }

    #[test]
    fn r4_fires_on_partial_cmp_call_but_not_its_definition() {
        let f = findings("src/x.rs", "v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n");
        assert_eq!(f[0].rule, RuleId::FloatOrder);
        assert!(findings(
            "src/x.rs",
            "fn partial_cmp(&self, other: &Self) -> Option<Ordering> { None }\n"
        )
        .is_empty());
    }

    #[test]
    fn r5_is_scoped_to_kernel_and_core() {
        let src = "let x = y.unwrap();\n";
        assert_eq!(findings("crates/kernel/src/x.rs", src).len(), 1);
        assert_eq!(findings("crates/core/src/x.rs", src).len(), 1);
        assert!(findings("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn r6_literal_and_identifier_heuristics() {
        assert_eq!(findings("src/x.rs", "if x == 0.0 {}\n").len(), 1);
        assert_eq!(findings("src/x.rs", "if x != 1.5e3 {}\n").len(), 1);
        assert_eq!(findings("src/x.rs", "if a == f64::INFINITY {}\n").len(), 1);
        assert_eq!(
            findings("src/x.rs", "self.time == other.time\n").len(),
            1,
            "seconds-named fields are float-compared"
        );
        assert_eq!(findings("src/x.rs", "if t.release_s != 0.0 {}\n").len(), 1);
    }

    #[test]
    fn r6_ignores_integer_and_bitwise_comparisons() {
        assert!(findings("src/x.rs", "if count == 0 {}\n").is_empty());
        assert!(findings("src/x.rs", "if i % 2 == 1 {}\n").is_empty());
        assert!(findings("src/x.rs", "if a.to_bits() == b.to_bits() {}\n").is_empty());
        assert!(findings("src/x.rs", "if x <= 0.5 { f(); }\n").is_empty());
        assert!(findings("src/x.rs", "let f = |a: u32| a; f(2); x >= 1.0;\n").is_empty());
        assert!(findings("src/x.rs", "if in_service == 0 {}\n").is_empty());
    }

    #[test]
    fn suppression_requires_matching_rule() {
        let src =
            "// wrht-analyze: allow(r1, reason = \"audited\")\nuse std::collections::HashMap;\n";
        let (f, suppressed) = analyze_source("src/x.rs", src);
        assert!(f.is_empty());
        assert_eq!(suppressed, 1);
        // A pragma for the wrong rule does not suppress.
        let src =
            "// wrht-analyze: allow(r2, reason = \"audited\")\nuse std::collections::HashMap;\n";
        let (f, suppressed) = analyze_source("src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(suppressed, 0);
    }

    #[test]
    fn malformed_pragma_is_a_finding_and_does_not_suppress() {
        let src = "// wrht-analyze: allow(r1)\nuse std::collections::HashMap;\n";
        let (f, suppressed) = analyze_source("src/x.rs", src);
        assert_eq!(suppressed, 0);
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|x| x.rule == RuleId::BadPragma));
        assert!(f.iter().any(|x| x.rule == RuleId::HashCollections));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn t() { let x = 0.0; assert!(x == 0.0); }\n}\n";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }
}
