//! Project-invariant lint: a token-level scanner for rules rustc and
//! clippy cannot express.
//!
//! The scanner is deliberately hand-rolled (the build environment is
//! offline, so no `syn`): [`mask_source`] blanks out comments and string
//! literals while preserving line structure, after which the rules are
//! line-oriented pattern checks over the masked text — plus the *raw*
//! lines for rules about comments (`// SAFETY:`, `// ORDER:`). Region
//! awareness (`#[cfg(test)]` items, named fn bodies) comes from brace
//! matching on the masked text.
//!
//! ## Rules
//!
//! | rule        | invariant |
//! |-------------|-----------|
//! | `timestamp` | no `Instant::now`/`SystemTime::now` outside tests, benches, shims and the sanctioned `HostClock::Real` site — everything on a decision path must go through the injected clock so the deterministic simulation stays deterministic |
//! | `safety-comment` | every `unsafe` is preceded by a `// SAFETY:` (or `# Safety` doc section) explaining why it is sound |
//! | `atomic-order` | every atomic operation in the lock-free core (`sdnfv-ring`, the telemetry histogram, the flow table's partition generations, the re-home bucket counts) names an explicit `Ordering::` *and* carries an `// ORDER:` comment justifying it |
//! | `hot-path-block` | no `thread::sleep` / `.lock()` / `.read()` / `.write()` inside the per-packet hot paths (the engine's `step`, the worker's round, dispatch, frame-reuse and flush fns, the state-mailbox accessors; admission's header walk, credit grant and bucket counts), and no lock type (`RwLock`, `Mutex`) or blocking call anywhere in the packet handles every hop goes through (`sdnfv-ring/src/shared.rs`, tests aside) |
//! | `no-todo`   | no `todo!` / `unimplemented!` outside tests |
//!
//! Suppressions live in a checked-in allowlist (see [`Allowlist`]): one
//! line per suppressed finding, each with a human justification. Unused
//! entries are themselves reported, so the allowlist cannot rot.

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding, formatted `path:line: [rule] message` — the
/// machine-readable shape CI greps and the allowlist keys off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`timestamp`, `safety-comment`, ...).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Human explanation of the violated invariant.
    pub message: String,
    /// The raw source line (trimmed), used for allowlist matching.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Replaces every comment and string-literal character with a space (
/// newlines preserved), so downstream rules can pattern-match code without
/// tripping over doc prose or log messages. Handles line comments, nested
/// block comments, char literals, plain strings with escapes, and raw
/// strings with up to any number of `#`s.
pub fn mask_source(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 1usize;
                out.push(b' ');
                out.push(b' ');
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        out.push(b' ');
                        out.push(b' ');
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        out.push(b' ');
                        out.push(b' ');
                        i += 2;
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' if i + 1 < bytes.len() => {
                            // Keep the newline of a `\`-line-continuation:
                            // masking must preserve line structure exactly.
                            out.push(b' ');
                            out.push(if bytes[i + 1] == b'\n' { b'\n' } else { b' ' });
                            i += 2;
                        }
                        b'"' => {
                            out.push(b' ');
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            out.push(b'\n');
                            i += 1;
                        }
                        _ => {
                            out.push(b' ');
                            i += 1;
                        }
                    }
                }
            }
            b'r' if is_raw_string_start(bytes, i) => {
                let hashes = count_hashes(bytes, i + 1);
                out.extend(std::iter::repeat_n(b' ', hashes + 2));
                i += 1 + hashes + 1; // r, hashes, opening quote
                let closer = closing_raw(hashes);
                loop {
                    if i >= bytes.len() {
                        break;
                    }
                    if bytes[i] == b'"' && bytes[i..].starts_with(closer.as_bytes()) {
                        out.extend(std::iter::repeat_n(b' ', closer.len()));
                        i += closer.len();
                        break;
                    }
                    out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a lifetime has no closing quote
                // within the next few bytes (except 'x' which does). Treat
                // as a char literal when we can see a closing quote at the
                // expected distance.
                if let Some(len) = char_literal_len(bytes, i) {
                    out.extend(std::iter::repeat_n(b' ', len));
                    i += len;
                } else {
                    out.push(b);
                    i += 1;
                }
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // r"..." or r#"..."# (also covers br/rb prefixes loosely via the bare
    // `r`; `b"` strings are caught by the plain `"` arm).
    let mut j = i + 1;
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    j < bytes.len()
        && bytes[j] == b'"'
        && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric() && bytes[i - 1] != b'_')
}

fn count_hashes(bytes: &[u8], mut i: usize) -> usize {
    let mut n = 0;
    while i < bytes.len() && bytes[i] == b'#' {
        n += 1;
        i += 1;
    }
    n
}

fn closing_raw(hashes: usize) -> String {
    let mut s = String::from("\"");
    for _ in 0..hashes {
        s.push('#');
    }
    s
}

fn char_literal_len(bytes: &[u8], i: usize) -> Option<usize> {
    // 'a'  '\n'  '\u{1F600}'  — scan to a closing quote within 12 bytes,
    // rejecting lifetimes like 'static (no closing quote / identifier run).
    let mut j = i + 1;
    if j < bytes.len() && bytes[j] == b'\\' {
        j += 2;
        while j < bytes.len() && j - i < 12 && bytes[j] != b'\'' {
            j += 1;
        }
        return (j < bytes.len() && bytes[j] == b'\'').then_some(j - i + 1);
    }
    // Multi-byte UTF-8 scalar or single byte, then a quote.
    let mut k = j;
    while k < bytes.len() && k - j < 4 && bytes[k] != b'\'' {
        k += 1;
    }
    if k < bytes.len() && bytes[k] == b'\'' && k > j {
        // 'x' but not 'static' — an identifier char followed by more
        // identifier chars is a lifetime.
        if k == j + 1 && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            let after = bytes.get(k + 1).copied().unwrap_or(b' ');
            if after.is_ascii_alphanumeric() || after == b'_' {
                return None;
            }
        }
        return Some(k - i + 1);
    }
    None
}

/// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` items,
/// found by brace-matching on the masked source.
pub fn test_regions(masked: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut search = 0;
    while let Some(found) = masked[search..].find("#[cfg(test)]") {
        let attr_at = search + found;
        if let Some((open, close)) = next_brace_span(masked, attr_at) {
            regions.push((line_of(masked, open), line_of(masked, close)));
            search = attr_at + "#[cfg(test)]".len();
        } else {
            break;
        }
    }
    regions
}

/// Byte offsets of the `{`...`}` item body following `from`.
fn next_brace_span(masked: &str, from: usize) -> Option<(usize, usize)> {
    let bytes = masked.as_bytes();
    let open = bytes[from..].iter().position(|&b| b == b'{')? + from;
    let mut depth = 0usize;
    for (offset, &b) in bytes[open..].iter().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, open + offset));
                }
            }
            _ => {}
        }
    }
    None
}

fn line_of(text: &str, byte: usize) -> usize {
    text.as_bytes()[..byte]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Line ranges (1-based, inclusive) of the bodies of functions named
/// `name`, found by brace-matching on the masked source.
pub fn fn_body_regions(masked: &str, name: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let needle = format!("fn {name}");
    let bytes = masked.as_bytes();
    let mut search = 0;
    while let Some(found) = masked[search..].find(&needle) {
        let at = search + found;
        search = at + needle.len();
        // Word boundaries: `fn step` must not match `fn step_count`.
        let after = bytes.get(at + needle.len()).copied().unwrap_or(b' ');
        if after.is_ascii_alphanumeric() || after == b'_' {
            continue;
        }
        if at > 0 {
            let before = bytes[at - 1];
            if before.is_ascii_alphanumeric() || before == b'_' {
                continue;
            }
        }
        if let Some((open, close)) = next_brace_span(masked, at) {
            regions.push((line_of(masked, open), line_of(masked, close)));
        }
    }
    regions
}

fn in_regions(regions: &[(usize, usize)], line: usize) -> bool {
    regions.iter().any(|&(lo, hi)| lo <= line && line <= hi)
}

/// Walks raw lines upward from `line - 1` through the contiguous run of
/// comment / attribute / blank lines and reports whether any contains
/// `needle` (also checks `line` itself for a trailing comment).
fn comment_run_contains(raw_lines: &[&str], line: usize, needles: &[&str]) -> bool {
    let has = |l: &str| needles.iter().any(|n| l.contains(n));
    if has(raw_lines[line - 1]) {
        return true;
    }
    let mut at = line - 1; // index of the line above, 0-based
    while at > 0 {
        let above = raw_lines[at - 1].trim_start();
        if above.starts_with("//") {
            if has(above) {
                return true;
            }
            at -= 1;
        } else if above.starts_with("#[") || above.starts_with("#![") {
            at -= 1;
        } else {
            break;
        }
    }
    false
}

/// Walks upward from `line` to the first line of the statement containing
/// it: a line is a continuation if the line above it does not end a
/// statement/block and is not a comment/blank.
fn statement_start(raw_lines: &[&str], masked_lines: &[&str], line: usize) -> usize {
    let mut at = line;
    while at > 1 {
        let above_raw = raw_lines[at - 2].trim();
        let above_masked = masked_lines[at - 2].trim_end();
        let above_code = above_masked.trim();
        if above_raw.is_empty() || above_raw.starts_with("//") || above_raw.starts_with("#[") {
            break;
        }
        if above_code.ends_with(';')
            || above_code.ends_with('{')
            || above_code.ends_with('}')
            || above_code.is_empty()
        {
            break;
        }
        at -= 1;
    }
    at
}

/// File-scope predicates the rules use, derived from the workspace-relative
/// path.
struct Scope {
    /// tests/, benches/ directories, or shims/ — exempt from the behavioral
    /// rules (timestamp, hot-path, todo).
    test_like: bool,
    /// The lock-free core the `atomic-order` rule covers.
    atomic_core: bool,
    /// A file whose hot-path fns the `hot-path-block` rule scans: the
    /// engine, and the header walk, credit gate and bucket counts
    /// admission runs per packet.
    hot_path_file: bool,
    /// The packet-handle module, lock-free as a whole under
    /// `hot-path-block`.
    packet_handle_file: bool,
}

fn classify(path: &Path) -> Scope {
    let p = path.to_string_lossy().replace('\\', "/");
    let test_like = p.contains("/tests/")
        || p.starts_with("tests/")
        || p.contains("/benches/")
        || p.starts_with("shims/")
        || p.contains("/examples/")
        || p.starts_with("examples/")
        // The benchmark harness measures wall time by design; routing it
        // through HostClock would measure the shim instead of the code.
        || p.starts_with("crates/sdnfv-bench/");
    // The measured code: the ring crate's shipping modules, the histogram,
    // the flow table's partition generations and the re-home bucket
    // counts. The facade (sync.rs) and
    // the checker itself (model.rs) are the measuring instrument — their
    // internal orderings are either the caller's (forwarded verbatim) or
    // documented at module level.
    let atomic_core = (p.contains("crates/sdnfv-ring/src/")
        && !p.ends_with("/model.rs")
        && !p.ends_with("/sync.rs"))
        || p.ends_with("crates/sdnfv-telemetry/src/hist.rs")
        || p.ends_with("crates/sdnfv-flowtable/src/table.rs")
        || p.ends_with("crates/sdnfv-dataplane/src/rehome.rs");
    let hot_path_file = [
        "crates/sdnfv-dataplane/src/runtime.rs",
        "crates/sdnfv-dataplane/src/rehome.rs",
        "crates/sdnfv-ring/src/credit.rs",
        "crates/sdnfv-proto/src/packet.rs",
    ]
    .iter()
    .any(|file| p.ends_with(file));
    let packet_handle_file = p.ends_with("crates/sdnfv-ring/src/shared.rs");
    Scope {
        test_like,
        atomic_core,
        hot_path_file,
        packet_handle_file,
    }
}

/// Engine functions that run per packet (or per step-slice) and must stay
/// free of blocking calls. `step` is the loop body of the shard worker and
/// of an NF replica; then the worker's per-packet fns (RX and TX rounds,
/// the deferred-completion retry, dispatch, forwarding, staging, flush,
/// frame and descriptor reuse and a fan-out's exit, lookup); then the NF
/// state-mailbox accessors `step` calls; last, what admission runs per
/// packet outside the engine file: the header walk, the burst's credit
/// grant and the two sides of the bucket count.
const HOT_PATH_FNS: &[&str] = &[
    "step",
    "rx_round",
    "tx_round",
    "retry_deferred",
    "dispatch",
    "tx_span",
    "forward_decision",
    "forward_action",
    "end_short",
    "resolve_targets",
    "fans_out",
    "stage_targets",
    "stage_in_order",
    "next_listed",
    "flush",
    "flush_staged_egress",
    "owned_frame",
    "descriptor",
    "share",
    "unshare",
    "reclaim",
    "lookup",
    "serve_state_requests",
    "take_requests",
    "drain_responses",
    "post",
    "respond",
    "walk_headers",
    "acquire_up_to",
    "admit",
    "finish",
];

/// What the packet-handle module may not contain at all: a lock type, or a
/// call that takes or waits on one.
const PACKET_HANDLE_LOCKS: &[&str] = &[
    "RwLock",
    "Mutex",
    "thread::sleep",
    ".lock()",
    ".read()",
    ".write()",
];

/// Scans one file's source and returns all findings (allowlist not yet
/// applied). `path` is the workspace-relative path used for scoping.
pub fn scan_source(path: &Path, source: &str) -> Vec<Finding> {
    let scope = classify(path);
    let masked = mask_source(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let masked_lines: Vec<&str> = masked.lines().collect();
    let tests = test_regions(&masked);
    let mut findings = Vec::new();
    let mut push = |rule: &'static str, line: usize, message: String| {
        findings.push(Finding {
            rule,
            path: path.to_path_buf(),
            line,
            message,
            excerpt: raw_lines
                .get(line - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        });
    };

    let mut order_seen_statements = Vec::new();
    for (idx, &mline) in masked_lines.iter().enumerate() {
        let line = idx + 1;
        let in_test = in_regions(&tests, line);

        // timestamp: wall-clock reads poison determinism outside tests.
        if !scope.test_like
            && !in_test
            && (mline.contains("Instant::now") || mline.contains("SystemTime::now"))
        {
            push(
                "timestamp",
                line,
                "wall-clock read outside tests/benches; route through the injected \
                 HostClock so simulation stays deterministic"
                    .to_string(),
            );
        }

        // safety-comment: every `unsafe` needs a SAFETY justification.
        if contains_word(mline, "unsafe")
            && !comment_run_contains(&raw_lines, line, &["SAFETY:", "# Safety"])
        {
            push(
                "safety-comment",
                line,
                "`unsafe` without a `// SAFETY:` comment explaining why it is sound".to_string(),
            );
        }

        // atomic-order: explicit Ordering + an ORDER justification, in the
        // lock-free core only. Multi-line calls are anchored at their
        // statement's first line and deduplicated.
        if scope.atomic_core && !in_test && mline.contains("Ordering::") {
            let anchor = statement_start(&raw_lines, &masked_lines, line);
            if !order_seen_statements.contains(&anchor) {
                order_seen_statements.push(anchor);
                if !comment_run_contains(&raw_lines, anchor, &["ORDER:"]) {
                    push(
                        "atomic-order",
                        anchor,
                        "atomic operation in the lock-free core without an `// ORDER:` \
                         comment justifying its memory ordering"
                            .to_string(),
                    );
                }
            }
            if mline.contains("Ordering::SeqCst") {
                push(
                    "atomic-order",
                    line,
                    "SeqCst in the lock-free core: justify via the allowlist or weaken \
                     to an acquire/release pairing the model checker can vouch for"
                        .to_string(),
                );
            }
        }

        // no-todo: stubs must not ship.
        if !scope.test_like
            && !in_test
            && (mline.contains("todo!") || mline.contains("unimplemented!"))
        {
            push(
                "no-todo",
                line,
                "`todo!`/`unimplemented!` outside tests".to_string(),
            );
        }
    }

    // hot-path-block: blocking calls inside the engine's per-packet fns.
    if scope.hot_path_file {
        let mut hot: Vec<(usize, usize)> = Vec::new();
        for name in HOT_PATH_FNS {
            hot.extend(fn_body_regions(&masked, name));
        }
        for (idx, &mline) in masked_lines.iter().enumerate() {
            let line = idx + 1;
            if in_regions(&tests, line) || !in_regions(&hot, line) {
                continue;
            }
            for pattern in ["thread::sleep", ".lock()", ".read()", ".write()"] {
                if mline.contains(pattern) {
                    push(
                        "hot-path-block",
                        line,
                        format!(
                            "`{pattern}` inside an engine hot-path fn \
                             ({}): blocking here stalls the packet path",
                            HOT_PATH_FNS.join("/")
                        ),
                    );
                }
            }
        }
    }

    // hot-path-block, packet handles: every hop and every fan-out NF goes
    // through these frames, and a fan-out shares an immutable packet — so
    // the module holds no lock at all.
    if scope.packet_handle_file {
        for (idx, &mline) in masked_lines.iter().enumerate() {
            let line = idx + 1;
            if in_regions(&tests, line) {
                continue;
            }
            for pattern in PACKET_HANDLE_LOCKS {
                if mline.contains(pattern) {
                    push(
                        "hot-path-block",
                        line,
                        format!(
                            "`{pattern}` in the packet-handle module: frames stay \
                             lock-free (a fan-out's NFs share an immutable packet; only \
                             a handle proven unique writes it)"
                        ),
                    );
                }
            }
        }
    }

    findings
}

fn contains_word(line: &str, word: &str) -> bool {
    let mut search = 0;
    while let Some(found) = line[search..].find(word) {
        let at = search + found;
        let before_ok = at == 0
            || !line.as_bytes()[at - 1].is_ascii_alphanumeric() && line.as_bytes()[at - 1] != b'_';
        let after = line
            .as_bytes()
            .get(at + word.len())
            .copied()
            .unwrap_or(b' ');
        let after_ok = !after.is_ascii_alphanumeric() && after != b'_';
        if before_ok && after_ok {
            return true;
        }
        search = at + word.len();
    }
    false
}

/// One allowlist entry: `rule | path-suffix | line-substring | justification`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule the entry suppresses.
    pub rule: String,
    /// Finding's path must end with this.
    pub path_suffix: String,
    /// Finding's source line must contain this.
    pub line_substring: String,
    /// Why the suppression is sound (required, surfaced in `--list`).
    pub justification: String,
    /// 1-based line in the allowlist file (for unused-entry reporting).
    pub defined_at: usize,
}

/// The parsed allowlist plus usage tracking.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the `lint.allow` format: `#` comments, blank lines, and
    /// 4-field `|`-separated entries. Malformed lines are errors — a
    /// suppression without a justification must not parse.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split('|').map(str::trim).collect();
            if fields.len() != 4 || fields.iter().any(|f| f.is_empty()) {
                return Err(format!(
                    "lint.allow:{}: expected `rule | path-suffix | line-substring | justification`",
                    idx + 1
                ));
            }
            entries.push(AllowEntry {
                rule: fields[0].to_string(),
                path_suffix: fields[1].to_string(),
                line_substring: fields[2].to_string(),
                justification: fields[3].to_string(),
                defined_at: idx + 1,
            });
        }
        Ok(Allowlist { entries })
    }

    /// Splits findings into (kept, suppressed) and reports entries that
    /// suppressed nothing (stale allowlist lines).
    pub fn apply(&self, findings: Vec<Finding>) -> (Vec<Finding>, Vec<Finding>, Vec<&AllowEntry>) {
        let mut used = vec![false; self.entries.len()];
        let mut kept = Vec::new();
        let mut suppressed = Vec::new();
        for finding in findings {
            let path = finding.path.to_string_lossy().replace('\\', "/");
            let hit = self.entries.iter().position(|e| {
                e.rule == finding.rule
                    && path.ends_with(&e.path_suffix)
                    && finding.excerpt.contains(&e.line_substring)
            });
            match hit {
                Some(i) => {
                    used[i] = true;
                    suppressed.push(finding);
                }
                None => kept.push(finding),
            }
        }
        let unused = self
            .entries
            .iter()
            .zip(&used)
            .filter(|(_, &u)| !u)
            .map(|(e, _)| e)
            .collect();
        (kept, suppressed, unused)
    }
}

/// Recursively collects the workspace `.rs` files the lint scans: `crates/`
/// and `shims/` sources plus the root `src/` and `tests/`.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for top in ["crates", "shims", "src", "tests", "examples"] {
        collect_rs(&root.join(top), root, &mut files);
    }
    files.sort();
    files
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n == "target" || n == "fixtures")
            {
                continue;
            }
            collect_rs(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(
                path.strip_prefix(root)
                    .map(Path::to_path_buf)
                    .unwrap_or(path),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_comments_and_strings() {
        let src = "let a = \"Instant::now\"; // Instant::now\nlet b = 1;";
        let masked = mask_source(src);
        assert!(!masked.contains("Instant::now"));
        assert!(masked.contains("let b = 1;"));
        assert_eq!(masked.lines().count(), src.lines().count());
    }

    #[test]
    fn masking_handles_raw_strings_and_chars() {
        let src = "let s = r#\"unsafe { todo!() }\"#; let c = '\\n'; let lt: &'static str = x;";
        let masked = mask_source(src);
        assert!(!masked.contains("todo!"));
        assert!(!masked.contains("unsafe"));
        assert!(masked.contains("'static"), "lifetimes must survive masking");
    }

    #[test]
    fn test_region_covers_cfg_test_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let masked = mask_source(src);
        let regions = test_regions(&masked);
        assert_eq!(regions, vec![(3, 5)]);
    }

    #[test]
    fn word_boundaries_respected() {
        assert!(contains_word("unsafe impl Send for X {}", "unsafe"));
        assert!(!contains_word("let unsafety = 1;", "unsafe"));
    }
}
