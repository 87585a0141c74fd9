//! The four lint rules. All are line-oriented textual checks — no
//! parser, no dependencies — tuned to this codebase's idioms, with an
//! explicit `lint: allow(<rule>)` escape hatch for intentional uses.
//!
//! 1. `raw-borrow` — kernel bodies (crates/core/src/kernels) must go
//!    through `mem.read` / `mem.write_slab`; a whole-buffer mutable
//!    borrow (`.borrow_mut(` or `mem.write(`) defeats the per-slab
//!    aliasing isolation that racecheck (and the real GPU) relies on.
//! 2. `float-eq` — `==`/`!=` against a float literal. Bitwise
//!    determinism is a repo invariant, but float equality is almost
//!    always a bug outside sentinel compares; sentinels carry the
//!    allow marker.
//! 3. `wallclock` — `Instant::now` / `SystemTime::now` inside the
//!    simulated-time crates (vgpu, core, dycore, physics, numerics).
//!    Wall time in a simulated-time path breaks the two-clock rule;
//!    host-side transport watchdogs live in `cluster`, which is
//!    exempt by design.
//! 4. `undeclared-launch` — every `Launch::new` site in the model core
//!    must declare its access-sets with `.reading(...)`/`.writing(...)`
//!    so synccheck/strict mode can reason about it.

use crate::Finding;
use std::fs;
use std::path::Path;

/// Crates whose `src/` trees are scanned at all.
const SCANNED: &[&str] = &[
    "crates/vgpu",
    "crates/core",
    "crates/dycore",
    "crates/physics",
    "crates/numerics",
    "crates/cluster",
    "crates/bench",
];

/// Crates on the simulated timeline (two-clock rule applies).
const SIMULATED_TIME: &[&str] = &[
    "crates/vgpu",
    "crates/core",
    "crates/dycore",
    "crates/physics",
    "crates/numerics",
];

/// Run every rule over the workspace; findings sorted (path, line,
/// rule).
pub fn run(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for krate in SCANNED {
        let src = root.join(krate).join("src");
        let mut files = Vec::new();
        collect_rs(&src, &mut files);
        files.sort();
        for file in files {
            let Ok(text) = fs::read_to_string(&file) else {
                continue;
            };
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            lint_file(krate, &rel, &text, &mut findings);
        }
    }
    findings.sort();
    findings
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    for entry in rd.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn lint_file(krate: &str, rel: &str, text: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = text.lines().collect();
    // Everything from a top-level `#[cfg(test)]` on is test scaffolding
    // (the repo keeps test modules at the end of each file); tests may
    // deliberately construct the hazards the rules reject.
    let code_end = lines
        .iter()
        .position(|l| l.trim_start() == "#[cfg(test)]")
        .unwrap_or(lines.len());

    let allowed = |idx: usize, rule: &str| -> bool {
        let marker = format!("lint: allow({rule})");
        lines[idx].contains(&marker) || (idx > 0 && lines[idx - 1].contains(&marker))
    };

    let in_kernels = rel.contains("/kernels/");
    let simulated = SIMULATED_TIME.contains(&krate);

    for (idx, raw) in lines.iter().enumerate().take(code_end) {
        let line = strip_comment(raw);
        let lno = idx + 1;

        if in_kernels
            && (line.contains(".borrow_mut(")
                || (line.contains("mem.write(") && in_par_body(&lines, idx)))
            && !allowed(idx, "raw-borrow")
        {
            findings.push(Finding {
                path: rel.to_string(),
                line: lno,
                rule: "raw-borrow",
                message: "whole-buffer mutable borrow in kernel code; use mem.write_slab so \
                          per-slab aliasing (and racecheck) stay sound"
                    .to_string(),
            });
        }

        if float_eq(&line) && !allowed(idx, "float-eq") {
            findings.push(Finding {
                path: rel.to_string(),
                line: lno,
                rule: "float-eq",
                message: "equality compare against a float literal; use a tolerance or mark \
                          the sentinel with `lint: allow(float-eq)`"
                    .to_string(),
            });
        }

        if simulated
            && (line.contains("Instant::now") || line.contains("SystemTime::now"))
            && !allowed(idx, "wallclock")
        {
            findings.push(Finding {
                path: rel.to_string(),
                line: lno,
                rule: "wallclock",
                message: "wall-clock read in a simulated-time crate; simulated seconds must \
                          come from the device clocks (two-clock rule)"
                    .to_string(),
            });
        }

        if krate == "crates/core"
            && line.contains("Launch::new(")
            && !declares_access(&lines, idx, code_end)
            && !allowed(idx, "undeclared-launch")
        {
            findings.push(Finding {
                path: rel.to_string(),
                line: lno,
                rule: "undeclared-launch",
                message: "kernel launch without declared access-sets; chain \
                          .reading(...)/.writing(...) onto Launch::new"
                    .to_string(),
            });
        }
    }
}

/// Drop a trailing `// ...` comment (good enough line-wise: the repo
/// has no `//` inside string literals on hazard lines).
fn strip_comment(line: &str) -> String {
    match line.find("//") {
        Some(i) => line[..i].to_string(),
        None => line.to_string(),
    }
}

/// `== 1.0`, `!= 0.0`, `0.5 ==` … a comparison where either side is a
/// float literal.
fn float_eq(line: &str) -> bool {
    let bytes = line.as_bytes();
    for (i, w) in bytes.windows(2).enumerate() {
        if (w == b"==" || w == b"!=")
            // Skip `<=`/`>=`/`!==`-like contexts and pattern arms.
            && (i == 0 || !matches!(bytes[i - 1], b'<' | b'>' | b'=' | b'!'))
        {
            let after = line[i + 2..].trim_start();
            let before = line[..i].trim_end();
            if leads_with_float(after) || trails_with_float(before) {
                return true;
            }
        }
    }
    false
}

fn leads_with_float(s: &str) -> bool {
    let s = s.strip_prefix('-').unwrap_or(s);
    let mut saw_digit = false;
    let mut chars = s.chars();
    for c in chars.by_ref() {
        if c.is_ascii_digit() {
            saw_digit = true;
        } else if c == '.' && saw_digit {
            // `1.` or `1.0` — a float literal, not a range (`1..`).
            return chars.next() != Some('.');
        } else {
            return false;
        }
    }
    false
}

fn trails_with_float(s: &str) -> bool {
    // Walk backwards over `digits . digits` (possibly `1.`).
    let b = s.as_bytes();
    let mut i = b.len();
    while i > 0 && b[i - 1].is_ascii_digit() {
        i -= 1;
    }
    let digits_after = i < b.len();
    if i == 0 || b[i - 1] != b'.' {
        return false;
    }
    i -= 1;
    let dot = i;
    while i > 0 && b[i - 1].is_ascii_digit() {
        i -= 1;
    }
    let digits_before = i < dot;
    // Reject ranges (`..=`) and method calls on non-literals.
    digits_before && (digits_after || i == 0 || !b[i - 1].is_ascii_alphanumeric())
}

/// Is line `idx` inside a slab-parallel kernel body? Whole-buffer
/// `mem.write` is the correct idiom in single-stream `dev.launch`
/// bodies; it is only hazardous under `launch_par` (and
/// `Region::launch_split`, which runs its body through it), where slabs
/// run concurrently. The nearest preceding launch call decides.
fn in_par_body(lines: &[&str], idx: usize) -> bool {
    for l in lines[..=idx].iter().rev() {
        if l.contains(".launch_par(") || l.contains(".launch_split(") {
            return true;
        }
        if l.contains(".launch(") {
            return false;
        }
    }
    false
}

/// Does the `Launch::new` starting at `idx` chain access declarations
/// before the builder expression ends? The chain is at most a handful
/// of `.with_*`/`.reading`/`.writing` lines.
fn declares_access(lines: &[&str], idx: usize, code_end: usize) -> bool {
    for l in lines.iter().take(code_end.min(idx + 12)).skip(idx) {
        if l.contains(".reading(") || l.contains(".writing(") {
            return true;
        }
        // The builder ends where the slab closure begins or the
        // statement terminates.
        if l.contains("move |mem") || l.trim_end().ends_with(';') {
            return false;
        }
    }
    false
}

/// Render findings as a JSON array (stable order, hand-escaped).
pub fn to_json(findings: &[Finding]) -> String {
    let mut s = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            escape(&f.path),
            f.line,
            f.rule,
            escape(&f.message)
        ));
    }
    s.push(']');
    s
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_eq_hits_literal_compares() {
        assert!(float_eq("if rate == 0.0 {"));
        assert!(float_eq("died |= h[0] != 0.0;"));
        assert!(float_eq("if 1.5 == x {"));
        assert!(!float_eq("for i in 0..n {"));
        assert!(!float_eq("if a == b {"));
        assert!(!float_eq("x <= 1.0"));
        assert!(!float_eq("assert_eq!(a, 1.0)"));
    }

    #[test]
    fn declares_access_scans_builder_chain() {
        let ok = [
            "Launch::new(\"k\", g, b, cost)",
            "    .with_lanes(1)",
            "    .reading(reads_all(&[x]))",
            "    .writing(writes_all(&[y])),",
            "ny,",
            "move |mem, j0, j1| {",
        ];
        assert!(declares_access(&ok, 0, ok.len()));
        let bad = [
            "Launch::new(\"k\", g, b, cost).with_lanes(1),",
            "ny,",
            "move |mem, j0, j1| {",
        ];
        assert!(!declares_access(&bad, 0, bad.len()));
    }

    #[test]
    fn json_escapes() {
        let f = vec![Finding {
            path: "a\"b.rs".into(),
            line: 3,
            rule: "float-eq",
            message: "x".into(),
        }];
        assert_eq!(
            to_json(&f),
            "[{\"path\":\"a\\\"b.rs\",\"line\":3,\"rule\":\"float-eq\",\"message\":\"x\"}]"
        );
    }
}
