//! Cross-artifact instrument-drift detection.
//!
//! PR 8's observability contract lives on three surfaces: the
//! registration calls in code (`registry.counter("…")` & friends),
//! the instrument catalog table in ARCHITECTURE.md, and the
//! metrics-smoke grep lists in ci.yml. Before this pass they were
//! kept in sync by hand — the "rule-based filters go stale silently"
//! failure mode. This pass collects every instrument name literal
//! registered through the `obs_telemetry` API and diffs it against
//! both documentation surfaces; any name present on one surface and
//! missing from another is a finding, attributed to the surface that
//! has it (so the fix-it line is always the one printed).
//!
//! A registration whose first argument is not a string literal is
//! itself a finding: a name the detector cannot see is a name that
//! can drift invisibly. Inline the literal at the registration call,
//! or justify with `// lint:allow(drift): <reason>`.

use crate::pass::{Diagnostic, Pass};
use crate::passes::is_method_call;
use crate::workspace::{Surfaces, Workspace};
use std::collections::BTreeMap;
use std::path::Path;

/// The `obs_telemetry::Registry` registration methods.
const REGISTRATION_METHODS: [&str; 6] = [
    "counter",
    "counter_with",
    "gauge",
    "gauge_with",
    "histogram",
    "histogram_with",
];

/// Runs the pass. With neither surface present (single-file lints,
/// per-pass fixtures) the pass is skipped entirely.
pub fn run(ws: &Workspace, surfaces: &Surfaces, out: &mut Vec<Diagnostic>) {
    if surfaces.architecture.is_none() && surfaces.ci.is_none() {
        return;
    }
    let registered = collect_registered(ws, out);
    if let Some((path, text)) = &surfaces.architecture {
        let catalog = parse_catalog(text);
        diff(
            ws,
            &registered,
            &catalog,
            path,
            "the ARCHITECTURE.md instrument catalog",
            "registered in code",
            out,
        );
    }
    if let Some((path, text)) = &surfaces.ci {
        let greps = parse_ci_lists(text);
        diff(
            ws,
            &registered,
            &greps,
            path,
            "the ci.yml metrics-smoke grep lists",
            "registered in code",
            out,
        );
    }
}

/// Two-way diff between the code registrations and one surface.
#[allow(clippy::too_many_arguments)]
fn diff(
    ws: &Workspace,
    registered: &BTreeMap<String, (usize, u32)>,
    surface: &BTreeMap<String, u32>,
    surface_path: &Path,
    surface_desc: &str,
    code_desc: &str,
    out: &mut Vec<Diagnostic>,
) {
    for (name, &(file_idx, line)) in registered {
        if !surface.contains_key(name) {
            ws.files[file_idx].report(
                out,
                Pass::InstrumentDrift,
                line,
                format!("instrument `{name}` is {code_desc} but missing from {surface_desc}"),
            );
        }
    }
    for (name, &line) in surface {
        if !registered.contains_key(name) {
            out.push(Diagnostic {
                file: surface_path.to_path_buf(),
                line,
                pass: Pass::InstrumentDrift,
                message: format!(
                    "instrument `{name}` appears in {surface_desc} but is not {code_desc}"
                ),
            });
        }
    }
}

/// Every instrument name literal registered in the workspace code,
/// keyed by name → first registration site. The `obs_telemetry`
/// crate itself is excluded (its convenience methods forward a
/// non-literal `name` by design), as are `examples/` and the root
/// crate (operator-driven binaries register nothing of their own —
/// and must not be able to demand catalog rows). A registration
/// with a non-literal name is reported on the spot.
fn collect_registered(ws: &Workspace, out: &mut Vec<Diagnostic>) -> BTreeMap<String, (usize, u32)> {
    let mut registered = BTreeMap::new();
    for (file_idx, file) in ws.files.iter().enumerate() {
        let krate = &ws.krates[file_idx];
        if krate == "obs_telemetry" || krate == "examples" || krate == "informing_observers" {
            continue;
        }
        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            if file.test_mask[i]
                || !is_method_call(tokens, i)
                || !tokens[i]
                    .ident()
                    .is_some_and(|n| REGISTRATION_METHODS.contains(&n))
            {
                continue;
            }
            let line = tokens[i].line;
            match tokens.get(i + 2).and_then(|t| t.str_text()) {
                Some(name) => {
                    registered
                        .entry(name.to_owned())
                        .or_insert((file_idx, line));
                }
                None => file.report(
                    out,
                    Pass::InstrumentDrift,
                    line,
                    format!(
                        "`.{}(…)` registers an instrument with a non-literal name: \
                         the drift detector cannot track it — inline the name \
                         literal or justify with `// lint:allow(drift): <reason>`",
                        tokens[i].ident().unwrap_or_default()
                    ),
                ),
            }
        }
    }
    registered
}

/// Instrument names from the ARCHITECTURE.md catalog: every
/// backticked name in the *first column* of the table whose header
/// row starts with `| instrument`, mapped to its 1-based line.
/// (Other columns backtick type names; only the first names
/// instruments.) Public for the drift-canary tests, which mutate
/// scratch copies of the surfaces and assert the pass fires.
pub fn parse_catalog(text: &str) -> BTreeMap<String, u32> {
    let mut names = BTreeMap::new();
    let mut in_table = false;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let trimmed = line.trim();
        if !in_table {
            in_table = trimmed.starts_with("| instrument");
            continue;
        }
        if !trimmed.starts_with('|') {
            in_table = false;
            continue;
        }
        let first_cell = trimmed
            .trim_start_matches('|')
            .split('|')
            .next()
            .unwrap_or("");
        for name in backticked(first_cell) {
            names.entry(name).or_insert(lineno);
        }
    }
    names
}

/// The contents of every `` `…` `` span in `s` that looks like an
/// instrument name (`[a-z0-9_]+` with at least one `_`).
fn backticked(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(start) = rest.find('`') {
        let Some(len) = rest[start + 1..].find('`') else {
            break;
        };
        let name = &rest[start + 1..start + 1 + len];
        if name.contains('_')
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            out.push(name.to_owned());
        }
        rest = &rest[start + 1 + len + 1..];
    }
    out
}

/// Instrument names from the ci.yml grep lists: the whitespace
/// tokens of every `for name in <names…>; do` loop, following shell
/// `\` line continuations, mapped to their 1-based line. Public for
/// the drift-canary tests.
pub fn parse_ci_lists(text: &str) -> BTreeMap<String, u32> {
    let mut names = BTreeMap::new();
    let mut in_list = false;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let trimmed = line.trim();
        let rest = if in_list {
            trimmed
        } else if let Some(pos) = trimmed.find("for name in ") {
            in_list = true;
            &trimmed[pos + "for name in ".len()..]
        } else {
            continue;
        };
        let list_part = rest.split(';').next().unwrap_or("");
        for token in list_part.split_whitespace() {
            if token != "\\" {
                names.entry(token.to_owned()).or_insert(lineno);
            }
        }
        if rest.contains(';') {
            in_list = false;
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_rows_yield_first_column_names_only() {
        let names = parse_catalog(
            "prose\n\
             | instrument | type | labels | recorded by |\n\
             |---|---|---|---|\n\
             | `live_journal_retractions_total`, `live_mark_rollbacks_total` | counter | — | `ShardMetrics` |\n\
             | `search_query_ns` | histogram | — | `QueryTimer::finish` |\n\
             end of table\n\
             | `not_in_table` | x |\n",
        );
        let keys: Vec<&str> = names.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "live_journal_retractions_total",
                "live_mark_rollbacks_total",
                "search_query_ns"
            ]
        );
        assert_eq!(names["live_journal_retractions_total"], 4);
    }

    #[test]
    fn ci_lists_follow_line_continuations() {
        let names = parse_ci_lists(
            "      - run: |\n\
             \x20         for name in a_total b_ns \\\n\
             \x20                     c_total; do\n\
             \x20           grep -q d_unrelated out; done\n",
        );
        let keys: Vec<&str> = names.keys().map(String::as_str).collect();
        assert_eq!(keys, ["a_total", "b_ns", "c_total"]);
        assert_eq!(names["c_total"], 3);
    }
}
