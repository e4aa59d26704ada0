//! Report rendering: the machine-readable JSON document and the
//! per-rule count summary shared by the text output and CI.
//!
//! The JSON schema is documented on [`render_json`]; field order is
//! stable by construction (hand-rolled serialization, no map iteration
//! over unordered containers), so the output is goldenable.

use crate::engine::{Violation, RULES};

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Violation count per rule, zeros included, in catalog order
/// ([`RULES`]).
pub fn rule_counts(violations: &[Violation]) -> Vec<(&'static str, usize)> {
    RULES.iter().map(|&rule| (rule, violations.iter().filter(|v| v.rule == rule).count())).collect()
}

/// Renders the JSON report. Schema (stable field order, one line):
///
/// ```json
/// {
///   "violations": [
///     {"file": "crates/x/src/lib.rs", "line": 3, "rule": "L003",
///      "message": "…", "suggestion": "…"}
///   ],
///   "warnings": [
///     {"file": "crates/x/src/lib.rs", "line": 9, "rule": "L007",
///      "message": "stale `// lint: allow(L007)`: …"}
///   ],
///   "files_checked": 42,
///   "rule_counts": {"L003": 1, "L004": 0, "…": 0}
/// }
/// ```
///
/// `suggestion` is present only when the violation carries one (today:
/// L003 literals that map onto a registered constant). `warnings` holds
/// advisory findings (the stale-allow audit) that do not affect the
/// exit code and are not counted in `rule_counts`. `rule_counts`
/// always lists every catalog rule, zeros included, in catalog order.
pub fn render_json(violations: &[Violation], warnings: &[Violation], files_checked: usize) -> String {
    let mut out = String::from("{\"violations\":[");
    render_items(&mut out, violations);
    out.push_str("],\"warnings\":[");
    render_items(&mut out, warnings);
    out.push_str(&format!("],\"files_checked\":{files_checked},\"rule_counts\":{{"));
    for (i, (rule, n)) in rule_counts(violations).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{rule}\":{n}"));
    }
    out.push_str("}}");
    out
}

fn render_items(out: &mut String, items: &[Violation]) {
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"",
            json_escape(&v.file),
            v.line,
            json_escape(&v.rule),
            json_escape(&v.message)
        ));
        if let Some(s) = &v.suggestion {
            out.push_str(&format!(",\"suggestion\":\"{}\"", json_escape(s)));
        }
        out.push('}');
    }
}

/// Renders the one-line per-rule summary for the text report and CI
/// logs: `per-rule: L003=2 L004=0 …`.
pub fn render_rule_summary(violations: &[Violation]) -> String {
    let parts: Vec<String> = rule_counts(violations)
        .iter()
        .map(|(rule, n)| format!("{rule}={n}"))
        .collect();
    format!("per-rule: {}", parts.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(file: &str, line: u32, rule: &str, suggestion: Option<&str>) -> Violation {
        Violation {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            message: "m".to_string(),
            suggestion: suggestion.map(str::to_string),
        }
    }

    #[test]
    fn counts_include_zeros_in_catalog_order() {
        let vs = vec![v("a", 1, "L003", None), v("b", 2, "L003", None), v("c", 3, "L007", None)];
        let counts = rule_counts(&vs);
        assert_eq!(counts[0], ("L003", 2));
        assert!(counts.contains(&("L005", 0)));
        assert!(counts.contains(&("L007", 1)));
        assert_eq!(counts.len(), RULES.len());
    }

    #[test]
    fn json_escapes_and_orders_fields() {
        let vs = vec![v("a\"b.rs", 7, "L003", Some("X"))];
        let ws = vec![v("w.rs", 2, "L007", None)];
        let j = render_json(&vs, &ws, 3);
        assert!(j.starts_with("{\"violations\":["));
        assert!(j.contains("\"file\":\"a\\\"b.rs\""));
        assert!(j.contains("\"suggestion\":\"X\""));
        assert!(j.contains("\"warnings\":[{\"file\":\"w.rs\""));
        assert!(j.contains("\"files_checked\":3"));
        assert!(j.contains("\"rule_counts\":{\"L003\":1,\"L004\":0,"));
    }

    #[test]
    fn summary_lists_every_rule() {
        let s = render_rule_summary(&[]);
        for rule in RULES {
            assert!(s.contains(&format!("{rule}=0")), "{s}");
        }
    }
}
