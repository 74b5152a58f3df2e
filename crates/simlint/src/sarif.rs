//! SARIF 2.1.0 export, so CI can surface findings as GitHub code-scanning
//! annotations. Hand-rolled JSON (the crate is dependency-free by design);
//! the shape sticks to the minimal schema subset the code-scanning ingester
//! requires: one run, tool.driver with rule metadata, results with physical
//! locations, and `suppressions` entries for in-source allows.

use crate::{json_escape, Diagnostic, Severity};

/// Rule metadata for `tool.driver.rules`. Keep in sync with [`crate::rules`].
const RULES: &[(&str, &str)] = &[
    (
        "DET007",
        "Nondeterministic value reaches a determinism-critical sink",
    ),
    ("CONS001", "Byte transfer bypasses the token-bucket ledger"),
    ("CONS002", "Billable operation bypasses the usage meter"),
    ("SL000", "Malformed simlint suppression directive"),
    ("SL001", "Stale simlint suppression masks no diagnostic"),
];

fn rule_index(rule: &str) -> Option<usize> {
    RULES.iter().position(|(id, _)| *id == rule)
}

/// Render diagnostics as a SARIF 2.1.0 document.
pub fn render_sarif(diags: &[Diagnostic]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(concat!(
        "{\n",
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/",
        "master/Schemata/sarif-schema-2.1.0.json\",\n",
        "  \"version\": \"2.1.0\",\n",
        "  \"runs\": [\n",
        "    {\n",
        "      \"tool\": {\n",
        "        \"driver\": {\n",
        "          \"name\": \"simlint\",\n",
        "          \"informationUri\": \"https://example.invalid/simlint\",\n",
        "          \"version\": \"0.2.0\",\n",
        "          \"rules\": ["
    ));
    for (i, (id, desc)) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": \"{id}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"defaultConfiguration\": {{\"level\": \"error\"}}}}",
            json_escape(desc)
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let level = match d.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        out.push_str(&format!(
            "\n        {{\n          \"ruleId\": \"{}\",\n",
            d.rule
        ));
        if let Some(ri) = rule_index(d.rule) {
            out.push_str(&format!("          \"ruleIndex\": {ri},\n"));
        }
        out.push_str(&format!(
            "          \"level\": \"{level}\",\n          \"message\": {{\"text\": \"{}\"}},\n",
            json_escape(&d.message)
        ));
        out.push_str(&format!(
            "          \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
             {{\"uri\": \"{}\", \"uriBaseId\": \"%SRCROOT%\"}}, \"region\": \
             {{\"startLine\": {}}}}}}}],\n",
            json_escape(&d.file),
            d.line.max(1)
        ));
        if d.suppressed {
            let just = d.justification.as_deref().unwrap_or("");
            out.push_str(&format!(
                "          \"suppressions\": [{{\"kind\": \"inSource\", \
                 \"justification\": \"{}\"}}]\n",
                json_escape(just)
            ));
        } else {
            out.push_str("          \"suppressions\": []\n");
        }
        out.push_str("        }");
    }
    out.push_str("\n      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Diagnostic;

    #[test]
    fn sarif_has_required_shape() {
        let mut d = Diagnostic::new(
            "crates/sim/src/lib.rs",
            12,
            "DET007",
            Severity::Error,
            "wall clock reaches \"digest\" sink".to_string(),
        );
        d.suppressed = true;
        d.justification = Some("host probe only".to_string());
        let doc = render_sarif(&[d]);
        for needle in [
            "\"version\": \"2.1.0\"",
            "\"name\": \"simlint\"",
            "\"ruleId\": \"DET007\"",
            "\"startLine\": 12",
            "\"kind\": \"inSource\"",
            "\\\"digest\\\"", // message is escaped
            "sarif-schema-2.1.0.json",
        ] {
            assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
        }
        // Every rule id appears in driver metadata.
        for (id, _) in RULES {
            assert!(doc.contains(&format!("\"id\": \"{id}\"")));
        }
    }

    #[test]
    fn empty_diags_render_empty_results() {
        let doc = render_sarif(&[]);
        assert!(doc.contains("\"results\": [\n      ]"));
    }
}
