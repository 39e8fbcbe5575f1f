//! The CI bench-regression gate: the writer ([`render_gates`]) and the
//! reader ([`check_doc`]) of the two members every bench JSON carries.
//!
//! The contract is *data-driven*: a bench JSON documents its own
//! thresholds in a top-level `"thresholds"` object whose keys are the
//! acceptance-ratio names suffixed with the bound direction —
//! `<ratio>_max` requires `acceptance.<ratio> ≤ value`, `<ratio>_min`
//! requires `acceptance.<ratio> ≥ value`. The `bench_gate` binary simply
//! enforces whatever the JSON declares, so the thresholds are visible in
//! the CI artefacts themselves.
//!
//! No threshold is written here. Each producer keeps its bounds beside
//! the measurements they cut, as rows of [`GateCheck`]: the
//! `engine_gates` binary's four sections for `BENCH_engine.json` (cost
//! ratios and one allocation count — none is a speed), and
//! `fcds_load::report::gates` for `BENCH_serve.json`.

/// The bound direction encoded in a threshold key's suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// `<ratio>_min`: the acceptance value must be ≥ the threshold.
    Min,
    /// `<ratio>_max`: the acceptance value must be ≤ the threshold.
    Max,
}

/// One enforced acceptance ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// The acceptance-ratio name (threshold key minus the suffix).
    pub name: String,
    /// The measured value from the `"acceptance"` object.
    pub value: f64,
    /// The bound from the `"thresholds"` object.
    pub threshold: f64,
    /// Which direction the bound cuts.
    pub bound: Bound,
}

impl GateCheck {
    /// One row of a producer's gate table.
    pub fn new(name: &str, value: f64, bound: Bound, threshold: f64) -> Self {
        GateCheck {
            name: name.to_string(),
            value,
            threshold,
            bound,
        }
    }

    /// Whether the measured value satisfies its bound.
    pub fn passed(&self) -> bool {
        match self.bound {
            Bound::Min => self.value >= self.threshold,
            Bound::Max => self.value <= self.threshold,
        }
    }
}

impl std::fmt::Display for GateCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (op, verdict) = match (self.bound, self.passed()) {
            (Bound::Min, true) => ("≥", "ok"),
            (Bound::Min, false) => ("≥", "REGRESSED"),
            (Bound::Max, true) => ("≤", "ok"),
            (Bound::Max, false) => ("≤", "REGRESSED"),
        };
        write!(
            f,
            "{:<40} {:>8.2} (must be {op} {:.2})  {verdict}",
            self.name, self.value, self.threshold
        )
    }
}

/// A flat JSON object body, one `"key": value` per line.
pub fn object(entries: impl Iterator<Item = (String, String)>) -> String {
    let lines: Vec<String> = entries.map(|(k, v)| format!("    \"{k}\": {v}")).collect();
    format!("{{\n{}\n  }}", lines.join(",\n"))
}

/// The `"acceptance"` and `"thresholds"` members [`check_doc`] reads,
/// rendered from the same rows.
pub fn render_gates(gates: &[GateCheck]) -> String {
    let acceptance = object(
        gates
            .iter()
            .map(|g| (g.name.clone(), format!("{:.4}", g.value))),
    );
    let thresholds = object(gates.iter().map(|g| {
        let suffix = match g.bound {
            Bound::Min => "min",
            Bound::Max => "max",
        };
        (format!("{}_{suffix}", g.name), g.threshold.to_string())
    }));
    format!("\"acceptance\": {acceptance},\n  \"thresholds\": {thresholds}")
}

/// Extracts the number stored under `"key"` anywhere in `doc` (the bench
/// JSONs are flat enough that the fully quoted key is unambiguous).
pub fn extract_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = doc.find(&needle)?;
    let rest = doc[at + needle.len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The body of the flat JSON object stored under `"key"` (between its
/// braces, exclusive).
fn object_body<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = doc.find(&needle)?;
    let rest = &doc[at + needle.len()..];
    let open = at + needle.len() + rest.find('{')? + 1;
    let close = open + doc[open..].find('}')?;
    Some(&doc[open..close])
}

/// Iterates the `("key", value)` pairs of a flat JSON object body.
fn entries(body: &str) -> impl Iterator<Item = (&str, Option<f64>)> {
    body.split(',').filter_map(|entry| {
        let (key, value) = entry.split_once(':')?;
        let key = key.trim().trim_matches('"');
        Some((key, value.trim().parse().ok()))
    })
}

/// Checks one bench JSON document against the thresholds it declares.
///
/// # Errors
///
/// Returns a description when the document declares no (or only
/// malformed) thresholds, or when a declared threshold has no matching
/// acceptance value — a gate that silently passes on a renamed ratio
/// would be worse than none.
pub fn check_doc(doc: &str) -> Result<Vec<GateCheck>, String> {
    let body = object_body(doc, "thresholds")
        .ok_or_else(|| "no \"thresholds\" object in document".to_string())?;
    // Ratio lookups are scoped to the "acceptance" object, not the whole
    // document: a row field that happens to share a ratio's name must
    // not satisfy (or shadow) the gate.
    let acceptance = object_body(doc, "acceptance")
        .ok_or_else(|| "no \"acceptance\" object in document".to_string())?;
    let mut checks = Vec::new();
    for (key, threshold) in entries(body) {
        let threshold = threshold.ok_or_else(|| format!("threshold \"{key}\" is not a number"))?;
        let (name, bound) = if let Some(base) = key.strip_suffix("_min") {
            (base, Bound::Min)
        } else if let Some(base) = key.strip_suffix("_max") {
            (base, Bound::Max)
        } else {
            return Err(format!(
                "threshold \"{key}\" lacks a _min/_max suffix; cannot tell \
                 which direction it cuts"
            ));
        };
        let value = extract_number(acceptance, name).ok_or_else(|| {
            format!("threshold \"{key}\" has no matching acceptance ratio \"{name}\"")
        })?;
        checks.push(GateCheck {
            name: name.to_string(),
            value,
            threshold,
            bound,
        });
    }
    if checks.is_empty() {
        return Err("\"thresholds\" object declares no bounds".to_string());
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
  "schema": "fcds-bench-quantiles-prop-v1",
  "rows": [
    {"k": 128, "strategy": "ladder", "per_merge_ns": 400.0}
  ],
  "acceptance": {
    "ladder_vs_rebuild_speedup_large": 12.3,
    "ladder_flatness_ratio": 1.10
  },
  "thresholds": {
    "ladder_vs_rebuild_speedup_large_min": 5.0,
    "ladder_flatness_ratio_max": 2.0
  }
}"#;

    #[test]
    fn good_document_passes_both_checks() {
        let checks = check_doc(GOOD).unwrap();
        assert_eq!(checks.len(), 2);
        assert!(checks.iter().all(|c| c.passed()), "{checks:?}");
        let speedup = &checks[0];
        assert_eq!(speedup.name, "ladder_vs_rebuild_speedup_large");
        assert_eq!(speedup.bound, Bound::Min);
        assert_eq!(speedup.value, 12.3);
        assert_eq!(speedup.threshold, 5.0);
    }

    #[test]
    fn doctored_regression_fails_the_matching_check_only() {
        // The injected-regression drill of the CI gate: a speedup that
        // fell to 2× must trip the _min bound.
        let doctored = GOOD.replace(
            "\"ladder_vs_rebuild_speedup_large\": 12.3",
            "\"ladder_vs_rebuild_speedup_large\": 2.0",
        );
        let checks = check_doc(&doctored).unwrap();
        assert!(!checks[0].passed(), "regressed speedup must fail");
        assert!(checks[1].passed(), "flatness untouched, must still pass");
    }

    #[test]
    fn doctored_flatness_blowup_fails_the_max_bound() {
        let doctored = GOOD.replace(
            "\"ladder_flatness_ratio\": 1.10",
            "\"ladder_flatness_ratio\": 4.5",
        );
        let checks = check_doc(&doctored).unwrap();
        assert!(checks[0].passed());
        assert!(!checks[1].passed(), "flatness blow-up must fail");
    }

    #[test]
    fn boundary_values_pass_inclusively() {
        let boundary = GOOD
            .replace(
                "\"ladder_vs_rebuild_speedup_large\": 12.3",
                "\"ladder_vs_rebuild_speedup_large\": 5.0",
            )
            .replace(
                "\"ladder_flatness_ratio\": 1.10",
                "\"ladder_flatness_ratio\": 2.0",
            );
        assert!(check_doc(&boundary).unwrap().iter().all(|c| c.passed()));
    }

    #[test]
    fn row_field_sharing_a_ratio_name_cannot_shadow_the_acceptance_value() {
        // The rows array precedes the acceptance object in the emitted
        // JSON; a row key colliding with a ratio name must not be the
        // value the gate validates.
        let shadowed = GOOD
            .replace(
                "\"strategy\": \"ladder\"",
                "\"strategy\": \"ladder\", \"ladder_vs_rebuild_speedup_large\": 99.0",
            )
            .replace(
                "\"ladder_vs_rebuild_speedup_large\": 12.3",
                "\"ladder_vs_rebuild_speedup_large\": 2.0",
            );
        let checks = check_doc(&shadowed).unwrap();
        assert_eq!(checks[0].value, 2.0, "must read the acceptance object");
        assert!(
            !checks[0].passed(),
            "regressed ratio shadowed by a row field"
        );
    }

    #[test]
    fn missing_thresholds_object_is_an_error() {
        let no_thresholds = &GOOD[..GOOD.find("\"thresholds\"").unwrap()];
        assert!(check_doc(no_thresholds).is_err());
    }

    #[test]
    fn threshold_without_matching_acceptance_is_an_error() {
        // A renamed acceptance ratio must not silently un-gate itself.
        let renamed = GOOD.replace(
            "\"ladder_vs_rebuild_speedup_large\": 12.3",
            "\"ladder_speedup_renamed\": 12.3",
        );
        let err = check_doc(&renamed).unwrap_err();
        assert!(err.contains("no matching acceptance"), "{err}");
    }

    #[test]
    fn suffixless_threshold_is_an_error() {
        let bad = GOOD.replace("ladder_flatness_ratio_max", "ladder_flatness_ratio_bound");
        assert!(check_doc(&bad).is_err());
    }

    #[test]
    fn extract_number_requires_the_exact_key() {
        // "ratio" must not match "ratio_max".
        assert_eq!(extract_number(GOOD, "ladder_flatness_ratio"), Some(1.10));
        assert_eq!(extract_number(GOOD, "ladder_flatness"), None);
        assert_eq!(extract_number(GOOD, "absent"), None);
    }

    #[test]
    fn display_reports_direction_and_verdict() {
        let check = GateCheck {
            name: "x".into(),
            value: 1.0,
            threshold: 5.0,
            bound: Bound::Min,
        };
        let s = check.to_string();
        assert!(s.contains("REGRESSED") && s.contains("≥"), "{s}");
    }
}
