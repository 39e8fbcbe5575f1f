//! The CI bench-regression gate: parses the acceptance ratios the bench
//! JSON emitters record and fails when one regresses past its threshold.
//!
//! The contract is *data-driven*: every bench JSON documents its own
//! thresholds in a top-level `"thresholds"` object whose keys are the
//! acceptance-ratio names suffixed with the bound direction —
//! `<ratio>_max` requires `acceptance.<ratio> ≤ value`, `<ratio>_min`
//! requires `acceptance.<ratio> ≥ value`. The `bench_gate` binary simply
//! enforces whatever the JSON declares, so adding a gated ratio to a
//! bench needs no gate change, and the thresholds are visible in the CI
//! artefacts themselves.
//!
//! The canonical thresholds live here as constants (the emitters embed
//! them into the JSON; the gate then reads them back out of the
//! artefact, keeping a single source of truth):
//!
//! * Θ (`BENCH_prop_cost.json`): delta-image publication at most
//!   [`THETA_DELTA_VS_NO_IMAGE_MAX`]× the no-image K = 1 path, and the
//!   pre-block whole-copy at least [`THETA_WHOLE_COPY_VS_DELTA_MIN`]×
//!   slower than delta — both at lg_k = 16.
//! * HLL and Misra–Gries (`BENCH_prop_cost.json`): one hand-off at the
//!   larger size parameter at most [`HLL_LARGE_VS_SMALL_MAX`]× /
//!   [`FREQUENCY_LARGE_VS_SMALL_MAX`]× one at the smaller — HLL's cost
//!   must not know `m`; Misra–Gries' may grow with `k`, no faster.
//! * Quantiles (`BENCH_quantiles_prop.json`): the ladder publish at
//!   least [`QUANTILES_SPEEDUP_MIN`]× faster than the full rebuild at
//!   the larger retained size, and at most [`QUANTILES_FLATNESS_MAX`]×
//!   its own cost at the smaller size (retained-independence).
//! * Ingestion (`BENCH_ingest.json`): the single-writer Θ hot path.
//!   The scalar hint-on path must hold
//!   [`INGEST_SCALAR_HINT_MOPS_MIN`] M updates/s (2.5× the pre-PR
//!   baseline), batched must stay at parity with it
//!   ([`INGEST_BATCHED_VS_SCALAR_MIN`], a noise-margin guard — see the
//!   constant's docs for why parity, not 1.25×, is the honest bound),
//!   and batched must beat scalar outright on the ship-everything
//!   ablation ([`INGEST_BATCHED_VS_SCALAR_SHIPALL_MIN`]).
//!
//! `BENCH_serve.json` is the exception: `fcds-load`'s correctness
//! drills keep their thresholds beside the measurements, in the one
//! table of `fcds_load::report::gates`.

/// Θ delta-image publication may cost at most this multiple of the
/// no-image single-shard path (lg_k = 16; PR 3 measured ≈ 2.5×).
pub const THETA_DELTA_VS_NO_IMAGE_MAX: f64 = 3.0;

/// The pre-block whole-copy fallback must stay at least this much slower
/// than delta publication (lg_k = 16; PR 3 measured ≈ 340×) — i.e. the
/// block images must keep buying at least a 5× win.
pub const THETA_WHOLE_COPY_VS_DELTA_MIN: f64 = 5.0;

/// An HLL hand-off (`calc_hint` + merge of `b` updates + `publish`) at
/// lg_m = 16 may cost at most this multiple of one at lg_m = 12. The
/// step touches `b` registers and reads the estimate and the floor off
/// the register-value histogram, so the honest value is ≈ 1 (cache
/// misses on the 64 KiB register array aside; measured 0.76 to 1.02);
/// a publication that rescans the registers (pre-PR 18) read 27.
pub const HLL_LARGE_VS_SMALL_MAX: f64 = 2.0;

/// A Misra–Gries hand-off at k = 1024 may cost at most this multiple of
/// one at k = 64. Unlike HLL's, this step is allowed to know its size
/// parameter: the publication copies the ≤ k-counter table and a
/// reduction walks it, both linear in `k` with a small constant next to
/// the `b` hash-map updates, so the ratio sits well under the 16× size
/// ratio — 3.6 to 5.3 over seven runs on the benchmark's Zipf(1.1) keys.
/// The bound is half the size ratio, 1.5× headroom over the worst; a
/// publication that sorts and re-hashes the table (the pre-PR 18
/// `heavy_hitters(0)` → collect) read 9.0 on the same rows.
pub const FREQUENCY_LARGE_VS_SMALL_MAX: f64 = 8.0;

/// The ladder publish must beat the full O(retained · log retained)
/// rebuild by at least this factor at the larger retained size.
pub const QUANTILES_SPEEDUP_MIN: f64 = 5.0;

/// Ladder publish cost at the larger retained size may be at most this
/// multiple of its cost at the smaller size (1.0 = perfectly
/// retained-independent; headroom for timer noise and cache effects).
pub const QUANTILES_FLATNESS_MAX: f64 = 2.0;

/// Single-writer batched Θ ingestion (hint on, lazy phase) must stay at
/// parity or better with the scalar per-item path. This PR's measured
/// reality: the same work that built the batched path (fixed-width
/// murmur3 lane, latched phase flip, cached pre-filter switch) also
/// removed every per-item overhead from the *scalar* path, which now
/// sits at the murmur3 multiply-throughput wall (~295 M updates/s on
/// the 1-CPU container, vs the ~40 M/s recorded baseline) — and the
/// out-of-order core already overlaps the independent per-item hash
/// chains, so explicit batching has only ~5% left to win on hint-on
/// integer streams (measured 1.04–1.05×). The bound is therefore a
/// noise-margin parity guard, not a speedup claim; the absolute win is
/// gated by [`INGEST_SCALAR_HINT_MOPS_MIN`].
pub const INGEST_BATCHED_VS_SCALAR_MIN: f64 = 0.95;

/// Where batching has a structural edge — the `disable_prefilter`
/// ablation, where every update is buffered and shipped through the
/// hand-off — the bulk append must actually win (measured ≈ 1.1×).
pub const INGEST_BATCHED_VS_SCALAR_SHIPALL_MIN: f64 = 1.0;

/// The scalar hint-on path must sustain at least this many million
/// updates per second — 2.5× the ~40 M updates/s baseline the ROADMAP
/// recorded for this container before this PR (measured ≈ 295 after
/// it), so the hot-path win can never silently regress.
pub const INGEST_SCALAR_HINT_MOPS_MIN: f64 = 100.0;

/// Merge tree (`BENCH_merge_tree.json`): Θ fan-in estimate error vs the
/// exact disjoint-union oracle. lg_k = 12 gives RSE ≈ 1.6%; 0.08 is a
/// 5σ ceiling that only a merge-path bug can breach.
pub const MERGE_TREE_THETA_RELERR_MAX: f64 = 0.08;

/// Merge tree: HLL fan-in estimate error vs the oracle. lg_m = 10 gives
/// a standard error ≈ 3.3%; 0.12 is a ~3.6σ ceiling (the merge itself
/// is an exact lattice join, so only the estimator variance is in play).
pub const MERGE_TREE_HLL_RELERR_MAX: f64 = 0.12;

/// Merge tree: worst rank error of the merged Quantiles ladder across
/// the φ grid, expressed as a multiple of the single-sketch
/// `epsilon_for_k` — fan-in across N nodes × K shards compounds the
/// per-sketch epsilon, so the bound is a small multiple, not 1.
pub const MERGE_TREE_QUANTILES_RANKERR_VS_EPS_MAX: f64 = 4.0;

/// Merge tree: the merged Misra–Gries `max_error` over the theoretical
/// mergeable-summaries bound `n/(k+1)` — the theorem says ≤ 1 under any
/// fan-in order.
pub const MERGE_TREE_MG_ERROR_VS_BOUND_MAX: f64 = 1.0;

/// Merge tree: fraction of probed items whose true count lies inside
/// the merged `[lower_bound, upper_bound]` — must be every one of them.
pub const MERGE_TREE_MG_COVERAGE_MIN: f64 = 1.0;

/// Merge tree: the slowest family's fan-in rate, in images merged per
/// second. A deliberately loose floor (real rates are thousands/s even
/// on a loaded 1-CPU runner) that still catches an accidentally
/// quadratic merge path.
pub const MERGE_TREE_FANIN_IPS_MIN: f64 = 100.0;

/// Merge tree: the Θ multiway loser-tree union must beat the reference
/// pairwise decode-and-fold by at least this factor at fan-in 32. The
/// pairwise fold re-merges a growing accumulator f − 1 times
/// (O(f² · k) hash traffic plus f decode allocations); the kernel is a
/// single O(f · k · log f) pass over borrowed views, so 2× is far below
/// the measured gap and only a kernel regression can breach it.
pub const MERGE_TREE_THETA_MULTIWAY_SPEEDUP_F32_MIN: f64 = 2.0;

/// Merge tree: the HLL register-max kernel must beat the pairwise
/// decode-and-fold by at least this factor at fan-in 32 — pairwise pays
/// per-image register validation and a register-vector allocation per
/// decode; the kernel folds payload bytes into one accumulator and
/// validates once.
pub const MERGE_TREE_HLL_MULTIWAY_SPEEDUP_F32_MIN: f64 = 2.0;

/// Merge tree: heap allocations per merge in the *warm* coordinator
/// loop (persistent [`fcds_sketches::wire::MergeScratch`], Θ and HLL
/// `*_into` kernels), as counted by the bench binary's instrumented
/// global allocator. The whole point of the scratch arena is that this
/// is exactly zero.
pub const MERGE_TREE_WARM_ALLOCS_PER_MERGE_MAX: f64 = 0.0;

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
