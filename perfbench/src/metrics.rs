//! The metric catalogue (names and units, as `BENCHMARK.json` lists
//! them) and the result line built from it.

use crate::bench::Tally;
use std::fmt::Write as _;

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("vs_hand_loop", "x"),
    ("op_p90_vs_p50", "x"),
    ("par_speedup", "x"),
    ("seq_vs_hand_loop", "x"),
    ("ok_rate", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("forkjoin.install_us_p50", "us"),
    ("forkjoin.join_ns_p50", "ns"),
    ("forkjoin.steals_per_op", "count"),
    ("forkjoin.parks_per_op", "count"),
    ("forkjoin.cpu_busy_share", "share"),
    ("forkjoin.off_cpu_ms_p50", "ms"),
    ("jstreams.split_ns", "ns"),
    ("jstreams.splits_per_op", "count"),
    ("jstreams.combines_per_op", "count"),
    ("jstreams.shared_state_contended", "count"),
    ("jstreams.leaf_ns_per_elem", "ns"),
    ("jstreams.leaf_vs_hand", "x"),
    ("jstreams.leaf_touched_mib", "MiB"),
    ("mem.read_gib_s", "GiB/s"),
    ("jstreams.leaf_bw_share", "share"),
    ("jstreams.combine_share", "share"),
    ("jstreams.leaves.zero_copy_slice", "count"),
    ("jstreams.leaves.zero_copy_strided", "count"),
    ("jstreams.leaves.fused_borrow", "count"),
    ("jstreams.leaves.cloning_drain", "count"),
    ("jstreams.leaves.template", "count"),
    ("jstreams.leaves.placement", "count"),
    ("jstreams.search_scan_ratio", "ratio"),
    ("jstreams.leaves_pruned", "count"),
    ("jplf.leaf_ns_per_elem", "ns"),
    ("jplf.combine_share", "share"),
    ("plobs.trace_overhead", "x"),
];

/// Renders the result line: every metric of `catalogue`, each with its
/// unit. Panics when a catalogue metric is missing or a value is not
/// finite — a broken run must not print a result.
pub fn result_line(
    correct: bool,
    tally: Tally,
    catalogue: &[(&str, &str)],
    values: &[(&str, f64)],
) -> String {
    let mut m = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let v = values
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
            .1;
        assert!(v.is_finite(), "metric {name} is {v}");
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(m, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        tally.attempted, tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_the_catalogue_in_order() {
        let cat = [("a_ms", "ms"), ("b", "count")];
        let line = result_line(
            true,
            Tally {
                attempted: 4,
                failed: 0,
            },
            &cat,
            &[("b", 3.0), ("a_ms", 1.25), ("extra", 9.0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn missing_metric_is_refused() {
        result_line(true, Tally::default(), &[("a", "s")], &[]);
    }

    /// `BENCHMARK.json` names exactly these metrics, with these units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists other metrics"
        );
    }
}
