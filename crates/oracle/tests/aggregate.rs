//! The per-query folds in [`hv_oracle::aggregate`], on hand-built stores:
//! each query's semantics pinned directly, and every
//! [`AggregateIndex`] view checked against its fold bit for bit.

use hv_core::{ProblemGroup, ViolationKind};
use hv_corpus::Snapshot;
use hv_oracle::aggregate;
use hv_pipeline::store::{DomainYearRecord, ResultStore};
use hv_pipeline::AggregateIndex;

fn store_with(records: Vec<DomainYearRecord>) -> ResultStore {
    let mut s = ResultStore::new(1, 1.0, 100);
    s.records = records;
    s.finalize();
    s
}

fn rec(domain: u64, snap: usize, kinds: &[ViolationKind], analyzed: bool) -> DomainYearRecord {
    DomainYearRecord {
        domain_id: domain,
        domain_name: format!("d{domain}.com"),
        rank: domain as u32,
        snapshot: Snapshot::ALL[snap],
        pages_found: 10,
        pages_analyzed: if analyzed { 10 } else { 0 },
        kinds: kinds.iter().copied().collect(),
        page_counts: Default::default(),
        mitigations: Default::default(),
        kinds_after_autofix: kinds
            .iter()
            .copied()
            .filter(|k| k.fixability() == hv_core::Fixability::Manual)
            .collect(),
        uses_math: false,
        pages_faulted: 0,
        pages_degraded: 0,
        pages_quarantined: 0,
    }
}

#[test]
fn table2_counts_found_and_analyzed() {
    let s = store_with(vec![rec(1, 0, &[], true), rec(2, 0, &[], false), rec(1, 1, &[], true)]);
    let rows = aggregate::table2(&s);
    assert_eq!(rows[0].domains_found, 2);
    assert_eq!(rows[0].domains_analyzed, 1);
    assert!((rows[0].analyzed_share - 50.0).abs() < 1e-9);
    assert_eq!(rows[1].domains_found, 1);
    let (found, analyzed) = aggregate::table2_total(&s);
    // Domain 2 was found but never successfully analyzed.
    assert_eq!((found, analyzed), (2, 1));
    assert_eq!(AggregateIndex::build(&s).table2_total(), (2, 1));
}

#[test]
fn distribution_counts_domains_once() {
    let s = store_with(vec![
        rec(1, 0, &[ViolationKind::FB2], true),
        rec(1, 1, &[ViolationKind::FB2], true),
        rec(2, 0, &[], true),
    ]);
    let bars = aggregate::overall_distribution(&s);
    let fb2 = bars.iter().find(|b| b.kind == ViolationKind::FB2).unwrap();
    assert_eq!(fb2.domains, 1);
    assert!((fb2.share - 50.0).abs() < 1e-9);
    // Sorted descending.
    assert!(bars.windows(2).all(|w| w[0].domains >= w[1].domains));
}

#[test]
fn yearly_series_uses_analyzed_denominator() {
    let s = store_with(vec![
        rec(1, 0, &[ViolationKind::DM3], true),
        rec(2, 0, &[], true),
        rec(3, 0, &[ViolationKind::DM3], false), // not analyzed: excluded
    ]);
    let series = aggregate::violating_domains_by_year(&s);
    assert!((series[0] - 50.0).abs() < 1e-9);
    let from_index = AggregateIndex::build(&s).violating_domains_by_year();
    assert_eq!(series, from_index);
}

#[test]
fn group_trends_group_membership() {
    let s = store_with(vec![
        rec(1, 7, &[ViolationKind::FB1], true),
        rec(2, 7, &[ViolationKind::DE4], true),
        rec(3, 7, &[], true),
    ]);
    let g = aggregate::group_trends(&s);
    assert!((g[&ProblemGroup::FilterBypass][7] - 33.33).abs() < 0.1);
    assert!((g[&ProblemGroup::DataExfiltration][7] - 33.33).abs() < 0.1);
    assert!((g[&ProblemGroup::HtmlFormatting][7] - 0.0).abs() < 1e-9);
    assert_eq!(g, AggregateIndex::build(&s).group_trends());
}

#[test]
fn autofix_projection_math() {
    let s = store_with(vec![
        rec(1, 7, &[ViolationKind::FB2], true), // fully fixable
        rec(2, 7, &[ViolationKind::FB2, ViolationKind::HF4], true), // HF4 remains
        rec(3, 7, &[], true),
    ]);
    let p = aggregate::autofix_projection(&s, Snapshot::ALL[7]);
    assert_eq!(p.analyzed, 3);
    assert_eq!(p.violating, 2);
    assert_eq!(p.violating_after_fix, 1);
    assert!((p.fixed_share - 50.0).abs() < 1e-9);
}

#[test]
fn rollout_breakage_grows_with_stage() {
    let s = store_with(vec![
        rec(1, 7, &[ViolationKind::FB2], true), // only blocked at stage 4
        rec(2, 7, &[ViolationKind::DE2], true), // blocked from stage 1
        rec(3, 7, &[], true),
    ]);
    let rollout = aggregate::rollout_breakage(&s);
    assert_eq!(rollout.len(), 5);
    assert!((rollout[0].1[7] - 0.0).abs() < 1e-9, "stage 0 blocks nothing");
    assert!((rollout[1].1[7] - 33.33).abs() < 0.1, "stage 1 blocks the DE2 domain");
    assert!((rollout[4].1[7] - 66.67).abs() < 0.1, "stage 4 blocks all violating domains");
    // Monotone in stage.
    for w in rollout.windows(2) {
        assert!(w[1].1[7] >= w[0].1[7]);
    }
}

#[test]
fn kind_trend_series() {
    let s = store_with(vec![
        rec(1, 0, &[ViolationKind::HF4], true),
        rec(1, 7, &[], true),
        rec(2, 7, &[ViolationKind::HF4], true),
        rec(3, 7, &[], true),
    ]);
    let t = aggregate::kind_trend(&s, ViolationKind::HF4);
    assert!((t[0] - 100.0).abs() < 1e-9);
    assert!((t[7] - 33.33).abs() < 0.1);
}

/// The index must agree with every legacy query, bit for bit, on a
/// store exercising every counter: non-analyzed records, multiple
/// kinds, mitigations, math usage, autofix leftovers, churn in both
/// directions. Serialized-JSON equality is float-bit equality.
#[test]
fn index_views_match_legacy_oracle() {
    let mut records = vec![
        rec(1, 0, &[ViolationKind::FB2, ViolationKind::DM3], true),
        rec(1, 1, &[ViolationKind::FB2], true),
        rec(2, 0, &[ViolationKind::HF4], true),
        rec(2, 1, &[], true),
        rec(3, 0, &[ViolationKind::DE2], false), // found, never analyzed
        rec(4, 6, &[ViolationKind::DE1, ViolationKind::HF5_1], true),
        rec(4, 7, &[ViolationKind::DE1], true),
        rec(5, 7, &[], true),
    ];
    records[0].mitigations.script_in_attribute = true;
    records[0].mitigations.newline_in_url = true;
    records[5].mitigations.newline_and_lt_in_url = true;
    records[1].uses_math = true;
    records[6].uses_math = true;
    let s = store_with(records);
    let idx = AggregateIndex::build(&s);

    // Compare via serde_json strings: identical floats serialize
    // identically (and differing bits never collide under ryu).
    assert_eq!(
        serde_json::to_string(&idx.table2()).unwrap(),
        serde_json::to_string(&aggregate::table2(&s)).unwrap()
    );
    assert_eq!(idx.table2_total(), aggregate::table2_total(&s));
    assert_eq!(
        serde_json::to_string(&idx.overall_distribution()).unwrap(),
        serde_json::to_string(&aggregate::overall_distribution(&s)).unwrap()
    );
    assert_eq!(
        idx.overall_violating_share().to_bits(),
        aggregate::overall_violating_share(&s).to_bits()
    );
    assert_eq!(idx.violating_domains_by_year(), aggregate::violating_domains_by_year(&s));
    assert_eq!(idx.group_trends(), aggregate::group_trends(&s));
    for &k in ViolationKind::ALL.iter() {
        assert_eq!(idx.kind_trend(k), aggregate::kind_trend(&s, k), "kind_trend {k:?}");
        for snap in Snapshot::ALL {
            assert_eq!(
                idx.domains_with_kind_in_year(k, snap),
                aggregate::domains_with_kind_in_year(&s, k, snap)
            );
        }
    }
    for snap in Snapshot::ALL {
        assert_eq!(
            serde_json::to_string(&idx.autofix_projection(snap)).unwrap(),
            serde_json::to_string(&aggregate::autofix_projection(&s, snap)).unwrap()
        );
    }
    assert_eq!(
        serde_json::to_string(&idx.mitigation_trends()).unwrap(),
        serde_json::to_string(&aggregate::mitigation_trends(&s)).unwrap()
    );
    assert_eq!(idx.rollout_breakage(), aggregate::rollout_breakage(&s));
    assert_eq!(idx.math_usage_by_year(), aggregate::math_usage_by_year(&s));
    assert_eq!(
        serde_json::to_string(&idx.violation_churn()).unwrap(),
        serde_json::to_string(&aggregate::violation_churn(&s)).unwrap()
    );
}

#[test]
fn churn_counts_added_and_removed_pairs() {
    let mut s = ResultStore::new(1, 1.0, 10);
    // Domain 1: FB2 in 2015, FB2+DM3 in 2016 (one added).
    s.records.push(rec(1, 0, &[ViolationKind::FB2], true));
    s.records.push(rec(1, 1, &[ViolationKind::FB2, ViolationKind::DM3], true));
    // Domain 2: HF4 in 2015, clean in 2016 (one removed).
    s.records.push(rec(2, 0, &[ViolationKind::HF4], true));
    s.records.push(rec(2, 1, &[], true));
    s.finalize();
    let churn = aggregate::violation_churn(&s);
    assert_eq!(churn.len(), 7);
    assert_eq!(churn[0].added, 1);
    assert_eq!(churn[0].removed, 1);
    assert_eq!(churn[1].added + churn[1].removed, 0);
    let from_index = AggregateIndex::build(&s).violation_churn();
    assert_eq!(serde_json::to_string(&churn).unwrap(), serde_json::to_string(&from_index).unwrap());
}
