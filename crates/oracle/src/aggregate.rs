//! The per-query aggregate folds: every number behind the paper's tables
//! and figures, each query re-scanning the full store independently.
//!
//! These are the pre-index implementations, kept verbatim as the
//! equivalence oracle for [`AggregateIndex`](hv_pipeline::AggregateIndex):
//! its views must return bit-identical results, asserted by this crate's
//! tests, the root proptest suite, the store fixture and the study
//! reproduction. The store bench measures what the one-pass index bought.

use hv_core::{ProblemGroup, ViolationKind};
use hv_corpus::snapshots::YEARS;
use hv_corpus::Snapshot;
use hv_pipeline::aggregate::{
    AutofixProjection, ChurnRow, DistributionBar, MitigationTrends, Table2Row, YearSeries,
};
use hv_pipeline::store::{DomainYearRecord, ResultStore};
use std::collections::{BTreeMap, BTreeSet};

fn percent(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Table 2: analyzed domains per crawl.
pub fn table2(store: &ResultStore) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for snap in Snapshot::ALL {
        let mut found = 0usize;
        let mut analyzed = 0usize;
        let mut pages = 0usize;
        for r in store.by_snapshot(snap) {
            found += 1;
            if r.analyzed() {
                analyzed += 1;
                pages += r.pages_analyzed;
            }
        }
        rows.push(Table2Row {
            snapshot: snap.crawl_id().to_owned(),
            domains_found: found,
            domains_analyzed: analyzed,
            analyzed_share: percent(analyzed, found),
            avg_pages: if analyzed > 0 { pages as f64 / analyzed as f64 } else { 0.0 },
        });
    }
    rows
}

/// The Table-2 "Total (All Snaps.)" row.
pub fn table2_total(store: &ResultStore) -> (usize, usize) {
    let found: BTreeSet<u64> = store.records.iter().map(|r| r.domain_id).collect();
    let analyzed = store.analyzed_domains();
    (found.len(), analyzed.len())
}

/// Figure 8: overall distribution, sorted descending.
pub fn overall_distribution(store: &ResultStore) -> Vec<DistributionBar> {
    let analyzed = store.analyzed_domains();
    let mut per_kind: BTreeMap<ViolationKind, BTreeSet<u64>> = BTreeMap::new();
    for r in &store.records {
        for &k in &r.kinds {
            per_kind.entry(k).or_default().insert(r.domain_id);
        }
    }
    let mut bars: Vec<DistributionBar> = ViolationKind::ALL
        .iter()
        .map(|&kind| {
            let domains = per_kind.get(&kind).map(|s| s.len()).unwrap_or(0);
            DistributionBar { kind, domains, share: percent(domains, analyzed.len()) }
        })
        .collect();
    bars.sort_by(|a, b| b.domains.cmp(&a.domains).then(a.kind.cmp(&b.kind)));
    bars
}

/// §4.2: share of analyzed domains with ≥ 1 violation in any year.
pub fn overall_violating_share(store: &ResultStore) -> f64 {
    let analyzed = store.analyzed_domains();
    let violating: BTreeSet<u64> =
        store.records.iter().filter(|r| r.violating()).map(|r| r.domain_id).collect();
    percent(violating.intersection(&analyzed).count(), analyzed.len())
}

/// Figure 9: share of analyzed domains with ≥ 1 violation, per year.
pub fn violating_domains_by_year(store: &ResultStore) -> YearSeries {
    per_year(store, |r| r.violating())
}

/// Figure 10: per-group yearly shares.
pub fn group_trends(store: &ResultStore) -> BTreeMap<ProblemGroup, YearSeries> {
    ProblemGroup::ALL
        .iter()
        .map(|&g| (g, per_year(store, move |r| r.kinds.iter().any(|k| k.group() == g))))
        .collect()
}

/// Figures 16–21: per-kind yearly shares.
pub fn kind_trend(store: &ResultStore, kind: ViolationKind) -> YearSeries {
    per_year(store, move |r| r.kinds.contains(&kind))
}

/// §4.4 auto-fix projection for one snapshot.
pub fn autofix_projection(store: &ResultStore, snap: Snapshot) -> AutofixProjection {
    let mut analyzed = 0usize;
    let mut violating = 0usize;
    let mut still = 0usize;
    for r in store.by_snapshot(snap) {
        if !r.analyzed() {
            continue;
        }
        analyzed += 1;
        if r.violating() {
            violating += 1;
            if !r.kinds_after_autofix.is_empty() {
                still += 1;
            }
        }
    }
    AutofixProjection {
        snapshot: snap.crawl_id().to_owned(),
        analyzed,
        violating,
        violating_after_fix: still,
        violating_share: percent(violating, analyzed),
        after_share: percent(still, analyzed),
        fixed_share: percent(violating - still, violating),
    }
}

/// §4.5 mitigation-conflict series.
pub fn mitigation_trends(store: &ResultStore) -> MitigationTrends {
    let mut out = MitigationTrends {
        script_in_attribute: [(0, 0.0); YEARS],
        script_in_nonced_script: [0; YEARS],
        newline_in_url: [(0, 0.0); YEARS],
        newline_and_lt_in_url: [(0, 0.0); YEARS],
    };
    for snap in Snapshot::ALL {
        let y = snap.index();
        let mut analyzed = 0usize;
        let (mut s, mut ns, mut nl, mut nllt) = (0usize, 0usize, 0usize, 0usize);
        for r in store.by_snapshot(snap).filter(|r| r.analyzed()) {
            analyzed += 1;
            s += usize::from(r.mitigations.script_in_attribute);
            ns += usize::from(r.mitigations.script_in_nonced_script);
            nl += usize::from(r.mitigations.newline_in_url);
            nllt += usize::from(r.mitigations.newline_and_lt_in_url);
        }
        out.script_in_attribute[y] = (s, percent(s, analyzed));
        out.script_in_nonced_script[y] = ns;
        out.newline_in_url[y] = (nl, percent(nl, analyzed));
        out.newline_and_lt_in_url[y] = (nllt, percent(nllt, analyzed));
    }
    out
}

/// §5.3.2 rollout simulation.
pub fn rollout_breakage(store: &ResultStore) -> Vec<(u8, YearSeries)> {
    (0..=4u8)
        .map(|stage| {
            let list = hv_core::strict::EnforcementList::stage(stage);
            let series = per_year(store, move |r| r.kinds.iter().any(|&k| list.contains(k)));
            (stage, series)
        })
        .collect()
}

/// §4.2's usage aside: `math`-using domains per year.
pub fn math_usage_by_year(store: &ResultStore) -> [usize; YEARS] {
    let mut out = [0usize; YEARS];
    for snap in Snapshot::ALL {
        out[snap.index()] = store.by_snapshot(snap).filter(|r| r.analyzed() && r.uses_math).count();
    }
    out
}

/// Domains violating `kind` in `snap` (analyzed only).
pub fn domains_with_kind_in_year(
    store: &ResultStore,
    kind: ViolationKind,
    snap: Snapshot,
) -> usize {
    store.by_snapshot(snap).filter(|r| r.analyzed() && r.kinds.contains(&kind)).count()
}

/// §5.2's churn observation, quantified.
pub fn violation_churn(store: &ResultStore) -> Vec<ChurnRow> {
    let mut out = Vec::new();
    for w in Snapshot::ALL.windows(2) {
        let (a, b) = (w[0], w[1]);
        let mut added = 0usize;
        let mut removed = 0usize;
        // Domains analyzed in both years.
        let in_a: BTreeMap<u64, &DomainYearRecord> =
            store.by_snapshot(a).filter(|r| r.analyzed()).map(|r| (r.domain_id, r)).collect();
        for rb in store.by_snapshot(b).filter(|r| r.analyzed()) {
            let Some(ra) = in_a.get(&rb.domain_id) else { continue };
            let ka: BTreeSet<_> = ra.kinds.iter().collect();
            let kb: BTreeSet<_> = rb.kinds.iter().collect();
            added += kb.difference(&ka).count();
            removed += ka.difference(&kb).count();
        }
        out.push(ChurnRow {
            from: a.crawl_id().to_owned(),
            to: b.crawl_id().to_owned(),
            added,
            removed,
        });
    }
    out
}

fn per_year(store: &ResultStore, pred: impl Fn(&DomainYearRecord) -> bool) -> YearSeries {
    let mut out = [0.0; YEARS];
    for snap in Snapshot::ALL {
        let mut analyzed = 0usize;
        let mut hits = 0usize;
        for r in store.by_snapshot(snap).filter(|r| r.analyzed()) {
            analyzed += 1;
            if pred(r) {
                hits += 1;
            }
        }
        out[snap.index()] = percent(hits, analyzed);
    }
    out
}
