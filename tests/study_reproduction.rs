//! Integration: a small-scale end-to-end run of the eight-year study, with
//! shape assertions against the paper's published numbers.
//!
//! Tolerances are wide because the corpus at test scale holds only a few
//! hundred domains; the full-scale comparison lives in EXPERIMENTS.md
//! (regenerated by `hva repro`).

use html_violations::hv_pipeline::aggregate;
use html_violations::hv_report;
use html_violations::prelude::*;
use std::sync::OnceLock;

fn store() -> &'static IndexedStore {
    static STORE: OnceLock<IndexedStore> = OnceLock::new();
    STORE.get_or_init(|| {
        let archive = Archive::new(CorpusConfig { seed: 0x48_56_31, scale: 0.02 });
        IndexedStore::new(scan(&archive, ScanOptions::default()))
    })
}

#[test]
fn figure9_trend_shape() {
    let series = store().index.violating_domains_by_year();
    // Band check: every year in the paper's 74.3–68.4 corridor ± noise.
    for (y, v) in series.iter().enumerate() {
        assert!((60.0..=82.0).contains(v), "year {y}: {v:.1}% out of band");
    }
    // The trend is downward: 2015 above 2022 by a clear margin.
    assert!(
        series[0] > series[7] + 2.0,
        "violations must trend down: 2015 {:.1}% vs 2022 {:.1}%",
        series[0],
        series[7]
    );
}

#[test]
fn figure8_ordering_shape() {
    let bars = store().index.overall_distribution();
    let share = |id: &str| bars.iter().find(|b| b.kind.id() == id).map(|b| b.share).unwrap_or(0.0);
    // The two giants: FB2 and DM3 each on ~3/4 of domains, far ahead.
    assert!(share("FB2") > 70.0, "FB2 {:.1}", share("FB2"));
    assert!(share("DM3") > 68.0, "DM3 {:.1}", share("DM3"));
    // FB1 in the 35–50 band; HF4 close behind.
    assert!((30.0..=55.0).contains(&share("FB1")));
    assert!((30.0..=50.0).contains(&share("HF4")));
    // The dangling-markup family stays rare ("not more than around 7%").
    for id in ["DE3_1", "DE3_2", "DE3_3", "DE1", "DE2", "DE4"] {
        assert!(share(id) <= 10.0, "{id} unexpectedly common: {:.1}%", share(id));
    }
    // math-element violations are near-extinct (3 occurrences in the
    // paper's 24K domains).
    assert!(share("HF5_3") < 0.5);
    // Winner ordering: FB2 ≥ DM3 > FB1.
    assert!(share("FB2") + 3.0 > share("DM3"));
    assert!(share("DM3") > share("FB1") + 10.0);
}

#[test]
fn figure10_group_ordering() {
    let groups = store().index.group_trends();
    for y in [0usize, 7] {
        let fb = groups[&ProblemGroup::FilterBypass][y];
        let dm = groups[&ProblemGroup::DataManipulation][y];
        let hf = groups[&ProblemGroup::HtmlFormatting][y];
        let de = groups[&ProblemGroup::DataExfiltration][y];
        // FB and DM lead, HF follows, DE is far below — the paper's
        // consistent ordering.
        assert!(fb > hf, "year {y}: FB {fb:.1} vs HF {hf:.1}");
        assert!(dm > de * 5.0, "year {y}: DM {dm:.1} vs DE {de:.1}");
        assert!(de < 10.0, "year {y}: DE {de:.1}");
    }
}

#[test]
fn section_4_2_union_share() {
    let share = store().index.overall_violating_share();
    // Paper: 92%.
    assert!((87.0..=96.0).contains(&share), "union share {share:.1}%");
}

#[test]
fn section_4_4_autofix_crossover() {
    let p = store().index.autofix_projection(Snapshot::ALL[7]);
    // Paper: 68% violating → 37% after automation; 46% of violating
    // domains fully fixed.
    assert!((60.0..=76.0).contains(&p.violating_share), "violating {:.1}%", p.violating_share);
    assert!((30.0..=46.0).contains(&p.after_share), "after fix {:.1}%", p.after_share);
    assert!((35.0..=55.0).contains(&p.fixed_share), "fixed share {:.1}%", p.fixed_share);
    // The fix must help, a lot.
    assert!(p.after_share < p.violating_share - 20.0);
}

#[test]
fn section_4_5_mitigations() {
    let m = store().index.mitigation_trends();
    // Newline URLs: common (~11%) and flat.
    assert!((7.0..=15.0).contains(&m.newline_in_url[0].1));
    assert!((7.0..=15.0).contains(&m.newline_in_url[7].1));
    // Newline + '<': rare (~1%) and not growing.
    assert!(m.newline_and_lt_in_url[0].1 < 3.5);
    assert!(m.newline_and_lt_in_url[7].1 <= m.newline_and_lt_in_url[0].1 + 0.5);
    // `<script` in attributes: ~1.5%, and never on a nonced script element
    // (the paper found the mitigation breaks nothing).
    assert!(m.script_in_attribute[7].1 < 4.0);
    assert_eq!(m.script_in_nonced_script.iter().sum::<usize>(), 0);
}

#[test]
fn table2_shape() {
    let rows = store().index.table2();
    for row in &rows {
        // Success rates near the paper's 97.7–99.3%.
        assert!((94.0..=100.0).contains(&row.analyzed_share), "{row:?}");
        // Average pages in the paper's 78–91 band.
        assert!((70.0..=95.0).contains(&row.avg_pages), "{row:?}");
    }
    // 2017's jump in stored pages.
    assert!(rows[2].avg_pages > rows[0].avg_pages + 4.0);
    // Domain counts grow from 2015 to 2019 and dip after.
    assert!(rows[4].domains_found > rows[0].domains_found);
    assert!(rows[7].domains_found < rows[4].domains_found + rows[4].domains_found / 20);
}

#[test]
fn store_roundtrip_preserves_aggregates() {
    let dir = std::env::temp_dir().join("hv_integration");
    std::fs::create_dir_all(&dir).unwrap();
    // Both on-disk formats must round-trip to the same aggregates, and
    // the legacy per-query folds must agree with the one-pass index.
    let (json, v1) = (dir.join("store.json"), dir.join("store.hvs"));
    store().save(&json).unwrap();
    store().save_v1(&v1).unwrap();
    for path in [json, v1] {
        let name = path.display();
        let loaded = IndexedStore::load(&path).unwrap();
        assert_eq!(
            store().index.violating_domains_by_year(),
            loaded.index.violating_domains_by_year(),
            "{name}"
        );
        assert_eq!(
            store().index.overall_violating_share(),
            loaded.index.overall_violating_share(),
            "{name}"
        );
        assert_eq!(
            loaded.index.violating_domains_by_year(),
            aggregate::legacy::violating_domains_by_year(&loaded),
            "{name}: index diverged from the legacy oracle"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn full_report_and_markdown_render() {
    let report = hv_report::full_report(store());
    assert!(report.contains("Figure 9"));
    assert!(report.contains("paper"));
    let md = hv_report::experiments_markdown(store());
    assert!(md.contains("| 2022 |"));
}
