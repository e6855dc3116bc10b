//! Corpus support for the paper's two auxiliary analyses.
//!
//! * **§5.1 — dynamically loaded content**: "We analyzed 100 pages for each
//!   of the top 1K Tranco websites in July 2021 and collected all
//!   dynamically loaded HTML fragments." The generator below produces the
//!   fragments a headless crawl of a domain's pages would capture
//!   (widget/ajax payload markup), expressing the same violation posture
//!   as the domain's static template — the paper found the distributions
//!   to match ("more than 60% of the websites have at least one violation;
//!   FB2 and DM3 in top positions; math hardly appears").
//! * **§5.2 — less popular websites**: a sample of random long-tail
//!   domains; same distribution shape, but *fewer* violations per domain
//!   than the top list (smaller, simpler sites; none of the complex-SVG
//!   namespace mess of big properties).

use crate::profile::DomainSnapshot;
use crate::rng::{self, KeyedRng};
use crate::snapshots::Snapshot;
use hv_core::ViolationKind;

/// Violations that can exist inside a dynamically loaded fragment (no
/// document structure, so the head/body families are impossible there).
pub const FRAGMENT_KINDS: [ViolationKind; 11] = [
    ViolationKind::FB1,
    ViolationKind::FB2,
    ViolationKind::DM3,
    ViolationKind::HF4,
    ViolationKind::HF5_1,
    ViolationKind::HF5_2,
    ViolationKind::HF5_3,
    ViolationKind::DE3_1,
    ViolationKind::DE3_2,
    ViolationKind::DE3_3,
    ViolationKind::DE4,
];

/// The dynamically loaded fragments a runtime crawl of one page would
/// collect (0–3 fragments per page). Fragment violations mirror the
/// domain's static posture: the same templates and the same developers
/// produce both.
pub fn dynamic_fragments(seed: u64, ds: &DomainSnapshot, page_index: usize) -> Vec<String> {
    let mut r =
        KeyedRng::new(seed, &[0xD14A, ds.domain_id, ds.snapshot.index() as u64, page_index as u64]);
    let n = r.below(4);
    let mut out = Vec::with_capacity(n);
    for frag_idx in 0..n {
        out.push(one_fragment(seed, ds, page_index, frag_idx, &mut r));
    }
    out
}

fn one_fragment(
    seed: u64,
    ds: &DomainSnapshot,
    page_index: usize,
    frag_idx: usize,
    r: &mut KeyedRng,
) -> String {
    // Which of the domain's expressed violations carry into this fragment:
    // each with 40% probability (dynamic content shares the template's
    // habits, diluted across many small payloads).
    let carried: Vec<ViolationKind> = ds
        .expressed
        .iter()
        .copied()
        .filter(|k| FRAGMENT_KINDS.contains(k))
        .filter(|k| {
            rng::chance(
                seed,
                &[
                    0xD14B,
                    ds.domain_id,
                    ds.snapshot.index() as u64,
                    page_index as u64,
                    frag_idx as u64,
                    *k as u64,
                ],
                0.4,
            )
        })
        .collect();
    let has = |k: ViolationKind| carried.contains(&k);

    let mut f = String::with_capacity(512);
    f.push_str("<div class=\"async-widget\">");
    match r.below(3) {
        0 => {
            // A teaser card payload.
            if has(ViolationKind::FB2) {
                f.push_str("<a href=\"/story/1\"class=\"card\">Breaking update</a>");
            } else {
                f.push_str("<a href=\"/story/1\" class=\"card\">Breaking update</a>");
            }
            if has(ViolationKind::DM3) {
                f.push_str("<span class=\"tag\" class=\"tag-hot\">hot</span>");
            }
        }
        1 => {
            // A mini data table.
            if has(ViolationKind::HF4) {
                f.push_str(
                    "<table><tr><strong>Live scores</strong></tr><tr><td>2:1</td></tr></table>",
                );
            } else {
                f.push_str("<table><tr><td>Live scores</td><td>2:1</td></tr></table>");
            }
            if has(ViolationKind::FB1) {
                f.push_str("<img/src=\"/live.png\"/alt=\"live\">");
            }
        }
        _ => {
            // An embed/chart payload.
            if has(ViolationKind::HF5_2) {
                f.push_str(
                    "<svg viewBox=\"0 0 10 2\"><rect width=\"4\"></rect><div>40%</div></svg>",
                );
            } else if has(ViolationKind::HF5_1) {
                f.push_str("<path d=\"M0 0L4 4\" class=\"spark\"></path>");
            } else {
                f.push_str("<svg viewBox=\"0 0 10 2\"><rect width=\"4\"></rect></svg>");
            }
            if has(ViolationKind::DE3_2) {
                f.push_str(
                    "<div data-embed='<script src=\"https://w.example/w.js\"></script>'></div>",
                );
            }
        }
    }
    if has(ViolationKind::DE4) {
        f.push_str("<form action=\"/vote/\"><form action=\"/vote\"><input name=\"v\"></form>");
    }
    if has(ViolationKind::DE3_1) {
        f.push_str("<a href=\"/r?u=x\n<span>now</span>\">more</a>");
    }
    f.push_str("</div>");
    f
}

/// §5.2: the long-tail variant of a domain snapshot. Long-tail sites are
/// smaller (few pages), simpler, and drop most of the complexity-driven
/// violations (the namespace mess of huge SVG-heavy properties), while the
/// typo-class violations persist at a damped rate.
pub fn longtail_snapshot(
    seed: u64,
    index: u64,
    snap: Snapshot,
    ds_model: &crate::profile::ProfileModel,
) -> DomainSnapshot {
    // Long-tail ids live far outside the Tranco universe.
    let id = 0x4000_0000_0000 + index;
    let mut expressed: Vec<ViolationKind> = ds_model
        .expressed(id, snap)
        .into_iter()
        .filter(|k| {
            let damp = match k {
                // Complexity-driven kinds are mostly a top-site phenomenon.
                ViolationKind::HF5_1 | ViolationKind::HF5_2 | ViolationKind::HF5_3 => 0.25,
                // Refactor-churn kinds damp moderately (long tail changes
                // rarely).
                ViolationKind::DM3 | ViolationKind::HF3 => 0.75,
                _ => 0.85,
            };
            rng::chance(seed, &[0x10A6, id, snap.index() as u64, *k as u64], damp)
        })
        .collect();
    expressed.sort_unstable();
    DomainSnapshot {
        domain_id: id,
        domain_name: format!("smallsite{index}.example"),
        rank: 1_000_000 + index as u32,
        snapshot: snap,
        utf8_ok: ds_model.utf8_ok(id, snap),
        // "a popular website often has more pages than a less popular one".
        page_count: 3 + rng::below(seed, &[0x10A7, id, snap.index() as u64], 20),
        expressed,
        benign_newline_url: ds_model.benign_newline_url(id, snap),
        uses_math: false,
        archetype: ds_model.archetype(id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{Archive, CorpusConfig};

    /// Test-local one-shot over a fresh [`Battery`](hv_core::Battery).
    fn check_fragment(raw: &str) -> hv_core::PageReport {
        hv_core::Battery::full().run_fragment(raw, "div")
    }

    fn archive() -> Archive {
        Archive::new(CorpusConfig { seed: 77, scale: 0.005 })
    }

    #[test]
    fn fragments_are_deterministic_and_bounded() {
        let a = archive();
        let d = &a.domains()[0];
        let ds = a.model.domain_snapshot(d, Snapshot::ALL[6]).unwrap();
        let f1 = dynamic_fragments(a.cfg.seed, &ds, 0);
        let f2 = dynamic_fragments(a.cfg.seed, &ds, 0);
        assert_eq!(f1, f2);
        assert!(f1.len() <= 3);
    }

    #[test]
    fn fragment_violations_are_detectable() {
        // A snapshot expressing fragment-compatible kinds must eventually
        // produce fragments that the fragment checker flags.
        let a = archive();
        let mut ds = a.model.domain_snapshot(&a.domains()[0], Snapshot::ALL[6]).unwrap();
        ds.expressed = vec![ViolationKind::FB2, ViolationKind::HF4, ViolationKind::DE4];
        let mut hit = std::collections::BTreeSet::new();
        for page in 0..60 {
            for frag in dynamic_fragments(a.cfg.seed, &ds, page) {
                for k in check_fragment(&frag).kinds() {
                    hit.insert(k);
                }
            }
        }
        for k in ds.expressed {
            assert!(hit.contains(&k), "{k} never surfaced in fragments");
        }
    }

    #[test]
    fn clean_domains_produce_clean_fragments() {
        let a = archive();
        let mut ds = a.model.domain_snapshot(&a.domains()[0], Snapshot::ALL[6]).unwrap();
        ds.expressed.clear();
        for page in 0..20 {
            for frag in dynamic_fragments(a.cfg.seed, &ds, page) {
                let r = check_fragment(&frag);
                assert!(r.is_clean(), "clean fragment flagged: {:?}\n{frag}", r.findings);
            }
        }
    }

    #[test]
    fn head_family_never_fires_in_fragments() {
        let a = archive();
        let mut ds = a.model.domain_snapshot(&a.domains()[0], Snapshot::ALL[6]).unwrap();
        ds.expressed = FRAGMENT_KINDS.to_vec();
        for page in 0..30 {
            for frag in dynamic_fragments(a.cfg.seed, &ds, page) {
                let r = check_fragment(&frag);
                for k in r.kinds() {
                    assert!(FRAGMENT_KINDS.contains(&k), "structural kind {k} fired in a fragment");
                }
            }
        }
    }

    #[test]
    fn longtail_sites_are_smaller_and_cleaner() {
        let a = archive();
        let snap = Snapshot::ALL[6];
        let n = 3000u64;
        let mut lt_violations = 0usize;
        let mut lt_pages = 0usize;
        for i in 0..n {
            let ds = longtail_snapshot(a.cfg.seed, i, snap, &a.model);
            lt_violations += ds.expressed.len();
            lt_pages += ds.page_count;
            assert!(ds.page_count <= 25);
        }
        // Popular baseline over the same count of model draws.
        let mut top_violations = 0usize;
        for i in 0..n {
            top_violations += a.model.expressed(i, snap).len();
        }
        assert!(
            lt_violations < top_violations,
            "long tail must violate less: {lt_violations} vs {top_violations}"
        );
        assert!(lt_pages / (n as usize) < 30);
    }

    #[test]
    fn longtail_pages_generate_and_check() {
        let a = archive();
        let ds = longtail_snapshot(a.cfg.seed, 5, Snapshot::ALL[7], &a.model);
        for page in 0..ds.page_count.min(4) {
            let html = crate::htmlgen::generate_page(a.cfg.seed, &ds, page);
            // Pages parse and the checkers never see structural kinds the
            // domain does not express.
            let report = hv_core::Battery::full().run_str(&html);
            for k in report.kinds() {
                assert!(ds.expressed.contains(&k), "unexpected {k} on longtail page");
            }
        }
    }
}
