//! The paper's two side analyses, computed once per store.
//!
//! * [`dynamic_study`] — §5.1: check the dynamically loaded fragments of
//!   the top-K domains in the 2021 snapshot (the paper used the top 1K in
//!   July 2021).
//! * [`longtail_study`] — §5.2: compare a random long-tail sample against
//!   the popular universe on violation prevalence and per-domain counts.
//!   The popular side is what the store already measured; the long tail is
//!   scanned by the engine as a `LongtailSample` page source.
//! * [`AuxStudies`] — both, sized from the store's universe; an
//!   [`IndexedStore`](crate::IndexedStore) computes them once, on first use.

use crate::aggregate::percent;
use crate::outcome::ErrorClass;
use crate::run::{scan_snapshots, Listing, PageSource, ScanOptions, Slot};
use crate::store::ResultStore;
use hv_core::{Battery, ViolationKind};
use hv_corpus::auxstudies::{dynamic_fragments, longtail_snapshot};
use hv_corpus::htmlgen::page_url;
use hv_corpus::{Archive, CorpusConfig, DomainSnapshot, Snapshot};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// §5.2's sample per population: 10% of the top list, between 50 and 500.
pub fn longtail_sample(domains: usize) -> usize {
    (domains / 10).clamp(50, 500)
}

/// Both auxiliary studies of one store.
#[derive(Debug)]
pub struct AuxStudies {
    pub dynamic: DynamicStudy,
    pub longtail: LongtailStudy,
}

impl AuxStudies {
    /// Run both studies over the archive the store's (seed, scale)
    /// describes; §5.2 compares in the 2021 snapshot.
    pub(crate) fn compute(store: &ResultStore) -> Self {
        let archive = Archive::new(CorpusConfig { seed: store.seed, scale: store.scale });
        let domains = archive.domains().len();
        AuxStudies {
            // The top 5% (50 to 1,000 domains), 30 pages each.
            dynamic: dynamic_study(&archive, (domains / 20).clamp(50, 1000), 30),
            longtail: longtail_study(&archive, store, longtail_sample(domains), Snapshot::ALL[6]),
        }
    }
}

/// §5.1 results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicStudy {
    /// Domains examined (top-K with a 2021 snapshot).
    pub domains: usize,
    /// Fragments collected and checked.
    pub fragments: usize,
    /// Share of domains with ≥1 violating fragment (the paper: "more than
    /// 60%").
    pub violating_share: f64,
    /// Per-kind domain counts, descending (the paper: FB2/DM3 on top,
    /// math-related hardly appears).
    pub kind_counts: Vec<(ViolationKind, usize)>,
}

/// Run the §5.1 dynamic-content pre-study.
pub fn dynamic_study(archive: &Archive, top_k: usize, pages_per_domain: usize) -> DynamicStudy {
    let snap = Snapshot::from_year(2021).expect("2021 snapshot");
    let (mut domains, mut fragments, mut violating) = (0, 0, 0);
    let mut per_kind: BTreeMap<ViolationKind, usize> = BTreeMap::new();
    // One battery for the whole study; fragments are checked in `<div>`
    // context, like the paper's DOM-subtree extraction.
    let mut battery = Battery::full();
    for d in archive.domains().iter().take(top_k) {
        let Some(cdx) = archive.cdx_lookup(d, snap).filter(|c| c.snapshot.utf8_ok) else {
            continue;
        };
        domains += 1;
        let mut domain_kinds = BTreeSet::new();
        for page in 0..cdx.snapshot.page_count.min(pages_per_domain) {
            for frag in dynamic_fragments(archive.cfg.seed, &cdx.snapshot, page) {
                fragments += 1;
                domain_kinds.extend(battery.run_fragment(&frag, "div").kinds());
            }
        }
        if !domain_kinds.is_empty() {
            violating += 1;
        }
        for k in domain_kinds {
            *per_kind.entry(k).or_insert(0) += 1;
        }
    }
    let mut kind_counts: Vec<(ViolationKind, usize)> = per_kind.into_iter().collect();
    kind_counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    DynamicStudy { domains, fragments, violating_share: percent(violating, domains), kind_counts }
}

/// §5.2 results: popular vs. long tail in one snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LongtailStudy {
    pub snapshot: String,
    pub popular_domains: usize,
    pub longtail_domains: usize,
    /// Share of domains with ≥1 violation.
    pub popular_violating_share: f64,
    pub longtail_violating_share: f64,
    /// Mean distinct violation kinds per violating domain.
    pub popular_kinds_per_domain: f64,
    pub longtail_kinds_per_domain: f64,
    /// Namespace-violation (HF5) shares — the complexity signature.
    pub popular_hf5_share: f64,
    pub longtail_hf5_share: f64,
}

impl LongtailStudy {
    /// Compare two populations in `snap`, given each domain's distinct
    /// violation kinds.
    pub fn compare<'a>(
        snap: Snapshot,
        popular: impl IntoIterator<Item = &'a BTreeSet<ViolationKind>>,
        longtail: impl IntoIterator<Item = &'a BTreeSet<ViolationKind>>,
    ) -> Self {
        let [pop, pop_violating, pop_kinds, pop_hf5] = population(popular);
        let [tail, tail_violating, tail_kinds, tail_hf5] = population(longtail);
        let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        LongtailStudy {
            snapshot: snap.crawl_id().to_owned(),
            popular_domains: pop,
            longtail_domains: tail,
            popular_violating_share: percent(pop_violating, pop),
            longtail_violating_share: percent(tail_violating, tail),
            popular_kinds_per_domain: ratio(pop_kinds, pop_violating),
            longtail_kinds_per_domain: ratio(tail_kinds, tail_violating),
            popular_hf5_share: percent(pop_hf5, pop),
            longtail_hf5_share: percent(tail_hf5, tail),
        }
    }
}

/// One population's `[domains, violating domains, distinct kinds summed
/// over them, domains with a namespace (HF5) violation]`.
fn population<'a>(domains: impl IntoIterator<Item = &'a BTreeSet<ViolationKind>>) -> [usize; 4] {
    let hf5 = |k: &ViolationKind| {
        matches!(k, ViolationKind::HF5_1 | ViolationKind::HF5_2 | ViolationKind::HF5_3)
    };
    domains.into_iter().fold([0; 4], |[n, violating, kinds, hf5_domains], k| {
        [
            n + 1,
            violating + !k.is_empty() as usize,
            kinds + k.len(),
            hf5_domains + k.iter().any(hf5) as usize,
        ]
    })
}

/// Run the §5.2 long-tail comparison over `sample` domains per population.
///
/// The popular side is the top list's first `sample` domains that pass
/// the CDX UTF-8 filter, with the kinds `store` recorded for them in
/// `snap`; a domain the store has no record for (a partial or subset
/// store) is left out. The long tail is scanned as a `LongtailSample`.
pub fn longtail_study(
    archive: &Archive,
    store: &ResultStore,
    sample: usize,
    snap: Snapshot,
) -> LongtailStudy {
    let measured: HashMap<u64, &BTreeSet<ViolationKind>> =
        store.by_snapshot(snap).map(|r| (r.domain_id, &r.kinds)).collect();
    let popular = archive.domains().iter().take(sample).filter_map(|d| {
        archive.model.domain_snapshot(d, snap).filter(|ds| ds.utf8_ok)?;
        measured.get(&d.id).copied()
    });
    let tail = scan_snapshots(&LongtailSample { archive, sample }, &[snap], ScanOptions::new());
    LongtailStudy::compare(snap, popular, tail.records.iter().map(|r| &r.kinds))
}

/// §5.2's long tail as a page source: `sample` small sites outside the top
/// list in each snapshot, with their pages generated on demand. Sites that
/// fail the CDX UTF-8 filter are not listed, as on the popular side.
struct LongtailSample<'a> {
    archive: &'a Archive,
    sample: usize,
}

impl PageSource for LongtailSample<'_> {
    type Locator = DomainSnapshot;

    fn provenance(&self) -> (u64, f64, usize) {
        (self.archive.cfg.seed, self.archive.cfg.scale, self.sample)
    }

    fn list(&self, snapshots: &[Snapshot]) -> Listing<DomainSnapshot> {
        let (seed, model) = (self.archive.cfg.seed, &self.archive.model);
        let slots = snapshots
            .iter()
            .flat_map(|&snap| (0..self.sample as u64).map(move |i| (i, snap)))
            .map(|(i, snap)| longtail_snapshot(seed, i, snap, model))
            .filter(|ds| ds.utf8_ok)
            .map(|ds| Slot {
                domain_id: ds.domain_id,
                domain_name: ds.domain_name.clone(),
                rank: ds.rank,
                snapshot: ds.snapshot,
                urls: (0..ds.page_count.min(100)).map(|p| page_url(&ds.domain_name, p)).collect(),
                locator: ds,
            })
            .collect();
        Listing { slots, quarantine: Vec::new() }
    }

    fn read(&self, slot: &Slot<DomainSnapshot>, page: usize) -> Result<Vec<u8>, ErrorClass> {
        Ok(self.archive.fetch_page(&slot.locator, page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn archive() -> Archive {
        Archive::new(CorpusConfig { seed: 0x48_56_31, scale: 0.01 })
    }

    #[test]
    fn dynamic_study_matches_section_5_1() {
        let a = archive();
        let study = dynamic_study(&a, 150, 40);
        assert!(study.domains > 100);
        assert!(study.fragments > 1000);
        // "more than 60% of the websites have at least one violation" —
        // allow a generous band at this sample size.
        assert!(
            (45.0..=85.0).contains(&study.violating_share),
            "violating share {:.1}%",
            study.violating_share
        );
        // FB2 / DM3 in top positions.
        let top2: Vec<ViolationKind> = study.kind_counts.iter().take(2).map(|(k, _)| *k).collect();
        assert!(top2.contains(&ViolationKind::FB2), "{:?}", study.kind_counts);
        assert!(top2.contains(&ViolationKind::DM3), "{:?}", study.kind_counts);
        // Math-related violations hardly appear.
        let hf5_3 = study
            .kind_counts
            .iter()
            .find(|(k, _)| *k == ViolationKind::HF5_3)
            .map(|(_, c)| *c)
            .unwrap_or(0);
        assert!(hf5_3 <= 2);
        // No structural (head/body) kinds in fragments at all.
        for (k, _) in &study.kind_counts {
            assert!(hv_corpus::auxstudies::FRAGMENT_KINDS.contains(k), "{k} in fragments");
        }
    }

    #[test]
    fn longtail_study_matches_section_5_2() {
        let a = archive();
        let snap = Snapshot::ALL[6];
        let store = scan_snapshots(&a, &[snap], ScanOptions::new().threads(2));
        let study = longtail_study(&a, &store, 120, snap);
        assert!(study.popular_domains > 80);
        assert!(study.longtail_domains > 80);
        // Same general pattern: both populations mostly violate…
        assert!(study.longtail_violating_share > 40.0);
        // …but popular sites have more violations on average…
        assert!(
            study.popular_kinds_per_domain > study.longtail_kinds_per_domain,
            "popular {:.2} vs longtail {:.2}",
            study.popular_kinds_per_domain,
            study.longtail_kinds_per_domain
        );
        // …and the complex-SVG namespace issues concentrate on top sites.
        assert!(study.popular_hf5_share >= study.longtail_hf5_share);
    }

    /// A store that covers only part of the top list leaves the missing
    /// domains out of the popular side instead of counting them clean.
    #[test]
    fn popular_side_skips_domains_the_store_lacks() {
        let a = Archive::new(CorpusConfig { seed: 5, scale: 0.002 });
        let snap = Snapshot::ALL[6];
        let mut store = scan_snapshots(&a, &[snap], ScanOptions::new().threads(2));
        let full = longtail_study(&a, &store, 50, snap);
        let dropped = store.records.len() / 2;
        store.records.truncate(store.records.len() - dropped);
        let partial = longtail_study(&a, &store, 50, snap);
        assert!(partial.popular_domains < full.popular_domains);
        assert!(partial.popular_domains > 0);
        assert_eq!(partial.longtail_domains, full.longtail_domains);
        assert_eq!(partial.longtail_kinds_per_domain, full.longtail_kinds_per_domain);
    }
}
