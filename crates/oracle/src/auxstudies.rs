//! The §5.2 long-tail comparison as it ran before the study read the
//! store: both populations re-fetched and re-checked page by page on one
//! thread, outside the scan engine. [`hv_pipeline::IndexedStore::aux`]
//! takes the popular side from the store's records and scans the long
//! tail through the engine; this is the equivalence oracle for both.

use hv_core::{Battery, ViolationKind};
use hv_corpus::auxstudies::longtail_snapshot;
use hv_corpus::{Archive, DomainSnapshot, Snapshot};
use hv_pipeline::auxstudies::LongtailStudy;
use std::collections::BTreeSet;

/// Run the §5.2 long-tail comparison over `sample` domains per population,
/// scanning every page of both sides.
pub fn longtail_study(archive: &Archive, sample: usize, snap: Snapshot) -> LongtailStudy {
    let mut battery = Battery::full();
    let mut popular = Vec::new();
    for d in archive.domains().iter().take(sample) {
        let Some(cdx) = archive.cdx_lookup(d, snap) else { continue };
        if !cdx.snapshot.utf8_ok {
            continue;
        }
        popular.push(scan_snapshot_kinds(archive, &mut battery, &cdx.snapshot));
    }
    let mut tail = Vec::new();
    for i in 0..sample as u64 {
        let ds = longtail_snapshot(archive.cfg.seed, i, snap, &archive.model);
        if !ds.utf8_ok {
            continue;
        }
        tail.push(scan_snapshot_kinds(archive, &mut battery, &ds));
    }
    LongtailStudy::compare(snap, &popular, &tail)
}

/// Scan all pages of one domain-snapshot and return the distinct kinds.
fn scan_snapshot_kinds(
    archive: &Archive,
    battery: &mut Battery,
    ds: &DomainSnapshot,
) -> BTreeSet<ViolationKind> {
    let mut kinds = BTreeSet::new();
    for page in 0..ds.page_count.min(100) {
        let body = archive.fetch_page(ds, page);
        if let Ok(text) = std::str::from_utf8(&body) {
            kinds.extend(battery.run_str(text).kinds());
        }
    }
    kinds
}
