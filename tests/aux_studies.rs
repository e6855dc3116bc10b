//! The §5.1/§5.2 auxiliary studies as a store computes them
//! ([`IndexedStore::aux`]) against the re-scan oracle
//! ([`hv_oracle::auxstudies`]), which re-checks every page of both §5.2
//! populations instead of reading the popular side from the store.

use html_violations::hv_pipeline::auxstudies::longtail_sample;
use html_violations::hv_pipeline::scan_snapshots;
use html_violations::prelude::*;
use hv_oracle::auxstudies::longtail_study;
use std::path::Path;

/// The store's §5.2 study equals the oracle's for the archive it came from.
fn assert_matches_oracle(store: &IndexedStore) {
    let archive = Archive::new(CorpusConfig { seed: store.seed, scale: store.scale });
    let sample = longtail_sample(archive.domains().len());
    let want = longtail_study(&archive, sample, Snapshot::ALL[6]);
    let got = &store.aux().longtail;
    assert_eq!(got, &want, "seed {} scale {}", store.seed, store.scale);
    assert!(got.popular_domains > 0 && got.longtail_domains > 0);
}

#[test]
fn longtail_study_from_the_store_matches_the_rescan() {
    for (seed, scale) in [(1, 0.0015), (2, 0.0015), (4_740_657, 0.01), (99, 0.005)] {
        let archive = Archive::new(CorpusConfig { seed, scale });
        // §5.2 reads one snapshot; a store of just that snapshot suffices.
        let store = scan_snapshots(&archive, &[Snapshot::ALL[6]], ScanOptions::new().threads(2));
        assert_matches_oracle(&IndexedStore::new(store));
    }
}

#[test]
fn longtail_study_from_the_v0_fixture_matches_the_rescan() {
    assert_matches_oracle(&IndexedStore::load(Path::new("tests/fixtures/store_v0.json")).unwrap());
}
