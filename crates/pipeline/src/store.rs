//! The result store — the paper's PostgresDB (Figure 6, step 4), embedded.
//!
//! One [`DomainYearRecord`] per (domain, snapshot): which pages were found
//! and analyzed, which violation kinds appeared on at least one page, and
//! the §4.5 mitigation flags. Everything the aggregation layer needs, no
//! external service.

use crate::format::{self, DroppedSegment, LoadOptions, SegmentSummary, StoreWriter};
use crate::metrics::ScanMetrics;
use crate::outcome::QuarantineEntry;
use hv_core::{HvError, MitigationFlags, ViolationKind};
use hv_corpus::Snapshot;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

/// Per-(domain, snapshot) facts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainYearRecord {
    pub domain_id: u64,
    pub domain_name: String,
    pub rank: u32,
    pub snapshot: Snapshot,
    /// Pages listed in the CDX index for this domain/snapshot.
    pub pages_found: usize,
    /// Pages that passed the UTF-8 filter and were checked.
    pub pages_analyzed: usize,
    /// Violation kinds present on at least one analyzed page.
    pub kinds: BTreeSet<ViolationKind>,
    /// Number of pages on which each kind appeared.
    pub page_counts: BTreeMap<ViolationKind, u32>,
    /// §4.5 mitigation flags, OR-ed over the domain's pages. Flattened so
    /// the JSON keeps the four historical top-level keys
    /// (`script_in_attribute`, …) — stores written by older versions load
    /// unchanged, and older readers can still read new stores.
    #[serde(flatten)]
    pub mitigations: MitigationFlags,
    /// Kinds that would remain after the §4.4 automatic fix.
    pub kinds_after_autofix: BTreeSet<ViolationKind>,
    /// §4.2 usage statistic: at least one page contains a `math` element.
    #[serde(default)]
    pub uses_math: bool,
    /// Pages whose read path had a fault injected (`--inject-faults`).
    /// Zero on clean scans and then omitted from the JSON — clean stores
    /// stay byte-identical to ones written before the failure model.
    #[serde(default, skip_serializing_if = "usize_is_zero")]
    pub pages_faulted: usize,
    /// Pages analyzed only after transient-error retries.
    #[serde(default, skip_serializing_if = "usize_is_zero")]
    pub pages_degraded: usize,
    /// Pages set aside with a structured reason (see
    /// [`ResultStore::quarantine`] for the per-page entries).
    #[serde(default, skip_serializing_if = "usize_is_zero")]
    pub pages_quarantined: usize,
}

/// `skip_serializing_if` predicate for the fault counters.
fn usize_is_zero(n: &usize) -> bool {
    *n == 0
}

impl DomainYearRecord {
    /// Whether the domain was successfully analyzed (≥ 1 page decoded).
    pub fn analyzed(&self) -> bool {
        self.pages_analyzed > 0
    }

    pub fn violating(&self) -> bool {
        !self.kinds.is_empty()
    }
}

/// The embedded result database.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct ResultStore {
    /// Scan identification: corpus seed and scale, for provenance.
    pub seed: u64,
    pub scale: f64,
    /// Size of the scanned universe (domains on the averaged top list).
    pub universe: usize,
    pub records: Vec<DomainYearRecord>,
    /// Scan observability provenance: how the store was produced
    /// (throughput, per-phase timings, per-check fire counts). `None` for
    /// stores written without `--metrics` or by older versions.
    #[serde(default)]
    pub metrics: Option<ScanMetrics>,
    /// Pages the scan set aside with a structured reason, in canonical
    /// (snapshot, domain, page) order. Empty on clean scans and then
    /// omitted from the JSON (wire compatibility with older stores).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub quarantine: Vec<QuarantineEntry>,
}

impl ResultStore {
    pub fn new(seed: u64, scale: f64, universe: usize) -> Self {
        ResultStore {
            seed,
            scale,
            universe,
            records: Vec::new(),
            metrics: None,
            quarantine: Vec::new(),
        }
    }

    /// Insert records and keep the canonical ordering (snapshot, then
    /// domain id; quarantine additionally by page) so scans are
    /// byte-identical at any thread count.
    pub fn finalize(&mut self) {
        self.records.sort_by_key(|r| (r.snapshot, r.domain_id));
        self.quarantine.sort_by_key(|q| (q.snapshot, q.domain_id, q.page_index));
    }

    /// Records for one snapshot.
    pub fn by_snapshot(&self, snap: Snapshot) -> impl Iterator<Item = &DomainYearRecord> {
        self.records.iter().filter(move |r| r.snapshot == snap)
    }

    /// All records of one domain across snapshots.
    pub fn by_domain(&self, domain_id: u64) -> impl Iterator<Item = &DomainYearRecord> {
        self.records.iter().filter(move |r| r.domain_id == domain_id)
    }

    /// Domains successfully analyzed in at least one snapshot.
    pub fn analyzed_domains(&self) -> BTreeSet<u64> {
        self.records.iter().filter(|r| r.analyzed()).map(|r| r.domain_id).collect()
    }

    /// Persist as v0 JSON — the export/interchange format, and its only
    /// writer (`hva store export`; scans always write v1). Failures come
    /// back as the workspace-wide [`HvError`], so callers map them
    /// uniformly.
    ///
    /// Writes through a temp sibling + fsync + rename + parent-dir fsync,
    /// so a crash mid-save never leaves a torn store at `path`.
    pub fn save(&self, path: &Path) -> Result<(), HvError> {
        let tmp = tmp_sibling(path);
        let write = || -> Result<(), HvError> {
            let file = std::fs::File::create(&tmp).map_err(|e| HvError::store_io(path, e))?;
            let mut out = io::BufWriter::new(file);
            serde_json::to_writer(&mut out, self)
                .map_err(|e| HvError::store(path, e.to_string()))?;
            io::Write::flush(&mut out)
                .and_then(|()| out.get_ref().sync_data())
                .map_err(|e| HvError::store_io(path, e))
        };
        commit_tmp(write(), &tmp, path)
    }

    /// Persist as a v1 segmented binary store: one checksummed segment per
    /// snapshot (each embedding its snapshot's quarantine entries), metrics
    /// as its own block, plus a standalone quarantine block for entries
    /// whose snapshot has no records. Returns the per-segment summaries
    /// that went into the footers.
    ///
    /// One-shot and atomic: temp sibling + fsync + rename + parent-dir
    /// fsync (a resumable in-place writer is [`StoreWriter::resume`]).
    pub fn save_v1(&self, path: &Path) -> Result<Vec<SegmentSummary>, HvError> {
        let tmp = tmp_sibling(path);
        let write = || -> Result<Vec<SegmentSummary>, HvError> {
            let sink = format::FileSink::create(&tmp).map_err(|e| HvError::store_io(path, e))?;
            let mut w = StoreWriter::new(sink, path, self.seed, self.scale, self.universe)?;
            let mut covered: BTreeSet<Snapshot> = BTreeSet::new();
            for &snap in Snapshot::ALL.iter() {
                let records: Vec<DomainYearRecord> = self.by_snapshot(snap).cloned().collect();
                if !records.is_empty() {
                    let quarantine: Vec<QuarantineEntry> =
                        self.quarantine.iter().filter(|q| q.snapshot == snap).cloned().collect();
                    w.write_segment(snap, &records, &quarantine)?;
                    covered.insert(snap);
                }
            }
            if let Some(metrics) = &self.metrics {
                w.write_metrics(metrics)?;
            }
            let leftover: Vec<QuarantineEntry> = self
                .quarantine
                .iter()
                .filter(|q| !covered.contains(&q.snapshot))
                .cloned()
                .collect();
            if !leftover.is_empty() {
                w.write_quarantine(&leftover)?;
            }
            w.finish()
        };
        commit_tmp(write(), &tmp, path)
    }

    /// Load a store, sniffing v0 JSON vs v1 binary by the leading bytes —
    /// every store ever written keeps loading through this one entry
    /// point. I/O failures become [`HvError::Store`] with the `io::Error`
    /// as `source`; malformed JSON becomes a store error with the parser's
    /// detail; v1 integrity failures become [`HvError::StoreCorrupt`].
    pub fn load(path: &Path) -> Result<Self, HvError> {
        Self::load_with(path, LoadOptions::default()).map(|l| l.store)
    }

    /// [`ResultStore::load`] with options and provenance: which format was
    /// sniffed, the per-segment summaries (footers for v1, derived for
    /// v0), and — under [`LoadOptions::allow_partial`] — what was dropped.
    pub fn load_with(path: &Path, opts: LoadOptions) -> Result<LoadedStore, HvError> {
        let data = std::fs::read(path).map_err(|e| HvError::store_io(path, e))?;
        if data.starts_with(&format::MAGIC) {
            let v1 = format::read_v1(&data, path, opts)?;
            let mut store = ResultStore::new(v1.seed, v1.scale, v1.universe);
            store.records = v1.records;
            store.metrics = v1.metrics;
            store.quarantine = v1.quarantine;
            store.finalize();
            Ok(LoadedStore {
                store,
                format: StoreFormat::V1Binary,
                segments: v1.segments,
                dropped: v1.dropped,
            })
        } else {
            let store: ResultStore =
                serde_json::from_slice(&data).map_err(|e| HvError::store(path, e.to_string()))?;
            let segments = SegmentSummary::derive(&store);
            Ok(LoadedStore { store, format: StoreFormat::V0Json, segments, dropped: Vec::new() })
        }
    }
}

/// A process-unique temp sibling of `path`, in the same directory so the
/// final `rename` stays on one filesystem (rename across mounts is a
/// copy, not an atomic swap).
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    path.with_file_name(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// fsync the directory holding `path`, making a just-committed rename
/// durable.
fn sync_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

/// Commit a finished temp-file write: rename it over `path` and fsync the
/// directory; on a failed write, clean the temp file up instead.
fn commit_tmp<T>(result: Result<T, HvError>, tmp: &Path, path: &Path) -> Result<T, HvError> {
    match result {
        Ok(v) => {
            std::fs::rename(tmp, path).map_err(|e| HvError::store_io(path, e))?;
            sync_dir(path).map_err(|e| HvError::store_io(path, e))?;
            Ok(v)
        }
        Err(e) => {
            std::fs::remove_file(tmp).ok();
            Err(e)
        }
    }
}

/// The two on-disk encodings of a [`ResultStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFormat {
    /// The original single-JSON-blob layout — still read everywhere, and
    /// written only as an export ([`ResultStore::save`]).
    V0Json,
    /// The segmented, checksummed binary layout (see [`crate::format`]).
    V1Binary,
}

impl StoreFormat {
    pub fn name(self) -> &'static str {
        match self {
            StoreFormat::V0Json => "v0-json",
            StoreFormat::V1Binary => "v1-binary",
        }
    }
}

/// A loaded store plus its provenance.
#[derive(Debug)]
pub struct LoadedStore {
    pub store: ResultStore,
    /// Which encoding the sniffing found on disk.
    pub format: StoreFormat,
    /// Per-segment summaries: footers for v1 stores, derived for v0.
    pub segments: Vec<SegmentSummary>,
    /// Segments a partial load dropped (empty on strict loads).
    pub dropped: Vec<DroppedSegment>,
}

/// Shared test-record factory: 10 pages found and analyzed, the given
/// kinds each on 3 pages. Used by sibling modules' tests too.
#[cfg(test)]
pub(crate) fn test_record(domain: u64, snap: usize, kinds: &[ViolationKind]) -> DomainYearRecord {
    DomainYearRecord {
        domain_id: domain,
        domain_name: format!("d{domain}.com"),
        rank: domain as u32 + 1,
        snapshot: Snapshot::ALL[snap],
        pages_found: 10,
        pages_analyzed: 10,
        kinds: kinds.iter().copied().collect(),
        page_counts: kinds.iter().map(|&k| (k, 3)).collect(),
        mitigations: MitigationFlags::default(),
        kinds_after_autofix: BTreeSet::new(),
        uses_math: false,
        pages_faulted: 0,
        pages_degraded: 0,
        pages_quarantined: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::test_record as record;
    use super::*;

    #[test]
    fn finalize_orders_canonically() {
        let mut s = ResultStore::new(1, 1.0, 10);
        s.records.push(record(5, 3, &[]));
        s.records.push(record(1, 3, &[]));
        s.records.push(record(9, 0, &[]));
        s.finalize();
        let order: Vec<_> = s.records.iter().map(|r| (r.snapshot.index(), r.domain_id)).collect();
        assert_eq!(order, vec![(0, 9), (3, 1), (3, 5)]);
    }

    #[test]
    fn queries() {
        let mut s = ResultStore::new(1, 1.0, 10);
        s.records.push(record(1, 0, &[ViolationKind::FB2]));
        s.records.push(record(1, 1, &[]));
        s.records.push(record(2, 0, &[]));
        assert_eq!(s.by_snapshot(Snapshot::ALL[0]).count(), 2);
        assert_eq!(s.by_domain(1).count(), 2);
        assert_eq!(s.analyzed_domains().len(), 2);
        assert!(s.records[0].violating());
        assert!(!s.records[1].violating());
    }

    /// Stores written before the mitigation flags were grouped into an
    /// embedded [`MitigationFlags`] (and before the `metrics` field
    /// existed) keep loading: the flatten preserves the four historical
    /// top-level keys and `metrics` defaults to `None`. The second fixture
    /// record also omits `uses_math`, exercising its default.
    #[test]
    fn v0_format_store_still_loads() {
        let raw = include_str!("../fixtures/store_v0.json");
        let store: ResultStore = serde_json::from_str(raw).expect("v0 store loads");
        assert_eq!(store.seed, 7);
        assert!(store.metrics.is_none());
        assert_eq!(store.records.len(), 2);

        let alpha = &store.records[0];
        assert_eq!(alpha.domain_id, 1234567890123456789);
        assert!(alpha.mitigations.script_in_attribute);
        assert!(alpha.mitigations.newline_in_url);
        assert!(!alpha.mitigations.newline_and_lt_in_url);
        assert_eq!(alpha.page_counts.get(&ViolationKind::FB2), Some(&33));
        assert!(alpha.uses_math);

        let beta = &store.records[1];
        assert!(!beta.mitigations.any());
        assert!(!beta.uses_math);

        // Writing back keeps the v0 key layout: the four flags stay
        // top-level on each record (no nested "mitigations" object).
        let out = serde_json::to_value(&store);
        let rec = &out["records"][0];
        assert_eq!(rec["script_in_attribute"], serde_json::Value::Bool(true));
        assert!(matches!(rec["mitigations"], serde_json::Value::Null));
    }

    /// Clean stores must serialize without any trace of the failure model
    /// — the new fields only appear when a fault actually occurred — and
    /// faulted stores must round-trip them.
    #[test]
    fn fault_fields_are_invisible_on_clean_stores() {
        let mut clean = ResultStore::new(1, 1.0, 10);
        clean.records.push(record(1, 0, &[]));
        let json = serde_json::to_string(&clean).unwrap();
        for key in ["pages_faulted", "pages_degraded", "pages_quarantined", "quarantine"] {
            assert!(!json.contains(key), "{key} leaked into a clean store: {json}");
        }

        let mut faulted = ResultStore::new(1, 1.0, 10);
        let mut r = record(1, 0, &[]);
        r.pages_faulted = 3;
        r.pages_degraded = 1;
        r.pages_quarantined = 2;
        faulted.records.push(r);
        faulted.quarantine.push(crate::outcome::QuarantineEntry {
            domain_id: 1,
            snapshot: Snapshot::ALL[0],
            page_index: 4,
            url: "https://d1.com/page/4.html".into(),
            class: crate::outcome::ErrorClass::TruncatedRecord,
        });
        let json = serde_json::to_string(&faulted).unwrap();
        let back: ResultStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back.records[0].pages_faulted, 3);
        assert_eq!(back.records[0].pages_degraded, 1);
        assert_eq!(back.records[0].pages_quarantined, 2);
        assert_eq!(back.quarantine, faulted.quarantine);
    }

    #[test]
    fn finalize_orders_quarantine_canonically() {
        let q = |d: u64, s: usize, p: usize| crate::outcome::QuarantineEntry {
            domain_id: d,
            snapshot: Snapshot::ALL[s],
            page_index: p,
            url: String::new(),
            class: crate::outcome::ErrorClass::TransientIo,
        };
        let mut store = ResultStore::new(1, 1.0, 10);
        store.quarantine = vec![q(5, 1, 0), q(1, 1, 9), q(1, 1, 2), q(9, 0, 3)];
        store.finalize();
        let order: Vec<_> = store
            .quarantine
            .iter()
            .map(|e| (e.snapshot.index(), e.domain_id, e.page_index))
            .collect();
        assert_eq!(order, vec![(0, 9, 3), (1, 1, 2), (1, 1, 9), (1, 5, 0)]);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut s = ResultStore::new(7, 0.5, 3);
        s.records.push(record(1, 2, &[ViolationKind::DM3, ViolationKind::HF4]));
        s.finalize();
        let dir = std::env::temp_dir().join("hv_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        s.save(&path).unwrap();
        let back = ResultStore::load(&path).unwrap();
        assert_eq!(back.seed, 7);
        assert_eq!(back.records.len(), 1);
        assert!(back.records[0].kinds.contains(&ViolationKind::HF4));
        std::fs::remove_file(&path).ok();
    }

    fn sample_store() -> ResultStore {
        let mut s = ResultStore::new(9, 0.25, 42);
        s.records.push(record(1, 0, &[ViolationKind::FB2]));
        s.records.push(record(2, 0, &[]));
        s.records.push(record(77, 5, &[ViolationKind::DM3]));
        s.metrics = Some(ScanMetrics::default());
        s.quarantine.push(QuarantineEntry {
            domain_id: 2,
            snapshot: Snapshot::ALL[0],
            page_index: 3,
            url: "https://d2.com/page/3.html".into(),
            class: crate::outcome::ErrorClass::TransientIo,
        });
        s.finalize();
        s
    }

    #[test]
    fn v1_roundtrip_preserves_everything_and_sniffing_names_formats() {
        let s = sample_store();
        let dir = std::env::temp_dir().join("hv_store_v1_test");
        std::fs::create_dir_all(&dir).unwrap();

        let v1 = dir.join("store.hvs");
        let segs = s.save_v1(&v1).unwrap();
        assert_eq!(segs.len(), 2, "two snapshots, two segments");
        assert_eq!(segs[0].records, 2);
        assert_eq!(segs[0].domains_violating, 1);
        assert_eq!(segs[1].records, 1);

        let loaded = ResultStore::load_with(&v1, LoadOptions::default()).unwrap();
        assert_eq!(loaded.format, StoreFormat::V1Binary);
        assert_eq!(loaded.segments, segs, "footers round-trip");
        assert!(loaded.dropped.is_empty());
        assert_eq!(
            serde_json::to_string(&loaded.store).unwrap(),
            serde_json::to_string(&s).unwrap(),
            "v1 round-trip is lossless"
        );

        // The same store through the v0 path sniffs as JSON and derives
        // the identical per-segment summaries.
        let v0 = dir.join("store.json");
        s.save(&v0).unwrap();
        let loaded = ResultStore::load_with(&v0, LoadOptions::default()).unwrap();
        assert_eq!(loaded.format, StoreFormat::V0Json);
        assert_eq!(loaded.segments, segs);

        assert_eq!(StoreFormat::V0Json.name(), "v0-json");
        assert_eq!(StoreFormat::V1Binary.name(), "v1-binary");
        std::fs::remove_file(&v0).ok();
        std::fs::remove_file(&v1).ok();
    }

    /// A bit flip inside a segment fails the strict load with the segment
    /// and offset named; `--allow-partial` keeps the intact segment and
    /// reports the dropped one.
    #[test]
    fn corrupt_segment_strict_fails_partial_recovers() {
        let s = sample_store();
        let dir = std::env::temp_dir().join("hv_store_corrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.hvs");
        s.save_v1(&path).unwrap();

        // Flip a byte inside the second segment: domain "d77.com" only
        // appears there.
        let mut data = std::fs::read(&path).unwrap();
        let needle = b"d77.com";
        let at = data.windows(needle.len()).position(|w| w == needle).unwrap();
        data[at] ^= 0x01;
        std::fs::write(&path, &data).unwrap();

        let err = ResultStore::load(&path).unwrap_err();
        match err {
            hv_core::HvError::StoreCorrupt { segment, offset, .. } => {
                assert_eq!(segment, Some(1));
                assert!(offset > 0);
            }
            other => panic!("expected StoreCorrupt, got {other}"),
        }

        let partial = ResultStore::load_with(&path, LoadOptions { allow_partial: true }).unwrap();
        assert_eq!(partial.store.records.len(), 2, "snapshot-0 segment survives");
        assert_eq!(partial.segments.len(), 1);
        assert_eq!(partial.dropped.len(), 1);
        assert_eq!(partial.dropped[0].segment, 1);
        assert!(partial.dropped[0].detail.contains("checksum"));
        // The metrics block sits after the corrupt segment and still
        // loads; the quarantine entry rides inside the intact segment 0.
        assert!(partial.store.metrics.is_some());
        assert_eq!(partial.store.quarantine.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    /// Truncation (a partial write, a torn download) is caught by the
    /// missing trailer even when it lands exactly on a block boundary.
    #[test]
    fn truncated_store_is_rejected() {
        let s = sample_store();
        let dir = std::env::temp_dir().join("hv_store_trunc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.hvs");
        s.save_v1(&path).unwrap();
        let data = std::fs::read(&path).unwrap();
        // Drop the trailer exactly (17 bytes: tag + u32 + u64 + crc).
        std::fs::write(&path, &data[..data.len() - 17]).unwrap();
        let err = ResultStore::load(&path).unwrap_err();
        assert!(err.to_string().contains("missing trailer"), "got: {err}");
        let partial = ResultStore::load_with(&path, LoadOptions { allow_partial: true }).unwrap();
        assert_eq!(partial.store.records.len(), 3, "all segments intact");
        assert_eq!(partial.dropped.len(), 1, "the missing trailer is reported");
        std::fs::remove_file(&path).ok();
    }
}
