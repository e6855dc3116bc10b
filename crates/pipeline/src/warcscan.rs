//! Scanning on-disk WARC/CDXJ archives — the bridge to *real* Common Crawl
//! data.
//!
//! `hva gen --warc` exports the synthetic archive in standard form; this
//! module turns any such pair (or extracts pulled from the real Common
//! Crawl with its index client) into a [`PageSource`], so the measurement
//! runs on the same engine as the virtual pipeline and fills the same
//! [`crate::ResultStore`] — every table/figure renderer works on real data
//! unchanged.

use crate::outcome::{ErrorClass, QuarantineEntry};
use crate::run::{Listing, PageSource, Slot};
use hv_core::HvError;
use hv_corpus::warc::{load_cdxj_lenient, parse_record, BadCdxjLine, CdxjLine, MAX_RECORD_LENGTH};
use hv_corpus::Snapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// A (WARC, CDXJ) file pair associated with a snapshot.
#[derive(Debug, Clone)]
pub struct WarcInput {
    pub warc: PathBuf,
    pub cdx: PathBuf,
    pub snapshot: Snapshot,
}

/// Discover `<CC-MAIN-*>.warc` / `.cdxj` pairs in a directory (the layout
/// `hva gen --warc` produces). Snapshot association comes from the
/// crawl-id file stem. Inputs come back sorted by (snapshot, WARC path):
/// two crawls of one year stay in a fixed order whatever order the
/// directory lists them in.
pub fn discover(dir: &Path) -> Result<Vec<WarcInput>, HvError> {
    let mut inputs = Vec::new();
    let listing = std::fs::read_dir(dir)
        .map_err(|e| HvError::io(format!("listing WARC directory {}", dir.display()), e))?;
    for entry in listing {
        let path =
            entry.map_err(|e| HvError::io("reading WARC directory entry".to_string(), e))?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("warc") {
            continue;
        }
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
        let Some(snapshot) = snapshot_from_crawl_id(stem) else { continue };
        let cdx = path.with_extension("cdxj");
        if cdx.exists() {
            inputs.push(WarcInput { warc: path, cdx, snapshot });
        }
    }
    inputs.sort_by(|a, b| (a.snapshot, &a.warc).cmp(&(b.snapshot, &b.warc)));
    Ok(inputs)
}

fn snapshot_from_crawl_id(stem: &str) -> Option<Snapshot> {
    // CC-MAIN-2019-04 → 2019.
    let year: u16 = stem.strip_prefix("CC-MAIN-")?.get(..4)?.parse().ok()?;
    Snapshot::from_year(year)
}

/// WARC/CDXJ crawls as a [`PageSource`]. Pages are grouped into domains by
/// URL host (one slot per crawl and host); domain ids are stable hashes of
/// the host, and the store's universe is the number of distinct hosts.
///
/// Real crawl dumps are never entirely clean: malformed CDXJ lines are
/// quarantined while listing, and unreadable records come back as
/// [`ErrorClass::TruncatedRecord`] for the engine to quarantine. Only I/O
/// failures on the files themselves abort, when the source is opened.
#[derive(Debug)]
pub struct WarcSource {
    crawls: Vec<Crawl>,
    universe: usize,
}

#[derive(Debug)]
struct Crawl {
    input: WarcInput,
    /// Read with positional reads only, so workers share it without a
    /// shared seek cursor.
    warc: File,
    hosts: BTreeMap<String, Vec<CdxjLine>>,
    malformed: Vec<BadCdxjLine>,
}

/// Where a slot's records live: the crawl, and each page's (offset,
/// length) byte range in its WARC file.
#[derive(Debug)]
pub struct WarcPages {
    crawl: usize,
    ranges: Vec<(u64, u64)>,
}

impl WarcSource {
    /// Load every input's CDXJ index and open its WARC file, in input
    /// order (the order slots are listed in).
    pub fn open(inputs: &[WarcInput]) -> Result<WarcSource, HvError> {
        let mut crawls = Vec::with_capacity(inputs.len());
        let mut hosts_seen: BTreeSet<String> = BTreeSet::new();
        for input in inputs {
            let (index, malformed) = load_cdxj_lenient(&input.cdx).map_err(|e| {
                HvError::io(format!("reading CDXJ index {}", input.cdx.display()), e)
            })?;
            let warc = File::open(&input.warc)
                .map_err(|e| HvError::io(format!("opening WARC {}", input.warc.display()), e))?;
            let mut hosts: BTreeMap<String, Vec<CdxjLine>> = BTreeMap::new();
            for line in index {
                hosts.entry(host_of(&line.url)).or_default().push(line);
            }
            hosts_seen.extend(hosts.keys().cloned());
            crawls.push(Crawl { input: input.clone(), warc, hosts, malformed });
        }
        Ok(WarcSource { crawls, universe: hosts_seen.len() })
    }
}

impl PageSource for WarcSource {
    type Locator = WarcPages;

    fn provenance(&self) -> (u64, f64, usize) {
        (0, 0.0, self.universe)
    }

    fn list(&self, snapshots: &[Snapshot]) -> Listing<WarcPages> {
        let mut listing = Listing { slots: Vec::new(), quarantine: Vec::new() };
        for (crawl_idx, crawl) in self.crawls.iter().enumerate() {
            let snapshot = crawl.input.snapshot;
            if !snapshots.contains(&snapshot) {
                continue;
            }
            // Index lines the CDXJ parser refused: quarantined under a
            // synthetic per-file pseudo-domain (there is no trustworthy URL
            // to group by), keyed by line number for the audit trail.
            for (line_no, _raw) in &crawl.malformed {
                listing.quarantine.push(QuarantineEntry {
                    domain_id: 0,
                    snapshot,
                    page_index: *line_no,
                    url: format!("cdxj:{}#L{line_no}", crawl.input.cdx.display()),
                    class: ErrorClass::MalformedCdx,
                });
            }
            for (host, lines) in &crawl.hosts {
                listing.slots.push(Slot {
                    domain_id: hv_corpus::rng::str_key(host),
                    domain_name: host.clone(),
                    rank: 0,
                    snapshot,
                    urls: lines.iter().map(|l| l.url.clone()).collect(),
                    locator: WarcPages {
                        crawl: crawl_idx,
                        ranges: lines.iter().map(|l| (l.offset, l.length)).collect(),
                    },
                });
            }
        }
        listing
    }

    fn read(&self, slot: &Slot<WarcPages>, page: usize) -> Result<Vec<u8>, ErrorClass> {
        let (offset, length) = slot.locator.ranges[page];
        // A corrupt length digit can claim gigabytes: refuse before
        // allocating for it.
        if length > MAX_RECORD_LENGTH {
            return Err(ErrorClass::TruncatedRecord);
        }
        let mut raw = vec![0u8; length as usize];
        let warc = &self.crawls[slot.locator.crawl].warc;
        warc.read_exact_at(&mut raw, offset).map_err(|_| ErrorClass::TruncatedRecord)?;
        parse_record(&raw).map(|record| record.body).map_err(|_| ErrorClass::TruncatedRecord)
    }
}

fn host_of(url: &str) -> String {
    let stripped =
        url.strip_prefix("https://").or_else(|| url.strip_prefix("http://")).unwrap_or(url);
    stripped.split('/').next().unwrap_or(stripped).to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{scan_snapshots, ScanOptions};
    use hv_corpus::warc::{surt, WarcWriter};
    use hv_corpus::{Archive, CorpusConfig};

    #[test]
    fn warc_scan_agrees_with_virtual_scan() {
        // Export a snapshot to disk, scan the files, and compare per-domain
        // kinds against scanning the virtual archive directly.
        let archive = Archive::new(CorpusConfig { seed: 606, scale: 0.002 });
        let dir = std::env::temp_dir().join("hv_warcscan_test");
        std::fs::remove_dir_all(&dir).ok();
        let snap = Snapshot::ALL[7];
        hv_corpus::warc::export_snapshot(&archive, snap, &dir, 12).unwrap();

        let inputs = discover(&dir).unwrap();
        assert_eq!(inputs.len(), 1);
        assert_eq!(inputs[0].snapshot, snap);
        let warc_store = crate::run::scan(&WarcSource::open(&inputs).unwrap(), ScanOptions::new());

        let virtual_store = scan_snapshots(&archive, &[snap], ScanOptions::new().threads(2));

        // Align by domain name over the exported subset.
        for wrec in &warc_store.records {
            let vrec = virtual_store
                .records
                .iter()
                .find(|r| r.domain_name == wrec.domain_name)
                .unwrap_or_else(|| panic!("{} missing from virtual scan", wrec.domain_name));
            assert_eq!(wrec.kinds, vrec.kinds, "kinds differ for {}", wrec.domain_name);
            assert_eq!(wrec.pages_analyzed, vrec.pages_analyzed, "{}", wrec.domain_name);
            assert_eq!(wrec.mitigations, vrec.mitigations);
            assert_eq!(wrec.uses_math, vrec.uses_math);
        }
        assert!(!warc_store.records.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Write one crawl as `<dir>/<crawl_id>.{warc,cdxj}`.
    fn write_crawl(dir: &Path, crawl_id: &str, pages: &[(&str, &[u8])]) {
        let mut w = WarcWriter::new(Vec::new());
        let mut cdx = String::new();
        for (url, body) in pages {
            let (offset, length) = w.write_response(url, "2019-01-20T00:00:00Z", body).unwrap();
            let line = CdxjLine {
                surt: surt(url),
                timestamp: "20190120000000".into(),
                url: (*url).into(),
                mime: "text/html".into(),
                status: 200,
                offset,
                length,
            };
            cdx.push_str(&line.render());
            cdx.push('\n');
        }
        std::fs::write(dir.join(format!("{crawl_id}.warc")), w.into_inner()).unwrap();
        std::fs::write(dir.join(format!("{crawl_id}.cdxj")), cdx).unwrap();
    }

    /// Two crawls of one year list the same host, so their records (and
    /// their quarantine entries) tie on the store's sort keys. The order
    /// must come from the inputs' paths, never from the directory listing
    /// or the workers.
    #[test]
    fn same_year_crawls_scan_identically_at_any_thread_count() {
        let dir = std::env::temp_dir().join("hv_warcscan_same_year");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let gzip: &[u8] = &[0x1f, 0x8b, 0x08, 0x00];
        let dup: &[u8] = b"<!DOCTYPE html><img src=a src=b>";
        // Written late-crawl first, so a listing in creation order would
        // disagree with the sorted order.
        write_crawl(
            &dir,
            "CC-MAIN-2019-09",
            &[("https://x.example/late-gz", gzip), ("https://x.example/late", dup)],
        );
        write_crawl(&dir, "CC-MAIN-2019-04", &[("https://x.example/early-gz", gzip)]);

        let inputs = discover(&dir).unwrap();
        let stems: Vec<_> = inputs.iter().map(|i| i.warc.file_stem().unwrap().to_owned()).collect();
        assert_eq!(stems, ["CC-MAIN-2019-04", "CC-MAIN-2019-09"]);

        let source = WarcSource::open(&inputs).unwrap();
        let stores: Vec<String> = [1, 2, 4]
            .iter()
            .map(|&t| {
                let store = crate::run::scan(&source, ScanOptions::new().threads(t));
                serde_json::to_string(&store).unwrap()
            })
            .collect();
        assert_eq!(stores[0], stores[1]);
        assert_eq!(stores[0], stores[2]);

        let store = crate::run::scan(&source, ScanOptions::new().threads(4));
        let found: Vec<usize> = store.records.iter().map(|r| r.pages_found).collect();
        assert_eq!(found, [1, 2], "records follow crawl order");
        let urls: Vec<&str> = store.quarantine.iter().map(|q| q.url.as_str()).collect();
        assert_eq!(urls, ["https://x.example/early-gz", "https://x.example/late-gz"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn discover_ignores_unrelated_files() {
        let dir = std::env::temp_dir().join("hv_warcscan_discover");
        std::fs::create_dir_all(&dir).ok();
        std::fs::write(dir.join("notes.txt"), "x").unwrap();
        std::fs::write(dir.join("random.warc"), "x").unwrap(); // no crawl id / no cdxj
        let inputs = discover(&dir).unwrap();
        assert!(inputs.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn host_grouping() {
        assert_eq!(host_of("https://a.example.com/x/y"), "a.example.com");
        assert_eq!(host_of("http://b.example"), "b.example");
    }

    #[test]
    fn snapshot_from_crawl_ids() {
        assert_eq!(snapshot_from_crawl_id("CC-MAIN-2015-14"), Snapshot::from_year(2015));
        assert_eq!(snapshot_from_crawl_id("CC-MAIN-2022-05"), Snapshot::from_year(2022));
        assert_eq!(snapshot_from_crawl_id("whatever"), None);
    }
}
