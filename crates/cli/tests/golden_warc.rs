//! Golden test for `hva scan-warc` over a damaged WARC/CDXJ pair: every
//! kind of damage a real crawl dump carries is quarantined (or, for
//! non-UTF-8 bodies, filtered) with a pinned class, URL and page index,
//! and the healthy pages still produce their records.

use hv_corpus::warc::{surt, CdxjLine, WarcWriter};
use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn hva() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hva"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hva_golden_warc").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const CLEAN: &[u8] =
    b"<!DOCTYPE html><html><head><title>t</title></head><body><p>ok</p></body></html>";
const DUPLICATE_ATTR: &[u8] =
    b"<!DOCTYPE html><html><head><title>t</title></head><body><img src=a src=b></body></html>";

fn cdxj(url: &str, offset: u64, length: u64) -> String {
    CdxjLine {
        surt: surt(url),
        timestamp: "20220120000000".into(),
        url: url.into(),
        mime: "text/html".into(),
        status: 200,
        offset,
        length,
    }
    .render()
}

/// Write `CC-MAIN-2022-05.{warc,cdxj}` under `dir`: three healthy-host
/// pages (clean, violating, non-UTF-8), three damaged-host pages (gzip
/// magic, over the 1 MiB byte budget, a CDXJ length that cuts the record
/// short), and one mangled CDXJ line. Returns the CDXJ path.
fn write_damaged_crawl(dir: &std::path::Path) -> PathBuf {
    let mut oversized = b"<!DOCTYPE html><p>".to_vec();
    oversized.resize((1 << 20) + 1, b'a');
    let gzip = [0x1f, 0x8b, 0x08, 0x00, 0x13, 0x37, 0x00, 0xff];
    let non_utf8 = b"<!DOCTYPE html><p>caf\xe9</p>";

    let mut w = WarcWriter::new(Vec::new());
    let date = "2022-01-20T00:00:00Z";
    let mut lines = Vec::new();
    for (url, body) in [
        ("https://good.example/0.html", CLEAN),
        ("https://good.example/1.html", DUPLICATE_ATTR),
        ("https://good.example/2.html", &non_utf8[..]),
        ("https://damaged.example/0.html", &gzip[..]),
        ("https://damaged.example/1.html", &oversized[..]),
        ("https://damaged.example/2.html", CLEAN),
    ] {
        let (offset, length) = w.write_response(url, date, body).unwrap();
        lines.push(cdxj(url, offset, length));
    }
    // The last record's index entry claims 40 bytes too few.
    let last = CdxjLine::parse(&lines.pop().unwrap()).unwrap();
    lines.push(cdxj(&last.url, last.offset, last.length - 40));
    // Line 4 of the index is mangled beyond parsing.
    lines.insert(3, "com,example)/broken 20220120000000 {\"url\": \"https://broken.exam".into());

    std::fs::write(dir.join("CC-MAIN-2022-05.warc"), w.into_inner()).unwrap();
    let cdx = dir.join("CC-MAIN-2022-05.cdxj");
    std::fs::write(&cdx, lines.join("\n") + "\n").unwrap();
    cdx
}

/// Scan `dir` into a v1 store and read it back through `hva store export`.
fn scan(dir: &std::path::Path) -> Value {
    let (store, json) = (dir.join("store.hvs"), dir.join("store.json"));
    let out = hva().arg("scan-warc").arg(dir).arg("--store").arg(&store).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = hva().args(["store", "export"]).arg(&store).arg(&json).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap()
}

fn count(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

#[test]
fn damaged_warc_is_quarantined_exactly() {
    let dir = tmpdir("damaged");
    let cdx = write_damaged_crawl(&dir);
    let store = scan(&dir);

    assert_eq!(count(&store, "seed"), 0);
    assert_eq!(count(&store, "universe"), 2, "two hosts listed");

    let quarantine: Vec<(String, String, u64)> = store["quarantine"]
        .as_array()
        .expect("damaged scans carry a quarantine")
        .iter()
        .map(|q| {
            (
                q["class"].as_str().unwrap().to_owned(),
                q["url"].as_str().unwrap().to_owned(),
                q["page_index"].as_u64().unwrap(),
            )
        })
        .collect();
    let broken_line = format!("cdxj:{}#L4", cdx.display());
    let expected: Vec<(String, String, u64)> = vec![
        ("MalformedCdx".into(), broken_line, 4),
        ("CorruptCompression".into(), "https://damaged.example/0.html".into(), 0),
        ("OversizedBody".into(), "https://damaged.example/1.html".into(), 1),
        ("TruncatedRecord".into(), "https://damaged.example/2.html".into(), 2),
    ];
    assert_eq!(quarantine, expected);

    let records = store["records"].as_array().unwrap();
    assert_eq!(records.len(), 2);
    let record = |name: &str| {
        records
            .iter()
            .find(|r| r["domain_name"].as_str() == Some(name))
            .unwrap_or_else(|| panic!("{name}"))
    };

    let good = record("good.example");
    assert_eq!(count(good, "pages_found"), 3);
    assert_eq!(count(good, "pages_analyzed"), 2, "the non-UTF-8 page is filtered, not quarantined");
    assert_eq!(count(good, "pages_quarantined"), 0);
    assert_eq!(good["kinds"], serde_json::json!(["DM3"]));
    assert_eq!(good["page_counts"], serde_json::json!({"DM3": 1}));
    assert_eq!(good["kinds_after_autofix"], serde_json::json!([]));

    let damaged = record("damaged.example");
    assert_eq!(count(damaged, "pages_found"), 3);
    assert_eq!(count(damaged, "pages_analyzed"), 0);
    assert_eq!(count(damaged, "pages_quarantined"), 3);
    assert_eq!(damaged["kinds"], serde_json::json!([]));
    let damaged_id = damaged["domain_id"].as_u64().unwrap();
    for q in &store["quarantine"].as_array().unwrap()[1..] {
        assert_eq!(q["domain_id"].as_u64(), Some(damaged_id));
    }
    assert_eq!(count(&store["quarantine"][0], "domain_id"), 0, "bad index lines have no host");
}
