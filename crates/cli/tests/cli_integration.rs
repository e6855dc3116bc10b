//! End-to-end tests of the `hva` binary.

use std::path::PathBuf;
use std::process::Command;

fn hva() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hva"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hva_cli_tests").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = hva().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("repro"));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = hva().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn check_reports_violations_and_exit_zero() {
    let dir = tmpdir("check");
    let file = dir.join("bad.html");
    std::fs::write(&file, r#"<img src="a.png"alt="x"><div id=a id=b>t</div>"#).unwrap();
    let out = hva().arg("check").arg(&file).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FB2"), "{text}");
    assert!(text.contains("DM3"), "{text}");
    assert!(text.contains("auto-fixable"), "{text}");
}

#[test]
fn check_json_is_parseable() {
    let dir = tmpdir("check_json");
    let file = dir.join("bad.html");
    std::fs::write(&file, r#"<img src="a.png"alt="x">"#).unwrap();
    let out = hva().arg("check").arg(&file).arg("--json").output().unwrap();
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(v["findings"].as_array().map(|a| !a.is_empty()).unwrap_or(false));
}

#[test]
fn check_clean_file() {
    let dir = tmpdir("clean");
    let file = dir.join("ok.html");
    std::fs::write(
        &file,
        "<!DOCTYPE html><html><head><title>t</title></head><body><p>x</p></body></html>",
    )
    .unwrap();
    let out = hva().arg("check").arg(&file).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("no violations"));
}

#[test]
fn check_missing_file_fails() {
    let out = hva().arg("check").arg("/nonexistent/x.html").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn fix_writes_repaired_output() {
    let dir = tmpdir("fix");
    let src = dir.join("in.html");
    let dst = dir.join("out.html");
    std::fs::write(&src, r#"<body><img src="a.png"alt="x"></body>"#).unwrap();
    let out = hva().arg("fix").arg(&src).arg("-o").arg(&dst).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let fixed = std::fs::read_to_string(&dst).unwrap();
    assert!(fixed.contains(r#"<img src="a.png" alt="x">"#), "{fixed}");
}

#[test]
fn gen_writes_pages() {
    let dir = tmpdir("gen");
    let out = hva()
        .args(["gen", "--scale", "0.001", "--domains", "2", "--year", "2022", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // At least one index.html exists under the snapshot dir.
    let snap_dir = dir.join("CC-MAIN-2022-05");
    let found = walk_count(&snap_dir, "index.html");
    assert!(found >= 1, "no pages written under {}", snap_dir.display());
}

#[test]
fn gen_warc_roundtrips() {
    let dir = tmpdir("gen_warc");
    let out = hva()
        .args(["gen", "--scale", "0.001", "--domains", "2", "--year", "2021", "--warc", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let warc = dir.join("CC-MAIN-2021-04.warc");
    let cdx = dir.join("CC-MAIN-2021-04.cdxj");
    assert!(warc.exists() && cdx.exists());
    // The CDX index loads and points at readable records.
    let index = hv_corpus::warc::load_cdxj(&cdx).unwrap();
    assert!(!index.is_empty());
    let mut f = std::fs::File::open(&warc).unwrap();
    let rec = hv_corpus::warc::read_record(&mut f, index[0].offset, index[0].length).unwrap();
    assert_eq!(rec.url, index[0].url);
}

#[test]
fn scan_store_report_roundtrip() {
    let dir = tmpdir("scan");
    let store_path = dir.join("store.hvs");
    // A store left by an earlier run would trip the clobber guard.
    std::fs::remove_file(&store_path).ok();
    let out = hva()
        .args(["scan", "--scale", "0.002", "--threads", "4", "--store"])
        .arg(&store_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(store_path.exists());

    for (experiment, needle) in
        [("fig9", "Figure 9"), ("table2", "Table 2"), ("autofix", "Automatic fixing")]
    {
        let out = hva().args(["report", experiment, "--store"]).arg(&store_path).output().unwrap();
        assert!(out.status.success());
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(needle),
            "{experiment} missing {needle}"
        );
    }

    // Unknown experiment errors cleanly.
    let out = hva().args(["report", "fig99", "--store"]).arg(&store_path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
}

/// Read a store's content the supported way: `hva store export` to JSON.
fn export(store: &std::path::Path) -> String {
    let json = store.with_extension("json");
    let out = hva().args(["store", "export"]).arg(store).arg(&json).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::read_to_string(&json).unwrap()
}

/// Scans and migrations write only v1: a `.json` destination is a usage
/// error that names the export command, and nothing is written.
#[test]
fn json_store_destinations_are_usage_errors() {
    let dir = tmpdir("json_refused");
    let json = dir.join("refused.json");
    std::fs::remove_file(&json).ok();
    for args in [
        vec!["scan", "--scale", "0.002", "--store"],
        vec!["scan-warc", "nowhere", "--store"],
        vec!["store", "migrate", "any-store.hvs"],
    ] {
        let out = hva().args(&args).arg(&json).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("requires a v1 binary store"), "{args:?}: {stderr}");
        assert!(stderr.contains("hva store export"), "{args:?}: {stderr}");
        assert!(!json.exists(), "{args:?} wrote {}", json.display());
    }
}

fn walk_count(dir: &std::path::Path, name: &str) -> usize {
    let mut n = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                n += walk_count(&p, name);
            } else if p.file_name().map(|f| f == name).unwrap_or(false) {
                n += 1;
            }
        }
    }
    n
}

#[test]
fn explain_single_and_all() {
    let out = hva().args(["explain", "dm2_3"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DM2_3"));
    assert!(text.contains("behaviour:"));

    let out = hva().args(["explain", "all"]).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    for id in ["DE1", "FB2", "HF5_3"] {
        assert!(text.contains(id), "missing {id}");
    }

    let out = hva().args(["explain", "XX9"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn scan_warc_end_to_end() {
    let dir = tmpdir("scan_warc");
    // Export a snapshot as WARC, then scan it from disk.
    let out = hva()
        .args(["gen", "--scale", "0.001", "--domains", "4", "--year", "2022", "--warc", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let store_path = dir.join("warc-store.hvs");
    let out = hva().args(["scan-warc"]).arg(&dir).arg("--store").arg(&store_path).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(store_path.exists());

    // The saved store renders through the normal report path.
    let out = hva().args(["report", "fig8", "--store"]).arg(&store_path).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Figure 8"));

    // Empty directories are a clean error.
    let empty = tmpdir("scan_warc_empty");
    let out = hva().args(["scan-warc"]).arg(&empty).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn chaos_verdict_passes() {
    let out = hva()
        .args(["chaos", "--scale", "0.002", "--faults", "9:0.1", "--threads", "4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("chaos report"));
    assert!(stdout.contains("quarantine-thread-invariant"));
    assert!(stdout.contains("verdict: PASS"));
}

#[test]
fn scan_inject_faults_writes_quarantine() {
    let dir = tmpdir("scan_faults");
    let store_path = dir.join("faulted-store.hvs");
    std::fs::remove_file(&store_path).ok();
    let out = hva()
        .args(["scan", "--scale", "0.002", "--threads", "4", "--inject-faults", "9:0.1", "--store"])
        .arg(&store_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("injecting deterministic faults"), "{stderr}");
    assert!(stderr.contains("faulted"), "{stderr}");

    let json = export(&store_path);
    assert!(json.contains("\"quarantine\""), "faulted store records its quarantine set");

    // A malformed fault spec is a usage error.
    let out = hva().args(["scan", "--inject-faults", "9:2.0"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}
