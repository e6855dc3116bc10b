//! Hand-rolled argument parsing (no CLI dependency needed for six
//! subcommands).

use hv_corpus::FaultPlan;
use std::path::PathBuf;

pub const USAGE: &str = "\
hva — HTML specification-violation analyzer (IMC '22 reproduction)

USAGE:
  hva check <file> [--json]          check one HTML document for violations
  hva fix <file> [-o <out>]          apply the automatic (§4.4) repair
  hva gen [--seed N] [--scale F] [--out DIR] [--domains N] [--year Y]
          [--warc]                   materialize sample corpus pages to disk
                                     (--warc: standard WARC/1.0 + CDXJ files)
  hva scan [--seed N] [--scale F] [--threads N] [--store FILE] [--metrics]
           [--inject-faults S:R] [--resume] [--overwrite]
                                     run the full measurement pipeline
                                     (--store: stream a v1 binary store,
                                      one fsynced segment per snapshot;
                                      --metrics: collect + print scan
                                      observability, embedded in the store;
                                      --inject-faults: deterministic read-
                                      path faults, seed S at rate R;
                                      --resume: continue a crash-interrupted
                                      v1 store, skipping its completed
                                      snapshots; --overwrite: replace an
                                      existing store — without either flag,
                                      clobbering an existing store fails)
  hva chaos [--seed N] [--scale F] [--faults S:R] [--threads N]
                                     scan under deterministic fault
                                     injection and verify the robustness
                                     invariants (workers survive, thread-
                                     invariant quarantine, clean pages
                                     untouched); exits non-zero on FAIL
  hva fuzz [--seed N] [--cases N] [--time-budget SECS] [--oracle NAME]
           [--regress-dir DIR] [--replay FILE] [--list-oracles]
                                     differential fuzzing: run seeded
                                     structure-aware cases through the
                                     oracle registry, ddmin-minimize any
                                     failure into DIR, exit non-zero;
                                     --replay re-checks one reproducer,
                                     --list-oracles names the invariants
  hva report <exp> --store FILE [--allow-partial]
                                     render one experiment from a saved scan
                                     (exp: table1 table2 fig8 fig9 fig10
                                      fig16..fig21 stats autofix mitigations
                                      rollout churn aux all; --allow-partial
                                      keeps intact segments of a damaged
                                      v1 store and reports the rest)
  hva store inspect <FILE> [--allow-partial]
                                     print a store's format, provenance, and
                                     per-segment summary table
  hva store verify <FILE>            strict integrity check (checksums,
                                     framing, footers); non-zero on corruption
  hva store migrate <SRC> <DST> [--allow-partial]
                                     rewrite any store as a v1 binary store
  hva store export <SRC> <DST> [--allow-partial]
                                     export any store as v0 JSON interchange
                                     (the only command that writes JSON;
                                      scan, scan-warc and migrate refuse a
                                      .json destination)
  hva repro [--seed N] [--scale F] [--threads N] [--out FILE] [--json FILE]
                                     scan + print every experiment
                                     (+ write EXPERIMENTS-style markdown
                                      and/or a machine-readable JSON dump)
  hva scan-warc <DIR> [--store FILE] scan on-disk WARC/CDXJ archives (as
                                     exported by gen --warc, or real Common
                                     Crawl extracts in the same layout);
                                     --store streams a v1 binary store,
                                     replacing an existing one
  hva explain <VIOLATION|all>        explain a violation: parser behaviour,
                                     attack, and fix (e.g. hva explain DM3)
  hva serve [--addr HOST:PORT] [--threads N] [--max-body BYTES]
            [--queue-depth N] [--store FILE]
                                     serve the /v1 HTTP API (check, fix,
                                     explain, report, store summary, plus
                                     /healthz and /metricsz); --store loads
                                     a saved scan for the report endpoints
  hva help                           show this message

DEFAULTS: --seed 4740657 (0x485631), --scale 0.05, --threads = cores,
          --addr 127.0.0.1:8077, --max-body 1048576, --queue-depth 64,
          --cases 1000, --regress-dir tests/fixtures/regressions
";

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Check {
        file: PathBuf,
        json: bool,
    },
    Fix {
        file: PathBuf,
        out: Option<PathBuf>,
    },
    Gen {
        seed: u64,
        scale: f64,
        out: PathBuf,
        domains: usize,
        year: Option<u16>,
        warc: bool,
    },
    Scan {
        seed: u64,
        scale: f64,
        threads: usize,
        store: Option<PathBuf>,
        metrics: bool,
        faults: Option<FaultPlan>,
        resume: bool,
        overwrite: bool,
    },
    Chaos {
        seed: u64,
        scale: f64,
        faults: FaultPlan,
        threads: usize,
    },
    Fuzz {
        seed: u64,
        cases: u64,
        time_budget: Option<u64>,
        oracle: Option<String>,
        regress_dir: PathBuf,
        replay: Option<PathBuf>,
        list_oracles: bool,
    },
    Report {
        experiment: String,
        store: PathBuf,
        allow_partial: bool,
    },
    Store {
        action: StoreAction,
    },
    Repro {
        seed: u64,
        scale: f64,
        threads: usize,
        out: Option<PathBuf>,
        json: Option<PathBuf>,
    },
    ScanWarc {
        dir: PathBuf,
        store: Option<PathBuf>,
    },
    Explain {
        what: String,
    },
    Serve {
        addr: String,
        threads: usize,
        max_body: usize,
        queue_depth: usize,
        store: Option<PathBuf>,
    },
    Help,
}

/// `hva store <action>` — maintenance verbs over saved result stores.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreAction {
    Inspect { file: PathBuf, allow_partial: bool },
    Verify { file: PathBuf },
    Migrate { src: PathBuf, dst: PathBuf, allow_partial: bool },
    Export { src: PathBuf, dst: PathBuf, allow_partial: bool },
}

const DEFAULT_SEED: u64 = 0x48_56_31;
const DEFAULT_SCALE: f64 = 0.05;

pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter().map(String::as_str);
    let cmd = it.next().ok_or("missing subcommand")?;
    let rest: Vec<&str> = it.collect();
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "check" => {
            let (positional, flags) = split(&rest)?;
            let file = positional.first().ok_or("check: missing <file>")?;
            Ok(Command::Check { file: PathBuf::from(file), json: flags.has("json") })
        }
        "fix" => {
            let (positional, flags) = split(&rest)?;
            let file = positional.first().ok_or("fix: missing <file>")?;
            Ok(Command::Fix {
                file: PathBuf::from(file),
                out: flags.get("o").or_else(|| flags.get("out")).map(PathBuf::from),
            })
        }
        "gen" => {
            let (_, flags) = split(&rest)?;
            Ok(Command::Gen {
                seed: flags.num("seed", DEFAULT_SEED)?,
                scale: flags.float("scale", DEFAULT_SCALE)?,
                out: flags.get("out").map(PathBuf::from).unwrap_or_else(|| "corpus-out".into()),
                domains: flags.num("domains", 10)? as usize,
                year: match flags.get("year") {
                    Some(v) => Some(v.parse().map_err(|_| format!("gen: bad --year value {v}"))?),
                    None => None,
                },
                warc: flags.has("warc"),
            })
        }
        "scan" => {
            let (_, flags) = split(&rest)?;
            let resume = flags.has("resume");
            let overwrite = flags.has("overwrite");
            if resume && overwrite {
                return Err("scan: --resume and --overwrite are mutually exclusive".into());
            }
            let store = flags.get("store").map(|p| v1_destination("scan", p)).transpose()?;
            if resume && store.is_none() {
                return Err("scan: --resume requires --store FILE".into());
            }
            Ok(Command::Scan {
                seed: flags.num("seed", DEFAULT_SEED)?,
                scale: flags.float("scale", DEFAULT_SCALE)?,
                threads: flags.num("threads", 0)? as usize,
                store,
                metrics: flags.has("metrics"),
                faults: match flags.get("inject-faults") {
                    Some(spec) => Some(FaultPlan::parse(&spec).map_err(|e| format!("scan: {e}"))?),
                    None => None,
                },
                resume,
                overwrite,
            })
        }
        "chaos" => {
            let (_, flags) = split(&rest)?;
            let faults = match flags.get("faults") {
                Some(spec) => FaultPlan::parse(&spec).map_err(|e| format!("chaos: {e}"))?,
                // Default: the corpus default seed at a 10% fault rate.
                None => FaultPlan::new(DEFAULT_SEED, 0.1).expect("static plan is valid"),
            };
            Ok(Command::Chaos {
                seed: flags.num("seed", DEFAULT_SEED)?,
                scale: flags.float("scale", DEFAULT_SCALE)?,
                faults,
                threads: flags.num("threads", 0)? as usize,
            })
        }
        "fuzz" => {
            let (_, flags) = split(&rest)?;
            let time_budget = match flags.get("time-budget") {
                Some(v) => Some(
                    v.parse::<u64>().map_err(|_| format!("fuzz: bad --time-budget value {v}"))?,
                ),
                None => None,
            };
            Ok(Command::Fuzz {
                seed: flags.num("seed", DEFAULT_SEED)?,
                cases: flags.num("cases", 1000)?,
                time_budget,
                oracle: flags.get("oracle"),
                regress_dir: flags
                    .get("regress-dir")
                    .map(PathBuf::from)
                    .unwrap_or_else(|| "tests/fixtures/regressions".into()),
                replay: flags.get("replay").map(PathBuf::from),
                list_oracles: flags.has("list-oracles"),
            })
        }
        "report" => {
            let (positional, flags) = split(&rest)?;
            let experiment = positional.first().ok_or("report: missing <experiment>")?;
            let store = flags.get("store").ok_or("report: missing --store FILE")?;
            Ok(Command::Report {
                experiment: experiment.to_string(),
                store: PathBuf::from(store),
                allow_partial: flags.has("allow-partial"),
            })
        }
        "store" => {
            let (positional, flags) = split(&rest)?;
            let action = positional
                .first()
                .ok_or("store: missing action (inspect | verify | migrate | export)")?;
            let allow_partial = flags.has("allow-partial");
            let action = match *action {
                "inspect" => StoreAction::Inspect {
                    file: positional.get(1).ok_or("store inspect: missing <FILE>")?.into(),
                    allow_partial,
                },
                "verify" => StoreAction::Verify {
                    file: positional.get(1).ok_or("store verify: missing <FILE>")?.into(),
                },
                "migrate" => StoreAction::Migrate {
                    src: positional.get(1).ok_or("store migrate: missing <SRC>")?.into(),
                    dst: v1_destination(
                        "store migrate",
                        *positional.get(2).ok_or("store migrate: missing <DST>")?,
                    )?,
                    allow_partial,
                },
                "export" => StoreAction::Export {
                    src: positional.get(1).ok_or("store export: missing <SRC>")?.into(),
                    dst: positional.get(2).ok_or("store export: missing <DST>")?.into(),
                    allow_partial,
                },
                other => {
                    return Err(format!(
                        "store: unknown action {other} (inspect | verify | migrate | export)"
                    ))
                }
            };
            Ok(Command::Store { action })
        }
        "scan-warc" => {
            let (positional, flags) = split(&rest)?;
            let dir = positional.first().ok_or("scan-warc: missing <DIR>")?;
            Ok(Command::ScanWarc {
                dir: PathBuf::from(dir),
                store: flags.get("store").map(|p| v1_destination("scan-warc", p)).transpose()?,
            })
        }
        "explain" => {
            let (positional, _) = split(&rest)?;
            let what = positional.first().ok_or("explain: missing <VIOLATION|all>")?;
            Ok(Command::Explain { what: what.to_string() })
        }
        "serve" => {
            let (_, flags) = split(&rest)?;
            let queue_depth = flags.num("queue-depth", 64)? as usize;
            if queue_depth == 0 {
                return Err("serve: --queue-depth must be positive".into());
            }
            Ok(Command::Serve {
                addr: flags.get("addr").unwrap_or_else(|| "127.0.0.1:8077".to_owned()),
                threads: flags.num("threads", 0)? as usize,
                max_body: flags.num("max-body", 1 << 20)? as usize,
                queue_depth,
                store: flags.get("store").map(PathBuf::from),
            })
        }
        "repro" => {
            let (_, flags) = split(&rest)?;
            Ok(Command::Repro {
                seed: flags.num("seed", DEFAULT_SEED)?,
                scale: flags.float("scale", DEFAULT_SCALE)?,
                threads: flags.num("threads", 0)? as usize,
                out: flags.get("out").map(PathBuf::from),
                json: flags.get("json").map(PathBuf::from),
            })
        }
        other => Err(format!("unknown subcommand: {other}")),
    }
}

/// Scans and migrations write only the v1 binary store; v0 JSON is an
/// export. A `.json` destination is refused before any work starts.
fn v1_destination(cmd: &str, path: impl Into<PathBuf>) -> Result<PathBuf, String> {
    let path = path.into();
    if path.extension().is_some_and(|e| e.eq_ignore_ascii_case("json")) {
        return Err(format!(
            "{cmd}: {} requires a v1 binary store, but .json names v0 JSON; \
             write a .hvs store and convert it with `hva store export <STORE> <FILE.json>`",
            path.display()
        ));
    }
    Ok(path)
}

/// Parsed flags: `--key value`, `--key` (boolean), `-o value`.
pub struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    pub fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    pub fn get(&self, key: &str) -> Option<String> {
        self.pairs.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.clone())
    }

    pub fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| format!("bad --{key} value: {v}")),
            None => Ok(default),
        }
    }

    pub fn float(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            Some(v) => {
                let f: f64 = v.parse().map_err(|_| format!("bad --{key} value: {v}"))?;
                if !(0.0..=1.0).contains(&f) || f == 0.0 {
                    return Err(format!("--{key} must be in (0, 1], got {f}"));
                }
                Ok(f)
            }
            None => Ok(default),
        }
    }
}

/// Split args into positional values and flag pairs. A flag's value is the
/// next token unless that token is itself a flag (then it's boolean).
fn split<'a>(rest: &[&'a str]) -> Result<(Vec<&'a str>, Flags), String> {
    let mut positional = Vec::new();
    let mut pairs = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let tok = rest[i];
        if let Some(key) = tok.strip_prefix("--").or_else(|| tok.strip_prefix('-')) {
            if key.is_empty() {
                return Err(format!("bad flag: {tok}"));
            }
            let value = rest.get(i + 1).filter(|v| !v.starts_with('-')).map(|v| v.to_string());
            if value.is_some() {
                i += 1;
            }
            pairs.push((key.to_string(), value));
        } else {
            positional.push(tok);
        }
        i += 1;
    }
    Ok((positional, Flags { pairs }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn check_command() {
        assert_eq!(
            p(&["check", "x.html"]).unwrap(),
            Command::Check { file: "x.html".into(), json: false }
        );
        assert_eq!(
            p(&["check", "x.html", "--json"]).unwrap(),
            Command::Check { file: "x.html".into(), json: true }
        );
    }

    #[test]
    fn fix_with_output() {
        assert_eq!(
            p(&["fix", "a.html", "-o", "b.html"]).unwrap(),
            Command::Fix { file: "a.html".into(), out: Some("b.html".into()) }
        );
    }

    #[test]
    fn scan_defaults() {
        match p(&["scan"]).unwrap() {
            Command::Scan { seed, scale, threads, store, metrics, faults, resume, overwrite } => {
                assert_eq!(seed, 0x48_56_31);
                assert!((scale - 0.05).abs() < 1e-12);
                assert_eq!(threads, 0);
                assert!(store.is_none());
                assert!(!metrics);
                assert!(faults.is_none());
                assert!(!resume);
                assert!(!overwrite);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scan_resume_and_overwrite_flags() {
        match p(&["scan", "--store", "s.hvs", "--resume"]).unwrap() {
            Command::Scan { resume, overwrite, store, .. } => {
                assert!(resume);
                assert!(!overwrite);
                assert_eq!(store, Some("s.hvs".into()));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            p(&["scan", "--store", "s.hvs", "--overwrite"]).unwrap(),
            Command::Scan { overwrite: true, .. }
        ));
        // Contradictory or incomplete combinations fail at parse time.
        assert!(p(&["scan", "--store", "s.hvs", "--resume", "--overwrite"]).is_err());
        assert!(p(&["scan", "--resume"]).is_err());
    }

    #[test]
    fn scan_inject_faults() {
        match p(&["scan", "--inject-faults", "7:0.25"]).unwrap() {
            Command::Scan { faults, .. } => {
                assert_eq!(faults, Some(FaultPlan { seed: 7, rate: 0.25 }));
            }
            other => panic!("{other:?}"),
        }
        // Malformed specs are rejected at parse time, not mid-scan.
        assert!(p(&["scan", "--inject-faults", "7"]).is_err());
        assert!(p(&["scan", "--inject-faults", "x:0.5"]).is_err());
        assert!(p(&["scan", "--inject-faults", "7:1.5"]).is_err());
    }

    #[test]
    fn chaos_defaults_and_flags() {
        match p(&["chaos"]).unwrap() {
            Command::Chaos { seed, scale, faults, threads } => {
                assert_eq!(seed, 0x48_56_31);
                assert!((scale - 0.05).abs() < 1e-12);
                assert_eq!(faults, FaultPlan { seed: 0x48_56_31, rate: 0.1 });
                assert_eq!(threads, 0);
            }
            other => panic!("{other:?}"),
        }
        match p(&["chaos", "--faults", "3:0.5", "--scale", "0.002", "--threads", "4"]).unwrap() {
            Command::Chaos { faults, threads, .. } => {
                assert_eq!(faults, FaultPlan { seed: 3, rate: 0.5 });
                assert_eq!(threads, 4);
            }
            other => panic!("{other:?}"),
        }
        assert!(p(&["chaos", "--faults", "bogus"]).is_err());
    }

    #[test]
    fn scan_metrics_flag() {
        match p(&["scan", "--metrics", "--threads", "2"]).unwrap() {
            Command::Scan { threads, metrics, .. } => {
                assert!(metrics);
                assert_eq!(threads, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn repro_flags() {
        match p(&["repro", "--seed", "7", "--scale", "0.5", "--threads", "4"]).unwrap() {
            Command::Repro { seed, scale, threads, .. } => {
                assert_eq!(seed, 7);
                assert!((scale - 0.5).abs() < 1e-12);
                assert_eq!(threads, 4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scale_bounds_enforced() {
        assert!(p(&["scan", "--scale", "2.0"]).is_err());
        assert!(p(&["scan", "--scale", "0"]).is_err());
    }

    #[test]
    fn report_requires_store() {
        assert!(p(&["report", "fig8"]).is_err());
        assert_eq!(
            p(&["report", "fig8", "--store", "s.json"]).unwrap(),
            Command::Report {
                experiment: "fig8".into(),
                store: "s.json".into(),
                allow_partial: false
            }
        );
        assert!(matches!(
            p(&["report", "all", "--store", "s.hvs", "--allow-partial"]).unwrap(),
            Command::Report { allow_partial: true, .. }
        ));
    }

    #[test]
    fn store_actions_parse() {
        assert_eq!(
            p(&["store", "inspect", "s.hvs"]).unwrap(),
            Command::Store {
                action: StoreAction::Inspect { file: "s.hvs".into(), allow_partial: false }
            }
        );
        assert_eq!(
            p(&["store", "inspect", "s.hvs", "--allow-partial"]).unwrap(),
            Command::Store {
                action: StoreAction::Inspect { file: "s.hvs".into(), allow_partial: true }
            }
        );
        assert_eq!(
            p(&["store", "verify", "s.hvs"]).unwrap(),
            Command::Store { action: StoreAction::Verify { file: "s.hvs".into() } }
        );
        assert_eq!(
            p(&["store", "migrate", "s.json", "s.hvs"]).unwrap(),
            Command::Store {
                action: StoreAction::Migrate {
                    src: "s.json".into(),
                    dst: "s.hvs".into(),
                    allow_partial: false,
                }
            }
        );
        assert_eq!(
            p(&["store", "export", "s.hvs", "out.json"]).unwrap(),
            Command::Store {
                action: StoreAction::Export {
                    src: "s.hvs".into(),
                    dst: "out.json".into(),
                    allow_partial: false,
                }
            }
        );
        assert!(p(&["store"]).is_err());
        assert!(p(&["store", "inspect"]).is_err());
        assert!(p(&["store", "migrate", "a"]).is_err());
        assert!(p(&["store", "frobnicate", "x"]).is_err());
    }

    /// Every v1 writer refuses a `.json` destination at parse time and
    /// points at the one JSON writer; reading JSON stays fine.
    #[test]
    fn v1_writers_refuse_json_destinations() {
        for args in [
            &["scan", "--store", "s.json"][..],
            &["scan", "--store", "s.json", "--resume"],
            &["scan", "--store", "S.JSON", "--overwrite"],
            &["scan-warc", "dir", "--store", "w.json"],
            &["store", "migrate", "s.hvs", "out.json"],
        ] {
            let err = p(args).unwrap_err();
            assert!(err.contains("requires a v1 binary store"), "{args:?}: {err}");
            assert!(err.contains("hva store export"), "{args:?}: {err}");
        }
        assert!(matches!(
            p(&["scan-warc", "dir", "--store", "w.hvs"]).unwrap(),
            Command::ScanWarc { store: Some(_), .. }
        ));
        assert!(p(&["store", "export", "s.hvs", "out.json"]).is_ok());
        assert!(p(&["report", "fig8", "--store", "s.json"]).is_ok());
        assert!(p(&["serve", "--store", "s.json"]).is_ok());
    }

    #[test]
    fn serve_defaults_and_flags() {
        assert_eq!(
            p(&["serve"]).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:8077".into(),
                threads: 0,
                max_body: 1 << 20,
                queue_depth: 64,
                store: None,
            }
        );
        match p(&[
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--threads",
            "4",
            "--max-body",
            "4096",
            "--queue-depth",
            "8",
            "--store",
            "s.json",
        ])
        .unwrap()
        {
            Command::Serve { addr, threads, max_body, queue_depth, store } => {
                assert_eq!(addr, "0.0.0.0:9000");
                assert_eq!(threads, 4);
                assert_eq!(max_body, 4096);
                assert_eq!(queue_depth, 8);
                assert_eq!(store, Some("s.json".into()));
            }
            other => panic!("{other:?}"),
        }
        assert!(p(&["serve", "--queue-depth", "0"]).is_err());
        assert!(p(&["serve", "--max-body", "lots"]).is_err());
    }

    #[test]
    fn fuzz_defaults_and_flags() {
        assert_eq!(
            p(&["fuzz"]).unwrap(),
            Command::Fuzz {
                seed: 0x48_56_31,
                cases: 1000,
                time_budget: None,
                oracle: None,
                regress_dir: "tests/fixtures/regressions".into(),
                replay: None,
                list_oracles: false,
            }
        );
        match p(&[
            "fuzz",
            "--seed",
            "9",
            "--cases",
            "50000",
            "--time-budget",
            "60",
            "--oracle",
            "tokenizer-equivalence",
            "--replay",
            "repro.html",
        ])
        .unwrap()
        {
            Command::Fuzz { seed, cases, time_budget, oracle, replay, .. } => {
                assert_eq!(seed, 9);
                assert_eq!(cases, 50000);
                assert_eq!(time_budget, Some(60));
                assert_eq!(oracle.as_deref(), Some("tokenizer-equivalence"));
                assert_eq!(replay, Some("repro.html".into()));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            p(&["fuzz", "--list-oracles"]).unwrap(),
            Command::Fuzz { list_oracles: true, .. }
        ));
        assert!(p(&["fuzz", "--time-budget", "soon"]).is_err());
    }

    #[test]
    fn unknown_subcommand_rejected() {
        assert!(p(&["bogus"]).is_err());
        assert!(p(&[]).is_err());
    }
}
