//! End-to-end benchmark of the html-violations workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload corpus-scan|check-serve|deep-serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its inputs from the seed, runs them against the
//! release build for about `--seconds`, checks the outputs, and prints
//! every metric by name with its unit and sample count. The last line of
//! stdout is one JSON object: with `--trace 0` the end-to-end metrics
//! declared in `BENCHMARK.json`, with `--trace 1` the per-layer ones from
//! a separate traced replay. A failed correctness gate makes the exit code
//! 1; a run that cannot measure at all exits 2 without a result line.

mod alloc;
mod check_serve;
mod client;
mod corpus_scan;
mod deep_serve;
mod docs;
mod layers;
mod loadgen;
mod metrics;
mod procfs;
mod server;
mod sha256;
mod stats;
mod trace;

use metrics::Metrics;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The metric declarations the result line must match.
const DECLARED: &str = include_str!("../../BENCHMARK.json");
/// Workload parameters: seeds, scales, the ladder, limits, references.
const CONFIG: &str = include_str!("../bench.json");

/// What every workload gets.
pub struct Ctx {
    pub workload: String,
    /// The repository checkout.
    pub root: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads and connections: the machine's parallelism.
    pub threads: usize,
    pub cfg: Value,
    /// Scratch space for stores, removed when the run ends.
    pub tmp: PathBuf,
    /// Where results and spans are written.
    pub out: PathBuf,
}

impl Ctx {
    /// A number from the workload's section of `bench.json`.
    pub fn num(&self, section: &str, key: &str) -> Result<f64, String> {
        self.cfg
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("bench.json: missing number {section}.{key}"))
    }

    /// A value from the workload's section of `bench.json`.
    pub fn get(&self, section: &str, key: &str) -> Result<&Value, String> {
        self.cfg
            .get(section)
            .and_then(|s| s.get(key))
            .ok_or_else(|| format!("bench.json: missing {section}.{key}"))
    }

    /// A list of numbers from the workload's section of `bench.json`.
    pub fn nums(&self, section: &str, key: &str) -> Result<Vec<f64>, String> {
        self.get(section, key)?
            .as_array()
            .and_then(|a| a.iter().map(Value::as_f64).collect())
            .ok_or_else(|| format!("bench.json: {section}.{key} is not a list of numbers"))
    }

    /// Write the spans of a traced run next to its result.
    pub fn write_spans(&self, tracers: &[&trace::Tracer]) -> Result<(), String> {
        let path = self.out.join(format!("{}-seed{}.spans.jsonl", self.workload, self.seed));
        let file = std::fs::File::create(&path)
            .map_err(|e| format!("creating {}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        let mut first_id = 0;
        for tr in tracers {
            tr.write_spans(&mut w, first_id).map_err(|e| format!("writing spans: {e}"))?;
            first_id += tr.spans().len();
        }
        std::io::Write::flush(&mut w).map_err(|e| format!("writing spans: {e}"))
    }

    /// Build `hva` (a no-op once built) and return its path.
    pub fn hva(&self) -> Result<PathBuf, String> {
        server::build_hva(&self.root)
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: pages analyzed or requests sent.
    pub attempted: u64,
    /// Failed operations, gate failures included.
    pub failed: u64,
    /// One line per failed correctness gate.
    pub gate_failures: Vec<String>,
    pub metrics: Metrics,
    /// Free-form lines printed with the result (what was measured how).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a failed gate; it also counts as a failed operation.
    pub fn gate(&mut self, what: String) {
        self.failed += 1;
        self.gate_failures.push(what);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(cfg: &Value) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: cfg.get("default_seed").and_then(Value::as_u64).unwrap_or(1),
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? != "0",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Declared metric names and units for one section of `BENCHMARK.json`.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let v: Value = serde_json::from_str(DECLARED).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    v.get(section)
        .and_then(Value::as_array)
        .map(|list| {
            list.iter()
                .filter_map(|m| {
                    Some((m.get("name")?.as_str()?.to_owned(), m.get("unit")?.as_str()?.to_owned()))
                })
                .collect()
        })
        .ok_or_else(|| format!("BENCHMARK.json: no {section} list"))
}

/// Identify the code measured: the git commit when the checkout has one,
/// and always a digest of the sources the benchmark builds.
fn provenance(root: &Path) -> (String, String) {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success() && root.join(".git").exists())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "e2ebench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock", "e2ebench/bench.json"].map(|f| root.join(f)));
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            all.extend_from_slice(f.strip_prefix(root).unwrap_or(f).to_string_lossy().as_bytes());
            all.push(0);
            all.extend_from_slice(&bytes);
        }
    }
    (commit, sha256::hex_digest(&all))
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect_files(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// A JSON number; a non-finite value (a tail made of failures) is written
/// as the largest finite double, the worst value a result can carry.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let cfg: Value = serde_json::from_str(CONFIG).map_err(|e| format!("bench.json: {e}"))?;
    let args = parse_args(&cfg)?;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("benchmark directory has no parent")?
        .to_path_buf();
    let tag = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let ctx = Ctx {
        workload: args.workload.clone(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        tmp: root.join(".bench_tmp").join(format!("{tag}-{}", std::process::id())),
        out: root.join(".bench_out"),
        root,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        cfg,
    };
    std::fs::create_dir_all(&ctx.tmp)
        .map_err(|e| format!("creating {}: {e}", ctx.tmp.display()))?;
    std::fs::create_dir_all(&ctx.out)
        .map_err(|e| format!("creating {}: {e}", ctx.out.display()))?;

    let load_start = procfs::loadavg();
    let result = match args.workload.as_str() {
        "corpus-scan" => corpus_scan::run(&ctx),
        "check-serve" => check_serve::run(&ctx),
        "deep-serve" => deep_serve::run(&ctx),
        other => Err(format!("unknown workload {other:?} (corpus-scan, check-serve, deep-serve)")),
    };
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    let mut outcome = result?;
    let load_end = procfs::loadavg();

    // The result must carry exactly the declared metrics. Per-layer
    // metrics of layers a workload does not exercise read 0.
    let section = if ctx.trace { "per_layer" } else { "end_to_end" };
    let declared = declared(section)?;
    for name in outcome.metrics.0.keys() {
        if !declared.iter().any(|(d, _)| d == name) {
            return Err(format!("workload reported undeclared metric {name}"));
        }
    }
    let mut lines = Vec::new();
    let mut json = Vec::new();
    for (name, unit) in &declared {
        let m = match outcome.metrics.0.get(name) {
            Some(m) => *m,
            None if ctx.trace => metrics::Metric { value: 0.0, samples: 0 },
            None => return Err(format!("workload did not measure {name}")),
        };
        let note = if m.samples == 0 && ctx.trace { "  (layer not exercised)" } else { "" };
        lines.push(format!("  {name:<44} {:>16.4} {unit:<12} n={}{note}", m.value, m.samples));
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(m.value)
        ));
    }

    let (commit, source) = provenance(&ctx.root);
    let seed_role = if Some(ctx.seed) == ctx.cfg.get("default_seed").and_then(Value::as_u64) {
        "default"
    } else if Some(ctx.seed) == ctx.cfg.get("holdout_seed").and_then(Value::as_u64) {
        "hold-out"
    } else {
        "other"
    };
    let prov = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seed_role\": \"{seed_role}\", \"seconds\": {}, \
         \"trace\": {}, \"commit\": \"{commit}\", \"source_sha256\": \"{source}\", \"nproc\": {}, \
         \"loadavg_start\": \"{load_start}\", \"loadavg_end\": \"{load_end}\"}}",
        args.workload, ctx.seed, ctx.seconds, ctx.trace, ctx.threads
    );
    let correct = outcome.gate_failures.is_empty();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    );

    println!("{} ({section}, seed {}, {} s)", args.workload, ctx.seed, ctx.seconds);
    for line in &lines {
        println!("{line}");
    }
    outcome.notes.push(format!(
        "error rate {:.6} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    ));
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for gate in &outcome.gate_failures {
        println!("  GATE FAILED: {gate}");
    }
    println!("provenance {prov}");
    let record = format!("{{\"provenance\": {prov}, \"result\": {result}}}\n");
    let _ = std::fs::write(ctx.out.join(format!("{tag}.json")), record);
    println!("{result}");
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::from(1) })
}
