//! `corpus-scan`: the paper's study as `hva repro` runs it. Scan the seeded
//! archive with every snapshot into a v1 store (telemetry on), load it with
//! its aggregate index, and render every experiment; repeat for the run.

use crate::layers::{self, Replay};
use crate::stats::{median, percentile};
use crate::trace::{layer_times, paired, Tracer};
use crate::{procfs, sha256, Ctx, Outcome};
use hv_corpus::{Archive, CorpusConfig, DomainSnapshot, Snapshot};
use hv_pipeline::format::StoreWriter;
use hv_pipeline::{scan, scan_streamed, AggregateIndex, IndexedStore, ResultStore, ScanOptions};
use std::path::Path;
use std::time::Instant;

const SECTION: &str = "corpus_scan";
/// Archive builds timed for `setup_s`: each takes well under a
/// millisecond, so many are needed for a steady median.
const SETUP_REPEATS: usize = 21;

/// One study: scan, load, render.
struct Study {
    secs: f64,
    pages_listed: u64,
    pages_analyzed: u64,
    quarantined: u64,
    renders: Vec<String>,
    store: ResultStore,
}

fn study(archive: &Archive, opts: ScanOptions, path: &Path) -> Result<Study, String> {
    let t = Instant::now();
    let summary = scan_streamed(archive, &Snapshot::ALL, opts.overwrite(true), path)
        .map_err(|e| format!("scan_streamed: {e}"))?;
    let indexed = IndexedStore::load(path).map_err(|e| format!("loading the study store: {e}"))?;
    let renders = render_all(&indexed);
    let secs = t.elapsed().as_secs_f64();
    let m = summary.metrics.ok_or("scan_streamed returned no metrics")?;
    Ok(Study {
        secs,
        pages_listed: m.pages_listed,
        pages_analyzed: m.pages_analyzed,
        quarantined: summary.quarantined as u64,
        renders,
        store: indexed.into_store(),
    })
}

fn render_all(store: &IndexedStore) -> Vec<String> {
    hv_report::EXPERIMENTS
        .iter()
        .map(|name| hv_report::render(name, store).unwrap_or_default())
        .collect()
}

/// The store's identity: SHA-256 of its v1 bytes as `save_v1` writes them
/// without the run-dependent telemetry block.
fn store_digest(store: &ResultStore, path: &Path) -> Result<String, String> {
    let mut bare = store.clone();
    bare.metrics = None;
    bare.save_v1(path).map_err(|e| format!("save_v1: {e}"))?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(sha256::hex_digest(&bytes))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = ctx.num(SECTION, "scale")?;
    let cfg = CorpusConfig { seed: ctx.seed, scale };
    // Set-up: building the archive (calibration solve + top list).
    let mut setup = Vec::new();
    let mut archive = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        archive = Some(Archive::new(cfg));
        setup.push(t.elapsed().as_secs_f64());
    }
    let archive = archive.expect("SETUP_REPEATS > 0");
    let opts = ScanOptions::new().threads(ctx.threads).collect_metrics(true);
    let path = ctx.tmp.join("study.hvs");
    if ctx.trace {
        return traced(ctx, &archive, opts, &path);
    }

    // One study warms the allocator and the page cache; it is not timed.
    study(&archive, opts, &path)?;
    procfs::reset_peak_rss();
    let cpu0 = procfs::own_cpu()?;
    let t0 = Instant::now();
    let mut studies = Vec::new();
    while studies.is_empty() || t0.elapsed().as_secs_f64() < ctx.seconds {
        studies.push(study(&archive, opts, &path)?);
    }
    let cpu = procfs::own_cpu()?.own_s - cpu0.own_s;
    let rss = procfs::peak_rss_mib("self").unwrap_or(0.0);

    let n = studies.len();
    let secs: Vec<f64> = studies.iter().map(|s| s.secs).collect();
    let rates: Vec<f64> = studies.iter().map(|s| s.pages_analyzed as f64 / s.secs).collect();
    let analyzed: u64 = studies.iter().map(|s| s.pages_analyzed).sum();
    let mut sorted = secs.clone();
    sorted.sort_by(f64::total_cmp);

    let mut out = Outcome {
        attempted: studies.iter().map(|s| s.pages_listed).sum(),
        failed: studies.iter().map(|s| s.quarantined).sum(),
        ..Outcome::default()
    };
    out.metrics.put("setup_s", median(&setup), setup.len());
    out.metrics.put("throughput_per_s", median(&rates), n);
    out.metrics.put("throughput_per_cpu_s", analyzed as f64 / cpu, n);
    out.metrics.put("p50_ms", median(&secs) * 1e3, n);
    out.metrics.put("tail_ms", percentile(&sorted, 90.0) * 1e3, n);
    out.metrics.put("peak_rss_mib", rss, 1);
    out.notes.push(format!(
        "{n} studies of {} pages listed / {} analyzed at scale {scale}, {} threads; \
         throughput in pages; p50/tail are per study, tail = p90 of {n} studies",
        studies[0].pages_listed, studies[0].pages_analyzed, ctx.threads
    ));

    // Gates: every study rendered the same; the last store equals the
    // in-memory scan and, for a recorded (seed, scale), the reference.
    let last = studies.last().expect("at least one study");
    if studies.iter().any(|s| s.renders != last.renders) {
        out.gate("renders differ between studies of the same archive".to_owned());
    }
    if out.failed > 0 {
        out.gate(format!("{} pages quarantined in a clean scan", out.failed));
    }
    gate_against_oracle(ctx, &archive, last, &mut out)?;
    Ok(out)
}

fn gate_against_oracle(
    ctx: &Ctx,
    archive: &Archive,
    last: &Study,
    out: &mut Outcome,
) -> Result<(), String> {
    let oracle = scan(archive, ScanOptions::new().threads(ctx.threads));
    let oracle_renders = render_all(&IndexedStore::new(oracle.clone()));
    for (name, (got, want)) in
        hv_report::EXPERIMENTS.iter().zip(last.renders.iter().zip(&oracle_renders))
    {
        if got != want {
            out.gate(format!("experiment {name} renders differently from the in-memory scan"));
        }
    }
    let got = store_digest(&last.store, &ctx.tmp.join("canonical.hvs"))?;
    let want = store_digest(&oracle, &ctx.tmp.join("oracle.hvs"))?;
    if got != want {
        out.gate(format!("store sha256 {got} differs from the in-memory scan's {want}"));
    }
    // References are recorded for the configured scale, keyed by seed.
    let reference =
        ctx.get(SECTION, "store_sha256")?.get(&ctx.seed.to_string()).and_then(|v| v.as_str());
    match reference {
        Some(r) if r != got => {
            out.gate(format!("store sha256 {got} differs from the reference {r} for seed {}", ctx.seed))
        }
        Some(_) => out.notes.push(format!("store sha256 {got} matches the recorded reference")),
        None => out.notes.push(format!(
            "store sha256 {got} (no reference recorded for seed {}; checked against the in-memory scan)",
            ctx.seed
        )),
    }
    Ok(())
}

/// A page of the replay, in scan order.
struct PageRef {
    slot: usize,
    page: usize,
}

/// The traced run: one untraced scan for the end-to-end reference, then
/// the same page sequence replayed single-threaded through each layer,
/// untraced and traced in turn, then the store, index and report layers.
fn traced(ctx: &Ctx, archive: &Archive, opts: ScanOptions, path: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    study(archive, opts, path)?;
    let cpu0 = procfs::own_cpu()?;
    let t = Instant::now();
    let summary = scan_streamed(archive, &Snapshot::ALL, opts.overwrite(true), path)
        .map_err(|e| format!("scan_streamed: {e}"))?;
    let wall = t.elapsed().as_secs_f64();
    let cpu = procfs::own_cpu()?.own_s - cpu0.own_s;
    let listed = summary.metrics.as_ref().map_or(0, |m| m.pages_listed);
    out.metrics.put("pipeline.run.cpu_utilization", cpu / (wall * ctx.threads as f64), 1);

    // The page sequence: snapshot by snapshot, domain by domain, as the
    // streamed scan visits it. Each CDX lookup is a span.
    let mut cdx_tr = Tracer::new(true);
    let mut slots: Vec<DomainSnapshot> = Vec::new();
    let mut pages = Vec::new();
    for snap in Snapshot::ALL {
        for domain in archive.domains() {
            let item = slots.len() as u64;
            if let Some(cdx) = cdx_tr.span("corpus.cdx", item, || archive.cdx_lookup(domain, snap))
            {
                pages.extend((0..cdx.pages.len()).map(|page| PageRef { slot: slots.len(), page }));
                slots.push(cdx.snapshot);
            }
        }
    }
    let cdx = layer_times(cdx_tr.spans()).get("corpus.cdx").copied().unwrap_or_default();
    out.metrics.put(
        "corpus.cdx.ns_per_slot",
        cdx.total_ns as f64 / cdx.spans.max(1) as f64,
        cdx.spans as usize,
    );

    // The same pages untraced and traced: the difference is the tracing
    // overhead. A first untraced pass within a share of the run's seconds
    // sets how many pages the paired passes replay (five passes in all).
    let replay = |tr: &mut Tracer, limit: usize, budget: f64| -> (usize, f64) {
        let mut r = Replay::new(false);
        let t = Instant::now();
        let mut done = 0;
        for (i, p) in pages.iter().take(limit).enumerate() {
            let open = tr.enter("page", i as u64);
            let body =
                tr.span("corpus.fetch", i as u64, || archive.fetch_page(&slots[p.slot], p.page));
            r.doc(tr, i as u64, &body);
            tr.exit(open);
            done += 1;
            if t.elapsed().as_secs_f64() > budget {
                break;
            }
        }
        (done, t.elapsed().as_secs_f64())
    };
    let (n, _) = replay(&mut Tracer::new(false), pages.len(), ctx.seconds * 0.12);
    let (tr, untraced_s, traced_s) = paired(|tr| replay(tr, n, f64::INFINITY).1);
    out.metrics.put("trace.overhead_share", (traced_s - untraced_s) / untraced_s, n);
    layers::report(&tr, &mut out.metrics);
    let t = layer_times(tr.spans());
    let per_page = |name: &str| t.get(name).map_or(0.0, |l| l.total_ns as f64) / n.max(1) as f64;
    out.metrics.put("corpus.fetch.ns_per_page", per_page("corpus.fetch"), n);
    out.attempted = n as u64;

    // Store, index and report layers, on the in-memory scan's records.
    let store = scan(archive, ScanOptions::new().threads(ctx.threads));
    let seg_path = ctx.tmp.join("segments.hvs");
    let mut writer = StoreWriter::create(&seg_path, store.seed, store.scale, store.universe)
        .map_err(|e| format!("StoreWriter::create: {e}"))?;
    let mut seg_tr = Tracer::new(true);
    for (i, snap) in Snapshot::ALL.into_iter().enumerate() {
        let records: Vec<_> = store.by_snapshot(snap).cloned().collect();
        seg_tr
            .span("pipeline.format.write_segment", i as u64, || {
                writer.write_segment(snap, &records, &[])
            })
            .map_err(|e| format!("write_segment: {e}"))?;
    }
    writer.finish().map_err(|e| format!("finishing the store: {e}"))?;
    let seg = layer_times(seg_tr.spans())
        .get("pipeline.format.write_segment")
        .copied()
        .unwrap_or_default();
    out.metrics.put(
        "pipeline.format.write_ms_per_segment",
        seg.total_ns as f64 / 1e6 / seg.spans.max(1) as f64,
        seg.spans as usize,
    );
    let t = Instant::now();
    let loaded = ResultStore::load(&seg_path).map_err(|e| format!("loading: {e}"))?;
    out.metrics.put("pipeline.format.load_ms", t.elapsed().as_secs_f64() * 1e3, 1);
    let t = Instant::now();
    std::hint::black_box(AggregateIndex::build(&loaded));
    out.metrics.put("pipeline.aggregate.build_ms", t.elapsed().as_secs_f64() * 1e3, 1);
    let indexed = IndexedStore::new(loaded);
    let t = Instant::now();
    let renders = render_all(&indexed);
    out.metrics.put("report.render_all_ms", t.elapsed().as_secs_f64() * 1e3, renders.len());

    // Reconcile: the scan's path through the layers (CDX, fetch, decode,
    // parse, instrumented battery, segment writes), scaled from the replayed
    // pages to the whole study, against the untraced wall × threads.
    let on_path_per_page =
        ["corpus.fetch", "spec_html.decode", "spec_html.parse", "core.battery.instrumented"]
            .iter()
            .map(|name| per_page(name))
            .sum::<f64>();
    let attributed_s =
        (on_path_per_page * listed as f64 + cdx.total_ns as f64 + seg.total_ns as f64) / 1e9;
    let capacity_s = wall * ctx.threads as f64;
    out.metrics.put("pipeline.run.unattributed_share", 1.0 - attributed_s / capacity_s, 1);
    out.notes.push(format!(
        "reconcile: untraced scan {wall:.3} s wall x {} threads = {capacity_s:.3} s; traced layers on \
         the scan's path account for {attributed_s:.3} s ({n} of {listed} pages replayed single-threaded, \
         scaled); tracing overhead {:.1}% ({traced_s:.3} s traced vs {untraced_s:.3} s untraced)",
        ctx.threads,
        100.0 * (traced_s - untraced_s) / untraced_s
    ));
    ctx.write_spans(&[&cdx_tr, &tr, &seg_tr])?;
    Ok(out)
}
