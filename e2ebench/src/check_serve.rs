//! `check-serve`: `hva serve` under an open loop whose offered rate steps
//! up a fixed ladder. Bodies are corpus pages drawn by seed; the route mix
//! is mostly `POST /v1/check`, with shares of `POST /v1/fix` and
//! `GET /v1/report/{experiment}`.

use crate::layers::{self, Replay};
use crate::loadgen::{self, Due, Sent};
use crate::server::{self, ServerChild};
use crate::stats::{self, median, percentile, with_failures, StepVerdict};
use crate::trace::{layer_times, paired, Tracer};
use crate::{client, procfs, Ctx, Outcome};
use hv_core::{autofix, Battery};
use hv_corpus::rng::KeyedRng;
use hv_corpus::{Archive, CorpusConfig, Snapshot};
use hv_pipeline::IndexedStore;
use hv_server::api::v1::{CheckResponse, FixResponse};
use hv_server::handler::{Handler, Shared};
use hv_server::http::Request;
use hv_server::metrics::Metrics as ServerMetrics;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SECTION: &str = "check_serve";
/// Server starts timed for `setup_s`.
const SETUP_STARTS: usize = 5;
/// Distinct corpus pages in the request mix, and the archive they come from.
const BODIES: usize = 256;
const CORPUS_SCALE: f64 = 0.01;
/// Route mix: the rest are report requests.
const CHECK_SHARE: f64 = 0.8;
const FIX_SHARE: f64 = 0.1;
/// Untimed load before the ladder, at the first step's rate.
const WARMUP: Duration = Duration::from_secs(1);
/// Slices per ladder step, interleaved across steps.
const SLICES: usize = 5;
/// Lateness may rise this much over a slice before it counts as growing.
const LATE_SLACK_MS: f64 = 2.0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Route {
    Check,
    Fix,
    Report,
}

impl Route {
    fn span(self) -> &'static str {
        match self {
            Route::Check => "server.handle.check",
            Route::Fix => "server.handle.fix",
            Route::Report => "server.handle.report",
        }
    }
}

/// Every distinct request of the run, its expected reply body, and what
/// the in-process replay needs to rebuild it.
struct Table {
    bodies: Vec<String>,
    requests: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
    routes: Vec<(Route, String, usize)>,
}

/// `count` UTF-8 corpus pages drawn by seed from the archive generator.
fn corpus_bodies(seed: u64, scale: f64, count: usize) -> Result<Vec<String>, String> {
    let archive = Archive::new(CorpusConfig { seed, scale });
    let domains = archive.domains();
    let mut rng = KeyedRng::new(seed, &[0xB0D1]);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count * 100 {
        if out.len() == count {
            break;
        }
        let domain = &domains[(rng.next_u64() % domains.len() as u64) as usize];
        let snap = Snapshot::ALL[(rng.next_u64() % Snapshot::ALL.len() as u64) as usize];
        let Some(cdx) = archive.cdx_lookup(domain, snap) else { continue };
        let page = (rng.next_u64() % cdx.pages.len() as u64) as usize;
        if let Ok(text) = String::from_utf8(archive.fetch_page(&cdx.snapshot, page)) {
            out.push(text);
        }
    }
    if out.len() < count {
        return Err(format!("drew only {} UTF-8 pages of {count}", out.len()));
    }
    Ok(out)
}

/// Build the request table and the expected replies, in process. Each
/// `/v1/fix` reply is also re-checked: the repaired page must be free of
/// the kinds the repair claims to have eliminated.
fn table(ctx: &Ctx, store: &IndexedStore, out: &mut Outcome) -> Result<Table, String> {
    let bodies = corpus_bodies(ctx.seed, CORPUS_SCALE, BODIES)?;
    let mut t = Table {
        bodies: Vec::new(),
        requests: Vec::new(),
        expected: Vec::new(),
        routes: Vec::new(),
    };
    let mut battery = Battery::full();
    for (i, body) in bodies.iter().enumerate() {
        let report = battery.run_str(body);
        t.requests.push(client::post_html("/v1/check", body.as_bytes()));
        t.expected.push(json(&CheckResponse::from(&report))?);
        t.routes.push((Route::Check, "/v1/check".to_owned(), i));

        let fix = autofix::auto_fix(body);
        let recheck = battery.run_str(&fix.fixed_html).kinds();
        if let Some(k) = fix.eliminated().iter().find(|k| recheck.contains(k)) {
            out.gate(format!(
                "page {i}: /v1/fix claims to eliminate {} but the fixed page has it",
                k.id()
            ));
        }
        t.requests.push(client::post_html("/v1/fix", body.as_bytes()));
        t.expected.push(json(&FixResponse::from(&fix))?);
        t.routes.push((Route::Fix, "/v1/fix".to_owned(), i));
    }
    let names = ctx.get(SECTION, "report_experiments")?.as_array().ok_or("report_experiments")?;
    for name in names {
        let name = name.as_str().ok_or("report_experiments: not a string")?;
        let path = format!("/v1/report/{name}");
        let text = hv_report::render(name, store).ok_or_else(|| format!("no experiment {name}"))?;
        t.requests.push(client::get(&path));
        t.expected.push(text.into_bytes());
        t.routes.push((Route::Report, path, 0));
    }
    t.bodies = bodies;
    Ok(t)
}

fn json<T: serde::Serialize>(v: &T) -> Result<Vec<u8>, String> {
    serde_json::to_string(v).map(String::into_bytes).map_err(|e| e.to_string())
}

/// A seeded request index following the route mix.
fn pick(t: &Table, rng: &mut KeyedRng) -> usize {
    let bodies = t.bodies.len() as u64;
    let u = rng.unit();
    if u < CHECK_SHARE {
        2 * (rng.next_u64() % bodies) as usize
    } else if u < CHECK_SHARE + FIX_SHARE {
        2 * (rng.next_u64() % bodies) as usize + 1
    } else {
        let reports = (t.requests.len() - 2 * t.bodies.len()) as u64;
        2 * t.bodies.len() + (rng.next_u64() % reports) as usize
    }
}

/// One slice of a step: a short open loop at the step's rate.
struct Slice {
    sent: Vec<Sent>,
    schedule: Vec<Due>,
    elapsed_s: f64,
}

impl Slice {
    fn latencies(&self) -> Vec<f64> {
        with_failures(&self.sent.iter().map(|s| s.latency_ms).collect::<Vec<_>>())
    }

    fn late(&self) -> Vec<f64> {
        self.sent.iter().map(|s| s.late_ms).collect()
    }
}

/// One ladder step: its slices, which the run interleaves with the other
/// steps' so that a few seconds of host noise land on every step alike.
/// Each statistic is the median over the slices.
struct Step {
    rate: f64,
    slices: Vec<Slice>,
}

impl Step {
    fn sent(&self) -> impl Iterator<Item = &Sent> {
        self.slices.iter().flat_map(|s| s.sent.iter())
    }

    fn ok(&self) -> usize {
        self.sent().filter(|s| s.latency_ms.is_some()).count()
    }

    fn achieved_rps(&self) -> f64 {
        self.ok() as f64 / self.slices.iter().map(|s| s.elapsed_s).sum::<f64>()
    }

    fn median_of(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        median(&self.slices.iter().map(f).collect::<Vec<_>>())
    }

    fn p50_ms(&self) -> f64 {
        self.median_of(|s| percentile(&s.latencies(), 50.0))
    }

    /// p99, median over the slices.
    fn p99_ms(&self) -> f64 {
        self.median_of(|s| percentile(&s.latencies(), 99.0))
    }

    /// The highest percentile every slice supports with ten samples beyond.
    fn supported_tail(&self) -> Option<f64> {
        self.slices.iter().map(|s| s.sent.len()).min().and_then(stats::tail_percentile)
    }

    fn late_p99_ms(&self) -> f64 {
        self.median_of(|s| {
            let mut late = s.late();
            late.sort_by(f64::total_cmp);
            percentile(&late, 99.0)
        })
    }

    /// Lateness grows on the step when it grows within most slices.
    fn verdict(&self) -> StepVerdict {
        let growing =
            self.slices.iter().filter(|s| stats::lateness_grows(&s.late(), LATE_SLACK_MS)).count();
        StepVerdict { p99_ms: self.p99_ms(), late_grows: 2 * growing > self.slices.len() }
    }
}

/// Schedule and run one slice at `rate` for `span`; `key` seeds it.
fn slice(ctx: &Ctx, t: &Table, addr: &str, key: u64, rate: f64, span: Duration) -> Slice {
    let mut rng = KeyedRng::new(ctx.seed, &[0x57E9, key]);
    let count = (rate * span.as_secs_f64()).round() as usize;
    let schedule = loadgen::poisson_schedule(&mut rng, count, span, |r| pick(t, r));
    let start = Instant::now();
    let sent = loadgen::open_loop(addr, ctx.threads, &schedule, &t.requests, &t.expected);
    Slice { sent, schedule, elapsed_s: start.elapsed().as_secs_f64() }
}

/// The live part shared by both modes: start the server, warm it up and
/// walk the ladder.
struct Live {
    setup: Vec<f64>,
    steps: Vec<Step>,
    server_cpu_s: f64,
    peak_rss_mib: f64,
    /// Replies counted over warm-up and ladder.
    ok: usize,
    sent: usize,
    restarts: usize,
    shed: u64,
    panics: u64,
}

fn live(ctx: &Ctx, t: &Table, out: &mut Outcome) -> Result<Live, String> {
    let hva = ctx.hva()?;
    let args = vec![
        "--threads".to_owned(),
        ctx.threads.to_string(),
        "--store".to_owned(),
        store_path(ctx)?.to_string_lossy().into_owned(),
    ];
    let (mut srv, setup) = server::timed_starts(&hva, &args, SETUP_STARTS)?;
    let cpu0 = procfs::own_cpu()?.children_s;

    let ladder = ctx.nums(SECTION, "ladder_rps")?;
    let warm = slice(ctx, t, &srv.addr, 0, ladder[0], WARMUP);
    let mut steps: Vec<Step> =
        ladder.iter().map(|&rate| Step { rate, slices: Vec::new() }).collect();
    let span = Duration::from_secs_f64(ctx.seconds / (ladder.len() * SLICES) as f64);
    let mut restarts = 0;
    let mut peak_rss_mib: f64 = 0.0;
    for round in 0..SLICES {
        for (i, step) in steps.iter_mut().enumerate() {
            let key = 1 + (round * ladder.len() + i) as u64;
            step.slices.push(slice(ctx, t, &srv.addr, key, step.rate, span));
            if srv.exited(Duration::ZERO).is_some() {
                // No request of this workload should abort the server; if
                // one did, its failures are already counted. Keep going.
                peak_rss_mib = peak_rss_mib.max(srv.stop());
                srv = ServerChild::start(&hva, &args)?;
                restarts += 1;
            }
            srv.sample_rss();
        }
    }
    let (shed, panics) = srv.shed_and_panics();
    let peak_rss_mib = peak_rss_mib.max(srv.stop());
    let server_cpu_s = procfs::own_cpu()?.children_s - cpu0;

    let all: Vec<&Sent> = warm.sent.iter().chain(steps.iter().flat_map(Step::sent)).collect();
    let ok = all.iter().filter(|s| s.latency_ms.is_some()).count();
    for s in all.iter().filter(|s| s.wrong).take(5) {
        out.gate(format!("{} replied with unexpected bytes", t.routes[s.request].1));
    }
    out.failed += all.iter().filter(|s| s.wrong).count().saturating_sub(5) as u64;
    out.attempted += all.len() as u64;
    out.failed += (all.len() - ok) as u64;
    Ok(Live {
        setup,
        sent: all.len(),
        steps,
        server_cpu_s,
        peak_rss_mib,
        ok,
        restarts,
        shed,
        panics,
    })
}

fn store_path(ctx: &Ctx) -> Result<std::path::PathBuf, String> {
    Ok(ctx.root.join(ctx.get(SECTION, "store")?.as_str().ok_or("check_serve.store is not a path")?))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let store =
        IndexedStore::load(&store_path(ctx)?).map_err(|e| format!("loading the store: {e}"))?;
    let t = table(ctx, &store, &mut out)?;
    let live = live(ctx, &t, &mut out)?;
    let limit = ctx.num(SECTION, "p99_limit_ms")?;
    let reference = ctx.num(SECTION, "reference_step")? as usize;

    for (i, s) in live.steps.iter().enumerate() {
        let v = s.verdict();
        out.notes.push(format!(
            "step {} at {:.0} rps: {} sent in {} slices, {} ok, achieved {:.1} rps, p50 {:.3} ms, \
             p99 {:.3} ms, late p99 {:.3} ms{}",
            i + 1,
            s.rate,
            s.sent().count(),
            s.slices.len(),
            s.ok(),
            s.achieved_rps(),
            s.p50_ms(),
            v.p99_ms,
            s.late_p99_ms(),
            if v.late_grows { ", lateness grows" } else { "" }
        ));
    }
    if ctx.trace {
        traced(ctx, &t, store, &live, &mut out)?;
        return Ok(out);
    }

    let verdicts: Vec<StepVerdict> = live.steps.iter().map(Step::verdict).collect();
    let max = stats::max_rps_step(&verdicts, limit);
    let r = &live.steps[reference];
    let n = r.sent().count();
    out.metrics.put("setup_s", median(&live.setup), live.setup.len());
    out.metrics.put(
        "throughput_per_s",
        max.map_or(0.0, |i| live.steps[i].achieved_rps()),
        max.map_or(0, |i| live.steps[i].sent().count()),
    );
    out.metrics.put("throughput_per_cpu_s", live.ok as f64 / live.server_cpu_s, live.ok);
    out.metrics.put("p50_ms", r.p50_ms(), n);
    out.metrics.put("tail_ms", r.p99_ms(), n);
    out.metrics.put("peak_rss_mib", live.peak_rss_mib, live.restarts + 1);
    out.notes.push(format!(
        "throughput = achieved rate at ladder step {} (p99 limit {limit} ms); p50 and tail (p99) at \
         reference step {} ({:.0} rps), medians over its slices (each supports up to p{}); {} of {} \
         replies ok over warm-up and ladder",
        max.map_or(0, |i| i + 1),
        reference + 1,
        r.rate,
        r.supported_tail().unwrap_or(50.0),
        live.ok,
        live.sent
    ));
    Ok(out)
}

/// The in-process request for table entry `i`.
fn request(t: &Table, i: usize) -> Request {
    let (route, path, body) = &t.routes[i];
    let (method, headers, body) = match route {
        Route::Report => ("GET", Vec::new(), Vec::new()),
        _ => (
            "POST",
            vec![("content-type".to_owned(), "text/html".to_owned())],
            t.bodies[*body].as_bytes().to_vec(),
        ),
    };
    Request { method: method.to_owned(), path: path.clone(), headers, body, keep_alive: true }
}

/// Per-layer metrics: the ladder's per-step latencies and server counters
/// from the live run, then the lowest step's requests replayed in process
/// through `Handler::handle` (untraced, then traced) and the bodies through
/// each parser and checker layer.
fn traced(
    ctx: &Ctx,
    t: &Table,
    store: IndexedStore,
    live: &Live,
    out: &mut Outcome,
) -> Result<(), String> {
    let m = &mut out.metrics;
    for (i, s) in live.steps.iter().enumerate() {
        let [p50, p99] =
            STEP_METRICS.get(i).ok_or("the ladder has more steps than declared metrics")?;
        m.put(p50, s.p50_ms(), s.sent().count());
        m.put(p99, s.p99_ms(), s.sent().count());
    }
    let reference = &live.steps[ctx.num(SECTION, "reference_step")? as usize];
    m.put("loadgen.late_p99_ms", reference.late_p99_ms(), reference.sent().count());
    m.put("server.restarts", live.restarts as f64, 1);
    m.put("server.shed", live.shed as f64, 1);
    m.put("server.panics", live.panics as f64, 1);

    let shared = Arc::new(Shared {
        store: Some(store),
        metrics: ServerMetrics::new(),
        max_body: hv_server::DEFAULT_MAX_BODY,
    });
    let lowest = &live.steps[0].slices[0];
    let requests: Vec<Request> = lowest.schedule.iter().map(|d| request(t, d.request)).collect();
    let handle_all = |tr: &mut Tracer| -> f64 {
        let mut handler = Handler::new(Arc::clone(&shared));
        let start = Instant::now();
        for (i, (req, due)) in requests.iter().zip(&lowest.schedule).enumerate() {
            let route = t.routes[due.request].0;
            let handled = tr.span(route.span(), i as u64, || handler.handle(req));
            std::hint::black_box(handled.response.status);
        }
        start.elapsed().as_secs_f64()
    };
    let (tr, untraced_s, traced_s) = paired(handle_all);
    m.put("trace.overhead_share", (traced_s - untraced_s) / untraced_s, requests.len());
    let lt = layer_times(tr.spans());
    let mut handle_ns = 0.0;
    for route in [Route::Check, Route::Fix, Route::Report] {
        let l = lt.get(route.span()).copied().unwrap_or_default();
        handle_ns += l.total_ns as f64;
        let name =
            format!("{}{}", "server.handle.us_per_req.", &route.span()["server.handle.".len()..]);
        m.put(&name, l.total_ns as f64 / 1e3 / l.spans.max(1) as f64, l.spans as usize);
    }
    let ok_latency: Vec<f64> = lowest.sent.iter().filter_map(|s| s.latency_ms).collect();
    let mean_latency_us = ok_latency.iter().sum::<f64>() * 1e3 / ok_latency.len().max(1) as f64;
    let wire = mean_latency_us - handle_ns / 1e3 / requests.len().max(1) as f64;
    m.put("server.wire_us_per_req", wire, ok_latency.len());

    let mut replay = Replay::new(true);
    let mut lt = Tracer::new(true);
    for (i, body) in t.bodies.iter().enumerate() {
        replay.doc(&mut lt, i as u64, body.as_bytes());
    }
    layers::report(&lt, m);
    out.notes.push(format!(
        "reconcile: mean client latency at the lowest step {mean_latency_us:.1} us = handle {:.1} us + \
         wire {wire:.1} us; tracing overhead {:.1}% on the handle replay",
        handle_ns / 1e3 / requests.len().max(1) as f64,
        100.0 * (traced_s - untraced_s) / untraced_s
    ));
    ctx.write_spans(&[&tr, &lt])
}

/// Per-step metric names, in ladder order.
const STEP_METRICS: [[&str; 2]; 4] = [
    ["loadgen.step1.p50_ms", "loadgen.step1.p99_ms"],
    ["loadgen.step2.p50_ms", "loadgen.step2.p99_ms"],
    ["loadgen.step3.p50_ms", "loadgen.step3.p99_ms"],
    ["loadgen.step4.p50_ms", "loadgen.step4.p99_ms"],
];

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(latencies: impl Iterator<Item = Option<f64>>) -> Slice {
        let sent: Vec<Sent> = latencies
            .map(|latency_ms| Sent { request: 0, latency_ms, late_ms: 0.0, wrong: false })
            .collect();
        Slice { schedule: Vec::new(), elapsed_s: 1.0, sent }
    }

    #[test]
    fn step_statistics_are_medians_over_slices() {
        // Five slices of 1000 requests at 0.000..0.999 ms; one slice stalls.
        let normal = || slice((0..1000).map(|i| Some(i as f64 / 1000.0)));
        let mut slices: Vec<Slice> = (0..4).map(|_| normal()).collect();
        slices.insert(2, slice((0..1000).map(|_| Some(500.0))));
        let step = Step { rate: 1000.0, slices };
        assert_eq!(step.p99_ms(), 0.989);
        assert_eq!(step.supported_tail(), Some(99.0));
        assert_eq!(step.p50_ms(), 0.499);
        assert_eq!(step.ok(), 5000);
        assert_eq!(step.achieved_rps(), 1000.0);
        assert!(!step.verdict().late_grows);

        // Failures in most slices make the tail infinite: the step misses.
        let failing = || slice((0..1000).map(|i| if i < 20 { None } else { Some(0.1) }));
        let step = Step { rate: 1000.0, slices: (0..5).map(|_| failing()).collect() };
        assert_eq!(step.verdict().p99_ms, f64::INFINITY);
        assert_eq!(stats::max_rps_step(&[step.verdict()], 20.0), None);
    }
}
