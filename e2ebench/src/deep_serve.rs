//! `deep-serve`: one caller waiting for each reply (a closed loop) sends
//! seeded adversarial documents to `POST /v1/check` and `POST /v1/fix` of
//! an `hva serve` child. Some documents nest deeper than a server worker's
//! stack can serialize; when the server aborts, the request counts as
//! failed, is never retried, and the server is restarted outside the
//! timed part.

use crate::client::{self, Conn};
use crate::docs::{self, Doc, Shape};
use crate::layers::{self, Replay};
use crate::server::{self, ServerChild};
use crate::stats::{median, percentile, tail_percentile, with_failures};
use crate::trace::{layer_times, paired, Tracer};
use crate::{procfs, Ctx, Outcome};
use hv_core::Battery;
use hv_corpus::rng::KeyedRng;
use hv_server::api::v1::{CheckResponse, FixResponse};
use hv_server::handler::{Handler, Shared};
use hv_server::http::Request;
use hv_server::metrics::Metrics as ServerMetrics;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SECTION: &str = "deep_serve";
/// Server starts timed for `setup_s`.
const SETUP_STARTS: usize = 5;
/// The tail percentile: fixed, so that a faster server answering more
/// requests in the same seconds reports the same statistic, and below
/// 100% minus the share of requests the overflow fails.
const TAIL_P: f64 = 90.0;
/// Longest a request may take before it counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Stack for in-process work on deep documents: the serializer recurses
/// once per nesting level, and this benchmark must not abort where the
/// server does.
const DEEP_STACK: usize = 1 << 30;

/// The documents of one round, from `deep_serve.round` in `bench.json`.
fn round_docs(ctx: &Ctx) -> Result<Vec<Doc>, String> {
    let entries = ctx.get(SECTION, "round")?.as_array().ok_or("deep_serve.round is not a list")?;
    let mut docs = Vec::new();
    for (e, entry) in entries.iter().enumerate() {
        let shape = entry
            .get("shape")
            .and_then(|s| s.as_str())
            .and_then(Shape::parse)
            .ok_or("deep_serve.round: bad shape")?;
        let count = entry.get("count").and_then(|c| c.as_u64()).ok_or("deep_serve.round: count")?;
        let depth =
            entry.get("depth").and_then(|d| d.as_array()).ok_or("deep_serve.round: depth")?;
        let lo = depth.first().and_then(|d| d.as_u64()).ok_or("deep_serve.round: depth")?;
        let hi = depth.get(1).and_then(|d| d.as_u64()).ok_or("deep_serve.round: depth")?;
        for c in 0..count {
            let mut rng = KeyedRng::new(ctx.seed, &[0xDEE9, e as u64, c]);
            let depth = lo + rng.next_u64() % (hi - lo + 1);
            docs.push(docs::generate(shape, depth as usize, &mut rng));
        }
    }
    Ok(docs)
}

/// The request sequence of a round: every document to `/v1/check`, then
/// to `/v1/fix`.
fn round_requests(docs: &[Doc]) -> Vec<(usize, bool, Vec<u8>)> {
    let mut reqs = Vec::new();
    for (i, d) in docs.iter().enumerate() {
        reqs.push((i, false, client::post_html("/v1/check", d.html.as_bytes())));
        reqs.push((i, true, client::post_html("/v1/fix", d.html.as_bytes())));
    }
    reqs
}

/// Run `f` on a thread with a stack deep enough for any document here.
fn on_deep_stack<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(DEEP_STACK)
            .spawn_scoped(s, f)
            .expect("spawning the deep-stack thread")
            .join()
            .expect("deep-stack work panicked")
    })
}

struct Live {
    setup: Vec<f64>,
    /// Per request, in send order: latency or `None` on failure.
    latency_ms: Vec<Option<f64>>,
    /// Time spent in requests, restarts excluded.
    busy_s: f64,
    restarts: usize,
    server_cpu_s: f64,
    peak_rss_mib: f64,
    /// First 200 body per request of the round.
    replies: Vec<Option<Vec<u8>>>,
    /// Replies that differ from the first 200 body of the same request.
    inconsistent: usize,
    /// How the last aborted server ended, e.g. `signal: 6 (SIGABRT)`.
    abort: Option<String>,
    /// `/metricsz` counters of the last server (aborted ones cannot say).
    shed: u64,
    panics: u64,
}

fn live(ctx: &Ctx, reqs: &[(usize, bool, Vec<u8>)]) -> Result<Live, String> {
    let hva = ctx.hva()?;
    let args = vec!["--threads".to_owned(), ctx.threads.to_string()];
    let (mut srv, setup) = server::timed_starts(&hva, &args, SETUP_STARTS)?;
    let cpu0 = procfs::own_cpu()?.children_s;
    let mut live = Live {
        setup,
        latency_ms: Vec::new(),
        busy_s: 0.0,
        restarts: 0,
        server_cpu_s: 0.0,
        peak_rss_mib: 0.0,
        replies: vec![None; reqs.len()],
        inconsistent: 0,
        abort: None,
        shed: 0,
        panics: 0,
    };
    let mut conn: Option<Conn> = None;
    while live.latency_ms.is_empty() || live.busy_s < ctx.seconds {
        for (r, (_, _, bytes)) in reqs.iter().enumerate() {
            let start = Instant::now();
            let reply = match conn.as_mut() {
                Some(c) => c.exchange(bytes),
                None => Conn::connect(&srv.addr, REQUEST_TIMEOUT)
                    .and_then(|c| conn.insert(c).exchange(bytes)),
            };
            let took = start.elapsed().as_secs_f64();
            live.busy_s += took;
            match reply {
                Ok(reply) if reply.status == 200 => {
                    live.latency_ms.push(Some(took * 1e3));
                    match &live.replies[r] {
                        None => live.replies[r] = Some(reply.body),
                        Some(first) if *first != reply.body => live.inconsistent += 1,
                        Some(_) => {}
                    }
                }
                Ok(_) => live.latency_ms.push(None),
                Err(_) => {
                    live.latency_ms.push(None);
                    conn = None;
                    // An abort shows as the child's exit; a refused or reset
                    // connection with the child alive is a plain failure.
                    if let Some(status) = srv.exited(Duration::from_secs(2)) {
                        live.abort = Some(status.to_string());
                        live.peak_rss_mib = live.peak_rss_mib.max(srv.stop());
                        srv = ServerChild::start(&hva, &args)?;
                        live.restarts += 1;
                    }
                }
            }
            srv.sample_rss();
        }
    }
    drop(conn);
    (live.shed, live.panics) = srv.shed_and_panics();
    live.peak_rss_mib = live.peak_rss_mib.max(srv.stop());
    live.server_cpu_s = procfs::own_cpu()?.children_s - cpu0;
    Ok(live)
}

/// Gates: each check reply equals the in-process battery's JSON for the
/// same document; each fix reply's page re-checks without the kinds the
/// repair eliminated.
fn gate(docs: &[Doc], reqs: &[(usize, bool, Vec<u8>)], live: &Live, out: &mut Outcome) {
    let failures = on_deep_stack(|| {
        let mut battery = Battery::full();
        let mut failures = Vec::new();
        for ((doc, is_fix, _), reply) in reqs.iter().zip(&live.replies) {
            let Some(reply) = reply else { continue };
            let html = &docs[*doc].html;
            if !is_fix {
                let want = serde_json::to_string(&CheckResponse::from(&battery.run_str(html)));
                if want.ok().as_deref().map(str::as_bytes) != Some(reply.as_slice()) {
                    failures
                        .push(format!("doc {doc}: /v1/check differs from the in-process battery"));
                }
                continue;
            }
            let Ok(fix) = serde_json::from_slice::<FixResponse>(reply) else {
                failures.push(format!("doc {doc}: /v1/fix reply is not a FixResponse"));
                continue;
            };
            let after = battery.run_str(&fix.fixed_html).kinds();
            if let Some(k) = after.iter().find(|k| fix.eliminated.iter().any(|e| e == k.id())) {
                failures.push(format!(
                    "doc {doc}: /v1/fix eliminated {} but the fixed page has it",
                    k.id()
                ));
            }
        }
        failures
    });
    for f in failures {
        out.gate(f);
    }
    if live.inconsistent > 0 {
        out.gate(format!(
            "{} replies differ from an earlier reply to the same request",
            live.inconsistent
        ));
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let docs = round_docs(ctx)?;
    let reqs = round_requests(&docs);
    let live = live(ctx, &reqs)?;
    out.attempted = live.latency_ms.len() as u64;
    out.failed = live.latency_ms.iter().filter(|l| l.is_none()).count() as u64;
    gate(&docs, &reqs, &live, &mut out);
    let rounds = live.latency_ms.len() / reqs.len();
    out.notes.push(format!(
        "{rounds} rounds of {} documents (check + fix each), {} server restarts after aborts \
         (last exit: {}); the /v1/fix stack overflow on the deepest documents is expected at \
         this code and counts as failed requests",
        docs.len(),
        live.restarts,
        live.abort.as_deref().unwrap_or("none")
    ));
    if ctx.trace {
        traced(ctx, &docs, &reqs, &live, &mut out)?;
        return Ok(out);
    }

    let sorted = with_failures(&live.latency_ms);
    let supported = tail_percentile(sorted.len()).unwrap_or(50.0);
    let ok = live.latency_ms.iter().filter(|l| l.is_some()).count();
    out.metrics.put("setup_s", median(&live.setup), live.setup.len());
    out.metrics.put("throughput_per_s", ok as f64 / live.busy_s, ok);
    out.metrics.put("throughput_per_cpu_s", ok as f64 / live.server_cpu_s, ok);
    out.metrics.put("p50_ms", percentile(&sorted, 50.0), sorted.len());
    out.metrics.put("tail_ms", percentile(&sorted, TAIL_P), sorted.len());
    out.metrics.put("peak_rss_mib", live.peak_rss_mib, live.restarts + 1);
    out.notes.push(format!(
        "tail = p{TAIL_P} of {} requests, failures as +inf (the sample supports up to p{supported})",
        sorted.len()
    ));
    Ok(out)
}

/// Per-layer metrics on the round's documents, in process on a deep
/// stack: each document and its flat twin through tokenize and parse, the
/// documents through the checker, serializer and repair layers, and every
/// request through `Handler::handle`. The handle replay runs untraced and
/// traced; the difference is the tracing overhead.
fn traced(
    ctx: &Ctx,
    docs: &[Doc],
    reqs: &[(usize, bool, Vec<u8>)],
    live: &Live,
    out: &mut Outcome,
) -> Result<(), String> {
    let requests: Vec<(bool, Request)> = reqs
        .iter()
        .map(|(doc, is_fix, _)| {
            let path = if *is_fix { "/v1/fix" } else { "/v1/check" };
            let req = Request {
                method: "POST".to_owned(),
                path: path.to_owned(),
                headers: vec![("content-type".to_owned(), "text/html".to_owned())],
                body: docs[*doc].html.as_bytes().to_vec(),
                keep_alive: true,
            };
            (*is_fix, req)
        })
        .collect();
    let (layer_tr, handle_tr, untraced_s, traced_s) = on_deep_stack(|| {
        let mut tr = Tracer::new(true);
        let mut replay = Replay::new(true);
        for (i, d) in docs.iter().enumerate() {
            replay.doc(&mut tr, i as u64, d.html.as_bytes());
            let flat = d.flat.as_str();
            tr.span("flat.tokenize", i as u64, || {
                std::hint::black_box(spec_html::tokenize(flat)).0.len()
            });
            tr.span("flat.parse", i as u64, || {
                std::hint::black_box(spec_html::parse_document(flat)).errors.len()
            });
        }
        let shared = Arc::new(Shared {
            store: None,
            metrics: ServerMetrics::new(),
            max_body: hv_server::DEFAULT_MAX_BODY,
        });
        let handle_all = |tr: &mut Tracer| {
            let mut handler = Handler::new(Arc::clone(&shared));
            let start = Instant::now();
            for (i, (is_fix, req)) in requests.iter().enumerate() {
                let name = if *is_fix { "server.handle.fix" } else { "server.handle.check" };
                std::hint::black_box(
                    tr.span(name, i as u64, || handler.handle(req)).response.status,
                );
            }
            start.elapsed().as_secs_f64()
        };
        let (handle_tr, untraced_s, traced_s) = paired(handle_all);
        (tr, handle_tr, untraced_s, traced_s)
    });

    let m = &mut out.metrics;
    layers::report(&layer_tr, m);
    let lt = layer_times(layer_tr.spans());
    let total = |name: &str| lt.get(name).map_or(0.0, |l| l.total_ns as f64);
    let deep_build = total("spec_html.parse") - total("spec_html.tokenize");
    let flat_build = total("flat.parse") - total("flat.tokenize");
    m.put("spec_html.tree_build.deep_flat_ratio", deep_build / flat_build, docs.len());
    let ht = layer_times(handle_tr.spans());
    for (name, metric) in [
        ("server.handle.check", "server.handle.us_per_req.check"),
        ("server.handle.fix", "server.handle.us_per_req.fix"),
    ] {
        let l = ht.get(name).copied().unwrap_or_default();
        m.put(metric, l.total_ns as f64 / 1e3 / l.spans.max(1) as f64, l.spans as usize);
    }
    // Wire time: the client's mean latency per request of the round minus
    // the in-process handle time of the same request, over the requests
    // the server answered.
    let mut wire = Vec::new();
    for (r, handled) in handle_tr.spans().iter().enumerate() {
        let answered: Vec<f64> =
            live.latency_ms.iter().skip(r).step_by(reqs.len()).flatten().copied().collect();
        if !answered.is_empty() {
            let handle_ms = (handled.end_ns - handled.start_ns) as f64 / 1e6;
            wire.push((answered.iter().sum::<f64>() / answered.len() as f64 - handle_ms) * 1e3);
        }
    }
    m.put(
        "server.wire_us_per_req",
        wire.iter().sum::<f64>() / wire.len().max(1) as f64,
        wire.len(),
    );
    m.put("server.restarts", live.restarts as f64, 1);
    m.put("server.shed", live.shed as f64, 1);
    m.put("server.panics", live.panics as f64, 1);
    m.put("trace.overhead_share", (traced_s - untraced_s) / untraced_s, requests.len());
    let deepest = docs.iter().max_by_key(|d| d.depth).map_or(0, |d| d.depth);
    out.notes.push(format!(
        "tree building: {:.1} ms over the deep documents vs {:.1} ms over their flat twins \
         (deepest nesting {deepest}); tracing overhead {:.1}% on the handle replay",
        deep_build / 1e6,
        flat_build / 1e6,
        100.0 * (traced_s - untraced_s) / untraced_s
    ));
    ctx.write_spans(&[&layer_tr, &handle_tr])
}
