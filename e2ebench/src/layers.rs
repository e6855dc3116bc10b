//! The per-document layer replay shared by every traced run: one span per
//! call into `spec_html` and `core`, on the workload's own documents.

use crate::alloc;
use crate::metrics::Metrics;
use crate::trace::{layer_times, Tracer};
use hv_core::{autofix, Battery, BatteryStats, CheckContext};

/// Replays documents through the layers, reusing one battery.
pub struct Replay {
    battery: Battery,
    stats: BatteryStats,
    /// Also call `autofix::auto_fix` on each document.
    autofix: bool,
}

impl Replay {
    pub fn new(autofix: bool) -> Self {
        let battery = Battery::full();
        let stats = battery.new_stats();
        Replay { battery, stats, autofix }
    }

    /// Replay one document body, as span `"doc"` with one child per layer
    /// call. Returns `false` when the body is not UTF-8 (then only decode
    /// ran).
    pub fn doc(&mut self, tr: &mut Tracer, item: u64, body: &[u8]) -> bool {
        let open = tr.enter("doc", item);
        let decoded =
            tr.span("spec_html.decode", item, || match spec_html::decoder::decode_utf8(body) {
                spec_html::decoder::Decoded::Utf8(s) => Some(s),
                spec_html::decoder::Decoded::NotUtf8 { .. } => None,
            });
        let Some(text) = decoded else {
            tr.exit(open);
            return false;
        };
        tr.count("docs", 1);
        tr.count("bytes", text.len() as u64);
        let tokens = tr.span("spec_html.tokenize", item, || spec_html::tokenize(text));
        drop(std::hint::black_box(tokens));
        let p = tr.enter("spec_html.parse", item);
        let (cx, allocs) = alloc::count(|| CheckContext::new(text));
        tr.exit(p);
        tr.count("allocs", allocs);
        let findings = tr.span("core.battery", item, || self.battery.run_ref(&cx).findings.len());
        tr.count("findings", findings as u64);
        let stats = &mut self.stats;
        let battery = &mut self.battery;
        tr.span("core.battery.instrumented", item, || {
            std::hint::black_box(battery.run_instrumented(&cx, stats).findings.len())
        });
        let html = tr
            .span("spec_html.serialize", item, || spec_html::serializer::serialize(&cx.parse.dom));
        drop(std::hint::black_box(html));
        if self.autofix {
            let fixed = tr.span("core.autofix", item, || autofix::auto_fix(text));
            drop(std::hint::black_box(fixed));
        }
        tr.exit(open);
        true
    }
}

/// Per-layer metrics from a replay's spans and counts.
pub fn report(tr: &Tracer, m: &mut Metrics) {
    let t = layer_times(tr.spans());
    let c = tr.counts();
    let docs = c.get("docs").copied().unwrap_or(0).max(1) as f64;
    let kib = c.get("bytes").copied().unwrap_or(0) as f64 / 1024.0;
    let total = |name: &str| t.get(name).map_or(0.0, |l| l.total_ns as f64);
    let n = t.get("doc").map_or(0, |l| l.spans) as usize;
    let tokenize = total("spec_html.tokenize");
    let parse = total("spec_html.parse");
    m.put("spec_html.decode.ns_per_page", total("spec_html.decode") / n.max(1) as f64, n);
    m.put("spec_html.tokenize.ns_per_kib", tokenize / kib, n);
    m.put("spec_html.tree_build.ns_per_kib", (parse - tokenize) / kib, n);
    m.put("spec_html.allocs_per_page", c.get("allocs").copied().unwrap_or(0) as f64 / docs, n);
    m.put("core.battery.ns_per_page", total("core.battery") / docs, n);
    m.put("core.battery.instrumented_ns_per_page", total("core.battery.instrumented") / docs, n);
    m.put(
        "core.battery.findings_per_page",
        c.get("findings").copied().unwrap_or(0) as f64 / docs,
        n,
    );
    m.put("spec_html.serialize.ns_per_kib", total("spec_html.serialize") / kib, n);
    if t.contains_key("core.autofix") {
        m.put("core.autofix.ns_per_doc", total("core.autofix") / docs, n);
    }
}
