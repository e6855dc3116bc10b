//! Checker battery benchmarks: per-rule cost, full-battery cost, and the
//! §4.4 auto-fixer.

use criterion::{criterion_group, criterion_main, Criterion};
use hv_core::checkers;
use hv_core::context::CheckContext;
use hv_core::Battery;
use std::hint::black_box;

fn bench_full_battery(c: &mut Criterion) {
    let pages = hv_bench::sample_pages(32);
    let mut g = c.benchmark_group("checkers");
    // Parse + check per page on one reused battery, as a scan worker runs.
    g.bench_function("check_page_32_pages", |b| {
        let mut battery = Battery::full();
        b.iter(|| {
            let mut findings = 0usize;
            for p in &pages {
                findings += battery.run_str(black_box(p)).findings.len();
            }
            black_box(findings)
        })
    });
    // Battery cost excluding the parse (the paper runs rules
    // "independently of each other" over a pre-parsed context).
    let page = hv_bench::violating_page();
    let cx = CheckContext::new(&page);
    g.bench_function("battery_without_parse", |b| {
        let mut battery = Battery::full();
        b.iter(|| black_box(battery.run_ref(black_box(&cx)).findings.len()))
    });
    g.finish();
}

fn bench_individual_rules(c: &mut Criterion) {
    // Per-rule cost of the pre-fusion scans (the fused engine has no
    // isolated per-rule path; `legacy::ALL` keeps the per-rule series
    // comparable across builds).
    let page = hv_bench::violating_page();
    let cx = CheckContext::new(&page);
    let mut g = c.benchmark_group("per_rule");
    for (kind, check) in checkers::legacy::ALL {
        g.bench_function(kind.id(), |b| {
            b.iter(|| {
                let mut out = Vec::new();
                check(black_box(&cx), &mut out);
                black_box(out.len())
            })
        });
    }
    g.finish();
}

fn bench_mitigations(c: &mut Criterion) {
    let page = hv_bench::violating_page();
    let cx = CheckContext::new(&page);
    c.bench_function("mitigation_flags", |b| {
        b.iter(|| black_box(checkers::mitigation_flags(black_box(&cx))))
    });
}

fn bench_autofix(c: &mut Criterion) {
    let page = hv_bench::violating_page();
    c.bench_function("auto_fix_one_page", |b| {
        b.iter(|| black_box(hv_core::autofix::auto_fix(black_box(&page))).after.len())
    });
}

criterion_group!(
    benches,
    bench_full_battery,
    bench_individual_rules,
    bench_mitigations,
    bench_autofix
);
criterion_main!(benches);
