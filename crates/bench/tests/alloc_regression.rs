//! Allocation-regression guard: parsing and analyzing the dense fixture
//! must stay under a recorded allocations-per-page ceiling.
//!
//! The ceilings are the post-atom-interning measurements plus ~15%
//! headroom; before interning, the same fixtures measured ~4-9x higher
//! (see BENCH_parse.json / BENCH_battery.json "allocs" entries). If a
//! change pushes allocs/page back above a ceiling, this test fails and
//! CI goes red — the point is to make allocation regressions as loud as
//! throughput regressions.
//!
//! Counts are exact: the measurement closures run single-threaded under
//! `hv_bench::alloc::CountingAlloc`, and each test holds [`serial`] so the
//! harness's parallel tests never allocate into another test's count.

use hv_bench::alloc::count_allocations;
use hv_bench::{dense_violating_page, profile_page};
use std::sync::{Mutex, MutexGuard};

/// The allocation counter is process-wide: tests run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const DENSE_N: usize = 400;
const PROFILE_BYTES: usize = 256 * 1024;

/// Measure steady-state allocs for one full parse of `page` (DOM build
/// included). A warmup parse is discarded so one-time lazy init (atom
/// classification bitsets, entity tables) doesn't count against the page.
fn parse_allocs(page: &str) -> u64 {
    let _ = spec_html::parse_document(page);
    let (_, n) = count_allocations(|| spec_html::parse_document(page));
    n
}

/// Measure steady-state allocs for one fused battery run (parse + all 20
/// checks) with a reused Battery, as the scan engine runs it.
fn battery_allocs(page: &str) -> u64 {
    let mut battery = hv_core::Battery::full();
    let _ = battery.run_bytes(page.as_bytes());
    let (_, n) = count_allocations(|| {
        let _ = battery.run_bytes(page.as_bytes());
    });
    n
}

#[test]
fn dense_fixture_parse_allocs_within_ceiling() {
    let _serial = serial();
    let page = dense_violating_page(DENSE_N);
    let n = parse_allocs(&page);
    eprintln!("dense_violating({DENSE_N}): {n} allocs/parse");
    // Post-interning measurement: see BENCH_parse.json. Pre-interning this
    // fixture measured ~6x the ceiling.
    assert!(n <= DENSE_PARSE_CEILING, "dense parse allocs regressed: {n} > {DENSE_PARSE_CEILING}");
}

#[test]
fn dense_fixture_battery_allocs_within_ceiling() {
    let _serial = serial();
    let page = dense_violating_page(DENSE_N);
    let n = battery_allocs(&page);
    eprintln!("dense_violating({DENSE_N}): {n} allocs/battery-run");
    assert!(
        n <= DENSE_BATTERY_CEILING,
        "dense battery allocs regressed: {n} > {DENSE_BATTERY_CEILING}"
    );
}

#[test]
fn attribute_profiles_parse_allocs_within_ceiling() {
    let _serial = serial();
    for (profile, ceiling) in
        [("attribute_heavy", ATTR_HEAVY_CEILING), ("attribute_soup", ATTR_SOUP_CEILING)]
    {
        let page = profile_page(profile, PROFILE_BYTES);
        let n = parse_allocs(&page);
        eprintln!("{profile} ({PROFILE_BYTES} B): {n} allocs/parse");
        assert!(n <= ceiling, "{profile} parse allocs regressed: {n} > {ceiling}");
    }
}

// Recorded ceilings (post-atom-interning measurement + ~15% headroom).
const DENSE_PARSE_CEILING: u64 = 9_300; // measured 8,051 (was 53,274 pre-interning)
const DENSE_BATTERY_CEILING: u64 = 19_900; // measured 17,263 (was 75,287)
const ATTR_HEAVY_CEILING: u64 = 11_500; // measured 10,020 (was 103,196)
const ATTR_SOUP_CEILING: u64 = 16_300; // measured 14,206 (was 134,712)
