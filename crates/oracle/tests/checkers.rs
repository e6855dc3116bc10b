//! The fused battery against the pre-fusion scans in
//! [`hv_oracle::checkers`]: a whole dirty page, and HF2 alone on an
//! adversarial event stream.

use hv_core::checkers::hf::Hf2;
use hv_core::{Battery, Check, CheckContext, ViolationKind};
use hv_oracle::checkers;
use spec_html::{TreeEvent, TreeEventKind};

const DIRTY: &str = "<img src=a src=b><div id=x id=y><p/ class=c><a href=\"u\"title=t>";

#[test]
fn fused_engine_matches_legacy_scans() {
    let cx = CheckContext::new(DIRTY);
    let fused = Battery::full().run(&cx);
    let legacy = checkers::run(&cx);
    assert_eq!(fused.findings, legacy.findings);
    assert_eq!(fused.mitigations, legacy.mitigations);
}

/// HF2's one-flag accumulator vs the legacy whole-vec rescan, on an
/// adversarial synthetic event stream with many implicit bodies: same
/// findings, but linear instead of O(events²).
#[test]
fn hf2_accumulator_matches_legacy_on_many_implicit_bodies() {
    let mut cx = CheckContext::new("");
    let mut events = Vec::new();
    for i in 0..500 {
        let offset = i * 10;
        if i % 3 == 0 {
            // Head closed by the same token that implies the body:
            // HF1 fallout, not HF2.
            events
                .push(TreeEvent { kind: TreeEventKind::HeadClosedBy { tag: "p".into() }, offset });
        }
        events.push(TreeEvent {
            kind: TreeEventKind::ImplicitBody { by: format!("<p#{i}>") },
            offset,
        });
    }
    cx.parse.events = events;

    let mut legacy_out = Vec::new();
    let (_, rescan) = checkers::ALL.iter().find(|(k, _)| *k == ViolationKind::HF2).unwrap();
    rescan(&cx, &mut legacy_out);

    let mut fused_out = Vec::new();
    let mut hf2 = Hf2::default();
    hf2.reset();
    for ev in &cx.parse.events {
        hf2.on_tree_event(&cx, ev, &mut fused_out);
    }
    assert!(!legacy_out.is_empty());
    assert_eq!(fused_out, legacy_out);
}
