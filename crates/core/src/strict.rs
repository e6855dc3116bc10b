//! The paper's §5.3.2 proposal, implemented: deprecating error tolerance
//! via a `STRICT-PARSER` header with staged enforcement.
//!
//! The roadmap: (1) add the Definition Violations as parser error states,
//! (2) warn in the developer console, (3) introduce a header with three
//! modes — `strict` blocks every deprecated violation, `unsafe` ignores the
//! deprecation, and `default` blocks only an *enforced list* that starts
//! with the violations that rarely appear (math-related, dangling markup)
//! and grows as usage decays, until `default` equals `strict`. Each mode
//! may carry a monitor URL notified on violations.
//!
//! This module models that machinery so the rollout can be simulated
//! against measurement data: [`evaluate`] decides what a compliant parser
//! would do with a page, and the pipeline's aggregation can answer the
//! deployment question the paper poses — *how much of the web breaks at
//! each stage?*

use crate::report::PageReport;
use crate::taxonomy::ViolationKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The three header modes of §5.3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrictMode {
    /// Opt-in to full enforcement: any deprecated violation blocks.
    Strict,
    /// Opt-out fallback: violations are tolerated (legacy behaviour).
    Unsafe,
    /// No header / default: only the enforced list blocks.
    Default,
}

/// A parsed `STRICT-PARSER` header value, e.g.
/// `strict; report-to https://example.com/monitor`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StrictPolicy {
    pub mode: StrictMode,
    /// Monitor endpoint to notify on violations (all modes support it, so
    /// sites can measure before enforcing).
    pub monitor: Option<String>,
}

impl StrictPolicy {
    pub fn strict() -> Self {
        StrictPolicy { mode: StrictMode::Strict, monitor: None }
    }

    pub fn default_mode() -> Self {
        StrictPolicy { mode: StrictMode::Default, monitor: None }
    }

    /// Parse a header value: `<mode> [; report-to <url>]`.
    pub fn parse(header: &str) -> Option<StrictPolicy> {
        let mut parts = header.split(';').map(str::trim);
        let mode = match parts.next()?.to_ascii_lowercase().as_str() {
            "strict" => StrictMode::Strict,
            "unsafe" => StrictMode::Unsafe,
            "default" | "" => StrictMode::Default,
            _ => return None,
        };
        let mut monitor = None;
        for p in parts {
            if let Some(url) = p.strip_prefix("report-to ") {
                monitor = Some(url.trim().to_owned());
            }
        }
        Some(StrictPolicy { mode, monitor })
    }

    /// Render back to a header value.
    pub fn to_header(&self) -> String {
        let mode = match self.mode {
            StrictMode::Strict => "strict",
            StrictMode::Unsafe => "unsafe",
            StrictMode::Default => "default",
        };
        match &self.monitor {
            Some(url) => format!("{mode}; report-to {url}"),
            None => mode.to_owned(),
        }
    }
}

/// The staged enforcement list for `default` mode. Stages follow the
/// paper's ordering principle: "In the beginning, this list contains
/// violations that rarely appear in our analysis, such as all math
/// element-related violations or dangling markup. Every time the usage of
/// a violation decreases enough, it is added to the enforced list."
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnforcementList {
    enforced: BTreeSet<ViolationKind>,
}

impl EnforcementList {
    /// An explicit list.
    pub fn new(kinds: impl IntoIterator<Item = ViolationKind>) -> Self {
        EnforcementList { enforced: kinds.into_iter().collect() }
    }

    /// Stage `n` of the rollout (0 = nothing enforced, 4 = everything):
    /// each stage adds the next band of violations by their measured
    /// prevalence in the study (Figure 8), rarest first.
    pub fn stage(n: u8) -> Self {
        use ViolationKind::*;
        let bands: [&[ViolationKind]; 4] = [
            // < 1% of domains: math violations and exotic dangling markup.
            &[HF5_3, DE1, DE2, DE3_3, HF5_2],
            // 1–10%: the remaining DE family and stray base tags.
            &[DM2_1, DM2_2, DE3_1, DE3_2, DE4, DM1, HF5_1],
            // 10–40%: structural HTML-formatting tolerance.
            &[DM2_3, HF1, HF2, HF3, HF4, FB1],
            // The giants: attribute-level tolerance.
            &[FB2, DM3],
        ];
        let mut enforced = BTreeSet::new();
        for band in bands.iter().take(n as usize) {
            enforced.extend(band.iter().copied());
        }
        EnforcementList { enforced }
    }

    /// The final stage, where `default` behaves like `strict`.
    pub fn full() -> Self {
        EnforcementList { enforced: ViolationKind::ALL.into_iter().collect() }
    }

    pub fn contains(&self, kind: ViolationKind) -> bool {
        self.enforced.contains(&kind)
    }

    pub fn kinds(&self) -> impl Iterator<Item = ViolationKind> + '_ {
        self.enforced.iter().copied()
    }

    pub fn len(&self) -> usize {
        self.enforced.len()
    }

    pub fn is_empty(&self) -> bool {
        self.enforced.is_empty()
    }
}

/// What a compliant parser does with a page under a policy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// No deprecated violation applies: render normally.
    Render,
    /// Violations present but not blocking under this mode: render and
    /// (if configured) notify the monitor.
    RenderWithWarnings { warned: BTreeSet<ViolationKind> },
    /// Blocking violations: show the error page instead.
    Block { blocking: BTreeSet<ViolationKind> },
}

impl Decision {
    pub fn is_blocked(&self) -> bool {
        matches!(self, Decision::Block { .. })
    }
}

/// A monitor notification (what would be POSTed to the report-to URL).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorReport {
    pub url: String,
    pub violations: BTreeSet<ViolationKind>,
    pub blocked: bool,
}

/// Evaluate a checked page against a policy and enforcement list.
pub fn evaluate(
    report: &PageReport,
    policy: &StrictPolicy,
    enforced: &EnforcementList,
) -> (Decision, Option<MonitorReport>) {
    let kinds = report.kinds();
    let decision = if kinds.is_empty() {
        Decision::Render
    } else {
        let blocking: BTreeSet<ViolationKind> = match policy.mode {
            StrictMode::Strict => kinds.clone(),
            StrictMode::Unsafe => BTreeSet::new(),
            StrictMode::Default => {
                kinds.iter().copied().filter(|k| enforced.contains(*k)).collect()
            }
        };
        if blocking.is_empty() {
            Decision::RenderWithWarnings { warned: kinds.clone() }
        } else {
            Decision::Block { blocking }
        }
    };
    let monitor = policy.monitor.as_ref().filter(|_| !kinds.is_empty()).map(|url| MonitorReport {
        url: url.clone(),
        violations: kinds,
        blocked: decision.is_blocked(),
    });
    (decision, monitor)
}

#[cfg(test)]
mod tests {
    use super::*;
    /// Test-local one-shot over a fresh [`Battery`](crate::Battery).
    fn check_page(raw: &str) -> crate::report::PageReport {
        crate::Battery::full().run_str(raw)
    }

    const VIOLATING: &str = r#"<img src="x.png"onerror="a()"><table><tr><b>t</b></tr></table>"#;
    const RARE_ONLY: &str = "<body><select><option>a\nrest swallowed";
    const CLEAN: &str =
        "<!DOCTYPE html><html><head><title>t</title></head><body><p>x</p></body></html>";

    #[test]
    fn header_parse_roundtrip() {
        for raw in ["strict", "unsafe", "default", "strict; report-to https://m.example/r"] {
            let p = StrictPolicy::parse(raw).unwrap();
            assert_eq!(StrictPolicy::parse(&p.to_header()), Some(p));
        }
        assert_eq!(StrictPolicy::parse("bogus"), None);
        assert_eq!(
            StrictPolicy::parse("default; report-to https://m/x").unwrap().monitor.as_deref(),
            Some("https://m/x")
        );
    }

    #[test]
    fn stages_grow_monotonically() {
        let mut prev = 0;
        for n in 0..=4 {
            let stage = EnforcementList::stage(n);
            assert!(stage.len() >= prev, "stage {n} shrank");
            prev = stage.len();
        }
        assert_eq!(EnforcementList::stage(4), EnforcementList::full());
        assert!(EnforcementList::stage(0).is_empty());
        // Stage 1 holds only the rare violations.
        let s1 = EnforcementList::stage(1);
        assert!(s1.contains(ViolationKind::HF5_3));
        assert!(s1.contains(ViolationKind::DE1));
        assert!(!s1.contains(ViolationKind::FB2));
    }

    #[test]
    fn clean_page_always_renders() {
        let report = check_page(CLEAN);
        for mode in [StrictMode::Strict, StrictMode::Unsafe, StrictMode::Default] {
            let policy = StrictPolicy { mode, monitor: None };
            let (d, m) = evaluate(&report, &policy, &EnforcementList::full());
            assert_eq!(d, Decision::Render);
            assert!(m.is_none());
        }
    }

    #[test]
    fn strict_blocks_everything() {
        let report = check_page(VIOLATING);
        let (d, _) = evaluate(&report, &StrictPolicy::strict(), &EnforcementList::stage(0));
        assert!(d.is_blocked());
    }

    #[test]
    fn unsafe_never_blocks() {
        let report = check_page(VIOLATING);
        let policy = StrictPolicy { mode: StrictMode::Unsafe, monitor: None };
        let (d, _) = evaluate(&report, &policy, &EnforcementList::full());
        assert!(!d.is_blocked());
        assert!(matches!(d, Decision::RenderWithWarnings { .. }));
    }

    #[test]
    fn default_blocks_only_enforced() {
        let report = check_page(VIOLATING); // FB2 + HF4: common violations
                                            // Early rollout stage: FB2/HF4 not yet enforced.
        let (d, _) = evaluate(&report, &StrictPolicy::default_mode(), &EnforcementList::stage(1));
        assert!(!d.is_blocked(), "{d:?}");
        // Stage 3 enforces HF4.
        let (d, _) = evaluate(&report, &StrictPolicy::default_mode(), &EnforcementList::stage(3));
        assert!(d.is_blocked());
    }

    #[test]
    fn rare_violations_block_first() {
        let report = check_page(RARE_ONLY); // DE2
        let (d, _) = evaluate(&report, &StrictPolicy::default_mode(), &EnforcementList::stage(1));
        assert!(d.is_blocked(), "DE2 is in the first enforcement band: {d:?}");
    }

    /// A compliant `default`-mode parser only needs to run the *enforced*
    /// rules to decide blocking — [`crate::Battery::only`] restricted to
    /// the enforcement list fires exactly when `evaluate` blocks.
    #[test]
    fn battery_restricted_to_enforced_list_agrees_on_blocking() {
        for n in 0..=4 {
            let list = EnforcementList::stage(n);
            let enforced: Vec<ViolationKind> = list.kinds().collect();
            let mut battery = crate::Battery::only(&enforced);
            assert_eq!(battery.len(), list.len());
            for page in [VIOLATING, RARE_ONLY, CLEAN] {
                let (decision, _) =
                    evaluate(&check_page(page), &StrictPolicy::default_mode(), &list);
                let restricted = battery.run_str(page);
                assert_eq!(
                    !restricted.findings.is_empty(),
                    decision.is_blocked(),
                    "stage {n}, page {page:?}"
                );
            }
        }
    }

    #[test]
    fn monitor_reports_fire_in_all_modes() {
        let report = check_page(VIOLATING);
        let policy = StrictPolicy {
            mode: StrictMode::Unsafe,
            monitor: Some("https://monitor.example/v".into()),
        };
        let (_, m) = evaluate(&report, &policy, &EnforcementList::stage(0));
        let m = m.expect("monitor report");
        assert!(!m.blocked);
        assert!(m.violations.contains(&crate::ViolationKind::FB2));
    }
}
