//! Synthetic page generation.
//!
//! Pages are realistic multi-kilobyte documents (header/nav/main/footer,
//! tables, forms, SVG icons) assembled deterministically per
//! (domain, snapshot, page). Violations are injected **as concrete
//! violating markup** — the checkers must rediscover them from bytes
//! through the real parser, exactly as the paper's framework did on real
//! Common Crawl pages. The generator/checker agreement is enforced by the
//! tests at the bottom (the Rust analogue of the paper's 25-violating/25-
//! clean manual validation loop, §3.3).

use crate::profile::{Archetype, DomainSnapshot};
use crate::rng::{self, KeyedRng};
use hv_core::ViolationKind;

/// Violation kinds that live in a domain's shared template (and therefore
/// appear on most of its pages).
pub const TEMPLATE_KINDS: [ViolationKind; 9] = [
    ViolationKind::FB2,
    ViolationKind::FB1,
    ViolationKind::DM3,
    ViolationKind::HF1,
    ViolationKind::HF2,
    ViolationKind::HF3,
    ViolationKind::HF4,
    ViolationKind::HF5_1,
    ViolationKind::DM2_3,
];

/// Share of a domain's pages that include the template (template kinds
/// appear on this fraction of pages; page 0 always has the template).
const TEMPLATE_COVERAGE: f64 = 0.8;

/// Which of the domain's expressed violations appear on this page.
pub fn page_violations(seed: u64, ds: &DomainSnapshot, page_index: usize) -> Vec<ViolationKind> {
    let mut out = Vec::new();
    let n = ds.page_count;
    for &kind in &ds.expressed {
        let is_template = TEMPLATE_KINDS.contains(&kind);
        let on_page = if is_template {
            page_index == 0
                || rng::chance(
                    seed,
                    &[0x9A6E, ds.domain_id, ds.snapshot.index() as u64, page_index as u64],
                    TEMPLATE_COVERAGE,
                )
        } else {
            local_pages(seed, ds, kind).contains(&page_index)
        };
        let _ = n;
        if on_page {
            out.push(kind);
        }
    }
    out
}

/// Page indices carrying a page-local violation: 1–3 deterministic pages.
/// DE1/DE2 are pinned near the end of the page list and kept apart (an
/// unterminated textarea would swallow an unterminated select injected
/// after it).
fn local_pages(seed: u64, ds: &DomainSnapshot, kind: ViolationKind) -> Vec<usize> {
    let n = ds.page_count;
    match kind {
        ViolationKind::DE1 => vec![n - 1],
        ViolationKind::DE2 => vec![n.saturating_sub(2)],
        _ => {
            let k = 1 + rng::below(
                seed,
                &[0x10CA, ds.domain_id, ds.snapshot.index() as u64, kind as u64],
                3,
            );
            (0..k)
                .map(|j| {
                    rng::below(
                        seed,
                        &[0x10CB, ds.domain_id, ds.snapshot.index() as u64, kind as u64, j as u64],
                        n,
                    )
                })
                .collect()
        }
    }
}

const HEADLINES: [&str; 12] = [
    "Latest updates from the team",
    "Product highlights this week",
    "Getting started guide",
    "Community spotlight",
    "Release notes and changes",
    "Top stories today",
    "Featured collections",
    "Developer documentation",
    "Seasonal offers",
    "Press and media",
    "Research corner",
    "Editor picks",
];

const PARAGRAPH_WORDS: [&str; 24] = [
    "platform", "update", "release", "feature", "support", "customer", "service", "report",
    "detail", "overview", "article", "section", "summer", "winter", "catalog", "project",
    "library", "network", "archive", "gallery", "profile", "account", "partner", "insight",
];

/// Generate one page of the corpus as text.
pub fn generate_page(seed: u64, ds: &DomainSnapshot, page_index: usize) -> String {
    let violations = page_violations(seed, ds, page_index);
    let has = |k: ViolationKind| violations.contains(&k);
    let mut r =
        KeyedRng::new(seed, &[0x9E4E, ds.domain_id, ds.snapshot.index() as u64, page_index as u64]);
    let site = &ds.domain_name;
    let year = ds.snapshot.year();
    let mut h = String::with_capacity(4096);

    // ---- prologue & head ----
    h.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n");
    h.push_str("<head>\n");
    // HF1 has two real-world shapes: a foreign element breaking the head
    // open, or metadata trailing after the head closed. The first shape
    // makes the parser imply the body at the breaking element, which would
    // mask an HF2 injection on the same page — so pages expressing both
    // use the second shape.
    let hf1_late = has(ViolationKind::HF1) && has(ViolationKind::HF2);
    if has(ViolationKind::DM2_2) {
        // Two base elements, both ahead of any URL-using element.
        h.push_str("  <base href=\"/\">\n  <base href=\"/en/\">\n");
    }
    h.push_str("  <meta charset=\"utf-8\">\n");
    h.push_str("  <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n");
    h.push_str(&format!("  <title>{} — {}</title>\n", r.pick(&HEADLINES), site));
    // DM2_1 wants a base at the top of the body *before any URL-using
    // element*, so its pages use an inline-style head (no stylesheet link).
    let url_free_head = has(ViolationKind::DM2_1);
    if url_free_head {
        h.push_str("  <style>body{margin:0;font:16px/1.5 sans-serif}</style>\n");
    } else {
        h.push_str("  <link rel=\"stylesheet\" href=\"/assets/main.css\">\n");
        if has(ViolationKind::DM2_3) {
            // Base after the stylesheet link: DM2_3 exactly.
            h.push_str("  <base href=\"/content/\">\n");
        }
        h.push_str("  <script src=\"/assets/app.js\" defer></script>\n");
    }
    if has(ViolationKind::HF1) && !hf1_late {
        // A hidden modal div inside the head (after the metadata): the
        // parser closes the head here and implies the body — the paper's
        // recurring HF1 case. Placed last so the page's metadata still
        // lands in the head, keeping the other DM checks independent.
        h.push_str("  <div class=\"preload-modal\" style=\"display:none\">loading</div>\n");
    }
    h.push_str("</head>\n");
    if hf1_late {
        // Metadata that belongs in the head, arriving after it closed: the
        // parser re-opens the head element for it (HF1's other shape).
        h.push_str("<meta name=\"generator\" content=\"legacy-cms 2.3\">\n");
    }

    // ---- body opening (HF2: omitted body tag) ----
    if !has(ViolationKind::HF2) {
        h.push_str("<body class=\"page\">\n");
    }
    if has(ViolationKind::DM2_1) {
        if has(ViolationKind::HF2) {
            // With the body tag omitted, a bare base would be pulled back
            // into the head as late metadata; a (URL-free) banner div
            // implies the body first, as real pages do.
            h.push_str("<div class=\"top-banner\">welcome</div>\n");
        }
        // Injected/legacy base at the top of the body (CVE-2020-29653's
        // shape): outside head, but ahead of every URL-using element.
        h.push_str("<base href=\"https://cdn.example-mirror.net/\">\n");
    }

    // ---- header / nav: the template violations live here ----
    h.push_str("<header class=\"site-header\">\n");
    if has(ViolationKind::FB1) {
        h.push_str("  <img/src=\"/assets/logo.png\"/alt=\"logo\" class=\"logo\">\n");
    } else {
        h.push_str("  <img src=\"/assets/logo.png\" alt=\"logo\" class=\"logo\">\n");
    }
    if has(ViolationKind::DM3) {
        // A refactor added classes although some already existed (Fig. 14).
        h.push_str("  <nav id=\"menu\" class=\"nav\" class=\"nav-wide\">\n");
    } else {
        h.push_str("  <nav id=\"menu\" class=\"nav\">\n");
    }
    let nav_items = ["home", "products", "stories", "about", "contact"];
    for (i, item) in nav_items.iter().enumerate() {
        if has(ViolationKind::FB2) && i == 1 {
            // Missing space between attributes — the single most common
            // violation in the study.
            h.push_str(&format!("    <a href=\"/{item}/\"class=\"nav-link\">{item}</a>\n"));
        } else if ds.benign_newline_url && i == 2 {
            // Multi-line URL without '<': counted by the §4.5 mitigation
            // analysis, not a violation.
            h.push_str(&format!(
                "    <a href=\"/{item}\n/archive\" class=\"nav-link\">{item}</a>\n"
            ));
        } else {
            h.push_str(&format!("    <a href=\"/{item}/\" class=\"nav-link\">{item}</a>\n"));
        }
    }
    h.push_str("  </nav>\n");
    if has(ViolationKind::HF5_1) {
        // An SVG sprite fragment pasted without its <svg> root.
        h.push_str("  <path d=\"M4 4h16v16H4z\" class=\"icon-box\"></path>\n");
    } else {
        h.push_str(
            "  <svg viewBox=\"0 0 24 24\" class=\"icon\"><path d=\"M4 4h16v16H4z\"></path></svg>\n",
        );
    }
    h.push_str("</header>\n");

    // ---- main content ----
    h.push_str("<main>\n");
    h.push_str(&format!("  <h1>{}</h1>\n", r.pick(&HEADLINES)));
    let paras = r.range(2, 5);
    for _ in 0..paras {
        h.push_str("  <p>");
        let words = r.range(12, 40);
        for w in 0..words {
            if w > 0 {
                h.push(' ');
            }
            #[allow(clippy::explicit_auto_deref)]
            h.push_str(*r.pick(&PARAGRAPH_WORDS));
        }
        h.push_str(&format!(" ({year}).</p>\n"));
    }

    if has(ViolationKind::DM1) {
        // A meta refresh dropped into the body (Figure 15).
        h.push_str("  <meta http-equiv=\"refresh\" content=\"600; URL=/refresh\">\n");
    }

    match ds.archetype {
        Archetype::News | Archetype::Portal => {
            h.push_str("  <section class=\"teasers\">\n");
            for i in 0..r.range(2, 4) {
                h.push_str(&format!(
                    "    <article><h2>{}</h2><a href=\"/story/{i}\">read more</a></article>\n",
                    r.pick(&HEADLINES)
                ));
            }
            h.push_str("  </section>\n");
        }
        Archetype::Shop => {
            h.push_str("  <ul class=\"products\">\n");
            for i in 0..r.range(3, 6) {
                h.push_str(&format!(
                    "    <li><img src=\"/img/p{i}.jpg\" alt=\"item {i}\"><span>{}€</span></li>\n",
                    r.range(5, 400)
                ));
            }
            h.push_str("  </ul>\n");
        }
        Archetype::Blog | Archetype::Docs => {
            h.push_str("  <pre><code>cargo run --example quickstart</code></pre>\n");
        }
        Archetype::App => {
            h.push_str("  <div id=\"app\" data-mount=\"root\"></div>\n");
        }
    }

    // Layout table (Figure 11's shape when HF4 is expressed).
    if has(ViolationKind::HF4) {
        h.push_str(&format!(
            "  <table class=\"layout\">\n    <tr><strong>{}</strong></tr>\n    <tr>\n      <td>The #1 destination for {}</td>\n      <td><img src=\"/img/banner.png\" align=\"right\"></td>\n    </tr>\n  </table>\n",
            site,
            r.pick(&PARAGRAPH_WORDS)
        ));
    } else if r.chance(0.4) {
        h.push_str(
            "  <table class=\"data\">\n    <tr><td>metric</td><td>value</td></tr>\n    <tr><td>visits</td><td>1024</td></tr>\n  </table>\n",
        );
    }

    if has(ViolationKind::HF5_2) {
        // An HTML tooltip dropped inside an SVG chart: breakout.
        h.push_str(
            "  <svg viewBox=\"0 0 80 20\" class=\"chart\"><rect width=\"40\" height=\"8\"></rect><div class=\"tooltip\">40%</div></svg>\n",
        );
    }
    if has(ViolationKind::HF5_3) {
        h.push_str(
            "  <math><mrow><mi>x</mi><img src=\"/img/formula.png\" alt=\"x\"></mrow></math>\n",
        );
    } else if ds.uses_math {
        // Well-formed MathML adoption (§4.2's usage counter): no violation.
        h.push_str(
            "  <math><mrow><mi>E</mi><mo>=</mo><mi>m</mi><msup><mi>c</mi><mn>2</mn></msup></mrow></math>\n",
        );
    }

    if has(ViolationKind::DE3_1) {
        // A non-terminated URL attribute that swallowed following markup.
        h.push_str(
            "  <a class=\"promo\" href=\"/deal?utm=x\n<span>today only</span>\">deals</a>\n",
        );
    }
    if has(ViolationKind::DE3_2) {
        h.push_str(
            "  <div class=\"embed\" data-embed='<script src=\"https://widgets.example.net/w.js\"></script>'>widget</div>\n",
        );
    }
    if has(ViolationKind::DE3_3) {
        h.push_str("  <a href=\"#next\" target=\"win\ndow2\">open in window</a>\n");
    }

    // Search form; DE4 doubles it (the copy-paste mistake of Figure 13).
    if has(ViolationKind::DE4) {
        h.push_str(
            "  <form method=\"get\" action=\"/search/\">\n  <form id=\"keywordsearch\" method=\"get\" action=\"/search\">\n    <input name=\"q\" type=\"text\" placeholder=\"Search...\">\n  </form>\n",
        );
    } else if r.chance(0.5) {
        h.push_str(
            "  <form method=\"get\" action=\"/search\"><input name=\"q\" type=\"text\"><button>Go</button></form>\n",
        );
    }
    h.push_str("</main>\n");

    // ---- footer ----
    h.push_str("<footer class=\"site-footer\">\n");
    h.push_str(&format!(
        "  <p>&copy; {year} {site}</p>\n  <a href=\"/imprint\">imprint</a> <a href=\"/privacy\">privacy</a>\n",
    ));
    h.push_str("</footer>\n");

    if has(ViolationKind::HF3) {
        // A second body tag left behind by a legacy template include. If
        // the page also omits its opening body tag (HF2), two legacy tags
        // are needed for the markup to contain multiple body elements.
        h.push_str("<body data-legacy=\"1\" class=\"page\">\n");
        if has(ViolationKind::HF2) {
            h.push_str("<body data-legacy=\"2\">\n");
        }
    }

    // ---- the swallowing injections go last ----
    if has(ViolationKind::DE2) {
        h.push_str("<select name=\"country\"><option value=\"de\">Germany\n<p>More content below is absorbed</p>\n");
    }
    if has(ViolationKind::DE1) {
        h.push_str("<form action=\"/feedback\"><input type=\"submit\"><textarea name=\"msg\">\n<p>Everything below is swallowed</p>\n");
    }

    if !has(ViolationKind::DE1) && !has(ViolationKind::DE2) {
        h.push_str("</body>\n</html>\n");
    }
    h
}

/// Generate the page as the byte stream the archive stores. When the
/// domain-snapshot failed the UTF-8 filter (Table 2's unsuccessful rows),
/// the bytes carry a legacy-encoding byte sequence that fails strict UTF-8
/// decoding, exactly what made the paper drop those documents.
pub fn generate_page_bytes(seed: u64, ds: &DomainSnapshot, page_index: usize) -> Vec<u8> {
    let text = generate_page(seed, ds, page_index);
    let mut bytes = text.into_bytes();
    if !ds.utf8_ok {
        // Splice an ISO-8859-1 "ü" (0xFC) into the title region.
        let pos = bytes.iter().position(|&b| b == b'<').map(|p| p + 1).unwrap_or(0);
        bytes.insert(pos, 0xFC);
    }
    bytes
}

/// URL of a page within the corpus.
pub fn page_url(domain: &str, page_index: usize) -> String {
    if page_index == 0 {
        format!("https://{domain}/")
    } else {
        format!("https://{domain}/page/{page_index}.html")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DomainSnapshot;
    use crate::snapshots::Snapshot;
    use hv_core::ViolationKind as VK;

    /// Test-local one-shot over a fresh [`Battery`](hv_core::Battery).
    fn check_page(raw: &str) -> hv_core::PageReport {
        hv_core::Battery::full().run_str(raw)
    }

    /// A synthetic domain-snapshot for driving the generator directly.
    fn ds_with(expressed: Vec<VK>) -> DomainSnapshot {
        DomainSnapshot {
            domain_id: 7,
            domain_name: "alphalabs.com".into(),
            rank: 1,
            snapshot: Snapshot::ALL[3],
            utf8_ok: true,
            page_count: 4,
            expressed,
            benign_newline_url: false,
            uses_math: false,
            archetype: crate::profile::Archetype::Shop,
        }
    }

    /// The paper's validation loop, automated: for every violation kind,
    /// a page generated *with* the injection must trigger exactly that
    /// checker, and a page generated *without* must not.
    #[test]
    fn generator_checker_agreement_per_kind() {
        for kind in VK::ALL {
            let ds = ds_with(vec![kind]);
            // Page 0 always carries template kinds; local kinds get looked
            // up via their assigned pages.
            let pages = if TEMPLATE_KINDS.contains(&kind) {
                vec![0usize]
            } else {
                super::local_pages(11, &ds, kind)
            };
            let mut hit = false;
            for p in pages {
                let html = generate_page(11, &ds, p);
                let report = check_page(&html);
                if report.has(kind) {
                    hit = true;
                }
                // No *other* violation may be introduced by this injection.
                for found in report.kinds() {
                    assert_eq!(
                        found, kind,
                        "injecting {kind} also triggered {found} on page:\n{html}"
                    );
                }
            }
            assert!(hit, "injected {kind} was not detected");
        }
    }

    #[test]
    fn clean_pages_are_clean() {
        for arch_idx in 0..6u64 {
            let mut ds = ds_with(vec![]);
            ds.archetype = crate::profile::Archetype::ALL[arch_idx as usize];
            ds.domain_id = arch_idx;
            for p in 0..4 {
                let html = generate_page(5, &ds, p);
                let report = check_page(&html);
                assert!(
                    report.is_clean(),
                    "clean template produced findings {:?}:\n{html}",
                    report.findings
                );
            }
        }
    }

    #[test]
    fn all_twenty_at_once_still_detected() {
        // Stress: a maximally sloppy domain expressing everything.
        let ds = ds_with(VK::ALL.to_vec());
        let mut detected = std::collections::BTreeSet::new();
        for p in 0..ds.page_count {
            let html = generate_page(3, &ds, p);
            for k in check_page(&html).kinds() {
                detected.insert(k);
            }
        }
        for kind in VK::ALL {
            assert!(detected.contains(&kind), "{kind} lost in combined injection");
        }
    }

    #[test]
    fn benign_newline_url_sets_mitigation_flag_only() {
        let mut ds = ds_with(vec![]);
        ds.benign_newline_url = true;
        let html = generate_page(5, &ds, 0);
        let report = check_page(&html);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert!(report.mitigations.newline_in_url);
        assert!(!report.mitigations.newline_and_lt_in_url);
    }

    #[test]
    fn de3_1_sets_both_mitigation_flags() {
        let ds = ds_with(vec![VK::DE3_1]);
        let page = super::local_pages(11, &ds, VK::DE3_1)[0];
        let html = generate_page(11, &ds, page);
        let report = check_page(&html);
        assert!(report.mitigations.newline_and_lt_in_url);
    }

    #[test]
    fn pages_are_deterministic() {
        let ds = ds_with(vec![VK::FB2, VK::HF4]);
        assert_eq!(generate_page(9, &ds, 1), generate_page(9, &ds, 1));
        assert_ne!(generate_page(9, &ds, 1), generate_page(9, &ds, 2));
    }

    #[test]
    fn pages_have_realistic_size() {
        let ds = ds_with(vec![]);
        let html = generate_page(1, &ds, 0);
        assert!(html.len() > 1200, "page too small: {}", html.len());
        assert!(html.len() < 64 * 1024);
    }

    #[test]
    fn non_utf8_bytes_fail_strict_decode() {
        let mut ds = ds_with(vec![]);
        ds.utf8_ok = false;
        let bytes = generate_page_bytes(1, &ds, 0);
        assert!(!spec_html::decoder::is_utf8_clean(&bytes));
        ds.utf8_ok = true;
        let bytes = generate_page_bytes(1, &ds, 0);
        assert!(spec_html::decoder::is_utf8_clean(&bytes));
    }

    #[test]
    fn page_urls() {
        assert_eq!(page_url("x.com", 0), "https://x.com/");
        assert_eq!(page_url("x.com", 3), "https://x.com/page/3.html");
    }
}
