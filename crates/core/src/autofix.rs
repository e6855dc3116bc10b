//! The §4.4 automatic repair process.
//!
//! The paper estimates that 46% of violating sites could be fixed with "a
//! simple automated process":
//!
//! * **FB1/FB2** — "serializing the entire document with the current HTML
//!   parser and deserializing it again. The syntax would be fixed, but the
//!   semantics would still be broken."
//! * **DM3** — "all duplicates that appear after the first occurrence can
//!   automatically be removed since the existing parser currently ignores
//!   the other attributes anyway."
//! * **DM1/DM2** — "could also be automatically removed relatively simply
//!   … by automatically moving the elements in the head section."
//!
//! [`auto_fix`] implements exactly that: parse (which already normalizes
//! FB/DM3 syntax), relocate stray `meta[http-equiv]`/`base` elements into
//! the head, dedupe extra `base` elements, and serialize. The outcome
//! reports which violations disappeared and which (manual) ones remain.

use crate::battery::Battery;
use crate::taxonomy::{Fixability, ViolationKind};
use spec_html::dom::{Document, NodeId};
use spec_html::serializer;
use std::collections::BTreeSet;

/// Result of one automatic repair pass.
#[derive(Debug, Clone)]
pub struct FixOutcome {
    /// The repaired document markup.
    pub fixed_html: String,
    /// Violation kinds found before fixing.
    pub before: BTreeSet<ViolationKind>,
    /// Violation kinds still present after fixing (re-checked).
    pub after: BTreeSet<ViolationKind>,
}

impl FixOutcome {
    /// Kinds that the automatic pass eliminated.
    pub fn eliminated(&self) -> BTreeSet<ViolationKind> {
        self.before.difference(&self.after).copied().collect()
    }

    /// True when every automatically-fixable kind that was present is gone.
    pub fn automatic_kinds_resolved(&self) -> bool {
        self.after.iter().all(|k| k.fixability() == Fixability::Manual)
    }
}

/// Run the §4.4 automatic repair over a document.
pub fn auto_fix(raw: &str) -> FixOutcome {
    // One battery serves both the before- and after-check.
    let mut battery = Battery::full();
    let before = battery.run_str(raw).kinds();

    // One pass is not always enough: serializing can itself surface
    // violations the original parse hid (a MathML-namespace <base>
    // re-enters the HTML namespace once its <p> sibling breaks out of
    // foreign content on reparse, becoming a fixable DM2_1). Iterate
    // until no automatically fixable kind remains or the markup stops
    // changing; three passes bound the loop — pass 1 fixes the input,
    // pass 2 fixes what serialization surfaced, pass 3 is margin.
    let mut fixed_html = raw.to_owned();
    let mut after = before.clone();
    for _ in 0..3 {
        // The reparsed DOM is dropped before the after-check parses the
        // new markup: two deep documents' trees never coexist.
        let next = {
            let mut out = spec_html::parse_document(&fixed_html);
            relocate_head_content(&mut out.dom);
            serializer::serialize(&out.dom)
        };
        let stalled = next == fixed_html;
        fixed_html = next;
        after = battery.run_str(&fixed_html).kinds();
        if stalled || !after.iter().any(|k| k.fixability() == Fixability::Automatic) {
            break;
        }
    }
    FixOutcome { fixed_html, before, after }
}

/// Predict, without rewriting, which of a page's violations the automatic
/// pass would remove — the classification used for the §4.4 "46% of sites"
/// projection.
pub fn fixable_kinds(kinds: &BTreeSet<ViolationKind>) -> BTreeSet<ViolationKind> {
    kinds.iter().copied().filter(|k| k.fixability() == Fixability::Automatic).collect()
}

/// DM1/DM2 repair: move stray `meta[http-equiv]` and `base` elements into
/// the head (base first, so DM2_3 is satisfied), and drop all but the first
/// `base` (which is the one the parser honours anyway).
fn relocate_head_content(dom: &mut Document) {
    let Some(head) = dom.find_html("head") else { return };

    // Collect offending nodes first (can't mutate while iterating).
    let mut stray_metas: Vec<NodeId> = Vec::new();
    let mut bases: Vec<NodeId> = Vec::new();
    for id in dom.all_elements().collect::<Vec<_>>() {
        if dom.is_html(id, "base") {
            bases.push(id);
        } else if dom.is_html(id, "meta")
            && dom.element(id).is_some_and(|e| e.has_attr("http-equiv"))
            && !dom.ancestors(id).any(|a| dom.is_html(a, "head"))
        {
            stray_metas.push(id);
        }
    }

    // The parser honours the *first* base element; keep it, drop the rest.
    if let Some(&first_base) = bases.first() {
        for &extra in &bases[1..] {
            dom.detach(extra);
        }
        // Move the surviving base to the front of head so it precedes every
        // URL-using element (fixes DM2_1 and DM2_3 in one move).
        let head_first = dom.node(head).first_child;
        match head_first {
            Some(first) if first != first_base => dom.insert_before(first, first_base),
            None => dom.append(head, first_base),
            _ => {}
        }
    }

    for meta in stray_metas {
        dom.append(head, meta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::ViolationKind::*;

    #[test]
    fn fb2_fixed_by_roundtrip() {
        let out = auto_fix(r#"<body><img src="a.png"alt="x"></body>"#);
        assert!(out.before.contains(&FB2));
        assert!(!out.after.contains(&FB2));
        // The image survives with both attributes.
        assert!(out.fixed_html.contains(r#"<img src="a.png" alt="x">"#));
    }

    #[test]
    fn fb1_fixed_by_roundtrip() {
        let out = auto_fix("<body><img/src=\"a\"/alt=\"b\"></body>");
        assert!(out.before.contains(&FB1));
        assert!(!out.after.contains(&FB1));
    }

    #[test]
    fn dm3_duplicates_removed() {
        let out = auto_fix(r#"<body><div onclick="first()" onclick="second()">x</div></body>"#);
        assert!(out.before.contains(&DM3));
        assert!(!out.after.contains(&DM3));
        // First occurrence wins, as the parser already behaved.
        assert!(out.fixed_html.contains("first()"));
        assert!(!out.fixed_html.contains("second()"));
    }

    #[test]
    fn dm1_meta_moved_into_head() {
        let out = auto_fix(
            "<!DOCTYPE html><head><title>t</title></head><body><meta http-equiv=\"refresh\" content=\"0\"><p>x</p></body>",
        );
        assert!(out.before.contains(&DM1));
        assert!(!out.after.contains(&DM1));
        // The meta now lives in head, before </head>.
        let head_end = out.fixed_html.find("</head>").unwrap();
        let meta_pos = out.fixed_html.find("http-equiv").unwrap();
        assert!(meta_pos < head_end);
    }

    #[test]
    fn dm2_base_moved_and_deduped() {
        let out = auto_fix(
            "<!DOCTYPE html><head><link rel=\"stylesheet\" href=\"s.css\"></head>\
             <body><base href=\"/a/\"><base href=\"/b/\"><a href=\"x\">l</a></body>",
        );
        assert!(out.before.contains(&DM2_1));
        assert!(out.before.contains(&DM2_2));
        assert!(out.before.contains(&DM2_3));
        assert!(!out.after.contains(&DM2_1), "after: {:?}\n{}", out.after, out.fixed_html);
        assert!(!out.after.contains(&DM2_2));
        assert!(!out.after.contains(&DM2_3));
        // The first base (the one the parser honoured) survives.
        assert!(out.fixed_html.contains("/a/"));
        assert!(!out.fixed_html.contains("/b/"));
    }

    #[test]
    fn manual_kinds_survive() {
        // HF4 (broken table) is not automatically fixable: serialize →
        // reparse keeps the already-mutated tree, so the *violation* is
        // gone from the output, but the paper classifies the repair as
        // manual because the layout intent is lost. The outcome reports the
        // violation kinds honestly: after fixing, HF4 no longer fires (the
        // tree was normalized), which is exactly the paper's "syntax fixed,
        // semantics still broken".
        let out = auto_fix("<body><table><tr><strong>t</strong></tr></table></body>");
        assert!(out.before.contains(&HF4));
        assert!(!out.after.contains(&HF4));
    }

    #[test]
    fn de1_not_fixable() {
        // An unterminated textarea cannot be repaired automatically — the
        // fixer must not invent a closing point. After the roundtrip the
        // textarea swallowed the rest of the document; the *re-serialized*
        // page is syntactically closed, but the checker classification
        // stays Manual.
        assert_eq!(DE1.fixability(), Fixability::Manual);
    }

    #[test]
    fn fixable_kinds_projection() {
        let kinds: BTreeSet<_> = [FB1, FB2, DM3, HF4, DE1].into_iter().collect();
        let fixable = fixable_kinds(&kinds);
        assert!(fixable.contains(&FB1));
        assert!(fixable.contains(&FB2));
        assert!(fixable.contains(&DM3));
        assert!(!fixable.contains(&HF4));
        assert!(!fixable.contains(&DE1));
    }

    #[test]
    fn clean_page_unchanged_semantically() {
        let src = "<!DOCTYPE html><html><head><title>t</title></head><body><p>x</p></body></html>";
        let out = auto_fix(src);
        assert!(out.before.is_empty());
        assert!(out.after.is_empty());
        assert_eq!(out.fixed_html, src);
    }

    #[test]
    fn fix_is_idempotent() {
        let messy = r#"<body><img src="a"alt="b"><div id=x id=y>t</div><meta http-equiv=refresh content=0></body>"#;
        let once = auto_fix(messy);
        let twice = auto_fix(&once.fixed_html);
        assert_eq!(once.fixed_html, twice.fixed_html);
        assert_eq!(twice.before, twice.after);
    }
}
