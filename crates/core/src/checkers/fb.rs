//! Filter Bypass checks (FB1–FB2, §3.2.2) — the two most common violations
//! in the study (FB2 on 78.5% of domains, FB1 on 42.8%).

use super::{Check, Interest};
use crate::context::CheckContext;
use crate::report::Finding;
use crate::taxonomy::ViolationKind;
use spec_html::errors::ParseError;
use spec_html::ErrorCode;

/// FB1 — slash between attributes: the tokenizer's
/// `unexpected-solidus-in-tag` error. Parsers treat the `/` as whitespace,
/// so `<img/src=x/onerror=alert(1)>` bypasses filters that block spaces.
pub struct Fb1;

impl Check for Fb1 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::FB1
    }

    fn interest(&self) -> Interest {
        Interest::ERRORS
    }

    fn on_parse_error(&mut self, cx: &CheckContext<'_>, err: &ParseError, out: &mut Vec<Finding>) {
        if err.code == ErrorCode::UnexpectedSolidusInTag {
            out.push(Finding::new(
                ViolationKind::FB1,
                err.offset,
                format!("solidus treated as whitespace near “{}”", cx.excerpt(err.offset, 24)),
            ));
        }
    }
}

/// FB2 — missing whitespace between attributes: the tokenizer's
/// `missing-whitespace-between-attributes` error. The parser inserts the
/// missing separator, so `<img src="x"onerror="y">` works — and bypasses
/// space-blocking filters.
pub struct Fb2;

impl Check for Fb2 {
    fn kind(&self) -> ViolationKind {
        ViolationKind::FB2
    }

    fn interest(&self) -> Interest {
        Interest::ERRORS
    }

    fn on_parse_error(&mut self, cx: &CheckContext<'_>, err: &ParseError, out: &mut Vec<Finding>) {
        if err.code == ErrorCode::MissingWhitespaceBetweenAttributes {
            out.push(Finding::new(
                ViolationKind::FB2,
                err.offset,
                format!("attributes not separated near “{}”", cx.excerpt(err.offset, 24)),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    /// Test-local one-shot over a fresh [`Battery`](crate::Battery).
    fn check_page(raw: &str) -> crate::report::PageReport {
        crate::Battery::full().run_str(raw)
    }
    use crate::taxonomy::ViolationKind::*;

    #[test]
    fn fb1_xss_payload() {
        let r = check_page(r#"<img/src="x"/onerror="alert('XSS')">"#);
        assert!(r.has(FB1));
    }

    #[test]
    fn fb1_figure13_broken_onclick() {
        // The wrong quotes break the attribute so /foo's slash becomes
        // whitespace.
        let r = check_page(
            r#"<a href="/x" target="_blank" onClick="img=new Image();img.src="/foo?cl=1";">l</a>"#,
        );
        assert!(r.has(FB1));
    }

    #[test]
    fn fb1_valid_self_closing_ok() {
        let r = check_page(r#"<input name="q" type="text" />"#);
        assert!(!r.has(FB1));
    }

    #[test]
    fn fb2_concatenated_attributes() {
        let r = check_page(r#"<img src="users/injection"onerror="alert('XSS')">"#);
        assert!(r.has(FB2));
    }

    #[test]
    fn fb2_figure13_iframe() {
        let r = check_page(r#"<iframe src="https://foobar"</iframe>"#);
        assert!(r.has(FB2));
    }

    #[test]
    fn fb2_figure13_cote_divoire() {
        let r = check_page("<select><option value='Cote d'Ivoire'>x</option></select>");
        assert!(r.has(FB2));
    }

    #[test]
    fn fb2_spaced_attributes_ok() {
        let r = check_page(r#"<img src="a.png" alt="a" title="b">"#);
        assert!(!r.has(FB2));
    }

    #[test]
    fn fb_errors_count_once_per_occurrence() {
        let r = check_page(r#"<img src="a"alt="b"title="c">"#);
        let fb2 = r.findings.iter().filter(|f| f.kind == FB2).count();
        assert_eq!(fb2, 2);
    }
}
