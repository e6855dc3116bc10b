//! HTML serialization (§13.3 "Serializing HTML fragments").
//!
//! The serializer is half of the paper's proposed automatic fix for the FB
//! violations (§4.4): *"repairing these issues could be automated by
//! serializing the entire document with the current HTML parser and
//! deserializing it again. The syntax would be fixed, but the semantics
//! would still be broken."* It is also half of every mXSS attack: a document
//! that serializes to markup which re-parses *differently* is exactly what
//! Figure 1 exploits. [`serialize`] therefore follows the spec's algorithm
//! precisely — including the places where the spec's output is known not to
//! round-trip.

use crate::dom::{Document, Namespace, NodeData, NodeId};
use crate::tags;

/// Serialize a whole document, including any DOCTYPE.
pub fn serialize(doc: &Document) -> String {
    serialize_subtree(doc, doc.root())
}

/// Serialize the subtree rooted at `id` (the node itself plus its contents).
pub fn serialize_subtree(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    write_nodes(doc, vec![Step::Node(id)], &mut out);
    out
}

/// Serialize only the children of `id` (the spec's "fragment serialization"
/// of an element — what `innerHTML` returns).
pub fn serialize_children(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    let mut stack = Vec::new();
    push_children(doc, id, &mut stack);
    write_nodes(doc, stack, &mut out);
    out
}

/// One pending unit of output on the explicit walk stack (8 bytes, so a
/// deep chain's stack stays small).
enum Step {
    /// Serialize this node (and, for elements, schedule its contents).
    Node(NodeId),
    /// Write this element's end tag; its contents are done.
    EndTag(NodeId),
}

/// Push `id`'s children so that the first child pops first.
fn push_children(doc: &Document, id: NodeId, stack: &mut Vec<Step>) {
    let mut child = doc.node(id).last_child;
    while let Some(c) = child {
        stack.push(Step::Node(c));
        child = doc.node(c).prev_sibling;
    }
}

/// Drain `stack` in document order. The walk keeps its own stack on the
/// heap, so nesting depth never costs call-stack frames: a 100k-deep
/// element chain serializes on any thread.
fn write_nodes(doc: &Document, mut stack: Vec<Step>, out: &mut String) {
    while let Some(step) = stack.pop() {
        let id = match step {
            Step::Node(id) => id,
            Step::EndTag(id) => {
                if let Some(e) = doc.element(id) {
                    out.push_str("</");
                    out.push_str(&e.name);
                    out.push('>');
                }
                continue;
            }
        };
        match &doc.node(id).data {
            NodeData::Document => push_children(doc, id, &mut stack),
            NodeData::Doctype { name, .. } => {
                out.push_str("<!DOCTYPE ");
                out.push_str(name);
                out.push('>');
            }
            NodeData::Comment(c) => {
                out.push_str("<!--");
                out.push_str(c);
                out.push_str("-->");
            }
            NodeData::Text(t) => write_text(doc, id, t, out),
            NodeData::Element(e) => {
                out.push('<');
                out.push_str(&e.name);
                for a in &e.attrs {
                    out.push(' ');
                    out.push_str(&a.name);
                    out.push_str("=\"");
                    escape_attr(&a.value, out);
                    out.push('"');
                }
                out.push('>');
                // §13.3's "skip the end tag" list is the void elements plus
                // the legacy quartet basefont/bgsound/frame/keygen.
                let no_end_tag = e.ns == Namespace::Html
                    && (tags::is_void(&e.name)
                        || matches!(e.name.as_str(), "basefont" | "bgsound" | "frame" | "keygen"));
                if !no_end_tag {
                    // Foreign elements with no children serialize with an
                    // explicit end tag too (we never keep the self-closing
                    // flag in the DOM).
                    stack.push(Step::EndTag(id));
                    push_children(doc, id, &mut stack);
                }
            }
        }
    }
}

fn write_text(doc: &Document, id: NodeId, t: &str, out: &mut String) {
    // Text inside the spec's "literal text" elements is emitted verbatim;
    // everything else is escaped. `noscript` is NOT in this set: §13.2 only
    // exempts it "if the scripting flag is enabled", and this parser runs
    // scripting-disabled (noscript children are real markup, so their text
    // must re-escape or `&lt` inside noscript round-trips into a bogus tag).
    let parent_name = doc
        .node(id)
        .parent
        .and_then(|p| doc.element(p))
        .filter(|e| e.ns == Namespace::Html)
        .map(|e| e.name.clone());
    let literal = matches!(
        parent_name.as_deref(),
        Some("style" | "script" | "xmp" | "iframe" | "noembed" | "noframes" | "plaintext")
    );
    if literal {
        out.push_str(t);
    } else {
        escape_text(t, out);
    }
}

/// Escape text content: `&`, `<`, `>`, and non-breaking space.
pub fn escape_text(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '\u{A0}' => out.push_str("&nbsp;"),
            c => out.push(c),
        }
    }
}

/// Escape attribute values: `&`, `"`, and non-breaking space (the spec's
/// attribute mode; note `<` is *not* escaped — one of the reasons mXSS
/// round-trips exist).
pub fn escape_attr(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\u{A0}' => out.push_str("&nbsp;"),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_document;

    fn roundtrip(input: &str) -> String {
        serialize(&parse_document(input).dom)
    }

    #[test]
    fn basic_document() {
        let out = roundtrip("<!DOCTYPE html><html><head></head><body><p>x</p></body></html>");
        assert_eq!(out, "<!DOCTYPE html><html><head></head><body><p>x</p></body></html>");
    }

    #[test]
    fn void_elements_have_no_end_tag() {
        let out = roundtrip("<p><img src=x><br></p>");
        assert!(out.contains("<img src=\"x\"><br>"));
        assert!(!out.contains("</img>"));
        assert!(!out.contains("</br>"));
    }

    #[test]
    fn attributes_are_double_quoted_and_escaped() {
        let out = roundtrip(r#"<div title='a "b" & c'></div>"#);
        assert!(out.contains(r#"title="a &quot;b&quot; &amp; c""#));
    }

    #[test]
    fn text_is_escaped() {
        let out = roundtrip("<p>a &lt; b &amp; c</p>");
        assert!(out.contains("a &lt; b &amp; c"));
    }

    #[test]
    fn style_content_is_literal() {
        let out = roundtrip("<style>a > b { color: red }</style>");
        assert!(out.contains("<style>a > b { color: red }</style>"));
    }

    #[test]
    fn script_content_is_literal() {
        let out = roundtrip("<script>if (a < b) x();</script>");
        assert!(out.contains("<script>if (a < b) x();</script>"));
    }

    #[test]
    fn comments_preserved() {
        let out = roundtrip("<p><!-- note --></p>");
        assert!(out.contains("<!-- note -->"));
    }

    #[test]
    fn serialization_is_idempotent_on_messy_input() {
        // One serialize → parse → serialize round must be a fixpoint for
        // ordinary (non-mXSS) markup: this is what makes the §4.4 auto-fix
        // safe.
        let messy = r#"<div id=a class='b'><p>one<p>two<table><tr><td>x</table><img src=1>"#;
        let once = roundtrip(messy);
        let twice = roundtrip(&once);
        assert_eq!(once, twice);
    }

    /// Nesting depth costs heap, not call stack: a 100k-deep chain
    /// (built directly; the tree builder is not under test) serializes on
    /// a thread with a 2 MiB stack, and every level opens and closes.
    #[test]
    fn deep_chain_serializes_on_a_small_stack() {
        const DEPTH: usize = 100_000;
        let out = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let mut doc = Document::new();
                let mut parent = doc.root();
                for _ in 0..DEPTH {
                    let e = doc.create_element("div", Namespace::Html, Vec::new());
                    doc.append(parent, e);
                    parent = e;
                }
                doc.append_text(parent, "x<");
                serialize(&doc)
            })
            .unwrap()
            .join()
            .expect("serializer must not overflow the stack");
        assert_eq!(out, format!("{}x&lt;{}", "<div>".repeat(DEPTH), "</div>".repeat(DEPTH)));
    }

    #[test]
    fn children_and_subtree_forms_agree_with_the_whole() {
        let doc = parse_document("<!DOCTYPE html><p id=a>one<b>two</b><!--c--></p><br>").dom;
        let p = doc.find_html("p").unwrap();
        assert_eq!(serialize_subtree(&doc, p), r#"<p id="a">one<b>two</b><!--c--></p>"#);
        assert_eq!(serialize_children(&doc, p), "one<b>two</b><!--c-->");
        assert_eq!(serialize_subtree(&doc, doc.root()), serialize(&doc));
    }

    #[test]
    fn attr_lt_not_escaped() {
        // The spec does not escape `<` in attribute values — load-bearing
        // for mXSS demonstrations.
        let out = roundtrip(r#"<img title="--&gt;&lt;img src=1&gt;">"#);
        assert!(out.contains(r#"title="--><img src=1>""#));
    }
}
