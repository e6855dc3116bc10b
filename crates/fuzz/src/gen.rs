//! Seeded, structure-aware HTML case generation.
//!
//! Every case is a **pure function of `(seed, index)`** — the generator
//! draws all randomness from [`hv_corpus::rng::KeyedRng`] keyed on exactly
//! those two values, so a corpus is identical across runs, machines, and
//! thread counts, and any failing case is reproducible from two integers.
//!
//! A case is produced as a list of **pieces** ([`case_pieces`]): each
//! piece is one syntactic unit (a whole start tag, an end tag, a text
//! run, a comment, a DOCTYPE, a character-reference edge, a chunk of raw
//! chaff). The piece list is the unit the ddmin minimizer removes at
//! first ([`crate::ddmin`]), which shrinks failures along syntactic
//! boundaries before falling back to byte granularity.
//!
//! The grammar is *structure-aware*, not uniform soup: the generator
//! keeps a stack of open elements and usually nests and closes them
//! properly, so cases reach deep tree-builder paths (tables, select,
//! template, SVG/MathML foreign content and its integration points)
//! instead of bouncing off the "in body" recovery rules — and then it
//! deliberately misnests, leaves elements open, or interleaves foreign
//! content with a tuned error rate, because the error-recovery paths are
//! exactly what the paper's checkers are built on.
//!
//! A small fixed share of cases also carries one **adversarial run**
//! ([`adversarial_pieces`]): thousands of nested `div`/`b`/`table`/`svg`/
//! `select`/`template` levels, misnested formatting end tags, or an
//! attribute flood — the shapes that cost superlinear time whenever a
//! parser step walks the open-element stack, the active-formatting list or
//! a tag's attributes. The run is drawn from its own keyed stream, so every
//! other case is exactly what the grammar alone produces.

use hv_corpus::rng::KeyedRng;

/// Tags the generator opens and (usually) closes, spanning every
/// insertion-mode family: plain flow, tables (and their foster-parenting
/// rules), select, template, RCDATA/RAWTEXT/script data, formatting
/// elements (adoption agency), and foreign content with both kinds of
/// integration points.
const CONTAINERS: &[&str] = &[
    "div",
    "p",
    "span",
    "b",
    "i",
    "em",
    "strong",
    "a",
    "u",
    "code",
    "ul",
    "ol",
    "li",
    "h1",
    "h2",
    "table",
    "caption",
    "colgroup",
    "thead",
    "tbody",
    "tr",
    "td",
    "th",
    "select",
    "option",
    "optgroup",
    "form",
    "button",
    "fieldset",
    "template",
    "article",
    "section",
    "nav",
    "marquee",
    "object",
    "noscript",
    "title",
    "textarea",
    "style",
    "script",
    "xmp",
    "iframe",
    "svg",
    "math",
    "mtext",
    "mi",
    "mo",
    "mrow",
    "ms",
    "annotation-xml",
    "foreignObject",
    "desc",
    "g",
    "path",
    "head",
    "body",
    "html",
];

/// Void elements: emitted as lone start tags (sometimes self-closed).
const VOIDS: &[&str] =
    &["br", "img", "input", "base", "meta", "hr", "link", "area", "col", "embed", "wbr"];

/// Attribute names, including URL attributes (the DE3 family and the §4.5
/// mitigation flags key on these) and event handlers.
const ATTR_NAMES: &[&str] = &[
    "id",
    "class",
    "href",
    "src",
    "title",
    "alt",
    "name",
    "value",
    "type",
    "data-x",
    "style",
    "onerror",
    "onclick",
    "action",
    "content",
    "http-equiv",
    "xlink:href",
    "formaction",
];

/// Attribute values, several of which carry character-reference or
/// dangling-markup edges.
const ATTR_VALUES: &[&str] = &[
    "x",
    "main nav",
    "/assets/app.js",
    "https://example.com/a?b=1&c=2",
    "a&amp;b",
    "a&ampb",
    "&notin;",
    "javascript:alert(1)",
    "multi\nline",
    "has<angle",
    "quote\"inside",
    "",
    "100%",
];

/// Character-reference edge atoms: every numeric range the spec calls out
/// (null, surrogate, out-of-range, noncharacter, C1 control), named
/// references with and without semicolons, and malformed openers.
const CHARREF_EDGES: &[&str] = &[
    "&amp;",
    "&amp",
    "&ampx",
    "&AMP;",
    "&lt;",
    "&notit;",
    "&not;",
    "&notin;",
    "&unknown;",
    "&#65;",
    "&#x41;",
    "&#X41;",
    "&#0;",
    "&#xD800;",
    "&#x110000;",
    "&#xFDD0;",
    "&#x80;",
    "&#x9F;",
    "&#;",
    "&#x;",
    "&#10;",
    "&#x1F600;",
    "&",
    "&#",
    "&a",
];

/// Raw chaff: partial syntax that exercises tokenizer error states.
const CHAFF: &[&str] = &[
    "<",
    ">",
    "</",
    "/>",
    "<!",
    "<!-",
    "<!-->",
    "<!--->",
    "--!>",
    "-->",
    "<?",
    "<?xml?>",
    "</>",
    "</ x>",
    "<![CDATA[",
    "<![CDATA[x]]>",
    "]]>",
    "<%",
    "=\"",
    "'",
    "\u{0}",
    "\u{1}",
    "\u{b}",
    "\u{7f}",
    "\u{FDD0}",
    "\u{2028}",
];

/// Text words for realistic-looking character data.
const WORDS: &[&str] = &[
    "alpha",
    "beta",
    "gamma",
    "delta",
    "update",
    "release",
    "table",
    "of",
    "contents",
    "menu",
    "Fußball",
    "naïve",
    "日本語",
    "emoji😀",
    "x",
];

/// Comment bodies, including the nested/abrupt error shapes.
const COMMENTS: &[&str] = &[
    "<!-- plain comment -->",
    "<!-- nested <!-- opener -->",
    "<!-->",
    "<!---->",
    "<!-- closed wrong --!>",
    "<!--two--dashes-->",
    "<!-- unterminated",
    "<!doctype html>",
    "<!DOCTYPE html>",
    "<!DOCTYPE html PUBLIC \"-//W3C//DTD HTML 4.01//EN\">",
    "<!DOCTYPE>",
    "<!DOCTYPEhtml>",
];

/// Share of cases that carry an adversarial run.
const ADVERSARIAL_RATE: f64 = 0.02;

/// Size cap of one adversarial run: with the grammar's part (< 16 KiB) a
/// case stays within 64 KiB.
const ADVERSARIAL_BYTES: usize = 48 * 1024;

/// Formatting elements the misnesting run interleaves.
const FORMATTING: &[&str] = &["a", "b", "i", "em", "strong", "u", "code", "nobr", "font", "s"];

/// Generate case `index` of seed `seed` as its piece list. Concatenating
/// the pieces (see [`render`]) yields the case text; the list is also the
/// coarse granularity for ddmin shrinking.
pub fn case_pieces(seed: u64, index: u64) -> Vec<String> {
    let mut pieces = grammar_pieces(seed, index);
    let mut r = KeyedRng::new(seed, &[0xAD7E25A1, index]);
    if r.chance(ADVERSARIAL_RATE) {
        let at = r.below(pieces.len() + 1);
        pieces.splice(at..at, adversarial_pieces(&mut r));
    }
    pieces
}

/// One adversarial run, one piece per nesting level (or attribute), so
/// ddmin can shrink it level by level.
fn adversarial_pieces(r: &mut KeyedRng) -> Vec<String> {
    let shape = r.below(13);
    let levels = r.range(64, 4096);
    let mut pieces: Vec<String> = match shape {
        3 => vec!["<p>".to_owned()],
        6 => vec!["<svg>".to_owned()],
        11 => vec!["<div".to_owned()],
        _ => Vec::new(),
    };
    let mut bytes = 0;
    for i in 0..levels {
        let piece = match shape {
            // Deep blocks: every start tag checks scopes on the stack.
            0 | 3 => format!("<div class=d{i}>"),
            // Long active-formatting lists: distinct attributes, the same
            // attributes, and bare tags (Noah's-Ark matches).
            1 => format!("<b data-k={i}>x"),
            12 => "<b class=x>x".to_owned(),
            2 => "<b>x".to_owned(),
            // The form pointer's template check on every nested form.
            4 => "<div><form>".to_owned(),
            5 => "<table><tr><td>".to_owned(),
            6 => format!("<g id=g{i}>"),
            7 => format!("<table><tr><td><select><option value={i}>x"),
            8 => format!("<template id=t{i}>"),
            // Misnested formatting end tags: the adoption agency.
            9 => {
                let (f, g) = (r.pick(FORMATTING), r.pick(FORMATTING));
                format!("<{f}><{g}><div>x</{f}>y")
            }
            10 => format!("<span><meta http-equiv=x content=c{i}>"),
            // Attribute flood; every eighth name repeats an earlier one.
            _ => format!(" a{}=v{i}", if i % 8 == 7 { i / 2 } else { i }),
        };
        bytes += piece.len();
        if bytes > ADVERSARIAL_BYTES {
            break;
        }
        pieces.push(piece);
    }
    if shape == 11 {
        pieces.push(">".to_owned());
    }
    pieces
}

/// The grammar's part of a case: everything but the adversarial run.
fn grammar_pieces(seed: u64, index: u64) -> Vec<String> {
    let mut r = KeyedRng::new(seed, &[0xF0225EED, index]);
    let mut pieces = Vec::new();
    let mut stack: Vec<&'static str> = Vec::new();

    if r.chance(0.6) {
        pieces.push((*r.pick(COMMENTS)).to_owned());
    }
    let budget = r.range(1, 48);
    for _ in 0..budget {
        emit(&mut r, &mut pieces, &mut stack);
    }
    // Unwind whatever is still open — usually properly, sometimes not at
    // all (unterminated elements are DE1/DE2's raw material), sometimes in
    // the wrong order (adoption agency fodder).
    while let Some(name) = stack.pop() {
        match r.below(10) {
            0..=6 => pieces.push(format!("</{name}>")),
            7 => pieces.push(format!("</{}>", r.pick(CONTAINERS))),
            _ => {} // leave open at EOF
        }
    }
    pieces
}

/// Render a piece list to case text.
pub fn render(pieces: &[String]) -> String {
    pieces.concat()
}

/// The rendered case for `(seed, index)` — the function every consumer
/// (runner, replay line, determinism test) agrees on.
pub fn case(seed: u64, index: u64) -> String {
    render(&case_pieces(seed, index))
}

/// Emit one syntactic unit, updating the open-element stack.
fn emit(r: &mut KeyedRng, pieces: &mut Vec<String>, stack: &mut Vec<&'static str>) {
    match r.below(20) {
        // --- start a container, usually remembering to close it later ---
        0..=6 => {
            let name = *r.pick(CONTAINERS);
            pieces.push(start_tag(r, name));
            // Text-swallowing elements get their content and (usually)
            // their closer immediately: otherwise nearly every case would
            // end inside RAWTEXT/RCDATA and never reach the tree builder.
            match name {
                "script" | "style" | "textarea" | "title" | "xmp" | "iframe" => {
                    let body = match r.below(4) {
                        0 => "var x = 1 < 2;".to_owned(),
                        1 => format!("content {}", r.pick(WORDS)),
                        2 => "<!--<script>a</script>".to_owned(),
                        _ => String::new(),
                    };
                    pieces.push(body);
                    if r.chance(0.85) {
                        pieces.push(format!("</{name}>"));
                    }
                }
                _ => stack.push(name),
            }
        }
        // --- a void element ---
        7..=8 => {
            let name = *r.pick(VOIDS);
            pieces.push(start_tag(r, name));
        }
        // --- close something: matching, misnested, or stray ---
        9..=11 => match r.below(4) {
            0..=1 => {
                if let Some(name) = stack.pop() {
                    pieces.push(format!("</{name}>"));
                }
            }
            2 => {
                // Misnest: close an element that is open but not topmost
                // (adoption agency / implied-end-tag territory).
                if !stack.is_empty() {
                    let i = r.below(stack.len());
                    let name = stack.remove(i);
                    pieces.push(format!("</{name}>"));
                }
            }
            _ => pieces.push(format!("</{}>", r.pick(CONTAINERS))),
        },
        // --- character data ---
        12..=14 => {
            let n = r.range(1, 5);
            let mut text = String::new();
            for i in 0..n {
                if i > 0 {
                    text.push(' ');
                }
                text.push_str(r.pick::<&str>(WORDS));
            }
            pieces.push(text);
        }
        // --- character-reference edges ---
        15..=16 => pieces.push((*r.pick(CHARREF_EDGES)).to_owned()),
        // --- comments / doctypes / CDATA ---
        17 => pieces.push((*r.pick(COMMENTS)).to_owned()),
        // --- raw chaff (tokenizer error states) ---
        _ => pieces.push((*r.pick(CHAFF)).to_owned()),
    }
}

/// Build one start tag with 0–3 attributes, deliberately malformed with a
/// tuned rate: missing inter-attribute space (FB2), slashes as separators
/// (FB1), duplicate names (DM3), unquoted/single-quoted/empty values,
/// self-closing syntax on non-void elements.
fn start_tag(r: &mut KeyedRng, name: &str) -> String {
    let mut t = format!("<{name}");
    let n_attrs = r.below(4);
    let mut last_name = "";
    for i in 0..n_attrs {
        // Separator: usually a space; sometimes the FB1/FB2 shapes.
        match r.below(12) {
            0 => t.push('/'), // FB1: slash as separator
            1 if i > 0 => {}  // FB2: nothing between attributes
            _ => t.push(' '),
        }
        let a_name = if i > 0 && r.chance(0.12) {
            last_name // DM3: duplicate attribute
        } else {
            *r.pick(ATTR_NAMES)
        };
        last_name = a_name;
        t.push_str(a_name);
        match r.below(10) {
            0 => {} // bare attribute, no value
            1 => {
                t.push_str("='");
                t.push_str(r.pick::<&str>(ATTR_VALUES));
                t.push('\'');
            }
            2 => {
                // Unquoted (drop characters that would end the tag early).
                let v: String = r
                    .pick(ATTR_VALUES)
                    .chars()
                    .filter(|c| !c.is_whitespace() && *c != '>' && *c != '"' && *c != '\'')
                    .collect();
                t.push('=');
                if v.is_empty() {
                    t.push('v');
                } else {
                    t.push_str(&v);
                }
            }
            3 => t.push('='), // missing value
            _ => {
                t.push_str("=\"");
                t.push_str(&r.pick(ATTR_VALUES).replace('"', "&quot;"));
                t.push('"');
            }
        }
    }
    if r.chance(0.08) {
        t.push('/');
    }
    t.push('>');
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_pure_functions_of_seed_and_index() {
        for index in 0..64 {
            assert_eq!(case(7, index), case(7, index));
            assert_eq!(case_pieces(7, index), case_pieces(7, index));
        }
        assert_ne!(case(7, 0), case(8, 0));
    }

    #[test]
    fn adjacent_indices_differ() {
        let distinct: std::collections::BTreeSet<String> = (0..256).map(|i| case(3, i)).collect();
        assert!(distinct.len() > 250, "only {} distinct cases in 256", distinct.len());
    }

    #[test]
    fn cases_are_bounded_and_utf8() {
        for i in 0..512 {
            let grammar = render(&grammar_pieces(1, i));
            assert!(grammar.len() < 16 * 1024, "case {i} too large: {}", grammar.len());
            let c = case(1, i);
            assert!(c.len() <= 64 * 1024, "case {i} too large: {}", c.len());
            // `case` returns String, so UTF-8 holds by construction; check
            // the pieces render exactly to it.
            assert_eq!(c, render(&case_pieces(1, i)));
        }
    }

    #[test]
    fn grammar_reaches_the_interesting_constructs() {
        let all: String = (0..2000).map(|i| case(42, i)).collect();
        for needle in
            ["<template", "<select", "<table", "<svg", "<math", "&#x", "<!--", "<!DOCTYPE"]
        {
            assert!(all.contains(needle), "2000 cases never produced {needle}");
        }
    }

    #[test]
    fn a_few_cases_carry_an_adversarial_run() {
        let adversarial =
            (0..2000).filter(|&i| case_pieces(42, i).len() > grammar_pieces(42, i).len()).count();
        assert!((10..=100).contains(&adversarial), "{adversarial} adversarial cases in 2000");
        // Every other case is the grammar's alone.
        for i in 0..200 {
            let (full, grammar) = (case_pieces(7, i), grammar_pieces(7, i));
            assert!(full == grammar || full.len() > grammar.len() + 60, "case {i}");
        }
    }

    #[test]
    fn adversarial_runs_nest_deep() {
        let mut deepest = 0;
        for i in 0..64 {
            let run = render(&adversarial_pieces(&mut KeyedRng::new(3, &[i])));
            let dom = spec_html::parse_document(&run).dom;
            let mut depth = vec![0usize; dom.len()];
            for id in dom.descendants(dom.root()) {
                let parent = dom.node(id).parent.expect("descendants have parents");
                depth[id.index()] = depth[parent.index()] + 1;
                deepest = deepest.max(depth[id.index()]);
            }
        }
        assert!(deepest > 1000, "deepest adversarial run nests {deepest} levels");
    }
}
