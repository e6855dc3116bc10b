//! Seeded adversarial documents for `deep-serve`, each with a flat twin:
//! the same elements as siblings instead of nested, so the two differ only
//! in depth.

use hv_corpus::rng::KeyedRng;

/// The document shapes, after the parser's known costly paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Nested `<div>`: every start tag walks the open-element stack.
    Div,
    /// Nested `<b>` with distinct attributes: a long active-formatting list
    /// that the Noah's-Ark clause scans on every push.
    Formatting,
    /// `<table><tr><td>` nested in cells.
    Table,
    /// `<g>` nested in `<svg>`: foreign content, deep but cheap to parse.
    Svg,
    /// `<select>` inside nested table cells.
    Select,
    /// Nested `<template>` contents.
    Template,
    /// One element carrying thousands of attributes, some repeated.
    AttrFlood,
}

impl Shape {
    pub fn parse(name: &str) -> Option<Shape> {
        Some(match name {
            "div" => Shape::Div,
            "formatting" => Shape::Formatting,
            "table" => Shape::Table,
            "svg" => Shape::Svg,
            "select" => Shape::Select,
            "template" => Shape::Template,
            "attr-flood" => Shape::AttrFlood,
            _ => return None,
        })
    }
}

/// One generated document and its flat twin.
pub struct Doc {
    /// Nesting depth (attribute count for [`Shape::AttrFlood`]).
    pub depth: usize,
    pub html: String,
    pub flat: String,
}

/// A short seeded lowercase token.
fn token(rng: &mut KeyedRng) -> String {
    let n = rng.next_u64();
    (0..4).map(|i| char::from(b'a' + ((n >> (i * 5)) % 26) as u8)).collect()
}

/// Generate a `shape` document of `depth`, its details drawn from `rng`.
pub fn generate(shape: Shape, depth: usize, rng: &mut KeyedRng) -> Doc {
    let tag = token(rng);
    let mut html = String::from("<!DOCTYPE html><html><head><title>t</title></head><body>");
    let mut flat = html.clone();
    match shape {
        Shape::Div => {
            for i in 0..depth {
                html.push_str(&format!("<div class={tag}{i}>"));
                flat.push_str(&format!("<div class={tag}{i}></div>"));
            }
        }
        Shape::Formatting => {
            for i in 0..depth {
                html.push_str(&format!("<b data-{tag}={i}>x"));
                flat.push_str(&format!("<b data-{tag}={i}>x</b>"));
            }
        }
        Shape::Table => {
            for _ in 0..depth {
                html.push_str("<table><tr><td>");
                flat.push_str("<table><tr><td></td></tr></table>");
            }
        }
        Shape::Svg => {
            html.push_str("<svg>");
            flat.push_str("<svg>");
            for i in 0..depth {
                html.push_str(&format!("<g id={tag}{i}>"));
                flat.push_str(&format!("<g id={tag}{i}></g>"));
            }
        }
        Shape::Select => {
            for i in 0..depth {
                html.push_str(&format!("<table><tr><td><select><option value={tag}{i}>x"));
                flat.push_str(&format!(
                    "<table><tr><td><select><option value={tag}{i}>x</select></td></tr></table>"
                ));
            }
        }
        Shape::Template => {
            for i in 0..depth {
                html.push_str(&format!("<template id={tag}{i}>"));
                flat.push_str(&format!("<template id={tag}{i}></template>"));
            }
        }
        Shape::AttrFlood => {
            html.push_str("<div");
            for i in 0..depth {
                // Every eighth name repeats an earlier one: a duplicate
                // attribute, which the parser drops with an error.
                let name = if i % 8 == 7 { i / 2 } else { i };
                html.push_str(&format!(" {tag}{name}=v{i}"));
                flat.push_str(&format!("<div {tag}{i}=v{i}></div>"));
            }
            html.push('>');
        }
    }
    html.push_str("end");
    flat.push_str("end");
    Doc { depth, html, flat }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_depth(html: &str) -> usize {
        let out = spec_html::parse_document(html);
        let dom = &out.dom;
        dom.all_elements().map(|id| dom.ancestors(id).count()).max().unwrap_or(0)
    }

    #[test]
    fn deep_documents_nest_and_twins_stay_flat() {
        for shape in [Shape::Div, Shape::Formatting, Shape::Table, Shape::Svg, Shape::Template] {
            let doc = generate(shape, 40, &mut KeyedRng::new(1, &[0]));
            assert!(max_depth(&doc.html) >= 40, "{shape:?} does not nest");
            assert!(max_depth(&doc.flat) < 12, "{shape:?} twin nests");
        }
    }

    #[test]
    fn same_seed_same_document() {
        let a = generate(Shape::AttrFlood, 100, &mut KeyedRng::new(5, &[1]));
        let b = generate(Shape::AttrFlood, 100, &mut KeyedRng::new(5, &[1]));
        assert_eq!(a.html, b.html);
        let c = generate(Shape::AttrFlood, 100, &mut KeyedRng::new(6, &[1]));
        assert_ne!(a.html, c.html);
    }
}
