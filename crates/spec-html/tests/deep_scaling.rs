//! Parse time grows linearly with nesting depth and attribute count.
//!
//! Every adversarial shape below is parsed at size `n` and `4n`, best of
//! three runs each: linear work takes about 4x as long at `4n`, quadratic
//! work about 16x, and the test allows 8x. The shapes are the ones that
//! used to walk the open-element stack, the active-formatting list or a
//! tag's earlier attributes on every token, next to ones that never did.
//! The `*-after-*` shapes repeat one token after `n` levels of nesting:
//! each repetition used to walk all the levels.

use std::time::{Duration, Instant};

const PREFIX: &str = "<!DOCTYPE html><html><head><title>t</title></head><body>";

/// `PREFIX`, then `head`, then `n` repetitions of `level(i)`, then text.
fn doc(head: &str, n: usize, level: impl Fn(usize) -> String) -> String {
    let mut html = String::from(PREFIX);
    html.push_str(head);
    for i in 0..n {
        html.push_str(&level(i));
    }
    html.push_str("end");
    html
}

/// The shape named `name` at size `n`.
fn shape(name: &str, n: usize) -> String {
    match name {
        "div" => doc("", n, |i| format!("<div class=c{i}>")),
        "formatting" => doc("", n, |i| format!("<b data-k={i}>x")),
        "b-bare" => doc("", n, |_| "<b>x".to_owned()),
        "b-same-attrs" => doc("", n, |_| "<b class=x>x".to_owned()),
        "p-div" => doc("<p>", n, |_| "<div>".to_owned()),
        "div-form" => doc("", n, |_| "<div><form>".to_owned()),
        "table" => doc("", n, |_| "<table><tr><td>".to_owned()),
        "svg" => doc("<svg>", n, |i| format!("<g id=g{i}>")),
        "select" => doc("", n, |i| format!("<table><tr><td><select><option value={i}>x")),
        "template" => doc("", n, |i| format!("<template id=t{i}>")),
        "li-after-spans" => doc(&"<span>".repeat(n), n, |_| "<li></li><dd>".to_owned()),
        "end-tags-after-spans" => doc(&"<span>".repeat(n), n, |_| "</em></x-y>".to_owned()),
        "tables-after-divs" => doc(&"<div>".repeat(n), n, |_| "<table></table>".to_owned()),
        "end-tags-after-svg" => doc(&format!("<svg>{}", "<g>".repeat(n)), n, |_| "</x>".to_owned()),
        "end-tags-after-formatting" => {
            let list: String = (0..n).map(|i| format!("<b data-k={i}>x")).collect();
            doc(&list, n, |_| "</i><a>x</a>".to_owned())
        }
        // One tag; every eighth attribute name repeats an earlier one.
        "attr-flood" => {
            let attrs: String =
                (0..n).map(|i| format!(" a{}=v{i}", if i % 8 == 7 { i / 2 } else { i })).collect();
            format!("{PREFIX}<div{attrs}>end")
        }
        other => panic!("unknown shape {other}"),
    }
}

fn best_of_3(html: &str) -> Duration {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(spec_html::parse_document(html));
            t.elapsed()
        })
        .min()
        .expect("three runs")
}

#[test]
fn adversarial_shapes_parse_in_linear_time() {
    let n = 4000;
    let mut report = Vec::new();
    for name in [
        "div",
        "formatting",
        "b-bare",
        "b-same-attrs",
        "p-div",
        "div-form",
        "table",
        "svg",
        "select",
        "template",
        "attr-flood",
        "li-after-spans",
        "end-tags-after-spans",
        "tables-after-divs",
        "end-tags-after-svg",
        "end-tags-after-formatting",
    ] {
        let (small, large) = (shape(name, n), shape(name, 4 * n));
        let (t1, t4) = (best_of_3(&small), best_of_3(&large));
        let ratio = t4.as_secs_f64() / t1.as_secs_f64();
        report.push(format!("{name}: {t1:?} at n={n}, {t4:?} at 4n ({ratio:.1}x)"));
        assert!(ratio <= 8.0, "{name} grows superlinearly:\n{}", report.join("\n"));
    }
    eprintln!("{}", report.join("\n"));
}

/// ROADMAP acceptance: 200k nested `<div>` parse in at most twice the
/// time of 200k sibling `<div>`. Optimizer-dependent, so it runs in the
/// release test job (`cargo test --release`).
#[test]
#[cfg_attr(debug_assertions, ignore = "timing acceptance: run with --release")]
fn nested_divs_parse_within_twice_the_time_of_siblings() {
    let n = 200_000;
    let nested = format!("{PREFIX}{}end", "<div>".repeat(n));
    let siblings = format!("{PREFIX}{}end", "<div></div>".repeat(n));
    let (deep, flat) = (best_of_3(&nested), best_of_3(&siblings));
    assert!(
        deep.as_secs_f64() <= 2.0 * flat.as_secs_f64(),
        "200k nested divs took {deep:?}, 200k siblings {flat:?}"
    );
}
