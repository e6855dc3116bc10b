//! The stack of open elements (§13.2.4.3), indexed so that the walks the
//! tree builder makes down it answer in O(1).
//!
//! The spec defines "has an element in scope" as a walk from the current
//! node down the stack until the target or a scope boundary turns up, and
//! several other steps (closing a list item, "any other end tag", resetting
//! the insertion mode, end tags in foreign content) walk the same way. Run
//! on every token, such walks make deep nesting quadratic. This stack
//! keeps, beside the nodes:
//!
//! * per entry, its namespace, a name id and the [`Kind`]s it belongs to,
//!   so no query touches the DOM or compares strings;
//! * per name, the topmost HTML entry with that name, and per lowercased
//!   name the topmost foreign one, each entry linking to the next one
//!   below with the same name;
//! * per kind, the topmost entry of that kind, each entry remembering the
//!   values from before it was pushed;
//! * per node, its stack index while it is open.
//!
//! A target is in scope exactly when its topmost index is at or above the
//! topmost boundary (at: the target is itself a boundary, and the spec's
//! walk tests the target first). Push and pop update the index in O(1); a
//! mid-stack edit (the adoption agency, `</form>`, a second `<a>` and late
//! head content make them) pops the entries above the edit and pushes them
//! back, the cost of the `Vec::remove` it replaces. Name ids are static
//! atom ids, and per-parse ids past them for dynamic names.

use crate::atoms::{Atom, STATIC_ATOMS};
use crate::dom::{Document, Namespace, NodeId};
use crate::tags;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::OnceLock;

/// Element classes the stack indexes by their topmost entry: the boundary
/// sets of the five scopes of §13.2.4.2, and the sets other walks down the
/// stack stop at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    DefaultScope,
    ButtonScope,
    ListItemScope,
    TableScope,
    SelectScope,
    /// Any element in the HTML namespace.
    Html,
    /// Any element outside the HTML namespace.
    Foreign,
    /// HTML elements in the special category (§13.2.4.2): where "any other
    /// end tag" stops looking.
    Special,
    /// Special HTML elements but `address`, `div` and `p`, and any foreign
    /// element: where the `li`/`dd`/`dt` start tags stop looking for an
    /// element to close.
    ListStop,
    /// HTML elements that set the insertion mode when "reset the insertion
    /// mode appropriately" reaches them.
    Mode,
}

const KINDS: usize = 10;

const fn bit(kind: Kind) -> u16 {
    1 << kind as u16
}

/// The boundary elements the default, button and list-item scopes share.
const SCOPE_BITS: u16 = bit(Kind::DefaultScope) | bit(Kind::ButtonScope) | bit(Kind::ListItemScope);

/// Kinds of an HTML element named `name`.
fn html_kinds(name: &str) -> u16 {
    let mut bits = bit(Kind::Html);
    if matches!(
        name,
        "applet" | "caption" | "html" | "table" | "td" | "th" | "marquee" | "object" | "template"
    ) {
        bits |= SCOPE_BITS;
    }
    if name == "button" {
        bits |= bit(Kind::ButtonScope);
    }
    if matches!(name, "ol" | "ul") {
        bits |= bit(Kind::ListItemScope);
    }
    if matches!(name, "html" | "table" | "template") {
        bits |= bit(Kind::TableScope);
    }
    if !matches!(name, "optgroup" | "option") {
        bits |= bit(Kind::SelectScope);
    }
    if tags::is_special(name) {
        bits |= bit(Kind::Special);
        if !matches!(name, "address" | "div" | "p") {
            bits |= bit(Kind::ListStop);
        }
    }
    if matches!(
        name,
        "select"
            | "td"
            | "th"
            | "tr"
            | "tbody"
            | "thead"
            | "tfoot"
            | "caption"
            | "colgroup"
            | "table"
            | "head"
            | "body"
            | "frameset"
            | "html"
    ) {
        bits |= bit(Kind::Mode);
    }
    bits
}

/// [`html_kinds`] of every static atom, by id.
fn html_kind_table() -> &'static [u16] {
    static TABLE: OnceLock<Box<[u16]>> = OnceLock::new();
    TABLE.get_or_init(|| STATIC_ATOMS.iter().map(|n| html_kinds(n)).collect())
}

/// Per static atom id: the id of its ASCII-lowercased name. Element names
/// are tokenizer-lowercased or SVG camelCase fixups of a lowercase static
/// name, so the lowercase form of an element name is always static.
fn lowercase_table() -> &'static [u32] {
    static TABLE: OnceLock<Box<[u32]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        STATIC_ATOMS
            .iter()
            .enumerate()
            .map(|(id, name)| {
                Atom::from_name(&name.to_ascii_lowercase()).static_id().unwrap_or(id) as u32
            })
            .collect()
    })
}

/// Kinds of a foreign element named `name`.
fn foreign_kinds(ns: Namespace, name: &str) -> u16 {
    let foreign = bit(Kind::Foreign) | bit(Kind::ListStop);
    match ns {
        Namespace::MathMl
            if matches!(name, "mi" | "mo" | "mn" | "ms" | "mtext" | "annotation-xml") =>
        {
            SCOPE_BITS | foreign
        }
        Namespace::Svg if matches!(name, "foreignObject" | "desc" | "title") => {
            SCOPE_BITS | foreign
        }
        _ => foreign,
    }
}

/// Per-entry index data. Stack positions are stored as index + 1, so 0
/// means "none".
#[derive(Clone, Copy)]
struct Meta {
    ns: Namespace,
    /// Name id: of the name for an HTML entry, of the lowercased name for
    /// a foreign one.
    name: u32,
    /// The kinds this element belongs to (bit `k` for kind `k`).
    kinds: u16,
    /// Position of the next entry below with the same name id and the
    /// same namespace family (HTML or foreign).
    below_same: u32,
    /// [`OpenElements::tops`] before this entry was pushed.
    tops_below: [u32; KINDS],
}

/// The stack of open elements. Reads go through `Deref` to the node
/// slice, bottom first; every edit goes through the methods below.
pub(crate) struct OpenElements {
    /// [`html_kind_table`] and [`lowercase_table`], looked up once per
    /// parse.
    html_kinds: &'static [u16],
    lowercase: &'static [u32],
    nodes: Vec<NodeId>,
    meta: Vec<Meta>,
    /// Per kind: position of the topmost entry of that kind.
    tops: [u32; KINDS],
    /// Position of the bottom-most foreign entry (valid while a foreign
    /// entry is open).
    outermost_foreign: u32,
    /// Ids of the dynamic names seen in this parse.
    dynamic: HashMap<Atom, u32>,
    /// Per name id: position of the topmost HTML entry with that name.
    top_html: Vec<u32>,
    /// Per name id: position of the topmost foreign entry whose lowercased
    /// name it is.
    top_foreign: Vec<u32>,
    /// Per node index: position while the node is on the stack.
    pos_of: Vec<u32>,
}

impl Deref for OpenElements {
    type Target = [NodeId];
    fn deref(&self) -> &[NodeId] {
        &self.nodes
    }
}

impl OpenElements {
    pub(crate) fn new() -> Self {
        OpenElements {
            html_kinds: html_kind_table(),
            lowercase: lowercase_table(),
            nodes: Vec::new(),
            meta: Vec::new(),
            tops: [0; KINDS],
            outermost_foreign: 0,
            dynamic: HashMap::new(),
            top_html: vec![0; STATIC_ATOMS.len()],
            top_foreign: vec![0; STATIC_ATOMS.len()],
            pos_of: Vec::new(),
        }
    }

    /// Id of `name`, assigning one to a dynamic name not seen before.
    fn name_id(&mut self, name: &Atom) -> u32 {
        if let Some(id) = name.static_id() {
            return id as u32;
        }
        if let Some(&id) = self.dynamic.get(name) {
            return id;
        }
        let id = self.top_html.len() as u32;
        self.top_html.push(0);
        self.top_foreign.push(0);
        self.dynamic.insert(name.clone(), id);
        id
    }

    /// Id of `name` if one was assigned.
    fn known_id(&self, name: &Atom) -> Option<usize> {
        match name.static_id() {
            Some(id) => Some(id),
            None => self.dynamic.get(name).map(|&id| id as usize),
        }
    }

    /// Push the element `node` of `doc`.
    pub(crate) fn push(&mut self, doc: &Document, node: NodeId) {
        let e = doc.element(node).expect("only elements are opened");
        let (ns, name) = (e.ns, self.name_id(&e.name));
        let kinds = match (ns, e.name.static_id()) {
            (Namespace::Html, Some(id)) => self.html_kinds[id],
            // Of the kinds, only the HTML namespace and select scope's
            // boundaries (any HTML element but option/optgroup) hold
            // dynamic names.
            (Namespace::Html, None) => bit(Kind::Html) | bit(Kind::SelectScope),
            _ => foreign_kinds(ns, &e.name),
        };
        // Dynamic foreign names are tokenizer-lowercased already.
        let name = match ns {
            Namespace::Html => name,
            _ => self.lowercase.get(name as usize).copied().unwrap_or(name),
        };
        self.push_entry(node, ns, name, kinds);
    }

    fn push_entry(&mut self, node: NodeId, ns: Namespace, name: u32, kinds: u16) {
        let pos = self.nodes.len() as u32 + 1;
        let tops = if ns == Namespace::Html { &mut self.top_html } else { &mut self.top_foreign };
        let below_same = std::mem::replace(&mut tops[name as usize], pos);
        let tops_below = self.tops;
        for (kind, top) in self.tops.iter_mut().enumerate() {
            if kinds & (1 << kind) != 0 {
                *top = pos;
            }
        }
        if kinds & bit(Kind::Foreign) != 0 && tops_below[Kind::Foreign as usize] == 0 {
            self.outermost_foreign = pos;
        }
        let i = node.index();
        if i >= self.pos_of.len() {
            self.pos_of.resize(i + 1, 0);
        }
        debug_assert_eq!(self.pos_of[i], 0, "element opened twice");
        self.pos_of[i] = pos;
        self.nodes.push(node);
        self.meta.push(Meta { ns, name, kinds, below_same, tops_below });
    }

    pub(crate) fn pop(&mut self) -> Option<NodeId> {
        let node = self.nodes.pop()?;
        let m = self.meta.pop().expect("meta parallels nodes");
        let tops = if m.ns == Namespace::Html { &mut self.top_html } else { &mut self.top_foreign };
        tops[m.name as usize] = m.below_same;
        self.tops = m.tops_below;
        self.pos_of[node.index()] = 0;
        Some(node)
    }

    /// Pop down to `len` entries.
    pub(crate) fn truncate(&mut self, len: usize) {
        while self.nodes.len() > len {
            self.pop();
        }
    }

    /// Remove the entry at `index`.
    pub(crate) fn remove(&mut self, index: usize) -> NodeId {
        let node = self.nodes[index];
        self.splice(index, 1, None);
        node
    }

    /// Insert the element `node` of `doc` at `index`.
    pub(crate) fn insert(&mut self, doc: &Document, index: usize, node: NodeId) {
        self.splice(index, 0, Some((doc, node)));
    }

    /// Replace the entry at `index` with the element `node` of `doc`.
    pub(crate) fn replace(&mut self, doc: &Document, index: usize, node: NodeId) {
        self.splice(index, 1, Some((doc, node)));
    }

    /// Pop everything from `index` up, drop `drop` of those entries, push
    /// `new`, then push the rest back: O(len − index).
    fn splice(&mut self, index: usize, drop: usize, new: Option<(&Document, NodeId)>) {
        let tail: Vec<(NodeId, Meta)> = self.nodes[index + drop..]
            .iter()
            .copied()
            .zip(self.meta[index + drop..].iter().copied())
            .collect();
        self.truncate(index);
        if let Some((doc, node)) = new {
            self.push(doc, node);
        }
        for (node, m) in tail {
            self.push_entry(node, m.ns, m.name, m.kinds);
        }
    }

    /// Whether `node` is on the stack (O(1)).
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        self.position(node).is_some()
    }

    /// Stack index of `node` (O(1)).
    pub(crate) fn position(&self, node: NodeId) -> Option<usize> {
        match self.pos_of.get(node.index()) {
            Some(&pos) if pos != 0 => Some(pos as usize - 1),
            _ => None,
        }
    }

    /// Position (index + 1) of the topmost HTML element named `name`, or 0.
    fn top(&self, name: &Atom) -> u32 {
        self.known_id(name).map_or(0, |id| self.top_html[id])
    }

    /// Stack index of the topmost foreign element whose name, ASCII
    /// lowercased, is `lowercase`.
    pub(crate) fn topmost_foreign(&self, lowercase: &Atom) -> Option<usize> {
        let id = self.known_id(lowercase)?;
        (self.top_foreign[id] as usize).checked_sub(1)
    }

    /// Stack index of the topmost HTML element named `name`.
    pub(crate) fn topmost(&self, name: &Atom) -> Option<usize> {
        (self.top(name) as usize).checked_sub(1)
    }

    /// Whether an HTML element named `name` is open.
    pub(crate) fn has(&self, name: &Atom) -> bool {
        self.top(name) != 0
    }

    /// Stack index of the topmost element of `kind`.
    pub(crate) fn topmost_of(&self, kind: Kind) -> Option<usize> {
        (self.tops[kind as usize] as usize).checked_sub(1)
    }

    /// "Has an element in the specific scope" (§13.2.4.2) for an HTML
    /// element named `name`, where `scope` is one of the scope kinds.
    pub(crate) fn in_scope(&self, scope: Kind, name: &Atom) -> bool {
        let top = self.top(name);
        top != 0 && top >= self.tops[scope as usize]
    }

    /// Namespace of the outermost (bottom-most) open foreign element.
    pub(crate) fn outermost_foreign_ns(&self) -> Option<Namespace> {
        self.topmost_of(Kind::Foreign).map(|_| self.meta[self.outermost_foreign as usize - 1].ns)
    }
}
