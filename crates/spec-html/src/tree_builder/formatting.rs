//! The list of active formatting elements and the adoption agency algorithm
//! (§13.2.4.3, §13.2.6.4.7).
//!
//! This machinery is what makes misnested formatting markup like
//! `<b><i>x</b>y</i>` render "as intended" — by silently rewriting the tree.
//! The paper counts on it indirectly: serialize-and-reparse auto-fixing
//! (§4.4) only converges because this algorithm is deterministic.

use super::{Builder, TreeEventKind};
use crate::atoms::{atom, Atom};
use crate::dom::{ElemAttr, Namespace, NodeId};
use crate::tags;
use crate::tokenizer::Tag;
use std::ops::Deref;

/// An entry in the list of active formatting elements.
#[derive(Debug, Clone)]
pub(crate) enum FormatEntry {
    /// Scope marker (inserted by applet/object/marquee/template/td/th/caption).
    Marker,
    /// A formatting element, with the tag that created it (for re-creation
    /// during reconstruction).
    Element { node: NodeId, tag: Tag },
}

impl FormatEntry {
    /// The element of an element entry.
    pub(crate) fn node(&self) -> Option<NodeId> {
        match self {
            FormatEntry::Element { node, .. } => Some(*node),
            FormatEntry::Marker => None,
        }
    }
}

/// The names the list can hold: the formatting elements (§13.2.4.3).
static NAMES: [Atom; SLOTS] = [
    atom!("a"),
    atom!("b"),
    atom!("big"),
    atom!("code"),
    atom!("em"),
    atom!("font"),
    atom!("i"),
    atom!("nobr"),
    atom!("s"),
    atom!("small"),
    atom!("strike"),
    atom!("strong"),
    atom!("tt"),
    atom!("u"),
];

const SLOTS: usize = 14;

fn name_slot(name: &Atom) -> Option<usize> {
    NAMES.iter().position(|n| n == name)
}

/// The list of active formatting elements (§13.2.4.3). Reads go through
/// `Deref` to the entry slice; every edit goes through the methods below,
/// which count element entries per marker segment and name, all of them and
/// the attribute-less ones. `Attr` equality includes the attribute's offset,
/// so a fresh start tag can equal an earlier entry only when both have no
/// attributes: the Noah's-Ark clause then scans only when three bare entries
/// of the pushed name exist after the last marker, and a lookup by name
/// only when the name is there at all.
#[derive(Default)]
pub(crate) struct ActiveFormatting {
    entries: Vec<FormatEntry>,
    /// Markers in the list; entries after the n-th marker are in segment n.
    markers: u32,
    /// Per segment, per [`NAMES`] slot.
    by_name: Vec<[u32; SLOTS]>,
    /// Per segment, per [`NAMES`] slot: the entries without attributes.
    bare: Vec<[u32; SLOTS]>,
    /// Per [`NAMES`] slot, over all segments.
    total: [u32; SLOTS],
}

impl Deref for ActiveFormatting {
    type Target = [FormatEntry];
    fn deref(&self) -> &[FormatEntry] {
        &self.entries
    }
}

impl ActiveFormatting {
    pub(crate) fn push_marker(&mut self) {
        self.entries.push(FormatEntry::Marker);
        self.markers += 1;
    }

    /// Drop entries up to and including the last marker.
    pub(crate) fn clear_to_marker(&mut self) {
        while let Some(entry) = self.entries.pop() {
            match entry {
                FormatEntry::Marker => {
                    self.markers -= 1;
                    break;
                }
                FormatEntry::Element { tag, .. } => self.count(self.markers, &tag, false),
            }
        }
    }

    /// Push with the Noah's Ark clause: at most three identical entries
    /// since the last marker.
    pub(crate) fn push(&mut self, node: NodeId, tag: &Tag) {
        let bare = |slot| self.bare.get(self.markers as usize).map_or(0, |counts| counts[slot]);
        if tag.attrs.is_empty() && name_slot(&tag.name).is_some_and(|slot| bare(slot) >= 3) {
            let mut same = 0usize;
            let mut drop_idx = None;
            for (i, e) in self.entries.iter().enumerate().rev() {
                match e {
                    FormatEntry::Marker => break,
                    FormatEntry::Element { tag: t, .. } => {
                        if t.name == tag.name && t.attrs == tag.attrs {
                            same += 1;
                            drop_idx = Some(i);
                        }
                    }
                }
            }
            if same >= 3 {
                if let Some(i) = drop_idx {
                    self.remove(i);
                }
            }
        }
        self.count(self.markers, tag, true);
        self.entries.push(FormatEntry::Element { node, tag: tag.clone() });
    }

    /// Remove the entry at `index`.
    pub(crate) fn remove(&mut self, index: usize) {
        if let FormatEntry::Element { tag, .. } = self.entries.remove(index) {
            self.count(self.segment_at(index), &tag, false);
        }
    }

    /// Insert an element entry at `index`.
    pub(crate) fn insert(&mut self, index: usize, node: NodeId, tag: Tag) {
        self.count(self.segment_at(index), &tag, true);
        self.entries.insert(index, FormatEntry::Element { node, tag });
    }

    /// Point the element entry at `index` to a re-created `node`; the tag,
    /// and so the count, is unchanged.
    pub(crate) fn set_node(&mut self, index: usize, new: NodeId) {
        if let FormatEntry::Element { node, .. } = &mut self.entries[index] {
            *node = new;
        }
    }

    /// Index of the element entry for `node` (each node has at most one).
    /// Searches from the end, where the recently opened elements are.
    pub(crate) fn position_of(&self, node: NodeId) -> Option<usize> {
        self.entries.iter().rposition(|e| e.node() == Some(node))
    }

    /// Segment of an entry at `index`: the markers before it, counted from
    /// the nearer end of the list.
    fn segment_at(&self, index: usize) -> u32 {
        let markers = |entries: &[FormatEntry]| {
            entries.iter().filter(|e| matches!(e, FormatEntry::Marker)).count() as u32
        };
        if index > self.entries.len() / 2 {
            self.markers - markers(&self.entries[index..])
        } else {
            markers(&self.entries[..index])
        }
    }

    /// Index of the last element entry named `name` after the last marker.
    pub(crate) fn last_after_marker(&self, name: &Atom) -> Option<usize> {
        if let Some(slot) = name_slot(name) {
            let segment = self.by_name.get(self.markers as usize);
            if segment.map_or(0, |counts| counts[slot]) == 0 {
                return None;
            }
        }
        let i = self.entries.iter().rposition(|e| match e {
            FormatEntry::Marker => true,
            FormatEntry::Element { tag, .. } => tag.name == *name,
        })?;
        matches!(self.entries[i], FormatEntry::Element { .. }).then_some(i)
    }

    /// Whether any element entry, in any segment, is named `name`.
    pub(crate) fn contains_name(&self, name: &Atom) -> bool {
        match name_slot(name) {
            Some(slot) => self.total[slot] != 0,
            None => self
                .entries
                .iter()
                .any(|e| matches!(e, FormatEntry::Element { tag, .. } if tag.name == *name)),
        }
    }

    /// Count an element entry of `segment` in (`add`) or out.
    fn count(&mut self, segment: u32, tag: &Tag, add: bool) {
        let Some(slot) = name_slot(&tag.name) else { return };
        let segment = segment as usize;
        if self.by_name.len() <= segment {
            self.by_name.resize(segment + 1, [0; SLOTS]);
            self.bare.resize(segment + 1, [0; SLOTS]);
        }
        let bare = u32::from(tag.attrs.is_empty());
        if add {
            self.by_name[segment][slot] += 1;
            self.bare[segment][slot] += bare;
            self.total[slot] += 1;
        } else {
            self.by_name[segment][slot] -= 1;
            self.bare[segment][slot] -= bare;
            self.total[slot] -= 1;
        }
    }
}

impl Builder {
    /// Remove a node from the formatting list, if present.
    pub(crate) fn remove_from_formatting(&mut self, node: NodeId) {
        while let Some(i) = self.formatting.position_of(node) {
            self.formatting.remove(i);
        }
    }

    /// §13.2.6.1 "reconstruct the active formatting elements".
    pub(crate) fn reconstruct_formatting(&mut self) {
        // 1. Nothing to do if the list is empty.
        let Some(last) = self.formatting.last() else { return };
        // 2-3. …or the last entry is a marker / already open.
        match last {
            FormatEntry::Marker => return,
            FormatEntry::Element { node, .. } => {
                if self.open.contains(*node) {
                    return;
                }
            }
        }
        // 4-6. Rewind to the earliest entry (after a marker / open element)
        // that needs re-creation.
        let mut i = self.formatting.len() - 1;
        loop {
            if i == 0 {
                break;
            }
            let prev = &self.formatting[i - 1];
            match prev {
                FormatEntry::Marker => break,
                FormatEntry::Element { node, .. } => {
                    if self.open.contains(*node) {
                        break;
                    }
                }
            }
            i -= 1;
        }
        // 7-10. Re-create each entry in order and update the list.
        while i < self.formatting.len() {
            let tag = match &self.formatting[i] {
                FormatEntry::Element { tag, .. } => tag.clone(),
                FormatEntry::Marker => {
                    i += 1;
                    continue;
                }
            };
            let foster = self.foster_for_current();
            let new = self.insert_element(&tag, Namespace::Html, foster);
            self.formatting.set_node(i, new);
            i += 1;
        }
    }

    /// Whether inserting at the current node would need foster parenting
    /// (used when reconstruction happens inside table structure).
    pub(crate) fn foster_for_current(&self) -> bool {
        matches!(
            self.current_name(),
            Some("table") | Some("tbody") | Some("tfoot") | Some("thead") | Some("tr")
        )
    }

    /// §13.2.6.4.7 "adoption agency algorithm" for an end tag named
    /// `subject`. Returns `true` if handled; `false` means the caller should
    /// fall back to the "any other end tag" steps.
    pub(crate) fn adoption_agency(&mut self, subject: &Atom) -> bool {
        // Fast path: current node is the subject and not in the list.
        if let Some(cur) = self.current() {
            if self.doc.is_html(cur, subject) && self.formatting.position_of(cur).is_none() {
                self.open.pop();
                return true;
            }
        }

        for _outer in 0..8 {
            // Find the formatting element: last entry for subject before a
            // marker.
            // The formatting element: the last entry for subject after the
            // last marker.
            let fmt_idx = self.formatting.last_after_marker(subject);
            let Some(fmt_idx) = fmt_idx else { return false };
            let fmt_node = match &self.formatting[fmt_idx] {
                FormatEntry::Element { node, .. } => *node,
                FormatEntry::Marker => unreachable!(),
            };

            // Not on the stack of open elements → parse error; remove.
            let Some(stack_idx) = self.open.position(fmt_node) else {
                self.event(TreeEventKind::StrayEndTag { tag: subject.to_string() });
                self.formatting.remove(fmt_idx);
                return true;
            };

            // Not in scope → parse error; ignore.
            if !self.in_scope(subject) {
                self.event(TreeEventKind::StrayEndTag { tag: subject.to_string() });
                return true;
            }
            if self.open.last() != Some(&fmt_node) {
                self.event(TreeEventKind::AdoptionAgency { tag: subject.to_string() });
            }

            // Furthest block: lowest element in the stack below fmt that is
            // "special".
            let furthest = self.open[stack_idx + 1..]
                .iter()
                .copied()
                .find(|&id| self.doc.html_name(id).map(tags::is_special).unwrap_or(false));
            let Some(furthest_block) = furthest else {
                // No furthest block: pop through the formatting element.
                self.open.truncate(stack_idx);
                self.formatting.remove(fmt_idx);
                return true;
            };

            let common_ancestor = self.open[stack_idx - 1];
            let mut bookmark = fmt_idx;

            // Inner loop.
            let mut node_stack_idx = self.open.position(furthest_block).unwrap();
            let mut node;
            let mut last_node = furthest_block;
            let mut inner = 0;
            loop {
                inner += 1;
                node_stack_idx -= 1;
                node = self.open[node_stack_idx];
                if node == fmt_node {
                    break;
                }
                let in_fmt_list = self.formatting.position_of(node);
                if inner > 3 {
                    if let Some(i) = in_fmt_list {
                        self.formatting.remove(i);
                        if i < bookmark {
                            bookmark -= 1;
                        }
                    }
                    self.open.remove(node_stack_idx);
                    continue;
                }
                let Some(fmt_list_idx) = in_fmt_list else {
                    self.open.remove(node_stack_idx);
                    continue;
                };
                // Re-create the element.
                let tag = match &self.formatting[fmt_list_idx] {
                    FormatEntry::Element { tag, .. } => tag.clone(),
                    FormatEntry::Marker => unreachable!(),
                };
                let attrs: Vec<ElemAttr> = tag
                    .attrs
                    .iter()
                    .map(|a| ElemAttr { name: a.name.clone(), value: a.value.clone() })
                    .collect();
                let new = self.doc.create_element(&tag.name, Namespace::Html, attrs);
                self.formatting.set_node(fmt_list_idx, new);
                self.open.replace(&self.doc, node_stack_idx, new);
                node = new;
                if last_node == furthest_block {
                    bookmark = fmt_list_idx + 1;
                }
                self.doc.append(node, last_node);
                last_node = node;
            }
            let _ = node;

            // Place last_node below the common ancestor (with foster
            // parenting if the ancestor is table structure).
            let foster = matches!(
                self.doc.html_name(common_ancestor),
                Some("table") | Some("tbody") | Some("tfoot") | Some("thead") | Some("tr")
            );
            if foster {
                if let Some(table) = self.open.topmost(&atom!("table")).map(|i| self.open[i]) {
                    if self.doc.node(table).parent.is_some() {
                        self.doc.insert_before(table, last_node);
                    } else {
                        self.doc.append(common_ancestor, last_node);
                    }
                } else {
                    self.doc.append(common_ancestor, last_node);
                }
            } else {
                self.doc.append(common_ancestor, last_node);
            }

            // New element: clone of the formatting element, adopting the
            // furthest block's children.
            let tag = match &self.formatting[fmt_idx] {
                FormatEntry::Element { tag, .. } => tag.clone(),
                FormatEntry::Marker => unreachable!(),
            };
            let attrs: Vec<ElemAttr> = tag
                .attrs
                .iter()
                .map(|a| ElemAttr { name: a.name.clone(), value: a.value.clone() })
                .collect();
            let new_fmt = self.doc.create_element(&tag.name, Namespace::Html, attrs);
            self.doc.reparent_children(furthest_block, new_fmt);
            self.doc.append(furthest_block, new_fmt);

            // Update the formatting list: remove old entry, insert new at
            // the bookmark.
            self.formatting.remove(fmt_idx);
            let bookmark =
                bookmark.min(self.formatting.len()).saturating_sub(usize::from(bookmark > fmt_idx));
            self.formatting.insert(bookmark, new_fmt, tag);

            // Update the stack: remove old fmt element, insert new one right
            // below (after) the furthest block.
            if let Some(i) = self.open.position(fmt_node) {
                self.open.remove(i);
            }
            let fb_idx = self.open.position(furthest_block).unwrap();
            self.open.insert(&self.doc, fb_idx + 1, new_fmt);

            // Loop again in case more instances remain.
            let more = self.formatting.contains_name(subject);
            if !more {
                return true;
            }
        }
        true
    }
}
