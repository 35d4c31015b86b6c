//! Feature extraction (§4.2).
//!
//! **Structural features** follow the Vertex feature scheme: for the node
//! itself, its ancestors, and siblings of those ancestors (window ±5), emit
//! 4-tuples of (attribute name, attribute value, levels of ancestry,
//! sibling offset) over `tag`, `class`, `id`, `itemprop`, `itemtype`, and
//! `property`.
//!
//! **Node-text features**: strings frequent across the site ("Director:",
//! "Žánr:") found near the node produce features of (string, tree-path to
//! the string's node).
//!
//! ## Feature sinks
//!
//! Vectorizing a node used to materialize a `Vec<String>` of feature names
//! (one heap string per feature per node, re-`format!`ed with a role prefix
//! for pairs). The training paths now **stream** names instead: every name
//! is assembled in a reusable [`NameBuf`] and handed to a [`FeatureSink`]
//! as a `&str` that is valid only for the duration of the call. The sinks
//! are:
//!
//! * an *interning* sink (training: `&mut FeatureDict`),
//! * a *lookup* sink (the baseline's frozen pair path: `&FeatureDict`),
//! * a [`NameArena`] (the parallel name-collection pass of
//!   `build_training_on`, which packs names end-to-end for the sequential
//!   interning pass),
//! * a plain `Vec<String>` collector ([`FeatureSpace::collect_names`]),
//!   kept as the reference path the equivalence suite pins the sinks to.
//!
//! Together with the reusable index buffer in [`FeatureScratch`], per-node
//! vectorization performs no transient allocations: the only allocation is
//! the exact-size output `SparseVec`.
//!
//! ## Page-scoped featurization (the serve path)
//!
//! Single-node extraction goes through one door,
//! [`FeatureSpace::page_featurizer`]: a [`PageFeaturizer`] borrows a
//! frozen space and one page, and memoizes for that page only
//!
//! * each **structural block** — a chain node's tag/attribute tuples, its
//!   `s:sib` tuple and (above level 0) its sibling window — keyed by
//!   (node, level), since sibling fields share almost every ancestor block;
//! * each **nearby-text feature**, keyed by (LCA, levels up, field index):
//!   the name `t:{norm}@^{up}{path from the LCA down to the field}` is a
//!   function of exactly those three values;
//! * each field's **frequent-string flag**, probed once per page instead of
//!   once per (node, field) pair.
//!
//! The output is byte-identical to resolving every streamed name against
//! the frozen dictionary: a vector is the *set* of ids found
//! (`SparseVec::from_indices_buf` sorts and dedups, so emission order and
//! repeats are irrelevant), and lookups into a frozen dictionary are pure.
//! Both paths walk the same chain (`block_chain`) and the same
//! nearby-text scan (`nearby_fields`: scope, order and the
//! `max_nearby_fields` cap); only the name lookups are memoized.
//!
//! Ground-truth hygiene: all `data-*` attributes — in particular the
//! generator's `data-gt` — are excluded from features (unit-tested below).

use crate::config::FeatureConfig;
use crate::page::{FieldInfo, PageView};
use ceres_dom::{Document, NodeId};
use ceres_ml::{FeatureDict, SparseVec};
use ceres_store::{Decode, Encode, Error as StoreError, Reader, Writer};
use ceres_text::{FxHashMap, FxHashSet};
use std::fmt::Write as _;

/// Attributes used for structural features (paper list).
const FEATURE_ATTRS: &[&str] = &["class", "id", "itemprop", "itemtype", "property"];

/// Receives streamed feature names. The `&str` lives in the caller's
/// [`NameBuf`] and is only valid for the duration of the call — sinks that
/// keep names (arena, collector) must copy the bytes out.
pub trait FeatureSink {
    fn accept(&mut self, name: &str);
}

/// Reusable assembly state for streaming feature names: the name buffer
/// (with an optional role prefix for pair features) plus the
/// sibling-window scratch vector the structural emitter needs.
#[derive(Debug, Default)]
pub struct NameBuf {
    s: String,
    prefix: usize,
    sibs: Vec<(isize, NodeId)>,
}

impl NameBuf {
    /// Prefix subsequent names with `p` (pair features: `"S|"` / `"O|"`).
    fn set_prefix(&mut self, p: &str) {
        self.s.clear();
        self.s.push_str(p);
        self.prefix = self.s.len();
    }

    fn clear_prefix(&mut self) {
        self.s.clear();
        self.prefix = 0;
    }

    /// Start assembling a fresh name: truncate back to the role prefix.
    #[inline]
    fn begin(&mut self) -> &mut String {
        self.s.truncate(self.prefix);
        &mut self.s
    }

    #[inline]
    fn as_str(&self) -> &str {
        &self.s
    }
}

/// Reusable buffers for allocation-free vectorization: the [`NameBuf`]
/// plus the feature-index buffer the dict sinks collect into. One scratch
/// per worker/loop; `Default::default()` is a valid fresh scratch.
#[derive(Debug, Default)]
pub struct FeatureScratch {
    buf: NameBuf,
    idx: Vec<u32>,
}

impl FeatureScratch {
    pub fn new() -> FeatureScratch {
        FeatureScratch::default()
    }
}

/// Feature names packed end-to-end — one backing `String`, name ends, and
/// row boundaries. The parallel name-collection pass of training fills one
/// arena per row chunk through `&FeatureSpace`; the sequential interning
/// pass replays rows in order against the `&mut` dictionary. Two small
/// buffers per *chunk* replace one `String` per *feature*.
#[derive(Debug, Default)]
pub struct NameArena {
    text: String,
    ends: Vec<u32>,
    rows: Vec<u32>,
}

impl NameArena {
    /// Close the current row (a row = one training example's names).
    pub fn end_row(&mut self) {
        self.rows.push(self.ends.len() as u32);
    }

    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Total names across all rows (the flat index space of
    /// [`NameArena::name`]).
    pub fn n_names(&self) -> usize {
        self.ends.len()
    }

    /// The `k`-th name in emission order, across row boundaries — the flat
    /// view the sharded interning pass of
    /// [`crate::examples::build_training_on`] buckets by hash prefix.
    pub fn name(&self, k: usize) -> &str {
        let start = if k == 0 { 0 } else { self.ends[k - 1] as usize };
        &self.text[start..self.ends[k] as usize]
    }

    /// Names of row `r`, in emission order.
    pub fn row(&self, r: usize) -> impl Iterator<Item = &str> + '_ {
        let lo = if r == 0 { 0 } else { self.rows[r - 1] as usize };
        let hi = self.rows[r] as usize;
        (lo..hi).map(move |k| {
            let start = if k == 0 { 0 } else { self.ends[k - 1] as usize };
            &self.text[start..self.ends[k] as usize]
        })
    }
}

impl FeatureSink for NameArena {
    fn accept(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(self.text.len() as u32);
    }
}

/// Training sink: intern through the mutable dictionary.
struct DictSink<'a> {
    dict: &'a mut FeatureDict,
    idx: &'a mut Vec<u32>,
}

impl FeatureSink for DictSink<'_> {
    fn accept(&mut self, name: &str) {
        if let Some(i) = self.dict.intern(name) {
            self.idx.push(i);
        }
    }
}

/// Extraction sink: lookup-only against a frozen dictionary.
struct FrozenSink<'a> {
    dict: &'a FeatureDict,
    idx: &'a mut Vec<u32>,
}

impl FeatureSink for FrozenSink<'_> {
    fn accept(&mut self, name: &str) {
        if let Some(i) = self.dict.get(name) {
            self.idx.push(i);
        }
    }
}

/// Reference sink: copy every name out (the old `Vec<String>` path).
struct CollectSink(Vec<String>);

impl FeatureSink for CollectSink {
    fn accept(&mut self, name: &str) {
        self.0.push(name.to_string());
    }
}

/// Site-level feature state: the dictionary and the frequent-string
/// lexicon, built during training and frozen for extraction.
#[derive(Debug, Clone)]
pub struct FeatureSpace {
    pub dict: FeatureDict,
    /// Normalized frequent strings (labels etc.).
    pub frequent: Vec<String>,
    /// Set view of `frequent` for the per-field membership test.
    frequent_set: FxHashSet<String>,
    pub cfg: FeatureConfig,
}

impl FeatureSpace {
    /// Build the frequent-string lexicon from the annotated pages.
    pub fn new(pages: &[&PageView], cfg: FeatureConfig) -> FeatureSpace {
        let mut page_counts: FxHashMap<&str, usize> = FxHashMap::default();
        for page in pages.iter().copied() {
            let mut seen: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
            for f in &page.fields {
                if !f.norm.is_empty() && f.norm.len() <= 40 {
                    seen.insert(f.norm.as_str());
                }
            }
            for s in seen {
                *page_counts.entry(s).or_default() += 1;
            }
        }
        let min_pages =
            ((pages.len() as f64) * cfg.frequent_string_page_frac).ceil().max(2.0) as usize;
        let mut frequent: Vec<(String, usize)> = page_counts
            .into_iter()
            .filter(|&(_, n)| n >= min_pages)
            .map(|(s, n)| (s.to_string(), n))
            .collect();
        frequent.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        frequent.truncate(cfg.max_frequent_strings);
        let frequent: Vec<String> = frequent.into_iter().map(|(s, _)| s).collect();
        let frequent_set = frequent.iter().cloned().collect();
        FeatureSpace { dict: FeatureDict::new(), frequent, frequent_set, cfg }
    }

    /// Freeze the dictionary: extraction-time features not seen in training
    /// are dropped. After freezing, [`FeatureSpace::page_featurizer`] and
    /// [`FeatureSpace::pair_features_frozen`] work through `&self`, so the
    /// parallel extract stage shares one space across threads without
    /// cloning.
    pub fn freeze(&mut self) {
        self.dict.freeze();
    }

    pub fn is_frozen(&self) -> bool {
        self.dict.is_frozen()
    }

    /// Stream the feature names of `node` into `sink` (no dictionary
    /// involved — `&self`). This is the single emitter every vectorization
    /// path shares; name bytes and order are identical for all sinks.
    pub fn emit_names(
        &self,
        page: &PageView,
        node: NodeId,
        buf: &mut NameBuf,
        sink: &mut dyn FeatureSink,
    ) {
        emit_names(&self.frequent_set, &self.cfg, page, node, buf, sink);
    }

    /// Pair twin of [`FeatureSpace::emit_names`]: subject's names under
    /// `S|`, then object's under `O|` (§5.2 concatenation).
    pub fn emit_pair_names(
        &self,
        page: &PageView,
        subject_node: NodeId,
        object_node: NodeId,
        buf: &mut NameBuf,
        sink: &mut dyn FeatureSink,
    ) {
        for (prefix, node) in [("S|", subject_node), ("O|", object_node)] {
            buf.set_prefix(prefix);
            emit_names(&self.frequent_set, &self.cfg, page, node, buf, sink);
        }
        buf.clear_prefix();
    }

    /// Compute the feature vector of one node, interning new feature names
    /// (the training path; requires an unfrozen space). Allocates a fresh
    /// scratch — hot loops use [`FeatureSpace::features_with`].
    pub fn features(&mut self, page: &PageView, node: NodeId) -> SparseVec {
        self.features_with(page, node, &mut FeatureScratch::new())
    }

    /// [`FeatureSpace::features`] through caller-owned reusable buffers.
    pub fn features_with(
        &mut self,
        page: &PageView,
        node: NodeId,
        scratch: &mut FeatureScratch,
    ) -> SparseVec {
        let FeatureScratch { buf, idx } = scratch;
        let mut sink = DictSink { dict: &mut self.dict, idx };
        emit_names(&self.frequent_set, &self.cfg, page, node, buf, &mut sink);
        SparseVec::from_indices_buf(idx)
    }

    /// The frozen single-node door: a featurizer for the nodes of `page`
    /// whose memos live and die with it (see the module docs). On a frozen
    /// dictionary `intern` and `get` coincide, so each vector equals what
    /// [`FeatureSpace::features`] would produce.
    pub fn page_featurizer<'a>(&'a self, page: &'a PageView) -> PageFeaturizer<'a> {
        debug_assert!(self.dict.is_frozen(), "freeze the feature space before extraction");
        let frequent = if self.cfg.enable_text && !self.frequent_set.is_empty() {
            page.fields.iter().map(|f| self.frequent_set.contains(&f.norm)).collect()
        } else {
            Vec::new()
        };
        PageFeaturizer {
            space: self,
            page,
            frequent,
            blocks: FxHashMap::default(),
            block_ids: Vec::new(),
            text: FxHashMap::default(),
            buf: NameBuf::default(),
            idx: Vec::new(),
        }
    }

    /// Feature vector for a *pair* of nodes: each node's features prefixed
    /// by its role and concatenated — the representation CERES-BASELINE
    /// uses ("to produce features for the pair, we concatenate the features
    /// for each node", §5.2).
    pub fn pair_features(
        &mut self,
        page: &PageView,
        subject_node: NodeId,
        object_node: NodeId,
    ) -> SparseVec {
        self.pair_features_with(page, subject_node, object_node, &mut FeatureScratch::new())
    }

    /// [`FeatureSpace::pair_features`] through caller-owned buffers.
    pub fn pair_features_with(
        &mut self,
        page: &PageView,
        subject_node: NodeId,
        object_node: NodeId,
        scratch: &mut FeatureScratch,
    ) -> SparseVec {
        let FeatureScratch { buf, idx } = scratch;
        let mut sink = DictSink { dict: &mut self.dict, idx };
        for (prefix, node) in [("S|", subject_node), ("O|", object_node)] {
            buf.set_prefix(prefix);
            emit_names(&self.frequent_set, &self.cfg, page, node, buf, &mut sink);
        }
        buf.clear_prefix();
        SparseVec::from_indices_buf(idx)
    }

    /// Lookup-only twin of [`FeatureSpace::pair_features`] for a frozen
    /// space (the baseline's extraction path).
    pub fn pair_features_frozen(
        &self,
        page: &PageView,
        subject_node: NodeId,
        object_node: NodeId,
    ) -> SparseVec {
        self.pair_features_frozen_with(page, subject_node, object_node, &mut FeatureScratch::new())
    }

    /// [`FeatureSpace::pair_features_frozen`] through caller-owned buffers.
    pub fn pair_features_frozen_with(
        &self,
        page: &PageView,
        subject_node: NodeId,
        object_node: NodeId,
        scratch: &mut FeatureScratch,
    ) -> SparseVec {
        debug_assert!(self.dict.is_frozen(), "freeze the feature space before extraction");
        let FeatureScratch { buf, idx } = scratch;
        let mut sink = FrozenSink { dict: &self.dict, idx };
        for (prefix, node) in [("S|", subject_node), ("O|", object_node)] {
            buf.set_prefix(prefix);
            emit_names(&self.frequent_set, &self.cfg, page, node, buf, &mut sink);
        }
        buf.clear_prefix();
        SparseVec::from_indices_buf(idx)
    }

    /// The reference `Vec<String>` path: every feature name of `node`,
    /// owned, in emission order. The equivalence suite pins the streaming
    /// sinks to this output; hot paths never call it.
    pub fn collect_names(&self, page: &PageView, node: NodeId) -> Vec<String> {
        let mut sink = CollectSink(Vec::with_capacity(64));
        self.emit_names(page, node, &mut NameBuf::default(), &mut sink);
        sink.0
    }

    /// Reference pair path (role-prefixed concatenation), owned.
    pub fn collect_pair_names(
        &self,
        page: &PageView,
        subject_node: NodeId,
        object_node: NodeId,
    ) -> Vec<String> {
        let mut sink = CollectSink(Vec::with_capacity(128));
        self.emit_pair_names(page, subject_node, object_node, &mut NameBuf::default(), &mut sink);
        sink.0
    }
}

/// Serializable parts: the dictionary, the frequent-string lexicon, and
/// the config. `frequent_set` is derived state, rebuilt on decode.
impl Encode for FeatureSpace {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.dict);
        w.put_str_table(&self.frequent);
        w.put(&self.cfg);
    }
}

impl Decode for FeatureSpace {
    fn decode(r: &mut Reader<'_>) -> Result<FeatureSpace, StoreError> {
        let dict = FeatureDict::decode(r)?;
        let frequent = r.get_str_table("frequent-string lexicon")?;
        let cfg = FeatureConfig::decode(r)?;
        let frequent_set = frequent.iter().cloned().collect();
        Ok(FeatureSpace { dict, frequent, frequent_set, cfg })
    }
}

/// Frozen-space featurizer scoped to one page, built by
/// [`FeatureSpace::page_featurizer`]. Every memo is keyed by nodes and
/// field indices of this page only, so nothing carries over to the next
/// page; the featurizer is dropped with it.
#[derive(Debug)]
pub struct PageFeaturizer<'a> {
    space: &'a FeatureSpace,
    page: &'a PageView,
    /// Per field: is its `norm` in the frequent-string lexicon? Empty when
    /// text features are off or the lexicon is empty.
    frequent: Vec<bool>,
    /// Structural block per (chain node, level): a range of `block_ids`.
    blocks: FxHashMap<(NodeId, usize), (usize, usize)>,
    /// The resolved ids of every memoized block, end to end.
    block_ids: Vec<u32>,
    /// Nearby-text feature id per (LCA, levels up, field index); `None`
    /// when the name is not in the dictionary.
    text: FxHashMap<(NodeId, usize, usize), Option<u32>>,
    buf: NameBuf,
    idx: Vec<u32>,
}

impl PageFeaturizer<'_> {
    /// The feature vector of `node` — equal to resolving every name of
    /// [`FeatureSpace::emit_names`] against the frozen dictionary.
    pub fn features(&mut self, node: NodeId) -> SparseVec {
        if self.space.cfg.enable_structural {
            self.structural(node);
        }
        if !self.frequent.is_empty() {
            self.nearby_text(node);
        }
        SparseVec::from_indices_buf(&mut self.idx)
    }

    /// Each block resolves once per page.
    fn structural(&mut self, node: NodeId) {
        let page = self.page;
        let cfg = &self.space.cfg;
        for (level, n) in block_chain(cfg, &page.doc, node) {
            let (lo, hi) = match self.blocks.get(&(n, level)) {
                Some(&range) => range,
                None => {
                    let lo = self.block_ids.len();
                    let mut sink = FrozenSink { dict: &self.space.dict, idx: &mut self.block_ids };
                    emit_block(cfg, page, n, level, &mut self.buf, &mut sink);
                    let range = (lo, self.block_ids.len());
                    self.blocks.insert((n, level), range);
                    range
                }
            };
            self.idx.extend_from_slice(&self.block_ids[lo..hi]);
        }
    }

    /// Each name resolves once per page.
    fn nearby_text(&mut self, node: NodeId) {
        let page = self.page;
        let doc = &page.doc;
        for (fi, f) in nearby_fields(&self.space.cfg, page, node) {
            if !self.frequent[fi] {
                continue;
            }
            // The LCA is the nearest ancestor-or-self of `node` holding
            // `f.node`: the scan's scope at the latest, so the uncached
            // fallback never runs on a well-formed tree.
            let lca = std::iter::once(node)
                .chain(doc.ancestors(node))
                .enumerate()
                .find(|&(_, a)| page.in_subtree(a, f.node));
            let (dict, buf) = (&self.space.dict, &mut self.buf);
            let mut resolve = || dict.get(text_name(buf, doc, &f.norm, node, f.node));
            let id = match lca {
                Some((up, a)) => *self.text.entry((a, up, fi)).or_insert_with(resolve),
                None => resolve(),
            };
            self.idx.extend(id);
        }
    }
}

/// The one true emitter: structural then text features, every name
/// assembled in `buf` and streamed to `sink`.
fn emit_names(
    frequent_set: &FxHashSet<String>,
    cfg: &FeatureConfig,
    page: &PageView,
    node: NodeId,
    buf: &mut NameBuf,
    sink: &mut dyn FeatureSink,
) {
    if cfg.enable_structural {
        for (level, n) in block_chain(cfg, &page.doc, node) {
            emit_block(cfg, page, n, level, buf, sink);
        }
    }
    if cfg.enable_text {
        text_features(frequent_set, cfg, page, node, buf, sink);
    }
}

/// The chain nodes that carry a structural block, with their levels: the
/// node itself (level 0) and up to `max_ancestor_levels` ancestors,
/// elements only, never the document root.
fn block_chain<'d>(
    cfg: &FeatureConfig,
    doc: &'d Document,
    node: NodeId,
) -> impl Iterator<Item = (usize, NodeId)> + 'd {
    std::iter::once(node)
        .chain(doc.ancestors(node).take(cfg.max_ancestor_levels))
        .enumerate()
        .filter(move |&(_, n)| doc.node(n).is_element() && n != doc.root())
}

/// The structural block of chain node `n` at `level`: its own tuples, its
/// sibling number, and — above level 0 — its sibling window. A function
/// of (`n`, `level`) alone, which is what lets [`PageFeaturizer`] memoize
/// it.
fn emit_block(
    cfg: &FeatureConfig,
    page: &PageView,
    n: NodeId,
    level: usize,
    buf: &mut NameBuf,
    sink: &mut dyn FeatureSink,
) {
    let doc = &page.doc;
    emit_node_features(page, n, level, 0, buf, sink);
    // Sibling number of the chain node itself (4th tuple slot).
    let sib = doc.element_sibling_number(n).min(9);
    let b = buf.begin();
    let _ = write!(b, "s:sib={sib}@l{level}");
    sink.accept(buf.as_str());
    // Siblings of ancestors (not of the leaf node itself — the paper
    // examines "ancestors of the node, and siblings of those ancestors").
    if level >= 1 {
        // Borrowed out of the scratch: it cannot be read while `buf`
        // assembles names.
        let mut sibs = std::mem::take(&mut buf.sibs);
        doc.sibling_window_into(n, cfg.sibling_width, &mut sibs);
        for &(off, sib_node) in &sibs {
            emit_node_features(page, sib_node, level, off, buf, sink);
        }
        buf.sibs = sibs;
    }
}

fn text_features(
    frequent_set: &FxHashSet<String>,
    cfg: &FeatureConfig,
    page: &PageView,
    node: NodeId,
    buf: &mut NameBuf,
    sink: &mut dyn FeatureSink,
) {
    if frequent_set.is_empty() {
        return;
    }
    for (_, f) in nearby_fields(cfg, page, node) {
        if frequent_set.contains(&f.norm) {
            sink.accept(text_name(buf, &page.doc, &f.norm, node, f.node));
        }
    }
}

/// The fields the nearby-text scan examines for `node`, with their
/// indices, in page order: every field other than `node` inside the
/// ancestor subtree `text_feature_levels` up, at most
/// `max_nearby_fields` of them.
fn nearby_fields<'p>(
    cfg: &FeatureConfig,
    page: &'p PageView,
    node: NodeId,
) -> impl Iterator<Item = (usize, &'p FieldInfo)> + 'p {
    let scope = page.doc.ancestors(node).take(cfg.text_feature_levels).last().unwrap_or(node);
    page.fields
        .iter()
        .enumerate()
        // O(1) Euler-interval test, ≡ `f.node == scope || is_ancestor(…)`.
        .filter(move |(_, f)| f.node != node && page.in_subtree(scope, f.node))
        .take(cfg.max_nearby_fields)
}

/// `t:{norm, at most 30 bytes}@{relative path from node to field}`. The
/// cut backs off to a char boundary, so a long multibyte label is
/// shortened instead of panicking the page.
fn text_name<'b>(
    buf: &'b mut NameBuf,
    doc: &Document,
    norm: &str,
    node: NodeId,
    field: NodeId,
) -> &'b str {
    let b = buf.begin();
    let _ = write!(b, "t:{}@", &norm[..norm.floor_char_boundary(30)]);
    doc.relative_path_into(node, field, b);
    buf.as_str()
}

fn emit_node_features(
    page: &PageView,
    n: NodeId,
    level: usize,
    off: isize,
    buf: &mut NameBuf,
    sink: &mut dyn FeatureSink,
) {
    let doc = &page.doc;
    let Some(tag) = doc.node(n).tag() else { return };
    let b = buf.begin();
    let _ = write!(b, "s:tag={tag}@l{level}o{off}");
    sink.accept(buf.as_str());
    for (k, v) in doc.node(n).attrs() {
        // Never leak generator ground truth (or any data-* payload) into
        // the model.
        if k.starts_with("data-") {
            continue;
        }
        if FEATURE_ATTRS.contains(&k.as_str()) {
            let b = buf.begin();
            let _ = write!(b, "s:{k}={v}@l{level}o{off}");
            sink.accept(buf.as_str());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_kb::{Kb, KbBuilder, Ontology};

    fn empty_kb() -> Kb {
        KbBuilder::new(Ontology::new()).build()
    }

    fn page(html: &str) -> PageView {
        PageView::build("p", html, &empty_kb())
    }

    fn feats_of(space: &mut FeatureSpace, pv: &PageView, i: usize) -> Vec<String> {
        let v = space.features(pv, pv.fields[i].node);
        v.iter().map(|(id, _)| space.dict.name(id).to_string()).collect()
    }

    #[test]
    fn structural_features_cover_self_ancestors_siblings() {
        let pv = page(
            r#"<html><body><div class="info"><span class="label">Director:</span><span class="value">Spike Lee</span></div></body></html>"#,
        );
        let mut space = FeatureSpace::new(&[&pv], FeatureConfig::default());
        let names = feats_of(&mut space, &pv, 1); // the value span
        assert!(names.iter().any(|n| n == "s:tag=span@l0o0"), "self tag: {names:?}");
        assert!(names.iter().any(|n| n == "s:class=value@l0o0"), "self class");
        assert!(names.iter().any(|n| n == "s:class=info@l1o0"), "parent class");
        // The label span is a sibling of the value span's... the value
        // span's parent (div) has no element siblings, but the label span
        // appears as a sibling of the leaf's ancestor chain? No — the label
        // is the leaf's own sibling; siblings of the *node itself* are not
        // scanned, only of ancestors. The label is reachable as a sibling
        // of nothing here, but its class appears via text features instead.
        assert!(names.iter().any(|n| n.starts_with("s:tag=div@l1")));
    }

    #[test]
    fn sibling_window_features_present_for_ancestor_siblings() {
        let pv = page(
            r#"<div class="a">x</div><div class="b"><span>y</span></div><div class="c">z</div>"#,
        );
        // Feature target: the span inside div.b; its parent's siblings are
        // div.a (off -1) and div.c (off +1).
        let mut space = FeatureSpace::new(&[&pv], FeatureConfig::default());
        let span_idx = pv.fields.iter().position(|f| f.text == "y").unwrap();
        let names = feats_of(&mut space, &pv, span_idx);
        assert!(names.iter().any(|n| n == "s:class=a@l1o-1"), "{names:?}");
        assert!(names.iter().any(|n| n == "s:class=c@l1o1"));
    }

    #[test]
    fn data_attributes_never_become_features() {
        let pv = page(r#"<div data-gt="7" data-secret="x" class="ok">text</div>"#);
        let mut space = FeatureSpace::new(&[&pv], FeatureConfig::default());
        let names = feats_of(&mut space, &pv, 0);
        assert!(
            names.iter().all(|n| !n.contains("data-") && !n.contains("secret")),
            "gold leaked into features: {names:?}"
        );
        assert!(names.iter().any(|n| n.contains("class=ok")));
    }

    #[test]
    fn frequent_strings_become_text_features() {
        let htmls: Vec<String> = (0..4)
            .map(|i| {
                format!(
                    "<div class=row><span class=l>Director:</span><span class=v>Person {i}</span></div>"
                )
            })
            .collect();
        let kb = empty_kb();
        let pages: Vec<PageView> = htmls
            .iter()
            .enumerate()
            .map(|(i, h)| PageView::build(&format!("p{i}"), h, &kb))
            .collect();
        let refs: Vec<&PageView> = pages.iter().collect();
        let mut space = FeatureSpace::new(&refs, FeatureConfig::default());
        assert!(space.frequent.iter().any(|s| s == "director"), "{:?}", space.frequent);
        let v = space.features(&pages[0], pages[0].fields[1].node);
        let names: Vec<String> = v.iter().map(|(id, _)| space.dict.name(id).to_string()).collect();
        assert!(
            names.iter().any(|n| n.starts_with("t:director@")),
            "text feature missing: {names:?}"
        );
    }

    #[test]
    fn long_multibyte_frequent_strings_cut_on_a_char_boundary() {
        // 31 bytes: 'a' then fifteen 2-byte 'é's, so byte 30 falls inside
        // the last one.
        let label = format!("a{}", "é".repeat(15));
        let html = format!("<div><b>{label}</b><i>v</i></div>");
        let (p1, p2) = (page(&html), page(&html));
        let mut space = FeatureSpace::new(&[&p1, &p2], FeatureConfig::default());
        assert!(space.frequent.contains(&label));
        let names = feats_of(&mut space, &p1, 1);
        let cut = format!("t:a{}@", "é".repeat(14));
        assert!(names.iter().any(|n| n.starts_with(&cut)), "{names:?}");
        space.freeze();
        let mut fz = space.page_featurizer(&p2);
        assert_eq!(fz.features(p2.fields[1].node), space.features(&p2, p2.fields[1].node));
    }

    #[test]
    fn frozen_paths_match_the_interning_path() {
        let pv = page(
            r#"<div class="info"><span class="l">Director:</span><span class="v">Someone</span></div>"#,
        );
        let mut space = FeatureSpace::new(&[&pv], FeatureConfig::default());
        let trained = space.features(&pv, pv.fields[1].node);
        space.freeze();
        // Same page: identical vectors through &self and &mut self.
        assert_eq!(space.page_featurizer(&pv).features(pv.fields[1].node), trained);
        assert_eq!(space.features(&pv, pv.fields[1].node), trained);
        // Unseen page: unknown names dropped identically by both paths.
        let pv2 = page(r#"<div class="fresh"><span class="l">Director:</span></div>"#);
        let a = space.page_featurizer(&pv2).features(pv2.fields[0].node);
        let b = space.features(&pv2, pv2.fields[0].node);
        assert_eq!(a, b);
        let p = space.pair_features_frozen(&pv, pv.fields[0].node, pv.fields[1].node);
        let q = space.pair_features(&pv, pv.fields[0].node, pv.fields[1].node);
        assert_eq!(p, q);
    }

    #[test]
    fn sinks_match_the_reference_vec_string_path() {
        // Interning sink vs interning collect_names output by hand, with a
        // *reused* scratch across nodes (buffer-reuse bugs would show as
        // name bleed between nodes).
        let pv = page(
            r#"<div class="info"><span class="l">Director:</span><span class="v">Someone</span></div><ul><li class=x>A</li><li>B</li></ul>"#,
        );
        let mut by_sink = FeatureSpace::new(&[&pv], FeatureConfig::default());
        let mut by_ref = by_sink.clone();
        let mut scratch = FeatureScratch::new();
        for f in &pv.fields {
            let a = by_sink.features_with(&pv, f.node, &mut scratch);
            let names = by_ref.collect_names(&pv, f.node);
            let idx: Vec<u32> = names.iter().filter_map(|n| by_ref.dict.intern(n)).collect();
            let b = SparseVec::from_indices(idx);
            assert_eq!(a, b, "node {:?}", f.node);
        }
        // The dictionaries grew identically → frozen lookups agree too.
        by_sink.freeze();
        by_ref.freeze();
        let mut featurizer = by_sink.page_featurizer(&pv);
        for f in &pv.fields {
            let a = featurizer.features(f.node);
            let names = by_ref.collect_names(&pv, f.node);
            let idx: Vec<u32> = names.iter().filter_map(|n| by_ref.dict.get(n)).collect();
            assert_eq!(a, SparseVec::from_indices(idx));
        }
    }

    #[test]
    fn featurizer_resolves_shared_blocks_and_text_names_once() {
        // Three label/value rows under one list: the value spans share
        // every ancestor block above level 0, and the same label strings
        // recur at the same (LCA, up) from the sibling fields.
        let htmls: Vec<String> = (0..3)
            .map(|i| {
                format!(
                    "<ul class=info><li><b>Director:</b><i>D{i}</i></li>\
                     <li><b>Writer:</b><i>W{i}</i></li><li><b>Genre:</b><i>G{i}</i></li></ul>"
                )
            })
            .collect();
        let kb = empty_kb();
        let pages: Vec<PageView> = htmls.iter().map(|h| PageView::build("p", h, &kb)).collect();
        let refs: Vec<&PageView> = pages.iter().collect();
        let mut space = FeatureSpace::new(&refs, FeatureConfig::default());
        for pv in &pages {
            for f in &pv.fields {
                space.features(pv, f.node);
            }
        }
        space.freeze();
        let pv = &pages[0];
        let mut fz = space.page_featurizer(pv);
        let mut chain_steps = 0;
        for f in &pv.fields {
            let names = space.collect_names(pv, f.node);
            let reference: Vec<u32> = names.iter().filter_map(|n| space.dict.get(n)).collect();
            assert_eq!(fz.features(f.node), SparseVec::from_indices(reference));
            chain_steps += 1 + pv.doc.ancestors(f.node).filter(|&a| a != pv.doc.root()).count();
        }
        assert!(
            fz.blocks.len() < chain_steps,
            "{} blocks for {chain_steps} steps",
            fz.blocks.len()
        );
        assert!(!fz.text.is_empty());
        assert_eq!(fz.frequent.len(), pv.fields.len());
        assert!(fz.frequent.iter().any(|&f| f) && fz.frequent.iter().any(|&f| !f));
    }

    #[test]
    fn pair_sinks_match_reference_and_reset_prefix() {
        let pv = page(r#"<div class="a"><b>S</b></div><div class="b"><i>O</i></div>"#);
        let mut space = FeatureSpace::new(&[&pv], FeatureConfig::default());
        let s = pv.fields[0].node;
        let o = pv.fields[1].node;
        let mut scratch = FeatureScratch::new();
        let v = space.pair_features_with(&pv, s, o, &mut scratch);
        let names = space.collect_pair_names(&pv, s, o);
        assert!(names.iter().any(|n| n.starts_with("S|")));
        assert!(names.iter().any(|n| n.starts_with("O|")));
        let idx: Vec<u32> = names.iter().filter_map(|n| space.dict.get(n)).collect();
        assert_eq!(v, SparseVec::from_indices(idx));
        // After a pair call, the same scratch must produce unprefixed
        // single-node names (prefix fully cleared).
        let single = space.features_with(&pv, s, &mut scratch);
        let single_names: Vec<String> =
            single.iter().map(|(i, _)| space.dict.name(i).to_string()).collect();
        assert!(single_names.iter().all(|n| !n.starts_with("S|") && !n.starts_with("O|")));
    }

    #[test]
    fn name_arena_round_trips_rows() {
        let pv = page(r#"<div class="q"><span>A</span><span>B</span></div>"#);
        let space = FeatureSpace::new(&[&pv], FeatureConfig::default());
        let mut arena = NameArena::default();
        let mut buf = NameBuf::default();
        for f in &pv.fields {
            space.emit_names(&pv, f.node, &mut buf, &mut arena);
            arena.end_row();
        }
        assert_eq!(arena.n_rows(), pv.fields.len());
        for (r, f) in pv.fields.iter().enumerate() {
            let from_arena: Vec<&str> = arena.row(r).collect();
            let reference = space.collect_names(&pv, f.node);
            assert_eq!(from_arena, reference, "row {r}");
        }
    }

    #[test]
    fn frozen_space_drops_new_features() {
        let pv = page("<div class=x>a</div>");
        let mut space = FeatureSpace::new(&[&pv], FeatureConfig::default());
        let v1 = space.features(&pv, pv.fields[0].node);
        space.freeze();
        let pv2 = page("<div class=never-seen>b</div>");
        let v2 = space.features(&pv2, pv2.fields[0].node);
        assert!(v2.nnz() < v1.nnz() + 5);
        assert!(space.dict.get("s:class=never-seen@l0o0").is_none());
    }

    #[test]
    fn ablation_switches_disable_feature_families() {
        let pv = page(r#"<div class="info"><span class="l">Director:</span><span>V</span></div>"#);
        let mut cfg = FeatureConfig { enable_text: false, ..FeatureConfig::default() };
        let mut s1 = FeatureSpace::new(&[&pv], cfg.clone());
        let v = s1.features(&pv, pv.fields[1].node);
        let names: Vec<String> = v.iter().map(|(i, _)| s1.dict.name(i).to_string()).collect();
        assert!(names.iter().all(|n| n.starts_with("s:")));

        cfg.enable_text = true;
        cfg.enable_structural = false;
        cfg.frequent_string_page_frac = 0.0;
        let mut s2 = FeatureSpace::new(&[&pv], cfg);
        let v = s2.features(&pv, pv.fields[1].node);
        let names: Vec<String> = v.iter().map(|(i, _)| s2.dict.name(i).to_string()).collect();
        assert!(names.iter().all(|n| n.starts_with("t:")), "{names:?}");
    }

    mod codec {
        use super::*;
        use proptest::prelude::*;

        fn roundtrip(space: &FeatureSpace) -> FeatureSpace {
            let mut w = ceres_store::Writer::new();
            space.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = ceres_store::Reader::new(&bytes);
            let back = FeatureSpace::decode(&mut r).expect("decode");
            assert!(r.is_empty(), "decode must consume the whole encoding");
            back
        }

        proptest! {
            #[test]
            fn prop_feature_space_round_trips(
                names in proptest::collection::vec("[a-z:=@]{1,12}", 0..48),
                frequent in proptest::collection::vec(".{0,20}", 0..16),
                // Drawn from 0..2 and compared to 1: the shim has no bool
                // strategy.
                frozen in 0u32..2,
                enable_structural in 0u32..2,
                enable_text in 0u32..2,
                sibling_width in 0usize..9,
                frac in 0.0f64..1.0,
            ) {
                let mut dict = FeatureDict::new();
                for n in &names {
                    dict.intern(n);
                }
                if frozen == 1 {
                    dict.freeze();
                }
                let cfg = FeatureConfig {
                    sibling_width,
                    frequent_string_page_frac: frac,
                    enable_structural: enable_structural == 1,
                    enable_text: enable_text == 1,
                    ..FeatureConfig::default()
                };
                let frequent_set: FxHashSet<String> = frequent.iter().cloned().collect();
                let space = FeatureSpace { dict, frequent: frequent.clone(), frequent_set, cfg };

                let back = roundtrip(&space);
                prop_assert_eq!(back.dict.names(), space.dict.names());
                prop_assert_eq!(back.dict.is_frozen(), space.dict.is_frozen());
                prop_assert_eq!(&back.frequent, &space.frequent);
                // Derived state is rebuilt, not stored: membership agrees.
                for s in &frequent {
                    prop_assert!(back.frequent_set.contains(s));
                }
                prop_assert_eq!(back.cfg.sibling_width, space.cfg.sibling_width);
                prop_assert_eq!(back.cfg.enable_structural, space.cfg.enable_structural);
                prop_assert_eq!(back.cfg.enable_text, space.cfg.enable_text);
                prop_assert_eq!(
                    back.cfg.frequent_string_page_frac.to_bits(),
                    space.cfg.frequent_string_page_frac.to_bits()
                );
            }

            #[test]
            fn prop_feature_space_decode_of_random_bytes_never_panics(
                raw in proptest::collection::vec(0u32..256, 0..96)
            ) {
                let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
                let _ = FeatureSpace::decode(&mut ceres_store::Reader::new(&bytes));
            }
        }
    }
}
