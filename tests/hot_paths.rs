//! Equivalence suite for the allocation-free hot paths: the streaming
//! feature sinks, the memoized page featurizer, the sharded
//! borrow-returning KB matcher, and the pool-backed runtime must each be
//! **byte-identical** to their straightforward reference implementations
//! on realistic (SWDE movie vertical, long-tail CommonCrawl) data.

use ceres::core::config::FeatureConfig;
use ceres::core::features::{FeatureScratch, FeatureSink, FeatureSpace, NameArena};
use ceres::core::page::PageView;
use ceres::kb::{Kb, KbBuilder, MatcherConfig, ValueId, ValueKind};
use ceres::ml::{FeatureDict, SparseVec};
use ceres::prelude::*;
use ceres::synth::commoncrawl;
use ceres::synth::swde::{movie_vertical, SwdeConfig};
use ceres::text::normalize;
use proptest::prelude::*;

/// Rebuild `kb` from its own content with a different shard count. Values
/// are re-interned in id order, so `ValueId`s are preserved and match
/// results are directly comparable.
fn rebuild_with_shards(kb: &Kb, n_shards: usize) -> Kb {
    let mut b = KbBuilder::new(kb.ontology().clone())
        .with_config(MatcherConfig { n_shards, ..MatcherConfig::default() });
    for i in 0..kb.n_values() as u32 {
        let v = ValueId(i);
        let id = match kb.kind(v) {
            ValueKind::Entity(ty) => b.entity(ty, kb.canonical(v)),
            ValueKind::Literal => b.literal(kb.canonical(v)),
        };
        assert_eq!(id, v, "re-interning must preserve value ids");
        for alias in kb.aliases(v) {
            b.alias(id, alias);
        }
    }
    for t in kb.triples() {
        b.triple(t.subject, t.pred, t.object);
    }
    b.build()
}

#[test]
fn sharded_matcher_equals_unsharded_on_movie_vertical() {
    let (v, _) = movie_vertical(SwdeConfig { seed: 13, scale: 0.02 });
    let kb = &v.kb; // default config: 16 shards
    let unsharded = rebuild_with_shards(kb, 1);
    let wide = rebuild_with_shards(kb, 64);
    assert_eq!(unsharded.match_shards().n_shards(), 1);
    assert_eq!(wide.match_shards().n_shards(), 64);

    // Query corpus: every text field of real pages (exact hits, fuzzy
    // hits, and misses), plus every canonical name and alias.
    let mut queries: Vec<String> = Vec::new();
    for site in &v.sites {
        for page in site.pages.iter().take(10) {
            let pv = PageView::build(&page.id, &page.html, kb);
            queries.extend(pv.fields.iter().map(|f| f.text.clone()));
        }
    }
    for i in 0..kb.n_values() as u32 {
        queries.push(kb.canonical(ValueId(i)).to_string());
        queries.extend(kb.aliases(ValueId(i)).iter().cloned());
    }
    queries.push(String::new());
    queries.push("no such value anywhere".to_string());
    assert!(queries.len() > 500, "corpus too small to be meaningful: {}", queries.len());

    let mut hits = 0usize;
    for q in &queries {
        let reference = unsharded.match_text(q);
        assert_eq!(kb.match_text(q), reference, "16-shard vs 1-shard diverged on {q:?}");
        assert_eq!(wide.match_text(q), reference, "64-shard vs 1-shard diverged on {q:?}");
        // The pre-normalized entry point must agree with the raw one.
        assert_eq!(kb.match_norm(&normalize(q)), reference, "match_norm diverged on {q:?}");
        hits += usize::from(!reference.is_empty());
    }
    assert!(hits > 100, "corpus produced too few matches: {hits}");
}

#[test]
fn sink_vectors_equal_reference_path_on_movie_vertical() {
    // Training (interning) and frozen (lookup) sink paths vs the owned
    // Vec<String> reference, on real template pages, with one scratch
    // reused across every node — exactly the hot loops' usage pattern.
    let (v, _) = movie_vertical(SwdeConfig { seed: 13, scale: 0.02 });
    let site = &v.sites[0];
    let views: Vec<PageView> =
        site.pages.iter().take(12).map(|p| PageView::build(&p.id, &p.html, &v.kb)).collect();
    let refs: Vec<&PageView> = views.iter().collect();

    let mut by_sink = FeatureSpace::new(&refs, FeatureConfig::default());
    let mut by_ref = by_sink.clone();
    let mut scratch = FeatureScratch::new();
    for pv in &views {
        for f in &pv.fields {
            let a = by_sink.features_with(pv, f.node, &mut scratch);
            let names = by_ref.collect_names(pv, f.node);
            let idx: Vec<u32> = names.iter().filter_map(|n| by_ref.dict.intern(n)).collect();
            assert_eq!(
                a,
                SparseVec::from_indices(idx),
                "training path: {} {:?}",
                pv.page_id,
                f.node
            );
        }
    }
    assert_eq!(by_sink.dict.names(), by_ref.dict.names(), "dictionaries must grow identically");
    assert!(by_sink.dict.len() > 100, "fixture too small: {} features", by_sink.dict.len());

    by_sink.freeze();
    assert_featurizer_matches_reference(&by_sink, &views);
}

/// Intern every field of `train` (the training path) and freeze.
fn trained_space(train: &[&PageView], cfg: FeatureConfig) -> FeatureSpace {
    let mut space = FeatureSpace::new(train, cfg);
    let mut scratch = FeatureScratch::new();
    for pv in train {
        for f in &pv.fields {
            space.features_with(pv, f.node, &mut scratch);
        }
    }
    space.freeze();
    space
}

/// The page featurizer vs resolving every `collect_names` name against the
/// frozen dictionary, on every field of every page (one featurizer per
/// page, as `extract_page` uses it). Returns the number of fields checked.
fn assert_featurizer_matches_reference(space: &FeatureSpace, pages: &[PageView]) -> usize {
    let mut checked = 0;
    for pv in pages {
        let mut featurizer = space.page_featurizer(pv);
        for f in &pv.fields {
            let names = space.collect_names(pv, f.node);
            let idx: Vec<u32> = names.iter().filter_map(|n| space.dict.get(n)).collect();
            assert_eq!(
                featurizer.features(f.node),
                SparseVec::from_indices(idx),
                "featurizer: {} {:?}",
                pv.page_id,
                f.node
            );
            checked += 1;
        }
    }
    checked
}

/// Parsed views of a site's pages.
fn views_of(site: &ceres::synth::Site, kb: &Kb) -> Vec<PageView> {
    site.pages.iter().map(|p| PageView::build(&p.id, &p.html, kb)).collect()
}

/// Train on the even pages, check every page (seen and unseen ones).
fn check_site(views: &[PageView], cfg: FeatureConfig) -> (FeatureSpace, usize) {
    let train: Vec<&PageView> = views.iter().step_by(2).collect();
    let space = trained_space(&train, cfg);
    let checked = assert_featurizer_matches_reference(&space, views);
    (space, checked)
}

/// Three movie sites and two long-tail sites: Czech labels with
/// diacritics, and a site mixing film, person and index templates.
fn equivalence_corpus() -> Vec<(String, Vec<PageView>)> {
    let (v, _) = movie_vertical(SwdeConfig { seed: 13, scale: 0.02 });
    let mut out: Vec<(String, Vec<PageView>)> =
        v.sites.iter().take(3).map(|s| (s.name.clone(), views_of(s, &v.kb))).collect();
    let cc = commoncrawl::generate(5, 0.002);
    for name in ["kinobox.cz", "rottentomatoes.com"] {
        let site = cc.sites.iter().find(|s| s.name == name).expect("long-tail site present");
        out.push((site.name.clone(), views_of(site, &cc.kb)));
    }
    out
}

#[test]
fn featurizer_equals_reference_on_movie_and_longtail_sites() {
    for (name, views) in equivalence_corpus() {
        let (space, checked) = check_site(&views, FeatureConfig::default());
        assert!(!space.frequent.is_empty(), "{name}: no frequent strings, no text features");
        assert!(checked > 500, "{name}: fixture too small ({checked} fields)");
    }
}

#[test]
fn featurizer_equals_reference_across_feature_configs() {
    let corpus = equivalence_corpus();
    for (name, views) in [&corpus[0], &corpus[3]] {
        let deepest = views.iter().map(|pv| pv.doc.max_depth()).max().unwrap_or(0);
        let nearby_cap = 3;
        let cap_bites = views.iter().any(|pv| {
            pv.fields.iter().any(|f| {
                let levels = FeatureConfig::default().text_feature_levels;
                let scope = pv.doc.ancestors(f.node).take(levels).last().unwrap_or(f.node);
                let nearby = pv
                    .fields
                    .iter()
                    .filter(|g| g.node != f.node && pv.in_subtree(scope, g.node))
                    .count();
                nearby > nearby_cap
            })
        });
        assert!(cap_bites, "{name}: max_nearby_fields={nearby_cap} never bites");
        let variants = [
            FeatureConfig { enable_structural: false, ..FeatureConfig::default() },
            FeatureConfig { enable_text: false, ..FeatureConfig::default() },
            FeatureConfig { max_nearby_fields: nearby_cap, ..FeatureConfig::default() },
            FeatureConfig { max_ancestor_levels: deepest + 4, ..FeatureConfig::default() },
        ];
        for cfg in variants {
            check_site(views, cfg);
        }
    }
}

#[test]
fn pool_par_map_equals_spawn_per_call_on_page_parsing() {
    // The pool-backed default vs the kept spawn-per-call reference, over
    // real page work (normalized page text), at the canonical thread set.
    let (v, _) = movie_vertical(SwdeConfig { seed: 13, scale: 0.02 });
    let site = &v.sites[0];
    let pages: Vec<(String, String)> =
        site.pages.iter().map(|p| (p.id.clone(), p.html.clone())).collect();
    let work = |(id, html): &(String, String)| {
        let pv = PageView::build(id, html, &v.kb);
        let n_matches: usize = pv.fields.iter().map(|f| f.matches.len()).sum();
        format!("{id}:{}:{}", pv.fields.len(), n_matches)
    };
    let reference = Runtime::sequential().par_map(&pages, work);
    for threads in [1, 2, 8] {
        let rt = Runtime::new(threads);
        assert_eq!(rt.par_map(&pages, work), reference, "pool threads={threads}");
        for chunk in [1, 4, 64] {
            assert_eq!(
                rt.par_map_spawn_chunked(&pages, chunk, work),
                reference,
                "spawn threads={threads} chunk={chunk}"
            );
        }
    }
}

proptest! {
    /// Random feature-name sets round-trip through the interning path
    /// (dict + reusable index buffer) identically to the reference
    /// (collect, intern, from_indices) — including after freezing.
    #[test]
    fn sink_dict_round_trip(
        rows in proptest::collection::vec(
            proptest::collection::vec("[a-zA-Z0-9:=@|^/ ]{0,16}", 0..12),
            1..8,
        )
    ) {
        // Streaming path: shared dict + reusable buffer across rows.
        let mut dict = FeatureDict::new();
        let mut buf: Vec<u32> = Vec::new();
        let mut streamed: Vec<SparseVec> = Vec::new();
        for row in &rows {
            for name in row {
                if let Some(i) = dict.intern(name) {
                    buf.push(i);
                }
            }
            streamed.push(SparseVec::from_indices_buf(&mut buf));
        }
        // Reference path: fresh index vec per row.
        let mut ref_dict = FeatureDict::new();
        let reference: Vec<SparseVec> = rows
            .iter()
            .map(|row| {
                SparseVec::from_indices(
                    row.iter().filter_map(|n| ref_dict.intern(n)).collect(),
                )
            })
            .collect();
        prop_assert_eq!(&streamed, &reference);
        prop_assert_eq!(dict.len(), ref_dict.len());
        // Frozen round-trip: every name resolves identically in both.
        dict.freeze();
        for row in &rows {
            for name in row {
                prop_assert_eq!(dict.get(name), ref_dict.get(name));
            }
        }
    }

    /// On random taggy pages (the `page.rs` generator), the memoized
    /// featurizer equals the per-name reference — on the page the space
    /// was trained on and on an unseen one. The training page is seen
    /// twice, so every one of its short texts is a frequent string.
    #[test]
    fn prop_featurizer_equals_reference_on_taggy_pages(
        seen in "(<(div|p|b)>|</(div|p|b)>|[a-z &;<>]{0,6}){0,30}",
        unseen in "(<(div|p|b)>|</(div|p|b)>|[a-z &;<>]{0,6}){0,30}",
        nearby_cap in 1usize..50,
    ) {
        let kb = KbBuilder::new(ceres::kb::Ontology::new()).build();
        let views: Vec<PageView> = [&seen, &seen, &unseen]
            .iter()
            .enumerate()
            .map(|(i, h)| PageView::build(&format!("p{i}"), h, &kb))
            .collect();
        let train: Vec<&PageView> = views.iter().take(2).collect();
        let cfg = FeatureConfig {
            frequent_string_page_frac: 0.0,
            max_nearby_fields: nearby_cap,
            ..FeatureConfig::default()
        };
        let space = trained_space(&train, cfg);
        assert_featurizer_matches_reference(&space, &views);
    }

    /// Random name sets survive the NameArena pack/replay round-trip with
    /// rows and intra-row order intact (the parallel-collection format).
    #[test]
    fn name_arena_round_trip(
        rows in proptest::collection::vec(
            proptest::collection::vec("[a-zA-Z0-9:=@|]{0,16}", 0..12),
            0..8,
        )
    ) {
        let mut arena = NameArena::default();
        for row in &rows {
            for name in row {
                arena.accept(name);
            }
            arena.end_row();
        }
        prop_assert_eq!(arena.n_rows(), rows.len());
        for (r, row) in rows.iter().enumerate() {
            let replayed: Vec<&str> = arena.row(r).collect();
            let expected: Vec<&str> = row.iter().map(|s| s.as_str()).collect();
            prop_assert_eq!(replayed, expected, "row {}", r);
        }
    }
}
