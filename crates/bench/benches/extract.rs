//! Criterion bench for the serve path's featurize-and-score step: every
//! field of one unseen movie page vectorized and scored two ways — the
//! per-name reference (stream each name, look it up in the frozen
//! dictionary) and the page-scoped memoized featurizer `extract_page`
//! uses. Both produce the same vectors (asserted before timing).

use ceres_core::config::FeatureConfig;
use ceres_core::features::{FeatureScratch, FeatureSpace};
use ceres_core::page::PageView;
use ceres_ml::{Dataset, LogReg, ScoreScratch, SparseVec, TrainConfig};
use ceres_synth::swde::{movie_vertical, SwdeConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

/// Classes of the fixture model: OTHER plus eight field labels, about a
/// movie site's NAME and relation classes.
const CLASSES: u32 = 9;

/// A frozen space and a model trained on 12 pages of one movie site, plus
/// one page of the same site the space never saw.
fn fixture() -> (FeatureSpace, LogReg, PageView) {
    let (v, _) = movie_vertical(SwdeConfig { seed: 1, scale: 0.02 });
    let site = &v.sites[0];
    let mut train: Vec<PageView> =
        site.pages.iter().take(13).map(|p| PageView::build(&p.id, &p.html, &v.kb)).collect();
    let served = train.pop().expect("fixture has 13 pages");
    let refs: Vec<&PageView> = train.iter().collect();
    let mut space = FeatureSpace::new(&refs, FeatureConfig::default());
    let mut scratch = FeatureScratch::new();
    let mut rows: Vec<(SparseVec, u32)> = Vec::new();
    for pv in &train {
        for f in &pv.fields {
            // Gold-annotated fields get a label class; the rest are OTHER.
            let y = f.gt_id.map_or(0, |g| 1 + g % (CLASSES - 1));
            rows.push((space.features_with(pv, f.node, &mut scratch), y));
        }
    }
    let mut data = Dataset::new(CLASSES as usize, space.dict.len());
    for (x, y) in rows {
        data.push(x, y);
    }
    let (model, _) = LogReg::train(&data, &TrainConfig { max_iters: 30, ..TrainConfig::default() });
    space.freeze();
    (space, model, served)
}

/// Per-name reference: every streamed name looked up on its own.
fn reference_vector(space: &FeatureSpace, page: &PageView, node: ceres_dom::NodeId) -> SparseVec {
    let names = space.collect_names(page, node);
    SparseVec::from_indices(names.iter().filter_map(|n| space.dict.get(n)).collect())
}

fn bench_extract(c: &mut Criterion) {
    let (space, model, page) = fixture();
    let mut featurizer = space.page_featurizer(&page);
    for f in &page.fields {
        assert_eq!(featurizer.features(f.node), reference_vector(&space, &page, f.node));
    }

    let mut g = c.benchmark_group("extract");
    g.throughput(Throughput::Elements(page.fields.len() as u64));

    g.bench_function("per_name_reference", |b| {
        let mut scores = ScoreScratch::new();
        b.iter(|| {
            let mut sum = 0.0;
            for f in &page.fields {
                let x = reference_vector(&space, &page, f.node);
                sum += model.predict_proba_into(&x, &mut scores)[0];
            }
            black_box(sum)
        })
    });

    // A fresh featurizer per iteration: its memos are page-scoped, so the
    // timing includes filling them, as one served request does.
    g.bench_function("page_featurizer", |b| {
        let mut scores = ScoreScratch::new();
        b.iter(|| {
            let mut featurizer = space.page_featurizer(&page);
            let mut sum = 0.0;
            for f in &page.fields {
                let x = featurizer.features(f.node);
                sum += model.predict_proba_into(&x, &mut scores)[0];
            }
            black_box(sum)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_extract);
criterion_main!(benches);
