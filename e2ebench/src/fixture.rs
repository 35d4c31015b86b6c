//! Workload inputs, generated from the workload seed, and the training and
//! serving calls every workload shares.

use crate::trace;
use ceres::core::extract::{ExtractLabel, Extraction};
use ceres::core::session::{ExtractOutcome, SiteSession, TrainedSite};
use ceres::core::CeresConfig;
use ceres::eval::{GoldIndex, Prf, TripleScorer};
use ceres::kb::Kb;
use ceres::runtime::Runtime;
use ceres::store::Fnv64;
use ceres::synth::commoncrawl;
use ceres::synth::swde::{movie_vertical, SwdeConfig};
use ceres::synth::Site;

/// Movie vertical scale of `site_train`: 10 sites of 400 pages.
const SITE_TRAIN_SCALE: f64 = 0.2;
/// Movie vertical scale of `serve`: 10 sites of 1800 pages.
const SERVE_SCALE: f64 = 0.9;
/// Pages per site `serve` trains on during set-up; the rest are served.
pub const SERVE_TRAIN_PAGES: usize = 100;
/// CommonCrawl-like scale of `longtail`: 33 sites, 4 471 pages at seed 1.
const LONGTAIL_SCALE: f64 = 0.01;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SiteTrain,
    Serve,
    Longtail,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "site_train" => Some(Workload::SiteTrain),
            "serve" => Some(Workload::Serve),
            "longtail" => Some(Workload::Longtail),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SiteTrain => "site_train",
            Workload::Serve => "serve",
            Workload::Longtail => "longtail",
        }
    }
}

/// `(page id, html)` pairs, as the batch calls take them.
pub type PageSet = Vec<(String, String)>;

/// One workload's generated corpus and how its pages are used.
pub struct Fixture {
    pub workload: Workload,
    pub seed: u64,
    pub kb: Kb,
    pub sites: Vec<Site>,
    /// Per site: indexes into `site.pages` pushed through a `SiteSession`.
    pub train: Vec<Vec<usize>>,
    /// Per site: indexes of the pages whose extractions are scored.
    pub scored: Vec<Vec<usize>>,
    /// Per site: the scored pages as `(id, html)` pairs (`site_train`'s
    /// `try_extract_batch` input; empty for the other workloads).
    pub batch: Vec<PageSet>,
}

impl Fixture {
    pub fn generate(workload: Workload, seed: u64) -> Fixture {
        let (kb, sites) = trace::span("synth.generate", || match workload {
            Workload::SiteTrain => {
                let (v, _) = movie_vertical(SwdeConfig { seed, scale: SITE_TRAIN_SCALE });
                (v.kb, v.sites)
            }
            Workload::Serve => {
                let (v, _) = movie_vertical(SwdeConfig { seed, scale: SERVE_SCALE });
                (v.kb, v.sites)
            }
            Workload::Longtail => {
                let d = commoncrawl::generate(seed, LONGTAIL_SCALE);
                (d.kb, d.sites)
            }
        });
        let mut train = Vec::new();
        let mut scored = Vec::new();
        for site in &sites {
            let n = site.pages.len();
            let (t, s): (Vec<usize>, Vec<usize>) = match workload {
                // `Site::split_halves`: even pages train, odd pages evaluate.
                Workload::SiteTrain => ((0..n).step_by(2).collect(), (1..n).step_by(2).collect()),
                Workload::Serve => {
                    let k = SERVE_TRAIN_PAGES.min(n);
                    ((0..k).collect(), (k..n).collect())
                }
                Workload::Longtail => ((0..n).collect(), (0..n).collect()),
            };
            train.push(t);
            scored.push(s);
        }
        let batch = match workload {
            Workload::SiteTrain => {
                sites.iter().zip(&scored).map(|(site, idx)| pairs(site, idx)).collect()
            }
            _ => Vec::new(),
        };
        Fixture { workload, seed, kb, sites, train, scored, batch }
    }

    pub fn config(&self, threads: usize) -> CeresConfig {
        CeresConfig::new(self.seed).with_threads(threads)
    }

    /// Push site `si`'s training pages one by one and freeze the model.
    /// Returns the site and the wall time from the first push to the
    /// frozen model.
    pub fn train_site(&self, si: usize, threads: usize) -> (TrainedSite<'_>, f64) {
        let site = &self.sites[si];
        let t0 = trace::now();
        let mut session = SiteSession::builder(&self.kb).config(self.config(threads)).build();
        for &pi in &self.train[si] {
            let page = &site.pages[pi];
            trace::span("session.push_page", || {
                session.push_page(page.id.as_str(), page.html.as_str())
            });
        }
        let trained = trace::span("session.finish_training", || session.finish_training());
        (trained, t0.elapsed().as_secs_f64())
    }

    /// Round-trip a trained site through the artifact codec, as a serving
    /// process would load it. Returns the loaded site and the artifact size.
    pub fn reload<'kb>(
        &'kb self,
        trained: &TrainedSite<'kb>,
        threads: usize,
    ) -> Result<(TrainedSite<'kb>, usize), String> {
        let bytes = trace::span("session.to_bytes", || trained.to_bytes())
            .map_err(|e| format!("saving the artifact failed: {e}"))?;
        let loaded = trace::span("session.load_on", || {
            TrainedSite::load_on(&self.kb, Runtime::new(threads), &bytes[..])
        })
        .map_err(|e| format!("loading the artifact failed: {e}"))?;
        Ok((loaded, bytes.len()))
    }

    /// Precision/recall/F1 of `extractions` (one list per site) on the
    /// scored pages, and the confidence-ranked harvest at 90% precision.
    pub fn quality(&self, extractions: &[Vec<Extraction>]) -> Quality {
        let mut prf = Prf::default();
        let mut ranked: Vec<(f64, bool)> = Vec::new();
        for ((site, scored), exs) in self.sites.iter().zip(&self.scored).zip(extractions) {
            let gold = GoldIndex::new(site);
            let ids: Vec<&str> = scored.iter().map(|&i| site.pages[i].id.as_str()).collect();
            prf.add(TripleScorer::score(&self.kb, &gold, &ids, exs, None).overall());
            ranked.extend(exs.iter().map(|e| (e.confidence, gold.extraction_correct(&self.kb, e))));
        }
        // Stable sort: ties keep site and extraction order, so the count
        // repeats exactly for the same inputs.
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut correct = 0usize;
        let mut facts_at_p90 = 0usize;
        for (k, &(_, ok)) in ranked.iter().enumerate() {
            correct += usize::from(ok);
            if correct as f64 >= 0.9 * (k + 1) as f64 {
                facts_at_p90 = k + 1;
            }
        }
        Quality { prf, facts_at_p90 }
    }
}

pub fn pairs(site: &Site, idx: &[usize]) -> PageSet {
    idx.iter().map(|&i| (site.pages[i].id.clone(), site.pages[i].html.clone())).collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub prf: Prf,
    pub facts_at_p90: usize,
}

fn hash_extraction(h: &mut Fnv64, e: &Extraction) {
    h.write_str(&e.page_id);
    h.write_u64(e.gt_id.map_or(u64::MAX, u64::from));
    h.write_str(&e.subject);
    h.write_u64(match e.label {
        ExtractLabel::Name => u64::MAX,
        ExtractLabel::Pred(p) => u64::from(p.0),
    });
    h.write_str(&e.object);
    h.write_u64(e.confidence.to_bits());
}

/// Digest of a list of extractions, confidences to the bit.
pub fn digest(exs: &[Extraction]) -> u64 {
    let mut h = Fnv64::new();
    for e in exs {
        hash_extraction(&mut h, e);
    }
    h.finish()
}

/// Digest of one page's serve outcome.
pub fn outcome_digest(outcome: &ExtractOutcome) -> u64 {
    let mut h = Fnv64::new();
    match outcome {
        ExtractOutcome::Ok(exs) => {
            h.write_u64(0);
            for e in exs {
                hash_extraction(&mut h, e);
            }
        }
        ExtractOutcome::Unassigned { best_sim } => {
            h.write_u64(1);
            h.write_u64(best_sim.to_bits());
        }
        ExtractOutcome::Failed(why) => {
            h.write_u64(2);
            h.write_str(why.kind());
        }
    }
    h.finish()
}

/// Seeded Fisher–Yates shuffle (splitmix64), independent of the program's
/// own generators.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}
