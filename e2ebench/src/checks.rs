//! Correctness checks run beside the measurements. Each returns a named
//! pass/fail with a one-line detail; any failure makes the run incorrect.

use crate::fixture::{digest, outcome_digest, pairs, Fixture, Workload};
use crate::passes::{ok_extractions, Served};
use crate::trace;
use ceres::core::session::{ExtractOutcome, PageError, TrainedSite};
use ceres::store::Fnv64;
use ceres::synth::hostile::{hostile_corpus, Expect};

/// Scored pages of site 0 that `serve` compares at 1 and at `nproc` threads.
const SERIAL_SERVE_PAGES: usize = 200;

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

/// Ingest a few clean pages plus `hostile_corpus` through the guarded
/// path, then serve the corpus: every page must meet its expected fate and
/// nothing may panic.
pub fn hostile(f: &Fixture, threads: usize) -> Check {
    let name = "hostile_corpus_quarantined";
    let run = std::panic::catch_unwind(|| {
        let corpus = hostile_corpus(f.seed);
        let clean = pairs(&f.sites[0], &f.train[0][..f.train[0].len().min(40)]);
        let mut session =
            ceres::core::session::SiteSession::builder(&f.kb).config(f.config(threads)).build();
        session.try_ingest(clean);
        session.try_ingest(corpus.iter().map(|p| (p.id.clone(), p.html.clone())));
        let trained = session.finish_training();
        let mut got: Vec<(String, &str)> =
            trained.health().quarantine.iter().map(|(id, e)| (id.clone(), e.kind())).collect();
        let mut want: Vec<(String, &str)> = corpus
            .iter()
            .filter_map(|p| match p.expect {
                Expect::Quarantined(kind) => Some((p.id.clone(), kind)),
                Expect::Survives => None,
            })
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            return Err(format!("ingest quarantined {got:?}, expected {want:?}"));
        }
        let served = trained.try_extract_batch(
            &corpus.iter().map(|p| (p.id.clone(), p.html.clone())).collect::<Vec<_>>(),
        );
        for (page, outcome) in corpus.iter().zip(&served) {
            let failed = match outcome {
                ExtractOutcome::Failed(PageError::Panicked { message }) => {
                    return Err(format!("serving {} panicked: {message}", page.id));
                }
                ExtractOutcome::Failed(why) => Some(why.kind()),
                _ => None,
            };
            // A duplicate id is an ingest-only refusal; served alone, the
            // page is ordinary.
            let want = match page.expect {
                Expect::Quarantined(kind) if kind != "duplicate-id" => Some(kind),
                _ => None,
            };
            if failed != want {
                return Err(format!("serving {} ended {failed:?}, expected {want:?}", page.id));
            }
        }
        Ok(format!("{} quarantined, {} served", got.len(), served.len()))
    });
    match run {
        Ok(Ok(detail)) => Check::new(name, true, detail),
        Ok(Err(detail)) => Check::new(name, false, detail),
        Err(_) => Check::new(name, false, "the check panicked".into()),
    }
}

/// One site's output trained at 1 thread, taken before the timed pass and
/// compared with the same site at `nproc` threads afterwards.
pub struct SerialRef {
    pub site: usize,
    pub digest: u64,
}

/// The site a workload checks across thread counts: the first movie site,
/// or the smallest long-tail site with at least 100 pages.
fn serial_site(f: &Fixture) -> usize {
    match f.workload {
        Workload::SiteTrain | Workload::Serve => 0,
        Workload::Longtail => (0..f.sites.len())
            .filter(|&si| f.sites[si].pages.len() >= 100)
            .min_by_key(|&si| (f.sites[si].pages.len(), si))
            .unwrap_or(0),
    }
}

pub fn serial_reference(f: &Fixture) -> SerialRef {
    let si = serial_site(f);
    let (site, _) = f.train_site(si, 1);
    let digest = match f.workload {
        Workload::SiteTrain => digest(&ok_extractions(site.try_extract_batch(&f.batch[si]))),
        Workload::Longtail => digest(&site.extract_training_pages()),
        Workload::Serve => {
            let idx = &f.scored[si][..f.scored[si].len().min(SERIAL_SERVE_PAGES)];
            let outcomes = site.try_extract_batch(&pairs(&f.sites[si], idx));
            combine(outcomes.iter().map(outcome_digest))
        }
    };
    SerialRef { site: si, digest }
}

fn combine(digests: impl Iterator<Item = u64>) -> u64 {
    let mut h = Fnv64::new();
    for d in digests {
        h.write_u64(d);
    }
    h.finish()
}

/// Compare the serial reference with the `nproc`-thread digest `parallel`.
pub fn thread_identity(r: &SerialRef, parallel: u64, threads: usize) -> Check {
    Check::new(
        "thread_count_identity",
        r.digest == parallel,
        format!("site {} at 1 and {threads} threads: {:016x} vs {parallel:016x}", r.site, r.digest),
    )
}

/// `serve`'s `nproc`-thread digest of the pages [`serial_reference`] served.
pub fn served_serial_digest(f: &Fixture, served: &Served, si: usize) -> u64 {
    let idx = &f.scored[si][..f.scored[si].len().min(SERIAL_SERVE_PAGES)];
    let mut at: Vec<(usize, u64)> = served
        .reqs
        .iter()
        .zip(&served.outcomes)
        .filter(|((s, p), _)| *s == si && idx.binary_search(p).is_ok())
        .map(|(&(_, p), o)| (p, outcome_digest(o)))
        .collect();
    at.sort_unstable();
    combine(at.into_iter().map(|(_, d)| d))
}

/// How many of `part`'s served outcomes differ from what the in-memory
/// sites return for the same pages.
pub fn artifact_mismatches(f: &Fixture, memory: &[TrainedSite<'_>], part: &Served) -> usize {
    let mut by_site: Vec<Vec<usize>> = vec![Vec::new(); f.sites.len()];
    for (at, &(si, _)) in part.reqs.iter().enumerate() {
        by_site[si].push(at);
    }
    let mut mismatched = 0;
    for (si, ats) in by_site.iter().enumerate().filter(|(_, ats)| !ats.is_empty()) {
        let pages: Vec<usize> = ats.iter().map(|&at| part.reqs[at].1).collect();
        let batch = pairs(&f.sites[si], &pages);
        let expect =
            trace::span("session.try_extract_batch", || memory[si].try_extract_batch(&batch));
        mismatched += ats
            .iter()
            .zip(&expect)
            .filter(|(&at, e)| outcome_digest(e) != outcome_digest(&part.outcomes[at]))
            .count();
    }
    mismatched
}

/// Every page the artifact-loaded sites served must match what the
/// in-memory sites return for it.
pub fn artifact_serves_like_memory(mismatched: usize, served: usize) -> Check {
    Check::new(
        "artifact_serves_like_memory",
        mismatched == 0,
        format!("{mismatched} of {served} served pages differ"),
    )
}
