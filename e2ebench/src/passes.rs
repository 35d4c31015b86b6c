//! The measured phases: training rounds (`site_train`, `longtail`) and
//! closed-loop serving (every workload).

use crate::fixture::{digest, shuffle, Fixture, Workload};
use crate::host::Clock;
use crate::trace;
use ceres::core::extract::Extraction;
use ceres::core::page::PageView;
use ceres::core::session::{ExtractOutcome, TrainedSite};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Serve slices: round `r` serves the pages whose index is `r` modulo
/// this, so two rounds in a row serve no page twice. (Every round trains
/// on the same pages again anyway, so a later round's repeats give no
/// cache a win that training has not already given it.)
const ROUND_PAGE_SLICES: usize = 2;

/// One pass over every site: push → `finish_training` → extract.
pub struct Round<'kb> {
    /// The trained sites, training views already released.
    pub sites: Vec<TrainedSite<'kb>>,
    /// Extractions on the scored pages, one list per site.
    pub extractions: Vec<Vec<Extraction>>,
    /// Summed wall time from first push to frozen model, over all sites,
    /// in reference-host seconds.
    pub train_s: f64,
    /// Pages quarantined at ingest or ending in `ExtractOutcome::Failed`.
    pub failed: usize,
    /// Scored pages of trained sites not counted in `failed`.
    pub ok_pages: usize,
    /// Wall time of training and extraction, serve slices excluded, in
    /// reference-host seconds.
    pub wall_s: f64,
}

/// What one site contributes to a [`Round`].
struct SiteRun<'kb> {
    site: TrainedSite<'kb>,
    extractions: Vec<Extraction>,
    train_s: f64,
    failed: usize,
    ok_pages: usize,
}

/// Train and harvest every site, `2 × threads` sites at a time on
/// `threads` site workers (each session on a `threads`-wide pool). After
/// each batch, the batch's sites serve this round's slice of their pages
/// into `served`, so the serve latencies are sampled all through the run
/// rather than in one stretch at its end. Each batch and each slice is
/// one `host` segment.
fn train_round<'kb>(
    f: &'kb Fixture,
    threads: usize,
    round: usize,
    traced: bool,
    served: &mut Served,
    host: &mut Clock,
) -> Round<'kb> {
    let mut runs: Vec<Option<SiteRun<'kb>>> = (0..f.sites.len()).map(|_| None).collect();
    let mut wall_s = 0.0;
    for (bi, batch) in largest_first(f).chunks(2 * threads).enumerate() {
        let (done, raw_s, scale) =
            host.segment(|| per_site(batch, threads, |si| run_site(f, si, threads)));
        wall_s += raw_s * scale;
        let mut sites: Vec<Option<&TrainedSite<'kb>>> = vec![None; f.sites.len()];
        let mut reqs: Vec<Request> = Vec::new();
        for (&si, run) in batch.iter().zip(&done) {
            sites[si] = Some(&run.site);
            let n = f.sites[si].pages.len();
            reqs.extend(
                (round % ROUND_PAGE_SLICES..n).step_by(ROUND_PAGE_SLICES).map(|pi| (si, pi)),
            );
        }
        shuffle(&mut reqs, f.seed ^ ((round as u64) << 32 | bi as u64));
        let (part, _, slice_scale) = host.segment(|| serve(f, &sites, reqs, threads, None, traced));
        served.extend(part.scaled(slice_scale));
        for (&si, mut run) in batch.iter().zip(done) {
            run.train_s *= scale;
            runs[si] = Some(run);
        }
    }
    let mut out = Round {
        sites: Vec::with_capacity(runs.len()),
        extractions: Vec::with_capacity(runs.len()),
        train_s: 0.0,
        failed: 0,
        ok_pages: 0,
        wall_s,
    };
    for run in runs.into_iter().map(|r| r.expect("every site ran")) {
        out.sites.push(run.site);
        out.extractions.push(run.extractions);
        out.train_s += run.train_s;
        out.failed += run.failed;
        out.ok_pages += run.ok_pages;
    }
    out
}

/// Site indexes, largest site first, so site workers run out of work
/// together.
fn largest_first(f: &Fixture) -> Vec<usize> {
    let mut order: Vec<usize> = (0..f.sites.len()).collect();
    order.sort_by_key(|&si| std::cmp::Reverse(f.sites[si].pages.len()));
    order
}

/// `job(si)` for every site of `order`, on `workers` site workers that
/// each take the next site when their last one is done; results in
/// `order`. One site alone leaves cores idle through its serial stages; a
/// second site in flight fills them.
fn per_site<R: Send>(order: &[usize], workers: usize, job: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&si) = order.get(k) else { break };
                        done.push((k, job(si)));
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("a site worker panicked")).collect()
    });
    done.sort_by_key(|&(k, _)| k);
    done.into_iter().map(|(_, r)| r).collect()
}

fn run_site(f: &Fixture, si: usize, threads: usize) -> SiteRun<'_> {
    let (mut site, train_s) = f.train_site(si, threads);
    let trained = site.stats().trained;
    let (extractions, failed, ok_pages) = match f.workload {
        Workload::SiteTrain => {
            let outcomes =
                trace::span("session.try_extract_batch", || site.try_extract_batch(&f.batch[si]));
            let failed = outcomes.iter().filter(|o| matches!(o, ExtractOutcome::Failed(_))).count();
            let ok_pages = if trained { outcomes.len() - failed } else { 0 };
            (ok_extractions(outcomes), failed, ok_pages)
        }
        // Whole-site protocol: harvest the pages trained on, from the
        // views built at ingest.
        Workload::Longtail | Workload::Serve => {
            let failed = site.health().pages_quarantined();
            let ok_pages = if trained { f.scored[si].len() - failed } else { 0 };
            let extractions =
                trace::span("session.extract_training_pages", || site.extract_training_pages());
            (extractions, failed, ok_pages)
        }
    };
    drop(site.take_training_views());
    SiteRun { site, extractions, train_s, failed, ok_pages }
}

/// The extractions of the outcomes that are `Ok`, in order.
pub fn ok_extractions(outcomes: Vec<ExtractOutcome>) -> Vec<Extraction> {
    outcomes
        .into_iter()
        .filter_map(|o| match o {
            ExtractOutcome::Ok(exs) => Some(exs),
            _ => None,
        })
        .flatten()
        .collect()
}

/// Whole training rounds, as many as fit best in `seconds` of training
/// time in reference-host seconds (at least one), with their serve slices.
/// Counting the budget in reference-host time keeps the number of rounds
/// the same whether the host is fast or slow.
pub struct TrainPass<'kb> {
    /// The first round (its `sites` moved to `TrainPass::sites`).
    pub first: Round<'kb>,
    /// Sites of the last round.
    pub sites: Vec<TrainedSite<'kb>>,
    pub rounds: usize,
    /// Summed `Round::wall_s`.
    pub wall_s: f64,
    /// Summed `Round::train_s` over all rounds.
    pub train_s: f64,
    /// Whether every round extracted exactly what the first did.
    pub rounds_agree: bool,
    /// Every round's serve slices.
    pub served: Served,
}

pub fn train_pass<'kb>(
    f: &'kb Fixture,
    threads: usize,
    seconds: f64,
    traced: bool,
    host: &mut Clock,
) -> TrainPass<'kb> {
    let mut served = Served::default();
    let mut first = train_round(f, threads, 0, traced, &mut served, host);
    let expect: Vec<u64> = first.extractions.iter().map(|e| digest(e)).collect();
    let mut pass = TrainPass {
        sites: std::mem::take(&mut first.sites),
        train_s: first.train_s,
        wall_s: first.wall_s,
        first,
        rounds: 1,
        rounds_agree: true,
        served: Served::default(),
    };
    // Another round only if it ends nearer to `seconds` than stopping now.
    while pass.wall_s * (1.0 + 0.5 / pass.rounds as f64) < seconds {
        let round = train_round(f, threads, pass.rounds, traced, &mut served, host);
        let got: Vec<u64> = round.extractions.iter().map(|e| digest(e)).collect();
        pass.rounds_agree &= got == expect;
        pass.train_s += round.train_s;
        pass.wall_s += round.wall_s;
        pass.rounds += 1;
        pass.sites = round.sites;
    }
    pass.served = served;
    pass
}

/// A serve request: page `.1` of site `.0`.
pub type Request = (usize, usize);

/// `serve`'s requests: every scored page once, in seeded order.
pub fn requests(f: &Fixture) -> Vec<Request> {
    let mut reqs: Vec<Request> = f
        .scored
        .iter()
        .enumerate()
        .flat_map(|(si, idx)| idx.iter().map(move |&pi| (si, pi)))
        .collect();
    shuffle(&mut reqs, f.seed);
    reqs
}

#[derive(Default)]
pub struct Served {
    pub reqs: Vec<Request>,
    /// One outcome per request.
    pub outcomes: Vec<ExtractOutcome>,
    /// Latency of each request served before the budget ran out.
    pub latency_ms: Vec<f64>,
    /// Wall time of the timed part.
    pub wall_s: f64,
}

impl Served {
    /// The same, with every time multiplied by `scale`.
    pub fn scaled(mut self, scale: f64) -> Served {
        self.latency_ms.iter_mut().for_each(|ms| *ms *= scale);
        self.wall_s *= scale;
        self
    }

    pub fn extend(&mut self, more: Served) {
        self.reqs.extend(more.reqs);
        self.outcomes.extend(more.outcomes);
        self.latency_ms.extend(more.latency_ms);
        self.wall_s += more.wall_s;
    }
}

/// Serve `reqs` with `clients` closed-loop clients sharing `sites` (indexed
/// by site; every requested site present): each client sends its next
/// request when the previous one returns. Requests not started within
/// `budget` are served afterwards, untimed, so the outcomes always cover
/// every request. Times are raw wall times.
///
/// Untraced, a request is one `try_extract_page` call. Traced, it is split
/// into its two public steps, `PageView::try_build` and `extract_view`, so
/// the spans show where a request's time goes.
pub fn serve(
    f: &Fixture,
    sites: &[Option<&TrainedSite<'_>>],
    reqs: Vec<Request>,
    clients: usize,
    budget: Option<Duration>,
    traced: bool,
) -> Served {
    let next = AtomicUsize::new(0);
    let start = trace::now();
    let done: Vec<Vec<(usize, ExtractOutcome, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        if budget.is_some_and(|b| start.elapsed() >= b) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&req) = reqs.get(i) else { break };
                        let t = trace::now();
                        let outcome = request(f, sites, req, i, traced);
                        done.push((i, outcome, t.elapsed().as_secs_f64() * 1e3));
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a serve client panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut outcomes: Vec<Option<ExtractOutcome>> = vec![None; reqs.len()];
    let mut latency_ms = Vec::with_capacity(reqs.len());
    for (i, outcome, ms) in done.into_iter().flatten() {
        outcomes[i] = Some(outcome);
        latency_ms.push(ms);
    }
    let outcomes = outcomes
        .into_iter()
        .enumerate()
        .map(|(i, o)| o.unwrap_or_else(|| request(f, sites, reqs[i], i, traced)))
        .collect();
    Served { reqs, outcomes, latency_ms, wall_s }
}

fn request(
    f: &Fixture,
    sites: &[Option<&TrainedSite<'_>>],
    (si, pi): Request,
    i: usize,
    traced: bool,
) -> ExtractOutcome {
    let page = &f.sites[si].pages[pi];
    let site = sites[si].expect("a request for a site that is not serving");
    if !traced {
        return site.try_extract_page(&page.id, &page.html);
    }
    trace::request("serve.request", i as u64, || {
        let view = trace::span("page.try_build", || {
            PageView::try_build(&page.id, &page.html, &f.kb, site.guards())
        });
        match view {
            Ok(view) => {
                ExtractOutcome::Ok(trace::span("session.extract_view", || site.extract_view(&view)))
            }
            Err(why) => ExtractOutcome::Failed(why),
        }
    })
}

/// Served extractions regrouped per site, in page order.
pub fn extractions_by_site(f: &Fixture, served: &Served) -> Vec<Vec<Extraction>> {
    let mut order: Vec<usize> = (0..served.reqs.len()).collect();
    order.sort_by_key(|&i| served.reqs[i]);
    let mut out = vec![Vec::new(); f.sites.len()];
    for i in order {
        if let Some(exs) = served.outcomes[i].extractions() {
            out[served.reqs[i].0].extend_from_slice(exs);
        }
    }
    out
}

/// `serve`'s models: each site trained on its first pages, then saved and
/// loaded back as a serving process would.
pub struct ServeModels<'kb> {
    /// The sites as training left them (training views released).
    pub memory: Vec<TrainedSite<'kb>>,
    /// The same sites loaded from their artifacts; these serve.
    pub loaded: Vec<TrainedSite<'kb>>,
    /// Summed training wall time over all sites.
    pub train_s: f64,
    /// Summed artifact size over all sites.
    pub artifact_bytes: usize,
}

pub fn serve_models(f: &Fixture, threads: usize) -> Result<ServeModels<'_>, String> {
    let mut m =
        ServeModels { memory: Vec::new(), loaded: Vec::new(), train_s: 0.0, artifact_bytes: 0 };
    let order: Vec<usize> = (0..f.sites.len()).collect();
    let built = per_site(&order, threads, |si| {
        let (mut site, secs) = f.train_site(si, threads);
        drop(site.take_training_views());
        f.reload(&site, threads).map(|(loaded, bytes)| (site, loaded, secs, bytes))
    });
    for one in built {
        let (site, loaded, secs, bytes) = one?;
        m.train_s += secs;
        m.artifact_bytes += bytes;
        m.memory.push(site);
        m.loaded.push(loaded);
    }
    Ok(m)
}
