//! End-to-end benchmark of the CERES reproduction.
//!
//! ```text
//! ceres-e2ebench --workload site_train|serve|longtail --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's corpus from the seed, sets up several times
//! before and after the measured work (reporting the median), warms up
//! with the untimed correctness checks, then measures with every core
//! loaded. Every time is scaled to the reference host's speed by a probe
//! run around each timed segment (see `host.rs`). With `--trace 0` the last stdout line is a JSON object with the
//! end-to-end metrics; with `--trace 1` the run is repeated with spans
//! around the calls into the program and the object carries the per-layer
//! metrics instead. The exit code is non-zero when any correctness check
//! fails. See `README.md` beside this crate.

mod checks;
mod fixture;
mod host;
mod passes;
mod trace;

use ceres::core::page::PageView;
use ceres::core::session::{ExtractOutcome, TrainedSite};
use ceres::text::fold_unique;
use checks::Check;
use fixture::{digest, Fixture, Quality, Workload};
use host::Clock;
use passes::{ServeModels, Served, TrainPass};
use std::fmt::Write as _;
use std::time::Duration;

const USAGE: &str =
    "usage: ceres-e2ebench --workload site_train|serve|longtail --seed N --seconds S --trace 0|1";

/// A run sets up at least this many times, and for at least this long in
/// total, half before the measured work and half after; `setup_s` is the
/// median set-up.
const MIN_SETUPS: usize = 3;
const MIN_SETUP_S: f64 = 3.0;
/// Requests in one segment of `serve`'s timed phase.
const SERVE_SEGMENT: usize = 500;
/// Pages the traced run parses and matches on their own, spread evenly
/// over the scored pages.
const PROBE_PAGES: usize = 1000;
/// A p99 needs at least ten samples beyond it.
const MIN_P99_SAMPLES: usize = 1000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    match run(&args, threads) {
        Ok(report) => {
            println!("{}", report.json());
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("ceres-e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Report {
    correct: bool,
    checks: Vec<Check>,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// What one measured pass produced.
struct Pass<'kb> {
    /// Pages completed in the timed phase.
    pages: usize,
    /// Timed wall time, in reference-host seconds like every time below.
    wall_s: f64,
    /// Training wall time per round, summed over sites.
    train_s: f64,
    quality: Quality,
    extractions: usize,
    scored_pages: usize,
    ok_pages: usize,
    failed: usize,
    /// The closed-loop serving (`serve`'s timed phase; slices between
    /// training batches on the other workloads).
    served: Served,
    /// Training rounds (`site_train`, `longtail`).
    train: Option<TrainPass<'kb>>,
    /// `serve`'s artifact check (untraced passes).
    artifact_check: Option<Check>,
}

impl Pass<'_> {
    fn pages_per_s(&self) -> f64 {
        self.pages as f64 / self.wall_s
    }
}

fn is_failed(o: &ExtractOutcome) -> bool {
    matches!(o, ExtractOutcome::Failed(_))
}

/// Slices of `serve`'s timed phase; the artifact check on each slice's
/// pages runs, untimed, before the next, so the latencies are sampled
/// across the run rather than in one stretch.
const SERVE_CHECK_SLICES: usize = 6;

/// One measured pass. An untraced `serve` pass also checks every served
/// page against the in-memory sites, with spans when `check_spans`.
/// `seconds` is the timed budget in reference-host seconds.
fn measure<'kb>(
    f: &'kb Fixture,
    models: Option<&ServeModels<'kb>>,
    threads: usize,
    seconds: f64,
    traced: bool,
    check_spans: bool,
    host: &mut Clock,
) -> Pass<'kb> {
    trace::set_enabled(traced);
    let pass = match models {
        Some(m) => {
            let sites: Vec<Option<&TrainedSite<'kb>>> = m.loaded.iter().map(Some).collect();
            let reqs = passes::requests(f);
            let mut served = Served::default();
            let mut mismatched = 0;
            for slice in reqs.chunks(reqs.len().div_ceil(SERVE_CHECK_SLICES)) {
                let mut part = Served::default();
                for seg in slice.chunks(SERVE_SEGMENT) {
                    let serve =
                        |budget| passes::serve(f, &sites, seg.to_vec(), threads, budget, traced);
                    if served.wall_s + part.wall_s < seconds {
                        let (done, _, scale) = host.segment(|| serve(None));
                        part.extend(done.scaled(scale));
                    } else {
                        // Out of budget: served untimed, for the checks.
                        part.extend(serve(Some(Duration::ZERO)).scaled(0.0));
                    }
                }
                if !traced {
                    trace::set_enabled(check_spans);
                    mismatched += checks::artifact_mismatches(f, &m.memory, &part);
                    trace::set_enabled(false);
                }
                served.extend(part);
            }
            let artifact_check =
                (!traced).then(|| checks::artifact_serves_like_memory(mismatched, reqs.len()));
            let extractions = passes::extractions_by_site(f, &served);
            let ok_pages = served
                .reqs
                .iter()
                .zip(&served.outcomes)
                .filter(|((si, _), o)| !is_failed(o) && m.loaded[*si].stats().trained)
                .count();
            Pass {
                pages: served.latency_ms.len(),
                wall_s: served.wall_s,
                train_s: m.train_s,
                quality: f.quality(&extractions),
                extractions: extractions.iter().map(Vec::len).sum(),
                scored_pages: served.reqs.len(),
                ok_pages,
                failed: served.outcomes.iter().filter(|o| is_failed(o)).count(),
                served,
                train: None,
                artifact_check,
            }
        }
        None => {
            let mut tp = passes::train_pass(f, threads, seconds, traced, host);
            let served = std::mem::take(&mut tp.served);
            let per_round: usize = f.sites.iter().map(|s| s.pages.len()).sum();
            Pass {
                pages: per_round * tp.rounds,
                wall_s: tp.wall_s,
                train_s: tp.train_s / tp.rounds as f64,
                quality: f.quality(&tp.first.extractions),
                extractions: tp.first.extractions.iter().map(Vec::len).sum(),
                scored_pages: f.scored.iter().map(Vec::len).sum(),
                ok_pages: tp.first.ok_pages,
                failed: tp.first.failed * tp.rounds,
                served,
                train: Some(tp),
                artifact_check: None,
            }
        }
    };
    trace::set_enabled(false);
    pass
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in (0, 1].
fn percentile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied().unwrap_or(f64::NAN)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The untimed preparation beyond generating the corpus: `serve`'s models.
fn setup(f: &Fixture, threads: usize) -> Result<Option<ServeModels<'_>>, String> {
    match f.workload {
        Workload::Serve => passes::serve_models(f, threads).map(Some),
        _ => Ok(None),
    }
}

/// Set-up times (and, for `serve`, the training time within each), in
/// reference-host seconds.
#[derive(Default)]
struct Setups {
    s: Vec<f64>,
    train_s: Vec<f64>,
    /// Raw wall time of every set-up, to bound how long setting up takes.
    raw_s: f64,
}

impl Setups {
    /// Generate the corpus, as one segment; returns its time.
    fn generate(&mut self, a: &Args, host: &mut Clock) -> (Fixture, f64) {
        let (f, raw_s, scale) = host.segment(|| Fixture::generate(a.workload, a.seed));
        self.raw_s += raw_s;
        (f, raw_s * scale)
    }

    /// The rest of the set-up, as a second segment; records the whole
    /// set-up, `generate_s` included.
    fn prepare<'kb>(
        &mut self,
        f: &'kb Fixture,
        generate_s: f64,
        threads: usize,
        host: &mut Clock,
    ) -> Result<Option<ServeModels<'kb>>, String> {
        let (models, raw_s, scale) = host.segment(|| setup(f, threads));
        let models = models?;
        self.raw_s += raw_s;
        self.s.push(generate_s + raw_s * scale);
        self.train_s.extend(models.as_ref().map(|m| m.train_s * scale));
        Ok(models)
    }

    /// Set up once and throw the result away.
    fn once(&mut self, a: &Args, threads: usize, host: &mut Clock) -> Result<(), String> {
        let (f, generate_s) = self.generate(a, host);
        self.prepare(&f, generate_s, threads, host).map(drop)
    }
}

fn run(a: &Args, threads: usize) -> Result<Report, String> {
    eprintln!(
        "# ceres-e2ebench: workload={} seed={} seconds={} trace={} threads={threads}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    // Set-up, repeated: corpus generation, plus training, saving and
    // loading the models for `serve`. Half the set-ups run before the
    // measured work and half after it, so their median spans the run
    // rather than its first seconds: the host's speed drifts over tens of
    // seconds. Only the last set-up before the measured work is kept.
    let mut host = Clock::new(threads);
    let mut setups = Setups::default();
    trace::set_enabled(a.trace);
    while setups.s.len() + 1 < MIN_SETUPS / 2 || setups.raw_s < MIN_SETUP_S / 2.0 {
        setups.once(a, threads, &mut host)?;
    }
    let (f, generate_s) = setups.generate(a, &mut host);
    let models = setups.prepare(&f, generate_s, threads, &mut host)?;
    trace::set_enabled(false);

    let mut out = measured(a, threads, &f, models.as_ref(), setups.s.len(), &mut host)?;
    drop(models);
    drop(f);
    while setups.s.len() < MIN_SETUPS || setups.raw_s < MIN_SETUP_S {
        setups.once(a, threads, &mut host)?;
    }
    if !a.trace {
        for m in &mut out.metrics {
            match m.name {
                "setup_s" => m.value = median(setups.s.clone()),
                // `serve` trains in set-up; report the median set-up's training.
                "train_s" if a.workload == Workload::Serve => {
                    m.value = median(setups.train_s.clone())
                }
                _ => {}
            }
        }
    }

    out.correct = out.checks.iter().all(|c| c.ok);
    eprintln!(
        "# host: {} probes, median {:.2} ms",
        host.probes.len(),
        median(host.probes.clone()) * 1e3
    );
    for c in &out.checks {
        eprintln!("# check {:<28} {:<4} {}", c.name, if c.ok { "ok" } else { "FAIL" }, c.detail);
    }
    for m in &out.metrics {
        eprintln!("# {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if let Some(bad) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a number", bad.name));
    }
    Ok(out)
}

/// The measured work on the kept set-up: warm-up checks, the untimed and
/// (with `--trace 1`) traced passes, and their checks. `setup_s`, and
/// `serve`'s `train_s`, are filled in afterwards from every set-up.
fn measured(
    a: &Args,
    threads: usize,
    f: &Fixture,
    models: Option<&ServeModels<'_>>,
    setups: usize,
    host: &mut Clock,
) -> Result<Report, String> {
    // Warm-up, untimed: the hostile-corpus check and the 1-thread reference.
    let mut checks = vec![checks::hostile(f, threads)];
    let serial = checks::serial_reference(f);

    let mut plain = measure(f, models, threads, a.seconds, false, a.trace, host);
    checks.extend(plain.artifact_check.take());
    if models.is_some() {
        let parallel = checks::served_serial_digest(f, &plain.served, serial.site);
        checks.push(checks::thread_identity(&serial, parallel, threads));
    }
    if let Some(tp) = &plain.train {
        checks.push(checks::thread_identity(
            &serial,
            digest(&tp.first.extractions[serial.site]),
            threads,
        ));
        checks.push(Check {
            name: "rounds_identical",
            ok: tp.rounds_agree,
            detail: format!("{} rounds", tp.rounds),
        });
    }
    let n_lat = plain.served.latency_ms.len();
    checks.push(Check {
        name: "p99_has_10_beyond",
        ok: n_lat >= MIN_P99_SAMPLES,
        detail: format!("{n_lat} timed requests"),
    });

    let metrics = if a.trace {
        let traced = measure(f, models, threads, a.seconds, true, false, host);
        let mut metrics = per_layer(a, f, models, setups, &plain, &traced, &mut checks)?;
        let probe_ms = median(host.probes.clone()) * 1e3;
        metrics.push(Metric { name: "host.probe_ms", value: probe_ms, unit: "ms" });
        metrics
    } else {
        end_to_end(&plain)?
    };
    Ok(Report {
        correct: false,
        checks,
        attempted: plain.pages.max(plain.scored_pages),
        failed: plain.failed,
        metrics,
    })
}

/// The end-to-end metrics; `setup_s` is filled in once every set-up ran.
fn end_to_end(p: &Pass<'_>) -> Result<Vec<Metric>, String> {
    let lat = &p.served.latency_ms;
    let m = |name, value, unit| Metric { name, value, unit };
    Ok(vec![
        m("setup_s", f64::NAN, "s"),
        m("pages_per_s", p.pages_per_s(), "1/s"),
        m("train_s", p.train_s, "s"),
        m("serve_p50_ms", percentile(lat.clone(), 0.50), "ms"),
        m("serve_p99_ms", percentile(lat.clone(), 0.99), "ms"),
        m("precision", p.quality.prf.precision(), "ratio"),
        m("recall", p.quality.prf.recall(), "ratio"),
        m("f1", p.quality.prf.f1(), "ratio"),
        m("facts_at_p90", p.quality.facts_at_p90 as f64, "count"),
        m("ok_frac", p.ok_pages as f64 / p.scored_pages as f64, "ratio"),
        m("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ])
}

/// The traced run's per-layer metrics, from the spans around the calls
/// into each layer plus the counters the program reports at those calls.
fn per_layer(
    a: &Args,
    f: &Fixture,
    models: Option<&ServeModels<'_>>,
    setups: usize,
    plain: &Pass<'_>,
    traced: &Pass<'_>,
    checks: &mut Vec<Check>,
) -> Result<Vec<Metric>, String> {
    checks.push(Check {
        name: "traced_quality_identical",
        ok: plain.quality == traced.quality,
        detail: format!("{:?} vs {:?}", plain.quality, traced.quality),
    });

    // Untimed probes: parse and match a spread of scored pages on their own,
    // and (outside `serve`, whose set-up does it) save and load every site.
    trace::set_enabled(true);
    let step = (traced.served.reqs.len() / PROBE_PAGES).max(1);
    let (mut texts, mut uniq, mut hits, mut probed) = (0usize, 0usize, 0usize, 0usize);
    for &(si, pi) in traced.served.reqs.iter().step_by(step).take(PROBE_PAGES) {
        let page = &f.sites[si].pages[pi];
        drop(trace::span("dom.parse_html", || ceres::dom::parse_html(&page.html)));
        let view = PageView::build(&page.id, &page.html, &f.kb);
        let norms: Vec<&str> = view.fields.iter().map(|fi| fi.norm.as_str()).collect();
        let fold = trace::span("text.fold_unique", || fold_unique(&norms));
        let matched = trace::span("kb.match_batch", || f.kb.match_batch(&fold.uniq));
        texts += norms.len();
        uniq += fold.uniq.len();
        hits += matched.iter().filter(|m| !m.is_empty()).count();
        probed += 1;
    }
    let mut artifact_bytes = models.map_or(0, |m| m.artifact_bytes);
    if let Some(tp) = &traced.train {
        for site in &tp.sites {
            artifact_bytes += f.reload(site, 1)?.1;
        }
    }
    trace::set_enabled(false);

    let spans = trace::take();
    let layers = trace::layers(&spans);
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let durations = |name: &str| trace::durations_ms(&spans, name);

    // Training happens in `serve`'s set-ups and in the other workloads'
    // rounds; per-round figures divide by whichever ran.
    let (sites, train_rounds): (&[TrainedSite<'_>], f64) = match (models, &traced.train) {
        (Some(m), _) => (&m.memory, setups as f64),
        (None, Some(tp)) => (&tp.sites, tp.rounds as f64),
        (None, None) => unreachable!("every workload trains in set-up or in its rounds"),
    };
    let stage = |pick: fn(&ceres::core::StageProfile) -> f64| -> f64 {
        sites.iter().map(|s| pick(s.profile())).sum()
    };
    let stage_train_ms = stage(|p| p.train.ms);
    let unique_rows: usize = sites.iter().map(|s| s.fold_stats().n_unique_rows).sum();
    let batch_pages = match a.workload {
        Workload::Serve => traced.scored_pages as f64,
        _ => traced.scored_pages as f64 * train_rounds,
    };
    let batch_ms = layer("session.try_extract_batch").total_ms
        + layer("session.extract_training_pages").total_ms;
    let request_ms = layer("serve.request").total_ms;
    let covered_ms = layer("page.try_build").total_ms + layer("session.extract_view").total_ms;
    let coverage = covered_ms / request_ms;
    checks.push(Check {
        name: "serve_spans_cover_90pct",
        ok: coverage >= 0.9,
        detail: format!(
            "page.try_build + session.extract_view = {:.1}% of serve.request",
            coverage * 100.0
        ),
    });
    let unassigned = plain
        .served
        .outcomes
        .iter()
        .filter(|o| matches!(o, ExtractOutcome::Unassigned { .. }))
        .count();

    eprintln!("# self time per layer (traced run, all phases):");
    for (name, l) in &layers {
        eprintln!(
            "#   {name:<34} calls {:>7}  total {:>10.1} ms  self {:>10.1} ms",
            l.calls, l.total_ms, l.self_ms
        );
    }
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces").join(format!(
        "{}-seed{}.jsonl",
        a.workload.name(),
        a.seed
    ));
    trace::write(&out, &spans).map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!("# spans written to {}", out.display());

    let m = |name, value, unit| Metric { name, value, unit };
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    let store_per_site = |name: &str| per(layer(name).total_ms, layer(name).calls as f64);
    Ok(vec![
        m("synth.generate_s", median(durations("synth.generate")) / 1e3, "s"),
        m("session.push_ms", layer("session.push_page").total_ms / train_rounds, "ms"),
        m("session.pages", layer("session.push_page").calls as f64 / train_rounds, "count"),
        m(
            "session.quarantined",
            sites.iter().map(|s| s.health().pages_quarantined()).sum::<usize>() as f64,
            "count",
        ),
        m("session.finish_s", layer("session.finish_training").total_ms / train_rounds / 1e3, "s"),
        m("stage.cluster_ms", stage(|p| p.cluster.ms), "ms"),
        m("stage.annotate_ms", stage(|p| p.annotate.ms), "ms"),
        m("stage.plan_ms", stage(|p| p.plan.ms), "ms"),
        m("stage.train_ms", stage_train_ms, "ms"),
        m(
            "ml.examples",
            sites.iter().map(|s| s.fold_stats().n_examples).sum::<usize>() as f64,
            "count",
        ),
        m("ml.unique_rows", unique_rows as f64, "count"),
        m("ml.us_per_row", per(stage_train_ms * 1e3, unique_rows as f64), "us"),
        m(
            "template.clusters",
            sites.iter().map(|s| s.stats().n_clusters).sum::<usize>() as f64,
            "count",
        ),
        m(
            "template.trained_clusters",
            sites
                .iter()
                .map(|s| (0..s.stats().n_clusters).filter(|&ci| s.cluster_is_trained(ci)).count())
                .sum::<usize>() as f64,
            "count",
        ),
        m(
            "annotate.records",
            sites.iter().map(|s| s.annotation_records().len()).sum::<usize>() as f64,
            "count",
        ),
        m(
            "topic.records",
            sites.iter().map(|s| s.topic_records().len()).sum::<usize>() as f64,
            "count",
        ),
        m("dom.parse_ms_per_page", per(layer("dom.parse_html").total_ms, probed as f64), "ms"),
        m("kb.match_ms_per_page", per(layer("kb.match_batch").total_ms, probed as f64), "ms"),
        m("kb.texts_per_page", per(texts as f64, probed as f64), "count"),
        m("kb.unique_frac", per(uniq as f64, texts as f64), "ratio"),
        m("kb.hit_frac", per(hits as f64, uniq as f64), "ratio"),
        m("page.view_ms_p50", percentile(durations("page.try_build"), 0.50), "ms"),
        m("page.view_ms_p99", percentile(durations("page.try_build"), 0.99), "ms"),
        m("extract.view_ms_p50", percentile(durations("session.extract_view"), 0.50), "ms"),
        m("extract.view_ms_p99", percentile(durations("session.extract_view"), 0.99), "ms"),
        m("extract.batch_ms_per_page", per(batch_ms, batch_pages), "ms"),
        m(
            "extract.facts_per_page",
            per(traced.extractions as f64, traced.scored_pages as f64),
            "count",
        ),
        m(
            "extract.unassigned_frac",
            per(unassigned as f64, plain.served.reqs.len() as f64),
            "ratio",
        ),
        m("store.save_ms", store_per_site("session.to_bytes"), "ms"),
        m("store.load_ms", store_per_site("session.load_on"), "ms"),
        m("store.artifact_bytes", artifact_bytes as f64, "bytes"),
        m("serve.requests", traced.served.outcomes.len() as f64, "count"),
        m(
            "serve.failed",
            traced.served.outcomes.iter().filter(|o| is_failed(o)).count() as f64,
            "count",
        ),
        m("serve.span_coverage", coverage, "ratio"),
        m("trace.overhead_frac", plain.pages_per_s() / traced.pages_per_s() - 1.0, "ratio"),
    ])
}
