//! `propagate`: the paper's experiment (Figs 5–8) as a batch job.
//!
//! A fixed set of generated (schema, Σ, SPC view) instances at the §5
//! settings — 10 relations of 10–20 attributes, infinite domains, LHS ≤ 9,
//! |Y| = 25, |F| = 10, |Ec| = 4 — in sweeps along the Fig 5 axis: one
//! sweep is one instance at each |Σ| ∈ {100, 200, 300, 400} at one `var%`,
//! and there are 5 sweeps at `var%` 40 and 5 at 50. Schema and Σ reach the
//! program as `.cfd` text and are parsed at set-up. One operation is one
//! sweep: per instance `prop_cfd_spc`, then `propagates` on 8 candidate
//! view CFDs (up to half drawn from the cover, the rest generated over the
//! view schema). One read answers 64 implication queries per instance (the
//! candidates and more) from the sweep's covers
//! (`PropagationCover::implies`). A run repeats the whole set;
//! `workload.propagate_s` is the median pass.

use crate::report::{median_s, Report};
use crate::trace::Tracer;
use crate::{write_trace, Config, OpTimes, Phase, SetupTimes, Stopwatch};
use cfd_datagen::{
    gen_cfds, gen_schema, gen_spc_view, CfdGenConfig, SchemaGenConfig, ViewGenConfig,
};
use cfd_model::{Cfd, Pattern, SourceCfd};
use cfd_propagation::cover::mincover_sigma;
use cfd_propagation::{prop_cfd_spc, propagates, CoverOptions, PropagationCover, Setting};
use cfd_relalg::domain::DomainKind;
use cfd_relalg::query::{SpcQuery, SpcuQuery};
use cfd_relalg::schema::Catalog;
use cfd_relalg::Value;
use cfd_text::parser::{Document, NamedSourceCfd};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::time::Duration;

/// Candidate view CFDs per instance, checked with `propagates`.
const CANDIDATES: usize = 8;
/// Implication queries per read: the candidates plus generated ones.
const QUERIES: usize = 64;
/// Sweeps per `var%`. One sweep is one instance at every |Σ| of the axis;
/// with this many the sweep set's median and p95 settle for every seed.
const SWEEPS: usize = 5;
/// Set-up passes timed for `setup_s` (median CPU time reported).
const SETUPS: usize = 15;

/// The instance set's settings.
#[derive(Clone, Debug)]
pub struct Shape {
    /// |Σ| values along the Fig 5 axis.
    pub sigmas: Vec<usize>,
    /// `var%` values.
    pub var_pcts: Vec<f64>,
    /// Maximum LHS size.
    pub lhs: usize,
    /// |Y|.
    pub y: usize,
    /// |F|.
    pub f: usize,
    /// |Ec|.
    pub ec: usize,
}

impl Shape {
    /// The benchmark's instance set, or a small one for tests.
    pub fn new(small: bool) -> Shape {
        if small {
            Shape {
                sigmas: vec![20, 40],
                var_pcts: vec![0.4, 0.5],
                lhs: 4,
                y: 10,
                f: 4,
                ec: 2,
            }
        } else {
            Shape {
                sigmas: vec![100, 200, 300, 400],
                var_pcts: vec![0.4, 0.5],
                lhs: 9,
                y: 25,
                f: 10,
                ec: 4,
            }
        }
    }
}

/// One generated instance as the program receives it.
struct Input {
    /// Schema and Σ as `.cfd` text.
    text: String,
    /// The generated Σ (to check the parse).
    sigma: Vec<SourceCfd>,
    /// The SPC view.
    view: SpcQuery,
    /// Seed of the instance's candidate generator.
    seed: u64,
}

/// One instance after set-up.
struct Instance {
    catalog: Catalog,
    sigma: Vec<SourceCfd>,
    view: SpcQuery,
    spcu: SpcuQuery,
    domains: Vec<DomainKind>,
    candidates: Vec<Cfd>,
    /// What a read asks the cover: the candidates, then more.
    queries: Vec<Cfd>,
    seed: u64,
}

fn inputs(seed: u64, shape: &Shape) -> Vec<Input> {
    let mut out = Vec::new();
    for var_pct in shape.var_pcts.iter().flat_map(|v| [*v; SWEEPS]) {
        for &sigma in &shape.sigmas {
            let s = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(out.len() as u64 + 1);
            let mut rng = StdRng::seed_from_u64(s);
            let catalog = gen_schema(&SchemaGenConfig::default(), &mut rng);
            let cfds = gen_cfds(
                &catalog,
                &CfdGenConfig {
                    count: sigma,
                    lhs_max: shape.lhs,
                    var_pct,
                    ..Default::default()
                },
                &mut rng,
            );
            let view = gen_spc_view(
                &catalog,
                &ViewGenConfig {
                    y: shape.y,
                    f: shape.f,
                    ec: shape.ec,
                    const_range: 100_000,
                },
                &mut rng,
            );
            let doc = Document {
                catalog,
                source_cfds: cfds
                    .iter()
                    .map(|c| NamedSourceCfd {
                        name: None,
                        cfd: c.clone(),
                    })
                    .collect(),
                ..Default::default()
            };
            out.push(Input {
                text: cfd_text::pretty::render(&doc),
                sigma: cfds,
                view,
                seed: rng.next_u64(),
            });
        }
    }
    out
}

/// Set-up: parse every instance's document and normalize its view.
fn set_up(inputs: &[Input]) -> Result<Vec<Instance>, String> {
    inputs
        .iter()
        .map(|inp| {
            let doc = Document::parse(&inp.text).map_err(|e| format!("parse: {e}"))?;
            let spcu = SpcuQuery::single(&doc.catalog, inp.view.clone())
                .map_err(|e| format!("view: {e}"))?;
            let domains = spcu
                .schema()
                .columns
                .iter()
                .map(|(_, d)| d.clone())
                .collect();
            Ok(Instance {
                sigma: doc.sigma(),
                catalog: doc.catalog,
                view: inp.view.clone(),
                spcu,
                domains,
                candidates: Vec::new(),
                queries: Vec::new(),
                seed: inp.seed,
            })
        })
        .collect()
}

/// Candidates: up to half drawn from the cover, the rest generated over
/// the view schema.
fn candidates(inst: &Instance, cover: &PropagationCover) -> Vec<Cfd> {
    let mut rng = StdRng::seed_from_u64(inst.seed);
    let mut out = cover.cfds.clone();
    out.shuffle(&mut rng);
    out.truncate(CANDIDATES / 2);
    let more = CANDIDATES - out.len();
    out.extend(generated(&mut rng, inst.domains.len(), more));
    out
}

/// `n` random view CFDs: LHS of 1–3 columns, mostly wildcards, constants
/// from the generator's range.
fn generated(rng: &mut StdRng, width: usize, n: usize) -> Vec<Cfd> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n && width >= 2 {
        let mut cols: Vec<usize> = (0..width).collect();
        cols.shuffle(rng);
        let k = rng.gen_range(1..=3usize).min(width - 1);
        let cell = |rng: &mut StdRng| {
            if rng.gen_bool(0.75) {
                Pattern::Wild
            } else {
                Pattern::Const(Value::int(rng.gen_range(1..=100_000)))
            }
        };
        let lhs: Vec<(usize, Pattern)> = cols[..k].iter().map(|c| (*c, cell(rng))).collect();
        let rhs = cell(rng);
        if let Ok(c) = Cfd::new(lhs, cols[k], rhs) {
            out.push(c);
        }
    }
    out
}

/// Run the workload.
pub fn run(cfg: &Config) -> Report {
    let shape = Shape::new(cfg.small);
    let mut r = Report::default();
    r.config("relations", 10);
    r.config("sigma", format!("{:?}", shape.sigmas));
    r.config("var_pct", format!("{:?}", shape.var_pcts));
    r.config("sweeps_per_var_pct", SWEEPS);
    r.config(
        "view",
        format!(
            "|Y| {} |F| {} |Ec| {}, LHS <= {}, infinite domains",
            shape.y, shape.f, shape.ec, shape.lhs
        ),
    );
    r.config(
        "candidates",
        format!("{CANDIDATES} per instance, half from the cover; {QUERIES} queries per read"),
    );

    let ins = inputs(cfg.seed, &shape);
    for i in &ins {
        r.digest(i.text.as_bytes());
    }
    let mut setups = SetupTimes::default();
    let mut insts = Vec::new();
    for _ in 0..SETUPS {
        let t = Stopwatch::start();
        let res = set_up(&ins);
        setups.push(t.stop().cpu);
        match res {
            Ok(v) => insts = v,
            Err(e) => {
                r.check(false, || e);
                return r;
            }
        }
    }
    setups.report(&mut r);
    for (inst, inp) in insts.iter().zip(&ins) {
        r.check(inst.sigma == inp.sigma, || {
            "parsed Σ differs from the generated Σ".into()
        });
    }

    // Candidates come from each instance's cover, so the covers are
    // computed once before the timed phase (input preparation, untimed);
    // the soundness oracle runs on them here.
    let opts = CoverOptions::default();
    let mut covers = Vec::with_capacity(insts.len());
    let mut cover_cfds = 0u64;
    let mut incomplete = 0u64;
    let mut empty = 0u64;
    for (i, inst) in insts.iter_mut().enumerate() {
        let cover = match prop_cfd_spc(&inst.catalog, &inst.sigma, &inst.view, &opts) {
            Ok(c) => c,
            Err(e) => {
                r.check(false, || format!("instance {i}: {e}"));
                return r;
            }
        };
        inst.candidates = candidates(inst, &cover);
        let mut rng = StdRng::seed_from_u64(inst.seed ^ 1);
        inst.queries = inst.candidates.clone();
        inst.queries.extend(generated(
            &mut rng,
            inst.domains.len(),
            QUERIES - CANDIDATES,
        ));
        cover_cfds += cover.cfds.len() as u64;
        incomplete += u64::from(!cover.complete);
        empty += u64::from(cover.always_empty);
        for phi in &cover.cfds {
            let v = propagates(
                &inst.catalog,
                &inst.sigma,
                &inst.spcu,
                phi,
                Setting::InfiniteDomain,
            );
            r.check(matches!(v, Ok(ref v) if v.is_propagated()), || {
                format!("instance {i}: a cover CFD is not propagated")
            });
        }
        covers.push(cover.cfds);
    }

    let mut tr = Tracer::new(cfg.trace);
    let mut phase = Phase::new(cfg);
    let mut times = OpTimes::default();
    let mut passes: Vec<Duration> = Vec::new();
    let mut op = 0u64;
    let sweep = shape.sigmas.len();
    while phase.more() {
        let traced = phase.rounds().is_multiple_of(2);
        let mut pass = Duration::ZERO;
        for (si, sweep_insts) in insts.chunks(sweep).enumerate() {
            // The sweep: per instance a cover, then a verdict per candidate.
            op += 1;
            tr.start_op(op, traced);
            let t0 = Stopwatch::start();
            let root = tr.begin("op.sweep");
            let mut results = Vec::with_capacity(sweep);
            for inst in sweep_insts {
                let s = tr.begin("core.prop_cfd_spc");
                let cover = prop_cfd_spc(&inst.catalog, &inst.sigma, &inst.view, &opts);
                tr.end(s);
                let mut verdicts = Vec::with_capacity(inst.candidates.len());
                for phi in &inst.candidates {
                    let s = tr.begin("core.propagates");
                    verdicts.push(propagates(
                        &inst.catalog,
                        &inst.sigma,
                        &inst.spcu,
                        phi,
                        Setting::InfiniteDomain,
                    ));
                    tr.end(s);
                }
                results.push((cover, verdicts));
            }
            tr.end(root);
            let lat = t0.stop();
            times.op(lat, traced);
            pass += lat.wall;
            phase.spend(lat.wall);
            let mut covers_now = Vec::with_capacity(sweep);
            for (k, (cover, verdicts)) in results.into_iter().enumerate() {
                let i = si * sweep + k;
                match cover {
                    Ok(c) => {
                        r.check(c.cfds == covers[i], || {
                            format!("instance {i}: the cover changed between passes")
                        });
                        covers_now.push((c, verdicts));
                    }
                    Err(e) => r.check(false, || format!("instance {i}: {e}")),
                }
            }

            // The read: answer every instance's queries from its cover.
            op += 1;
            tr.start_op(op, traced);
            let t0 = Stopwatch::start();
            let root = tr.begin("op.read");
            let s = tr.begin("core.implies");
            let answers: Vec<Vec<bool>> = covers_now
                .iter()
                .zip(sweep_insts)
                .map(|((cover, _), inst)| {
                    inst.queries
                        .iter()
                        .map(|phi| cover.implies(phi, &inst.domains))
                        .collect()
                })
                .collect();
            tr.end(s);
            tr.end(root);
            let lat = t0.stop();
            times.read(lat);
            phase.spend(lat.wall);

            // Oracle: on a complete cover, implication decides propagation.
            for (k, ((cover, verdicts), answers)) in covers_now.iter().zip(&answers).enumerate() {
                let i = si * sweep + k;
                for (q, (v, a)) in verdicts.iter().zip(answers).enumerate() {
                    match v {
                        Ok(v) => r.check(!cover.complete || v.is_propagated() == *a, || {
                            format!(
                                "instance {i} candidate {q}: propagates and cover.implies disagree"
                            )
                        }),
                        Err(e) => r.check(false, || format!("instance {i} candidate {q}: {e}")),
                    }
                }
            }
            if tr.enabled() && traced {
                // Fig. 2 line 1 on its own, outside the operation.
                for inst in sweep_insts {
                    op += 1;
                    tr.start_op(op, true);
                    let s = tr.begin("op.mincover");
                    std::hint::black_box(mincover_sigma(&inst.catalog, &inst.sigma));
                    tr.end(s);
                }
            }
        }
        passes.push(pass);
        phase.next_round();
    }

    times.report(&mut r, &phase, 0);
    r.set("workload.propagate_s", median_s(&passes));
    r.set("workload.cover_cfds", cover_cfds as f64);
    r.set("core.incomplete_covers", incomplete as f64);
    r.set("core.always_empty", empty as f64);
    r.count("cover_cfds", cover_cfds);
    r.count("incomplete_covers", incomplete);
    r.count("always_empty", empty);
    r.count("instances", insts.len() as u64);
    r.config(
        "samples",
        format!("{} sweeps over {} passes", times.op.len(), passes.len()),
    );

    if tr.enabled() {
        let (_, own) = crate::trace::layer_means(tr.spans(), "op.sweep");
        r.set("trace.unaccounted_ms", own);
        // Per call: one `prop_cfd_spc` per instance, one `propagates` per
        // candidate.
        let per_call = |name: &str| {
            let (n, total) = tr
                .spans()
                .iter()
                .filter(|s| s.name == name)
                .fold((0u32, Duration::ZERO), |(n, t), s| {
                    (n + 1, t + s.duration())
                });
            total.as_secs_f64() * 1e3 / f64::from(n.max(1))
        };
        r.set("core.prop_cfd_spc_ms", per_call("core.prop_cfd_spc"));
        r.set("core.propagates_ms", per_call("core.propagates"));
        r.set("core.mincover_sigma_ms", per_call("op.mincover"));
        write_trace(cfg, &tr);
    }
    r
}
