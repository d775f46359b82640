//! The traced run: one untraced pass, one pass on a `Tracer::collecting()`
//! ledger, one pass through the stats-returning drivers with the
//! runner's own spans, and the per-layer probes. No tracing is added
//! inside the program; every number here is read from the runner's
//! spans around public calls or from counts those calls return.

use crate::heap;
use crate::report::Metric;
use crate::workload::{self, check_output, Counts, Driver, Failure, Instance, Workload};
use crate::{run_pass, Outcome, RunResult, Tally};
use delta_coloring::baseline::randomized_delta_plus_one;
use delta_coloring::brooks::{repair_single_uncolored, theorem5_radius};
use delta_coloring::delta::{
    delta_color_det, delta_color_rand, shattering_probe, DetConfig, RandConfig,
};
use delta_coloring::gallai::{dcc_size_cap, find_dccs_all};
use delta_coloring::layering::{color_upper_layers, layers_from_base};
use delta_coloring::list_coloring::ListColorMethod;
use delta_coloring::ruling::{ruling_forest, ruling_set_deterministic_alpha};
use delta_coloring::verify::check_delta_coloring;
use delta_coloring::PartialColoring;
use delta_graphs::Graph;
use local_model::{
    congest_budget, enforce_congest, force_exec_mode, Engine, ExecMode, Outbox, RoundLedger,
    ShardedEngine, Tracer,
};
use std::collections::BTreeMap;

/// Phases reported as `rounds.<phase>`: every phase the four workloads
/// charge. Anything else lands in `rounds.other`, so the `rounds.*`
/// metrics always sum to the untraced run's `sim_rounds`.
pub const PHASES: [&str; 19] = [
    "phase1-dcc-detect",
    "phase2-ruling",
    "phase3-b-layers",
    "phase4-marking",
    "phase5-boundary",
    "phase5-c-layers",
    "phase6-cdcc",
    "phase6-ruling",
    "phase6-d0",
    "phase6-d-layers",
    "phase6-d-coloring",
    "phase7-c-coloring",
    "phase8-b-coloring",
    "phase9-b0",
    "ruling-set",
    "ruling-forest",
    "layer-coloring",
    "base-repair",
    "delta+1",
];

/// Rounds of the runner's own exchange program per engine probe.
const STEP_ROUNDS: usize = 3;

/// A span the runner opened around a call into one layer.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// The runner's spans (CPU seconds), kept in memory and summed per name
/// at the end.
struct Spans {
    recs: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested in the open one.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.recs.len();
        self.recs.push(Span {
            name,
            parent: self.open.last().copied(),
            start: crate::cpu::now(),
            end: 0.0,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.recs[id].end = crate::cpu::now();
        r
    }

    /// Total seconds spent in spans named `name`.
    fn total(&self, name: &str) -> f64 {
        self.recs
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + (s.end - s.start))
    }

    /// Seconds of `name` spans not covered by their child spans.
    fn self_time(&self, name: &str) -> f64 {
        let children = self
            .recs
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.recs[p].name == name))
            .fold(0.0, |acc, s| acc + (s.end - s.start));
        self.total(name) - children
    }
}

/// Per-layer metric values, in report order.
#[derive(Default)]
struct Layers(Vec<Metric>);

impl Layers {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }
}

/// Counts read from the stats-returning drivers.
#[derive(Default)]
struct DriverStats {
    rand_attempts: u64,
    rand_fallbacks: u64,
    rand_h: u64,
    rand_n: u64,
    rand_leftover_max: u64,
    det_base: u64,
    det_layers: u64,
    det_repair_radius: u64,
}

/// The runs the `congest` probe compares.
#[derive(Default)]
struct CongestStats {
    logical: u64,
    wire: u64,
    violations: u64,
}

/// The configuration `delta_color(Strategy::Auto)` picks.
fn auto_config(g: &Graph, seed: u64) -> RandConfig {
    if g.max_degree() <= 3 {
        RandConfig::small_delta(g, seed)
    } else {
        RandConfig::large_delta(g, seed)
    }
}

pub fn traced_run(w: Workload, seed: u64) -> Result<RunResult, String> {
    let specs = w.specs(seed);
    let (instances, setup) = workload::set_up(&specs)?;
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    layers.put("graphs.generate_s", "s", setup.generate_s);
    layers.put("graphs.io_parse_s", "s", setup.parse_s);

    // Untraced, then on a collecting trace: the same calls as the timed
    // run, so the ledger counts must repeat exactly.
    let plain = run_pass(w.driver, &instances, &RoundLedger::new);
    tally.record("the untraced pass", &instances, &plain.outcomes);
    let tracer = Tracer::collecting();
    let traced = run_pass(w.driver, &instances, &|| tracer.ledger());
    tally.record("the collecting-trace pass", &instances, &traced.outcomes);

    // The stats pass: same instances and seeds through the drivers that
    // return their statistics, with runner spans around each layer.
    let mut stats = DriverStats::default();
    let mut cg = CongestStats::default();
    let mut outcomes = Vec::with_capacity(instances.len());
    for inst in &instances {
        let out = spans.time("instance", |sp| {
            stats_call(w.driver, inst, sp, &mut stats, &mut cg)
        });
        if let Some(f) = &out.failure {
            eprintln!(
                "perfbench: {} (seed {}) failed in the stats pass: {f:?}",
                inst.label, inst.seed
            );
        }
        outcomes.push(out);
    }
    tally.compare("the stats pass", &instances, &outcomes);

    layers.put("rand.attempts", "count", stats.rand_attempts as f64);
    layers.put("rand.fallbacks", "count", stats.rand_fallbacks as f64);
    let h_frac = if stats.rand_n == 0 {
        0.0
    } else {
        stats.rand_h as f64 / stats.rand_n as f64
    };
    layers.put("rand.h_frac", "ratio", h_frac);
    layers.put("rand.leftover_max", "nodes", stats.rand_leftover_max as f64);
    layers.put("det.base_size", "nodes", stats.det_base as f64);
    layers.put("det.layers", "count", stats.det_layers as f64);
    layers.put(
        "det.max_repair_radius",
        "hops",
        stats.det_repair_radius as f64,
    );

    let mut phases: BTreeMap<String, u64> = BTreeMap::new();
    for c in tally.reference().iter().filter_map(|o| o.counts.as_ref()) {
        for (p, r) in &c.phases {
            let key = if PHASES.contains(&p.as_str()) {
                p.clone()
            } else {
                eprintln!("perfbench: phase {p:?} is reported under rounds.other");
                "other".to_string()
            };
            *phases.entry(key).or_default() += r;
        }
    }
    for p in PHASES.iter().chain(&["other"]) {
        let r = phases.get(*p).copied().unwrap_or(0);
        layers.put(&format!("rounds.{}", metric_safe(p)), "rounds", r as f64);
    }

    // Flood layers on the workloads that run them.
    let mut gallai = (0u64, 0u64);
    let mut ruling = RulingProbe::default();
    for inst in &instances {
        match w.driver {
            Driver::Auto => {
                let g = &inst.graph;
                let cfg = auto_config(g, inst.seed);
                let r = RandConfig::large_delta(g, inst.seed).r_detect;
                let mut l = RoundLedger::new();
                spans.time("gallai.find_dccs_all", |_| {
                    find_dccs_all(g, r, 2 * r, dcc_size_cap(g.max_degree()), &mut l, "probe")
                });
                gallai.0 += l.bits_sent();
                gallai.1 = gallai.1.max(l.max_edge_bits());
                spans.time("marking.shatter_probe", |_| {
                    shattering_probe(g, &cfg, inst.seed)
                });
            }
            Driver::Deterministic => {
                if let Err(e) = ruling_probe(inst, &mut spans, &mut ruling) {
                    eprintln!(
                        "perfbench: {}: layer-by-layer Theorem 4 replay failed: {e}",
                        inst.label
                    );
                    tally.wrong += 1;
                }
            }
            Driver::DeltaPlusOne | Driver::CongestRandLarge => {}
        }
    }
    layers.put(
        "gallai.find_dccs_all_s",
        "s",
        spans.total("gallai.find_dccs_all"),
    );
    layers.put("gallai.find_dccs_all_bits", "bits", gallai.0 as f64);
    layers.put(
        "gallai.find_dccs_all_max_edge_bits",
        "bits",
        gallai.1 as f64,
    );
    layers.put(
        "marking.shatter_probe_s",
        "s",
        spans.total("marking.shatter_probe"),
    );
    layers.put("ruling.det_s", "s", spans.total("ruling.det"));
    layers.put("ruling.det_rounds", "rounds", ruling.rounds as f64);
    layers.put("ruling.det_bits", "bits", ruling.bits as f64);
    layers.put(
        "ruling.det_peak_heap_mib",
        "MiB",
        heap::mib(ruling.peak_extra),
    );
    layers.put("ruling.forest_s", "s", spans.total("ruling.forest"));
    layers.put("layering.layers_s", "s", spans.total("layering.layers"));
    layers.put(
        "layering.color_upper_s",
        "s",
        spans.total("layering.color_upper"),
    );
    layers.put(
        "layering.color_upper_rounds",
        "rounds",
        ruling.upper_rounds as f64,
    );
    layers.put("brooks.repair_s", "s", spans.total("brooks.repair"));

    let mismatches = engine_probe(&instances, &mut spans, &mut layers);
    tally.mismatches += mismatches;

    layers.put("congest.logical_rounds", "rounds", cg.logical as f64);
    layers.put("congest.wire_rounds", "rounds", cg.wire as f64);
    let blowup = (cg.wire * 1000).checked_div(cg.logical).unwrap_or(0);
    layers.put("congest.blowup_permille", "permille", blowup as f64);
    layers.put("congest.violations", "count", cg.violations as f64);
    let overhead = if w.driver == Driver::CongestRandLarge {
        spans.total("coloring.delta") - spans.total("congest.local")
    } else {
        0.0
    };
    layers.put("congest.overhead_s", "s", overhead);
    layers.put("verify.check_s", "s", spans.total("verify"));
    layers.put(
        "trace.overhead_frac",
        "ratio",
        (traced.cpu - plain.cpu) / plain.cpu,
    );
    layers.put("host.wall_s", "s", plain.wall);
    eprintln!(
        "perfbench: {} seed {seed}: stats pass {:.3} CPU s, {:.3} s of it outside the layer spans",
        w.name,
        spans.total("instance"),
        spans.self_time("instance")
    );

    Ok(RunResult {
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: layers.0,
    })
}

/// A phase name as a metric-name segment (`delta+1` → `delta_plus_1`).
fn metric_safe(phase: &str) -> String {
    phase.replace('+', "_plus_")
}

/// Colors `inst` through the stats-returning driver behind the
/// workload's entry point and checks the output.
fn stats_call(
    driver: Driver,
    inst: &Instance,
    sp: &mut Spans,
    stats: &mut DriverStats,
    cg: &mut CongestStats,
) -> Outcome {
    let g = &inst.graph;
    let mut ledger = RoundLedger::new();
    let colored = match stats_color(driver, inst, sp, stats, cg, &mut ledger) {
        Ok(c) => c,
        Err(e) => {
            return Outcome {
                counts: None,
                failure: Some(Failure::Error(e.to_string())),
            }
        }
    };
    let (coloring, mismatch) = colored;
    let check = sp.time("verify", |_| check_output(driver, inst, &coloring, &ledger));
    Outcome {
        counts: Some(Counts::of(&ledger, &coloring, g.n())),
        failure: mismatch.or(check.err()),
    }
}

/// The driver call of [`stats_call`]: the coloring, and for
/// `congest-rand` a failure if it differs from the LOCAL coloring.
fn stats_color(
    driver: Driver,
    inst: &Instance,
    sp: &mut Spans,
    stats: &mut DriverStats,
    cg: &mut CongestStats,
    ledger: &mut RoundLedger,
) -> Result<(PartialColoring, Option<Failure>), delta_coloring::ColoringError> {
    let g = &inst.graph;
    Ok(match driver {
        Driver::Auto => {
            let cfg = auto_config(g, inst.seed);
            let (c, s) = sp.time("coloring.delta", |_| delta_color_rand(g, cfg, ledger))?;
            add_rand(stats, g, &s);
            (c, None)
        }
        Driver::Deterministic => {
            let cfg = DetConfig {
                method: ListColorMethod::Deterministic,
                seed: inst.seed,
            };
            let (c, s) = sp.time("coloring.delta", |_| delta_color_det(g, cfg, ledger))?;
            stats.det_base += s.base_size as u64;
            stats.det_layers = stats.det_layers.max(s.layers as u64);
            stats.det_repair_radius = stats.det_repair_radius.max(s.max_repair_radius as u64);
            (c, None)
        }
        Driver::DeltaPlusOne => {
            let c = sp.time("coloring.delta", |_| {
                randomized_delta_plus_one(g, inst.seed, ledger)
            })?;
            (c, None)
        }
        Driver::CongestRandLarge => {
            let cfg = RandConfig::large_delta(g, inst.seed);
            let mut local = RoundLedger::new();
            let (local_c, _) =
                sp.time("congest.local", |_| delta_color_rand(g, cfg, &mut local))?;
            let (c, s) = sp.time("coloring.delta", |_| {
                let _guard = enforce_congest(congest_budget(g.n() as u64));
                delta_color_rand(g, cfg, ledger)
            })?;
            add_rand(stats, g, &s);
            cg.logical += local.total();
            cg.wire += ledger.total();
            cg.violations += ledger.congest_violations();
            let mismatch = (c != local_c).then(|| {
                Failure::Invalid("the enforced coloring differs from the LOCAL coloring".into())
            });
            (c, mismatch)
        }
    })
}

fn add_rand(stats: &mut DriverStats, g: &Graph, s: &delta_coloring::delta::RandStats) {
    stats.rand_attempts += s.attempts as u64;
    stats.rand_fallbacks += u64::from(s.fell_back);
    stats.rand_h += s.h_size as u64;
    stats.rand_n += g.n() as u64;
    stats.rand_leftover_max = stats.rand_leftover_max.max(s.max_component_size as u64);
}

#[derive(Default)]
struct RulingProbe {
    rounds: u64,
    bits: u64,
    peak_extra: usize,
    upper_rounds: u64,
}

/// Theorem 4 layer by layer through the public functions, with a span
/// around each: ruling set on `G^k`, ruling forest, layering, upper-layer
/// list coloring, and Theorem 5 repairs of the base. The result must be
/// a valid Δ-coloring.
fn ruling_probe(inst: &Instance, sp: &mut Spans, out: &mut RulingProbe) -> Result<(), String> {
    let g = &inst.graph;
    let delta = g.max_degree();
    let alpha = 2 * theorem5_radius(g.n(), delta) + 1;
    let mut ledger = RoundLedger::new();
    let live = heap::live();
    heap::reset_peak();
    let base = sp.time("ruling.det", |_| {
        ruling_set_deterministic_alpha(g, alpha, &mut ledger, "ruling-set")
    });
    out.peak_extra = out.peak_extra.max(heap::peak().saturating_sub(live));
    out.rounds += ledger.total();
    out.bits += ledger.bits_sent();
    sp.time("ruling.forest", |_| {
        ruling_forest(g, &base, &mut ledger, "ruling-forest")
    });
    let layering = sp.time("layering.layers", |_| {
        layers_from_base(g, &base, None, None)
    });
    let mut coloring = PartialColoring::new(g.n());
    let mut upper = RoundLedger::new();
    sp.time("layering.color_upper", |_| {
        color_upper_layers(
            g,
            &layering,
            &mut coloring,
            delta,
            ListColorMethod::Deterministic,
            inst.seed,
            &mut upper,
            "layer-coloring",
        )
    })
    .map_err(|e| e.to_string())?;
    out.upper_rounds += upper.total();
    sp.time("brooks.repair", |_| {
        base.iter().try_for_each(|&v| {
            repair_single_uncolored(
                g,
                &mut coloring,
                v,
                delta,
                &mut RoundLedger::new(),
                "repair",
            )
            .map(|_| ())
        })
    })
    .map_err(|e| e.to_string())?;
    check_delta_coloring(g, &coloring).map_err(|e| e.to_string())
}

/// The `engine`/`shard` probes on every instance: the (Δ+1) coloring in
/// the default mode and forced sequential, and the runner's own u32
/// exchange program on `Engine` and on `ShardedEngine` with one and two
/// shards. Returns the number of determinism mismatches found.
fn engine_probe(instances: &[Instance], sp: &mut Spans, layers: &mut Layers) -> u64 {
    let mut mismatches = 0;
    let mut rounds = 0u64;
    let mut node_rounds = 0u64;
    let mut reference = Vec::new();
    for inst in instances {
        let g = &inst.graph;
        let mut l = RoundLedger::new();
        let c = sp.time("engine.delta1.auto", |_| {
            randomized_delta_plus_one(g, inst.seed, &mut l)
        });
        rounds += l.total();
        node_rounds += l.total() * g.n() as u64;
        reference.push((c.ok(), l.total()));
    }
    for (inst, want) in instances.iter().zip(&reference) {
        let g = &inst.graph;
        let mut l = RoundLedger::new();
        let c = sp.time("engine.delta1.seq", |_| {
            let _mode = force_exec_mode(ExecMode::Sequential);
            randomized_delta_plus_one(g, inst.seed, &mut l)
        });
        if (c.ok(), l.total()) != *want {
            mismatches += 1;
            eprintln!(
                "perfbench: {}: sequential (Δ+1) run differs from the default mode",
                inst.label
            );
        }
    }
    let auto_s = sp.total("engine.delta1.auto");
    let per_round_ms = |secs: f64| {
        if rounds == 0 {
            0.0
        } else {
            secs * 1e3 / rounds as f64
        }
    };
    layers.put("engine.round_ms.auto", "ms", per_round_ms(auto_s));
    layers.put(
        "engine.round_ms.seq",
        "ms",
        per_round_ms(sp.total("engine.delta1.seq")),
    );
    layers.put(
        "engine.knode_rounds_per_s",
        "1/s",
        node_rounds as f64 / auto_s / 1e3,
    );

    for inst in instances {
        let g = &inst.graph;
        let init = |v: delta_graphs::NodeId| v.0.wrapping_mul(2_654_435_761);
        let mut eng = Engine::new(g, inst.seed, init);
        let want = sp.time("engine.step", |_| {
            let mut l = RoundLedger::new();
            for _ in 0..STEP_ROUNDS {
                eng.step(&mut l, "probe", exchange_send, exchange_recv);
            }
            eng.into_states()
        });
        for (shards, name) in [(1, "shard.step.s1"), (2, "shard.step.s2")] {
            let mut eng = ShardedEngine::contiguous(g, shards, inst.seed, init);
            let got = sp.time(name, |_| {
                let mut l = RoundLedger::new();
                for _ in 0..STEP_ROUNDS {
                    eng.step(&mut l, "probe", exchange_send, exchange_recv);
                }
                eng.into_states()
            });
            if got != want {
                mismatches += 1;
                eprintln!(
                    "perfbench: {}: {shards}-shard engine differs from Engine",
                    inst.label
                );
            }
        }
    }
    let steps = (STEP_ROUNDS * instances.len()) as f64;
    layers.put(
        "engine.step_ms",
        "ms",
        sp.total("engine.step") * 1e3 / steps,
    );
    layers.put(
        "shard.step_ms.s1",
        "ms",
        sp.total("shard.step.s1") * 1e3 / steps,
    );
    layers.put(
        "shard.step_ms.s2",
        "ms",
        sp.total("shard.step.s2") * 1e3 / steps,
    );
    mismatches
}

fn exchange_send(_: &mut local_model::NodeCtx<'_>, s: &mut u32, out: &mut Outbox<u32>) {
    out.broadcast(*s);
}

fn exchange_recv(
    _: &mut local_model::NodeCtx<'_>,
    s: &mut u32,
    inbox: &[(delta_graphs::NodeId, u32)],
) {
    let sum = inbox.iter().fold(0u32, |a, &(_, m)| a.wrapping_add(m));
    *s = s.rotate_left(5) ^ sum;
}
