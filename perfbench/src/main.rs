//! Benchmark runner: time to a verified Δ-coloring on four seeded
//! workloads, plus per-layer probes.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The runner generates the workload's instances from `--seed`, writes
//! each to edge-list text and parses it back (the program only ever
//! receives the parsed graph), then colors the instances one at a time
//! (closed loop, one process, the program's own parallelism at its
//! default of `available_parallelism`). It prints a host fingerprint
//! line and, last, one JSON result line with the keys `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! # Workloads
//!
//! The seed changes only the random graphs and the algorithm seeds;
//! families and sizes are fixed per workload.
//!
//! * `rand-mixed` — `delta_color(Strategy::Auto)`, the paper's headline
//!   randomized driver, at n = 2^12: random regular graphs with
//!   Δ ∈ {3, 4, 5, 8} (two each), a 64×64 torus, a perturbed 4-regular
//!   graph, a tree with n/10 chords, and the hypercube Q10 under four
//!   fixed config seeds. DCC-rich families finish in phase I (`ball`
//!   certificate floods, B-layer list coloring). DCC-sparse hypercubes
//!   take marking, shattering, phase-6 CDCC floods on the
//!   `InducedOverlay`, and Las Vegas retries.
//! * `det-ruling` — `delta_color(Strategy::Deterministic)` (Theorem 4)
//!   on random regular graphs with Δ ∈ {4, 8} (two each) at n = 2^11.
//!   Almost all time is the bit-halving reach floods that build the
//!   ruling set on the `G^k` overlay: the membership-only use of the
//!   flood primitive, with no DCC detection.
//! * `engine-bulk` — `baseline::randomized_delta_plus_one`, checked with
//!   `check_k_coloring`, on random regular graphs with Δ ∈ {3, 4, 5} at
//!   n = 2^20: tiny messages far above `PARALLEL_THRESHOLD` and no flood
//!   work, so per-round mailbox cost dominates.
//! * `congest-rand` — `delta_color(Strategy::RandomizedLarge)` under
//!   `enforce_congest(congest_budget(n))` on random regular graphs with
//!   Δ ∈ {3, 4, 5} (four each) at n = 2^12: the only workload where the
//!   `congest` fragmenter, scheduler and reassembler do any work.
//!
//! # End-to-end metrics (`--trace 0`, untraced)
//!
//! Every time is process CPU time (see [`cpu`] for why not wall time).
//!
//! * `setup_s` — median of 3 to 100 set-ups (more for small workloads).
//! * `cpu_s` — the primary metric: median over passes of the time to
//!   color and verify every instance. Passes repeat until `--seconds`
//!   of wall time have gone, at least two.
//! * `instance_cpu_s_p50`, `instance_cpu_s_max` — median and maximum
//!   over instances of each instance's median time. On `rand-mixed` the
//!   maximum is the Q10 Las Vegas retry tail.
//! * `peak_heap_mib` — peak live heap while timing, from the counting
//!   allocator in [`heap`].
//! * `sim_rounds`, `bits_sent`, `max_edge_bits` — exact ledger counts,
//!   summed (the last maximised) over instances.
//!
//! Failures are the result line's `failed` out of `attempted`
//! (`fail_frac` = failed / attempted). Both count instances: every pass
//! repeats the same instances and the determinism guard below requires
//! each outcome, failure included, to repeat, so a run's `attempted` and
//! `failed` depend on its seed only, not on how many passes it made.
//! Their share is not a metric: it reads 0 where nothing fails, and a
//! metric must never read 0.
//!
//! # Per-layer metrics (`--trace 1`, traced) and what they should move
//!
//! Span times are CPU seconds of the runner's spans around the named
//! public calls. Every per-layer metric is printed on every workload; a
//! layer the workload does not exercise reads 0. The engine probes run
//! on every workload's instances.
//!
//! | layer | metrics | should move |
//! |---|---|---|
//! | `graphs` | `graphs.generate_s`, `graphs.io_parse_s` | `setup_s`, mostly on `engine-bulk` |
//! | `coloring::delta` | `rand.attempts`, `rand.fallbacks`, `rand.h_frac`, `rand.leftover_max`, `det.base_size`, `det.layers`, `det.max_repair_radius` | `instance_cpu_s_max`, `cpu_s` on `rand-mixed` and `det-ruling` |
//! | `local-model::ledger` | `rounds.<phase>` | `sim_rounds` on the workload that charges the phase |
//! | `coloring::gallai` + `local-model::ball` | `gallai.find_dccs_all_{s,bits,max_edge_bits}` | `cpu_s`, `bits_sent` on `rand-mixed`; no change on `engine-bulk` |
//! | `coloring::marking` | `marking.shatter_probe_s` | `cpu_s`, `instance_cpu_s_max` on `rand-mixed` |
//! | `coloring::ruling` + `local-model::overlay` | `ruling.det_{s,rounds,bits,peak_heap_mib}`, `ruling.forest_s` | `cpu_s`, `peak_heap_mib` on `det-ruling`; no change on `engine-bulk` |
//! | `coloring::{layering,list_coloring,brooks}` | `layering.layers_s`, `layering.color_upper_{s,rounds}`, `brooks.repair_s` | `cpu_s` on `det-ruling` |
//! | `local-model::{engine,shard}` | `engine.round_ms.{auto,seq}`, `engine.knode_rounds_per_s`, `engine.step_ms`, `shard.step_ms.{s1,s2}` | `cpu_s` on `engine-bulk`, a small share on `rand-mixed` |
//! | `local-model::congest` | `congest.{logical_rounds,wire_rounds,blowup_permille,violations,overhead_s}` | `cpu_s`, `sim_rounds` on `congest-rand`; no change elsewhere |
//! | `coloring::verify` | `verify.check_s` | `cpu_s` on all four (a small share) |
//! | `local-model::trace` | `trace.overhead_frac` | no end-to-end metric (those runs are untraced) |
//! | host | `host.wall_s` (wall seconds of the untraced pass) | the gap to `cpu_s` is waiting and steal |
//!
//! # Checks
//!
//! Every output is checked with `check_delta_coloring` or
//! `check_k_coloring`; `congest-rand` also needs zero violations and no
//! edge over the budget, and in the traced run the enforced coloring
//! must equal the LOCAL one bit for bit. An instance that errors, panics
//! (caught per instance) or fails a check counts in `failed`; nothing is
//! filtered, skipped or re-seeded. A wrong output (an improper coloring,
//! or an enforced coloring that differs from the LOCAL one) also makes
//! `correct` false; a proper coloring whose run broke the CONGEST budget
//! is a failed operation only.
//!
//! The determinism guard requires the ledger counts (rounds, bits,
//! per-edge maximum, per-phase rounds) and the coloring itself to repeat
//! exactly across every pass of one invocation: the timed passes, and in
//! a traced run the untraced pass, the collecting-trace pass and the
//! stats pass. Only the stats pass's drivers return `rand.attempts`;
//! `delta_color` does not, so the guard holds the attempts fixed through
//! the identical coloring and ledger. A mismatch makes `correct` false.

mod cpu;
mod heap;
mod probes;
mod report;
mod workload;

use report::{median, Metric};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{check_output, color, Counts, Driver, Failure, Instance, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Set-ups per untraced run: at least `SETUP_MIN_REPS`, and more until
/// `SETUP_MIN_SECS` CPU seconds of set-up are measured, at most
/// `SETUP_MAX_REPS`. `setup_s` is their median; small workloads set up
/// in milliseconds, so one reading would be mostly noise.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 2.0;
const SETUP_MAX_REPS: usize = 100;
/// Timed passes per untraced run, at least (the guard needs two).
const MIN_PASSES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        probes::traced_run(args.workload, args.seed)
    } else {
        timed_run(
            args.workload,
            args.seed,
            Duration::from_secs_f64(args.seconds),
        )
    };
    let result = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", host_line(&args));
    println!(
        "{}",
        report::result_line(
            result.correct,
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
    ExitCode::SUCCESS
}

/// What a run reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Seed, core count, CPU model, toolchain and source revision.
fn host_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    report::object_line(
        "host",
        &[
            ("workload", args.workload.name.to_string()),
            ("seed", args.seed.to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("nproc", nproc.to_string()),
            ("cpu", cpu_model()),
            ("rustc", env!("PERFBENCH_RUSTC").to_string()),
            ("commit", env!("PERFBENCH_COMMIT").to_string()),
        ],
    )
}

/// The CPU brand string from `cpuid` (no file is read).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports the highest extended leaf; the brand
    // string leaves are read only when it covers them.
    let max_ext = __cpuid(0x8000_0000).eax;
    if max_ext < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// One coloring call as a pass records it: the exact counts whenever
/// the driver returned a coloring, and why the attempt failed, if it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub counts: Option<Counts>,
    pub failure: Option<Failure>,
}

/// Colors and checks one instance on `ledger`, catching panics. Returns
/// the outcome and the CPU seconds of the coloring call and its check.
pub fn attempt(
    driver: Driver,
    inst: &Instance,
    mut ledger: local_model::RoundLedger,
) -> (Outcome, f64) {
    let start = cpu::now();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let c = color(driver, inst, &mut ledger).map_err(Failure::Error)?;
        let checked = check_output(driver, inst, &c, &ledger);
        Ok((c, checked.err()))
    }));
    let secs = cpu::now() - start;
    let outcome = match caught {
        Ok(Ok((c, failure))) => Outcome {
            counts: Some(Counts::of(&ledger, &c, inst.graph.n())),
            failure,
        },
        Ok(Err(failure)) => Outcome {
            counts: None,
            failure: Some(failure),
        },
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into());
            Outcome {
                counts: None,
                failure: Some(Failure::Error(format!("panic: {msg}"))),
            }
        }
    };
    (outcome, secs)
}

/// One pass over every instance: outcomes and CPU seconds per
/// instance, their sum, and the pass's wall seconds.
pub struct Pass {
    pub outcomes: Vec<Outcome>,
    pub secs: Vec<f64>,
    pub cpu: f64,
    pub wall: f64,
}

/// Colors every instance once, each on a ledger from `ledger`.
pub fn run_pass(
    driver: Driver,
    instances: &[Instance],
    ledger: &dyn Fn() -> local_model::RoundLedger,
) -> Pass {
    let start = Instant::now();
    let mut outcomes = Vec::with_capacity(instances.len());
    let mut secs = Vec::with_capacity(instances.len());
    for inst in instances {
        let (out, cpu_secs) = attempt(driver, inst, ledger());
        secs.push(cpu_secs);
        if let Some(f) = &out.failure {
            eprintln!(
                "perfbench: {} (seed {}) failed: {f:?}",
                inst.label, inst.seed
            );
        }
        outcomes.push(out);
    }
    Pass {
        cpu: secs.iter().sum(),
        outcomes,
        secs,
        wall: start.elapsed().as_secs_f64(),
    }
}

/// Determinism guard and failure tally over passes of one invocation.
#[derive(Default)]
pub struct Tally {
    reference: Option<Vec<Outcome>>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub mismatches: u64,
}

impl Tally {
    /// Takes the first pass recorded as the reference and counts its
    /// attempts and failures; checks every later pass against it.
    ///
    /// An attempt is one instance, not one instance per pass: a later
    /// pass repeats the same calls, and any outcome (failure included)
    /// that does not repeat is a mismatch. So `attempted` and `failed`
    /// depend on the seed alone, not on how many passes fit the time.
    pub fn record(&mut self, what: &str, instances: &[Instance], outcomes: &[Outcome]) {
        match &self.reference {
            None => {
                for o in outcomes {
                    self.attempted += 1;
                    if let Some(f) = &o.failure {
                        self.failed += 1;
                        self.wrong += u64::from(matches!(f, Failure::Invalid(_)));
                    }
                }
                self.reference = Some(outcomes.to_vec());
            }
            Some(r) => self.mismatches += mismatches(what, instances, r, outcomes),
        }
    }

    /// Checks `outcomes` against the reference without counting them as
    /// attempts (for a re-run that reaches the result another way).
    pub fn compare(&mut self, what: &str, instances: &[Instance], outcomes: &[Outcome]) {
        if let Some(r) = &self.reference {
            self.mismatches += mismatches(what, instances, r, outcomes);
        }
    }

    /// The first pass's outcomes.
    pub fn reference(&self) -> &[Outcome] {
        self.reference.as_deref().unwrap_or(&[])
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.mismatches == 0
    }
}

fn mismatches(
    what: &str,
    instances: &[Instance],
    reference: &[Outcome],
    outcomes: &[Outcome],
) -> u64 {
    let mut n = 0;
    for ((inst, a), b) in instances.iter().zip(reference).zip(outcomes) {
        if a != b {
            n += 1;
            eprintln!(
                "perfbench: determinism guard: {} (seed {}) differs in {what}: {a:?} vs {b:?}",
                inst.label, inst.seed
            );
        }
    }
    n
}

/// Sum of rounds and bits and maximum per-edge load over the outcomes
/// that returned a coloring.
pub fn ledger_totals(outcomes: &[Outcome]) -> (u64, u64, u64) {
    outcomes
        .iter()
        .filter_map(|o| o.counts.as_ref())
        .fold((0, 0, 0), |(r, b, m), c| {
            (r + c.rounds, b + c.bits, m.max(c.max_edge_bits))
        })
}

fn timed_run(w: Workload, seed: u64, budget: Duration) -> Result<RunResult, String> {
    let specs = w.specs(seed);
    let mut setup: Vec<f64> = Vec::new();
    let mut instances = Vec::new();
    while setup.len() < SETUP_MIN_REPS
        || (setup.iter().sum::<f64>() < SETUP_MIN_SECS && setup.len() < SETUP_MAX_REPS)
    {
        drop(std::mem::take(&mut instances));
        let (inst, t) = workload::set_up(&specs)?;
        setup.push(t.total_s);
        instances = inst;
    }
    heap::reset_peak();
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut per_instance: Vec<Vec<f64>> = vec![Vec::new(); instances.len()];
    while walls.len() < MIN_PASSES || start.elapsed() < budget {
        let pass = run_pass(w.driver, &instances, &local_model::RoundLedger::new);
        tally.record("a repeated pass", &instances, &pass.outcomes);
        for (samples, s) in per_instance.iter_mut().zip(&pass.secs) {
            samples.push(*s);
        }
        walls.push(pass.wall);
        cpus.push(pass.cpu);
    }
    let peak = heap::peak();
    let inst_medians: Vec<f64> = per_instance.iter().map(|s| median(s)).collect();
    let (rounds, bits, max_edge) = ledger_totals(tally.reference());
    eprintln!(
        "perfbench: {} seed {seed}: {} passes; per pass median {:.3} CPU s (spread {:.4}), {:.3} wall s (spread {:.4}); setup spread {:.4}",
        w.name,
        walls.len(),
        median(&cpus),
        report::spread(&cpus),
        median(&walls),
        report::spread(&walls),
        report::spread(&setup)
    );
    let m = |name: &str, unit, value| Metric {
        name: name.to_string(),
        unit,
        value,
    };
    Ok(RunResult {
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            m("setup_s", "s", median(&setup)),
            m("cpu_s", "s", median(&cpus)),
            m("instance_cpu_s_p50", "s", median(&inst_medians)),
            m(
                "instance_cpu_s_max",
                "s",
                inst_medians.iter().copied().fold(0.0, f64::max),
            ),
            m("peak_heap_mib", "MiB", heap::mib(peak)),
            m("sim_rounds", "rounds", rounds as f64),
            m("bits_sent", "bits", bits as f64),
            m("max_edge_bits", "bits", max_edge as f64),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(rounds: u64, failure: Option<Failure>) -> Outcome {
        Outcome {
            counts: Some(Counts {
                rounds,
                bits: 10,
                max_edge_bits: 2,
                violations: 0,
                phases: vec![("p".into(), rounds)],
                coloring: 7,
            }),
            failure,
        }
    }

    fn instance() -> Instance {
        Instance {
            label: "k4".into(),
            graph: delta_graphs::generators::complete(4),
            seed: 0,
        }
    }

    #[test]
    fn guard_flags_a_count_that_does_not_repeat() {
        let inst = [instance()];
        let mut t = Tally::default();
        t.record("first", &inst, &[outcome(5, None)]);
        t.record("second", &inst, &[outcome(5, None)]);
        assert!(t.correct());
        t.compare("third", &inst, &[outcome(6, None)]);
        assert!(!t.correct());
        assert_eq!((t.attempted, t.failed), (1, 0));
    }

    #[test]
    fn budget_failures_count_but_only_invalid_outputs_are_wrong() {
        let inst = [instance()];
        let mut t = Tally::default();
        let budget = Some(Failure::Budget("over".into()));
        t.record("first", &inst, &[outcome(5, budget.clone())]);
        t.record("second", &inst, &[outcome(5, budget)]);
        assert!(t.correct());
        assert_eq!((t.attempted, t.failed), (1, 1));
        assert_eq!(ledger_totals(t.reference()), (5, 10, 2));
        t.record(
            "third",
            &inst,
            &[outcome(5, Some(Failure::Invalid("bad".into())))],
        );
        assert!(!t.correct());
    }

    #[test]
    fn attempt_catches_errors_as_failures() {
        // K4 is not nice: delta_color returns a typed error.
        let (out, _) = attempt(Driver::Auto, &instance(), local_model::RoundLedger::new());
        assert!(out.counts.is_none());
        assert!(matches!(out.failure, Some(Failure::Error(_))));
    }
}
