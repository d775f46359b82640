//! Criterion round-throughput benchmarks of the LOCAL engine itself.
//!
//! Everything the repository simulates — Luby MIS, Linial, the
//! list-coloring and reduction phases of the Δ-coloring pipeline — runs
//! through `Engine::step`, so this benchmark isolates the delivery
//! substrate from the algorithms: trivial node programs whose cost is
//! dominated by message routing, across the three traffic shapes
//! (broadcast-only, directed-only, mixed), three graph families
//! (cycle, random 4-regular, torus), sizes n ∈ {2^10, 2^14, 2^17}, and
//! both schedules. The reported mean is the wall-clock of
//! `ROUNDS_PER_ITER` engine rounds; divide for rounds/sec. A second
//! group, the threshold sweep, prints wall and CPU time per round of
//! both schedules at n ∈ {2^12, …, 2^21}: the measurement
//! that sets `local_model::PARALLEL_THRESHOLD`.
//!
//! The closures are intentionally cheap (`u64` payloads, a couple of
//! ALU ops) so that regressions in the mailbox path — per-round
//! allocation, per-message edge lookups, clone overhead — dominate the
//! measurement instead of being hidden behind algorithm compute.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use delta_graphs::{generators, Graph};
use local_model::{run_ball_phase, Engine, ExecMode, Outbox, RoundLedger};
use std::hint::black_box;
use std::time::Instant;

/// Rounds executed per measured iteration.
const ROUNDS_PER_ITER: u64 = 4;

/// Traffic shapes exercised per graph.
#[derive(Clone, Copy)]
enum Workload {
    /// Every node broadcasts one `u64` per round.
    Broadcast,
    /// Every node sends one directed `u64` to each neighbor per round.
    Directed,
    /// Broadcast plus one directed message to the smallest neighbor.
    Mixed,
}

impl Workload {
    fn label(self) -> &'static str {
        match self {
            Workload::Broadcast => "broadcast",
            Workload::Directed => "directed",
            Workload::Mixed => "mixed",
        }
    }
}

fn mode_label(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Sequential => "seq",
        ExecMode::Parallel => "par",
        ExecMode::Auto => "auto",
    }
}

/// Runs `ROUNDS_PER_ITER` rounds of `workload` on a persistent engine.
/// `g` is the same graph the engine runs on (a second shared borrow).
fn run_rounds(
    engine: &mut Engine<'_, u64>,
    g: &Graph,
    ledger: &mut RoundLedger,
    workload: Workload,
) {
    for _ in 0..ROUNDS_PER_ITER {
        match workload {
            Workload::Broadcast => engine.step(
                ledger,
                "bench",
                |_, s: &mut u64, out: &mut Outbox<u64>| out.broadcast(*s),
                |_, s, inbox| {
                    for &(w, m) in inbox {
                        *s = s.wrapping_add(m ^ w.0 as u64);
                    }
                },
            ),
            Workload::Directed => engine.step(
                ledger,
                "bench",
                |ctx, s: &mut u64, out: &mut Outbox<u64>| {
                    for &w in g.neighbors(ctx.id) {
                        out.send_to(w, *s ^ w.0 as u64);
                    }
                },
                |_, s, inbox| {
                    for &(w, m) in inbox {
                        *s = s.wrapping_add(m ^ w.0 as u64);
                    }
                },
            ),
            Workload::Mixed => engine.step(
                ledger,
                "bench",
                |ctx, s: &mut u64, out: &mut Outbox<u64>| {
                    out.broadcast(*s);
                    if let Some(&w) = g.neighbors(ctx.id).first() {
                        out.send_to(w, !*s);
                    }
                },
                |_, s, inbox| {
                    for &(w, m) in inbox {
                        *s = s.wrapping_mul(31).wrapping_add(m ^ w.0 as u64);
                    }
                },
            ),
        }
    }
}

fn graph_for(family: &str, n: usize) -> Graph {
    match family {
        "cycle" => generators::cycle(n),
        "rr4" => generators::random_regular(n, 4, 12),
        "torus" => {
            let side = (n as f64).sqrt().round() as usize;
            generators::torus(side, side)
        }
        other => panic!("unknown family {other}"),
    }
}

fn bench_engine_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine-rounds");
    group.sample_size(12);
    for &n in &[1usize << 10, 1 << 14, 1 << 17] {
        for family in ["cycle", "rr4", "torus"] {
            let g = graph_for(family, n);
            for workload in [Workload::Broadcast, Workload::Directed, Workload::Mixed] {
                for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                    // Label with the realized node count: the torus
                    // rounds n to a square (131_044 at 2^17), and a
                    // mislabeled size would skew cross-family and
                    // cross-revision comparisons.
                    let id = BenchmarkId::new(
                        format!("{family}/{}/{}", workload.label(), mode_label(mode)),
                        g.n(),
                    );
                    group.bench_with_input(id, &n, |b, _| {
                        let mut ledger = RoundLedger::new();
                        let mut engine = Engine::new(&g, 42, |v| v.0 as u64).with_mode(mode);
                        // Warm-up round outside criterion's own warm-up
                        // so arena growth is excluded from the samples.
                        run_rounds(&mut engine, &g, &mut ledger, workload);
                        b.iter(|| {
                            run_rounds(&mut engine, &g, &mut ledger, workload);
                            black_box(engine.states()[0])
                        });
                    });
                }
            }
        }
    }
    group.finish();
}

/// CPU seconds this process has used so far, over all its threads
/// (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`), so worker threads count.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), which is all `clock_gettime` writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// No process CPU clock off 64-bit Linux: the sweep prints NaN for it.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_s() -> f64 {
    f64::NAN
}

/// The seq/par sweep that sets [`local_model::PARALLEL_THRESHOLD`]:
/// mixed traffic on a random 4-regular graph at n ∈ {2^12, 2^14, 2^17,
/// 2^20, 2^21}, both schedules, with their samples interleaved
/// (alternating which goes first) so host drift hits both alike. Each
/// sample runs about 2^22 node-rounds; the sweep prints wall and
/// process-CPU milliseconds per round as `median [q1, q3]` over the
/// samples. The threshold is the smallest n whose parallel wall median
/// beats the sequential one by more than the sequential spread
/// (q3 − q1).
fn bench_threshold_sweep(_c: &mut Criterion) {
    const SAMPLES: usize = 11;
    let quartiles = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        let at = |q: usize| v[(v.len() - 1) * q / 4];
        format!("{:>9.3} [{:.3}, {:.3}]", at(2), at(1), at(3))
    };
    for shift in [12, 14, 17, 20, 21] {
        let g = graph_for("rr4", 1 << shift);
        let calls = ((1usize << 20) >> shift).max(1);
        let rounds = (calls as u64 * ROUNDS_PER_ITER) as f64;
        let modes = [ExecMode::Sequential, ExecMode::Parallel];
        let mut engines = modes.map(|mode| Engine::new(&g, 42, |v| v.0 as u64).with_mode(mode));
        let mut ledger = RoundLedger::new();
        let mut wall = [Vec::new(), Vec::new()];
        let mut cpu = [Vec::new(), Vec::new()];
        for engine in &mut engines {
            run_rounds(engine, &g, &mut ledger, Workload::Mixed);
        }
        for sample in 0..SAMPLES {
            for k in 0..2 {
                let m = (k + sample) % 2;
                let (w0, c0) = (Instant::now(), process_cpu_s());
                for _ in 0..calls {
                    run_rounds(&mut engines[m], &g, &mut ledger, Workload::Mixed);
                }
                wall[m].push(w0.elapsed().as_secs_f64() * 1e3 / rounds);
                cpu[m].push((process_cpu_s() - c0) * 1e3 / rounds);
            }
            black_box(engines[0].states()[0] ^ engines[1].states()[0]);
        }
        for (m, mode) in modes.into_iter().enumerate() {
            println!(
                "sweep rr4/mixed/{:<3} n=2^{shift:<2} wall ms/round {}  cpu ms/round {}",
                mode_label(mode),
                quartiles(std::mem::take(&mut wall[m])),
                quartiles(std::mem::take(&mut cpu[m])),
            );
        }
    }
}

/// Ball-collection throughput: the certificate-flood relay overhead of
/// `local_model::ball` across radii 1..=3 and the three graph families.
/// One measured iteration is a full all-nodes collection (every node
/// assembles its radius-r view and reduces it to a count), so the
/// number tracks the subsystem's end-to-end relay cost — the quantity
/// the ruling/marking/DCC migrations ride on — in the perf trajectory.
fn bench_ball_collection(c: &mut Criterion) {
    let mut group = c.benchmark_group("ball-collection");
    group.sample_size(10);
    let n = 1usize << 10;
    for family in ["cycle", "rr4", "torus"] {
        let g = graph_for(family, n);
        for radius in 1usize..=3 {
            let id = BenchmarkId::new(format!("{family}/r{radius}"), g.n());
            group.bench_with_input(id, &radius, |b, &r| {
                b.iter(|| {
                    let mut ledger = RoundLedger::new();
                    let sizes = run_ball_phase::<(), _, _, _>(
                        &g,
                        0,
                        r,
                        |_| (),
                        |_, view| view.len() + view.edges.len(),
                        &mut ledger,
                        "bench",
                    );
                    black_box((sizes[0], ledger.bits_sent()))
                });
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_rounds,
    bench_threshold_sweep,
    bench_ball_collection
);
criterion_main!(benches);
