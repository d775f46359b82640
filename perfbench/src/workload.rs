//! The four workloads: instance lists drawn from the seed, set-up
//! (generate → edge-list text → parse back), and the per-instance
//! coloring call the timed passes make.

use delta_coloring::baseline::randomized_delta_plus_one;
use delta_coloring::delta::{delta_color, Strategy};
use delta_coloring::palette::check_k_coloring;
use delta_coloring::verify::check_delta_coloring;
use delta_coloring::PartialColoring;
use delta_graphs::{generators, io, Graph};
use local_model::{congest_budget, enforce_congest, RoundLedger};

/// Which public entry point a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `delta_color(Strategy::Auto)`.
    Auto,
    /// `delta_color(Strategy::Deterministic)` (Theorem 4).
    Deterministic,
    /// `baseline::randomized_delta_plus_one`, checked as a (Δ+1)-coloring.
    DeltaPlusOne,
    /// `delta_color(Strategy::RandomizedLarge)` under
    /// `enforce_congest(congest_budget(n))`.
    CongestRandLarge,
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub driver: Driver,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "rand-mixed",
        driver: Driver::Auto,
    },
    Workload {
        name: "det-ruling",
        driver: Driver::Deterministic,
    },
    Workload {
        name: "engine-bulk",
        driver: Driver::DeltaPlusOne,
    },
    Workload {
        name: "congest-rand",
        driver: Driver::CongestRandLarge,
    },
];

impl Workload {
    /// Looks a workload up by its command-line name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The instance list for `seed`: fixed families and sizes, graph and
    /// algorithm seeds drawn from `seed`.
    pub fn specs(&self, seed: u64) -> Vec<Spec> {
        let mut specs = Vec::new();
        let mut draw = SeedStream(seed ^ fnv(self.name.as_bytes()));
        let mut add = |family: Family, copies: usize, fixed_config: Option<u64>| {
            for _ in 0..copies {
                let graph_seed = draw.next();
                let config_seed = draw.next();
                specs.push(Spec {
                    family,
                    graph_seed,
                    config_seed: fixed_config.unwrap_or(config_seed),
                });
            }
        };
        match self.driver {
            Driver::Auto => {
                const N: usize = 1 << 12;
                for d in [3, 4, 5, 8] {
                    add(Family::Regular { n: N, d }, 2, None);
                }
                add(Family::Torus { side: 64 }, 1, None);
                add(Family::Perturbed { n: N, d: 4 }, 1, None);
                add(Family::TreeChords { n: N }, 1, None);
                // Q10's config seeds are part of the workload, not drawn
                // from `seed`: one Q10 instance takes 1 to 5 Las Vegas
                // attempts depending on its config seed (0.04 s to 3.5 s,
                // 24 Mbit to 2 Gbit), so seed-drawn Q10 instances would
                // turn every end-to-end metric into a draw over attempt
                // counts. Fixed, the retry tail is the same input on every
                // run.
                for k in 0..Q10_CONFIGS {
                    add(Family::Hypercube { dim: 10 }, 1, Some(k));
                }
            }
            Driver::Deterministic => {
                for d in [4, 8] {
                    add(Family::Regular { n: 1 << 11, d }, 2, None);
                }
            }
            Driver::DeltaPlusOne => {
                for d in [3, 4, 5] {
                    add(Family::Regular { n: 1 << 20, d }, 1, None);
                }
            }
            Driver::CongestRandLarge => {
                // Four graphs per degree, so that `instance_cpu_s_p50`
                // does not hang on one or two random graphs.
                for d in [3, 4, 5] {
                    add(Family::Regular { n: 1 << 12, d }, 4, None);
                }
            }
        }
        specs
    }
}

/// Number of fixed-config Q10 instances in `rand-mixed`.
const Q10_CONFIGS: u64 = 4;

/// A graph family with fixed size parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Regular { n: usize, d: usize },
    Torus { side: usize },
    Perturbed { n: usize, d: usize },
    TreeChords { n: usize },
    Hypercube { dim: usize },
}

impl Family {
    fn generate(self, seed: u64) -> Graph {
        match self {
            Family::Regular { n, d } => generators::random_regular(n, d, seed),
            Family::Torus { side } => generators::torus(side, side),
            Family::Perturbed { n, d } => generators::perturbed_regular(n, d, 0.03, seed),
            Family::TreeChords { n } => generators::tree_with_chords(n, n / 10, seed),
            Family::Hypercube { dim } => generators::hypercube(dim),
        }
    }

    pub fn label(self) -> String {
        match self {
            Family::Regular { n, d } => format!("rr{d}-n{n}"),
            Family::Torus { side } => format!("torus{side}x{side}"),
            Family::Perturbed { n, d } => format!("perturbed{d}-n{n}"),
            Family::TreeChords { n } => format!("tree+chords-n{n}"),
            Family::Hypercube { dim } => format!("Q{dim}"),
        }
    }
}

/// One instance before set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub family: Family,
    pub graph_seed: u64,
    pub config_seed: u64,
}

/// One instance after set-up: the graph the program receives is the one
/// parsed back from edge-list text.
pub struct Instance {
    pub label: String,
    pub graph: Graph,
    pub seed: u64,
}

/// CPU seconds of one set-up, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_s: f64,
    pub parse_s: f64,
}

/// Generates every instance, writes it to edge-list text, parses it
/// back with `io::parse_edge_list` and checks the round trip.
///
/// # Errors
///
/// A parse failure or a round trip that changed the graph.
pub fn set_up(specs: &[Spec]) -> Result<(Vec<Instance>, SetupTimes), String> {
    let start = crate::cpu::now();
    let mut times = SetupTimes::default();
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        let label = spec.family.label();
        let (g, secs) = crate::cpu::timed(|| spec.family.generate(spec.graph_seed));
        times.generate_s += secs;
        let text = io::to_edge_list(&g);
        let (parsed, secs) = crate::cpu::timed(|| io::parse_edge_list(&text));
        times.parse_s += secs;
        let parsed = parsed.map_err(|e| format!("{label}: {e}"))?;
        if parsed != g {
            return Err(format!("{label}: edge-list round trip changed the graph"));
        }
        out.push(Instance {
            label,
            graph: parsed,
            seed: spec.config_seed,
        });
    }
    times.total_s = crate::cpu::now() - start;
    Ok((out, times))
}

/// What one coloring call produced: the exact counts the determinism
/// guard compares, and a fingerprint of the coloring itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    pub rounds: u64,
    pub bits: u64,
    pub max_edge_bits: u64,
    pub violations: u64,
    pub phases: Vec<(String, u64)>,
    pub coloring: u64,
}

impl Counts {
    pub fn of(ledger: &RoundLedger, coloring: &PartialColoring, n: usize) -> Counts {
        Counts {
            rounds: ledger.total(),
            bits: ledger.bits_sent(),
            max_edge_bits: ledger.max_edge_bits(),
            violations: ledger.congest_violations(),
            phases: ledger.by_phase(),
            coloring: coloring_hash(coloring, n),
        }
    }
}

/// FNV-1a over the color of every node (`u32::MAX` for uncolored).
pub fn coloring_hash(c: &PartialColoring, n: usize) -> u64 {
    let mut bytes = Vec::with_capacity(4 * n);
    for v in 0..n {
        let color = c
            .get(delta_graphs::NodeId::from_index(v))
            .map_or(u32::MAX, |c| c.0);
        bytes.extend_from_slice(&color.to_le_bytes());
    }
    fnv(&bytes)
}

/// Colors one instance through the workload's public entry point, the
/// way a user would call it, on `ledger`. No verification here: the
/// caller checks the output with [`check_output`].
///
/// # Errors
///
/// The driver's own error, as text.
pub fn color(
    driver: Driver,
    inst: &Instance,
    ledger: &mut RoundLedger,
) -> Result<PartialColoring, String> {
    let g = &inst.graph;
    let out = match driver {
        Driver::Auto => delta_color(g, Strategy::Auto, inst.seed, ledger),
        Driver::Deterministic => delta_color(g, Strategy::Deterministic, inst.seed, ledger),
        Driver::DeltaPlusOne => randomized_delta_plus_one(g, inst.seed, ledger),
        Driver::CongestRandLarge => {
            let _guard = enforce_congest(congest_budget(g.n() as u64));
            delta_color(g, Strategy::RandomizedLarge, inst.seed, ledger)
        }
    };
    out.map_err(|e| e.to_string())
}

/// Why an instance failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The driver returned an error or panicked.
    Error(String),
    /// The returned coloring is not a proper Δ- (or (Δ+1)-) coloring, or
    /// differs from the coloring it must equal: a wrong output.
    Invalid(String),
    /// The coloring is proper but the CONGEST run broke its per-edge
    /// budget: a failed operation, not a wrong coloring.
    Budget(String),
}

/// Checks one output: a proper Δ-coloring (or (Δ+1)-coloring for the
/// baseline), and for the CONGEST workload zero violations and no edge
/// over the budget.
///
/// # Errors
///
/// The first violation.
pub fn check_output(
    driver: Driver,
    inst: &Instance,
    coloring: &PartialColoring,
    ledger: &RoundLedger,
) -> Result<(), Failure> {
    let g = &inst.graph;
    match driver {
        Driver::DeltaPlusOne => check_k_coloring(g, coloring, g.max_degree() + 1),
        _ => check_delta_coloring(g, coloring),
    }
    .map_err(|e| Failure::Invalid(e.to_string()))?;
    if driver == Driver::CongestRandLarge {
        let budget = congest_budget(g.n() as u64);
        if ledger.congest_violations() != 0 {
            return Err(Failure::Budget(format!(
                "{} CONGEST violations at a {budget}-bit budget",
                ledger.congest_violations()
            )));
        }
        if ledger.max_edge_bits() > budget {
            return Err(Failure::Budget(format!(
                "an edge carried {} bits in one round, over the {budget}-bit budget",
                ledger.max_edge_bits()
            )));
        }
    }
    Ok(())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64 bit.
pub fn fnv(bytes: &[u8]) -> u64 {
    fnv_extend(FNV_OFFSET, bytes)
}

fn fnv_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// SplitMix64 stream: independent-looking seeds from one seed.
struct SeedStream(u64);

impl SeedStream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_specs_other_seed_other_graphs() {
        for w in WORKLOADS {
            assert_eq!(w.specs(5), w.specs(5), "{}", w.name);
            assert_ne!(w.specs(5), w.specs(6), "{}", w.name);
            assert_eq!(w.specs(5).len(), w.specs(6).len());
        }
    }

    #[test]
    fn q10_config_seeds_are_fixed() {
        let q10 = |seed| -> Vec<u64> {
            WORKLOADS[0]
                .specs(seed)
                .iter()
                .filter(|s| s.family == Family::Hypercube { dim: 10 })
                .map(|s| s.config_seed)
                .collect()
        };
        assert_eq!(q10(1), vec![0, 1, 2, 3]);
        assert_eq!(q10(1), q10(2));
    }

    #[test]
    fn names_resolve() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }
}
