//! The three workloads: which generator makes each instance, and the
//! solver configuration that proves it. README.md says why each exists.

use std::time::Duration;

use pbo_benchgen::{AccSchedParams, PtlCmosParams, SynthesisParams};
use pbo_core::Instance;
use pbo_solver::{BsoloOptions, Budget, LbMethod, MilpSolver};

/// Safety net only: every solve is expected to reach proof well before
/// this, and one that hits it counts as failed.
pub const SAFETY_BUDGET: Duration = Duration::from_secs(20);

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    SynthLpr,
    PtlcmosAdaptive,
    AccSat,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::SynthLpr, Workload::PtlcmosAdaptive, Workload::AccSat];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SynthLpr => "synth-lpr",
            Workload::PtlcmosAdaptive => "ptlcmos-adaptive",
            Workload::AccSat => "acc-sat",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Instances per run. Per-instance solve times spread widely (a
    /// coefficient of variation of 0.35 to 0.55), so a run needs many
    /// instances for its sums and percentiles to move little from seed to
    /// seed. Each count fills about two passes of a 36 s run.
    pub fn instances(self) -> u64 {
        match self {
            Workload::SynthLpr => 480,
            Workload::PtlcmosAdaptive | Workload::AccSat => 180,
        }
    }

    /// Generator seed of instance `index` under workload seed `seed`:
    /// distinct seeds give disjoint instance sets.
    pub fn instance_seed(seed: u64, index: u64) -> u64 {
        seed.wrapping_mul(1000).wrapping_add(index)
    }

    /// Sizes are below Table 1's so that a run repeats every instance
    /// several times (README.md, "Why these sizes").
    pub fn generate(self, instance_seed: u64) -> Instance {
        match self {
            Workload::SynthLpr => SynthesisParams {
                primes: 40,
                minterms: 64,
                cover_density: 4.0,
                exclusions: 10,
                ..SynthesisParams::default()
            }
            .generate(instance_seed),
            Workload::PtlcmosAdaptive => {
                PtlCmosParams { gates: 34, fanin: 2.2, ..PtlCmosParams::default() }
                    .generate(instance_seed)
            }
            Workload::AccSat => {
                AccSchedParams { teams: 12, home_away: true }.generate(instance_seed)
            }
        }
    }

    /// The timed configuration. Every one is a pure function of the
    /// instance: no racing threads and no wall-clock-driven policy.
    pub fn options(self) -> BsoloOptions {
        let options = match self {
            Workload::SynthLpr => BsoloOptions::with_lb(LbMethod::Lpr),
            Workload::PtlcmosAdaptive => BsoloOptions {
                deterministic_join: true,
                ..BsoloOptions::with_lb(LbMethod::Adaptive)
            },
            Workload::AccSat => BsoloOptions::default(),
        };
        options.budget(Budget::time_limit(SAFETY_BUDGET))
    }

    /// The independent reference for the optimum: the MILP stand-in, LP
    /// branch-and-bound with no SAT engine, bound pipeline or cost cuts.
    /// It proves these families in milliseconds (bsolo-MIS, the other
    /// bound-free choice, ran out of budget on `ptlcmos` instances).
    pub fn reference_solver() -> MilpSolver {
        MilpSolver::new(Budget::time_limit(SAFETY_BUDGET))
    }
}
