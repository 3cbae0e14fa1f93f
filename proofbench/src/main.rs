//! Run-to-proof benchmark. One run generates a workload's instances from
//! a seed, loads them through OPB text, solves every one to a proven,
//! verified optimum on one thread, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced pass (`--trace 1`)
//! as a JSON object on the last line of standard output.
//!
//! ```sh
//! cargo run --release --offline --manifest-path proofbench/Cargo.toml -- \
//!     --workload synth-lpr --seed 1 --seconds 36 --trace 0
//! ```

mod alloc;
mod host;
mod layers;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pbo_core::{parse_opb, verify_solution, write_opb, Instance};
use pbo_solver::{Bsolo, BsoloOptions, SolveResult, SolveStatus};

use host::Host;
use stats::{median, quantile, shifted_geomean};
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-up is short and its single-shot time moves with the host, so it
/// repeats at least `SETUP_REPEATS` times and for at least `SETUP_SECONDS`
/// of set-up work, and reports the median.
const SETUP_REPEATS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;
/// Every instance is solved at least this often, so each run compares at
/// least one repeat against the first solve's fingerprint.
const MIN_PASSES: usize = 2;
/// Shift of `solve_ms.sgm`, in ms: damps the weight of trivial solves.
const SGM_SHIFT_MS: f64 = 10.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
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
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required: {}", names.join("|")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace 0|1 is required")?,
    })
}

/// The instances as the solver receives them, plus the set-up timings.
pub struct Setup {
    pub instances: Vec<Instance>,
    /// Median wall time of one full set-up (generate, write, parse), in
    /// reference-host seconds (see `host`).
    pub setup_s: f64,
    /// Median over set-ups of the summed `parse_opb` time.
    pub parse_ms: f64,
    pub opb_bytes: usize,
}

fn setup(workload: Workload, seed: u64, host: &mut Host) -> Result<Setup, String> {
    let (mut walls, mut parses) = (Vec::new(), Vec::new());
    let mut instances = Vec::new();
    let mut opb_bytes = 0;
    let mark = host.mark();
    while walls.len() < SETUP_REPEATS || walls.iter().sum::<f64>() < SETUP_SECONDS {
        let (mut wall, mut parse) = (Duration::ZERO, Duration::ZERO);
        let mut loaded = Vec::with_capacity(workload.instances() as usize);
        opb_bytes = 0;
        for index in 0..workload.instances() {
            let start = Instant::now();
            let (parsed, bytes, parse_i) = {
                let generated = workload.generate(Workload::instance_seed(seed, index));
                let text = write_opb(&generated);
                let t = Instant::now();
                let parsed = parse_opb(black_box(&text))
                    .map_err(|e| format!("instance {index}: written OPB does not parse: {e}"))?;
                (parsed, text.len(), t.elapsed())
            };
            let work = start.elapsed();
            host.after_work(work.as_secs_f64());
            wall += work;
            parse += parse_i;
            opb_bytes += bytes;
            loaded.push(parsed);
        }
        walls.push(wall.as_secs_f64());
        parses.push(parse.as_secs_f64() * 1e3);
        instances = loaded;
    }
    let setup_s = median(&walls) / host.slowdown_since(mark);
    Ok(Setup { instances, setup_s, parse_ms: median(&parses), opb_bytes })
}

/// What the timed configuration must reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Reference {
    /// The optimum of the reference configuration.
    Cost(i64),
    Infeasible,
    /// No objective: a verified model certifies the answer by itself.
    Satisfiable,
}

fn reference(instance: &Instance) -> Result<Reference, String> {
    if !instance.is_optimization() {
        return Ok(Reference::Satisfiable);
    }
    let r = Workload::reference_solver().solve(instance);
    match (r.status, r.best_cost) {
        (SolveStatus::Optimal, Some(cost)) => Ok(Reference::Cost(cost)),
        (SolveStatus::Infeasible, _) => Ok(Reference::Infeasible),
        (status, _) => Err(format!("reference solve ended {status}")),
    }
}

/// Checks one timed solve against the instance and its reference.
fn check(instance: &Instance, result: &SolveResult, reference: &Reference) -> Result<(), String> {
    match result.status {
        SolveStatus::Optimal => {
            let model = result.best_assignment.as_ref().ok_or("optimal without a model")?;
            let cost = verify_solution(instance, model).map_err(|e| format!("model: {e}"))?;
            match reference {
                Reference::Satisfiable => Ok(()),
                _ if result.best_cost != Some(cost) => {
                    Err(format!("reported cost {:?}, model costs {cost}", result.best_cost))
                }
                Reference::Cost(expected) if *expected == cost => Ok(()),
                other => Err(format!("cost {cost}, reference {other:?}")),
            }
        }
        SolveStatus::Infeasible if *reference == Reference::Infeasible => Ok(()),
        SolveStatus::Infeasible if *reference == Reference::Satisfiable => {
            // The reference of a satisfaction instance is only computed
            // when the timed solve claims infeasibility.
            let r = Workload::reference_solver().solve(instance);
            match r.status {
                SolveStatus::Infeasible => Ok(()),
                status => Err(format!("infeasible, reference {status}")),
            }
        }
        status => Err(format!("ended {status}, reference {reference:?}")),
    }
}

/// The search counters that identify a solve's path. A deterministic
/// configuration repeats them exactly; a difference means the search
/// depends on the clock or on tracing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    status: SolveStatus,
    cost: Option<i64>,
    decisions: u64,
    conflicts: u64,
    lb_calls: u64,
    lp_iterations: u64,
    lb_escalations: u64,
    solutions_found: u64,
}

impl Fingerprint {
    fn of(r: &SolveResult) -> Fingerprint {
        let s = &r.stats;
        Fingerprint {
            status: r.status,
            cost: r.best_cost,
            decisions: s.decisions,
            conflicts: s.conflicts,
            lb_calls: s.lb_calls,
            lp_iterations: s.lp_iterations,
            lb_escalations: s.lb_escalations,
            solutions_found: s.solutions_found,
        }
    }
}

/// One timed solve, in the host's seconds as measured.
#[derive(Clone, Copy)]
pub struct Sample {
    pub wall_s: f64,
    pub ttb_s: f64,
    /// Process CPU seconds (all threads) spent in the solve.
    pub cpu_s: f64,
    pub heap_bytes: usize,
}

/// Solving state shared by every pass of a run.
struct Runner<'a> {
    workload: Workload,
    seed: u64,
    setup: &'a Setup,
    references: Vec<Reference>,
    fingerprints: Vec<Fingerprint>,
    host: Host,
    attempted: u64,
    failed: u64,
    unsteady: Option<String>,
}

impl Runner<'_> {
    /// Solves instance `index` once, checks it and returns the sample.
    fn solve(
        &mut self,
        index: usize,
        options: &BsoloOptions,
        pass: usize,
    ) -> Result<(Sample, SolveResult), String> {
        let instance = &self.setup.instances[index];
        let solver = Bsolo::new(options.clone());
        let cpu0 = stats::process_cpu_s()?;
        let base = alloc::reset_peak();
        let start = Instant::now();
        let result = solver.solve(black_box(instance));
        let wall_s = start.elapsed().as_secs_f64();
        let heap_bytes = alloc::peak_since(base);
        let cpu_s = stats::process_cpu_s()? - cpu0;
        self.host.after_work(wall_s);
        self.attempted += 1;
        let instance_seed = Workload::instance_seed(self.seed, index as u64);
        if let Err(e) = check(instance, &result, &self.references[index]) {
            self.failed += 1;
            eprintln!(
                "FAILED {} instance {index} (seed {instance_seed}): {e}",
                self.workload.name()
            );
        }
        let fp = Fingerprint::of(&result);
        if self.fingerprints.len() == index {
            self.fingerprints.push(fp);
        } else if self.unsteady.is_none() && self.fingerprints[index] != fp {
            self.unsteady = Some(format!(
                "UNSTEADY {} instance {index} (seed {instance_seed}) pass {pass}: {:?} then {fp:?}",
                self.workload.name(),
                self.fingerprints[index]
            ));
        }
        let ttb_s = result.stats.time_to_best.as_secs_f64();
        Ok((Sample { wall_s, ttb_s, cpu_s, heap_bytes }, result))
    }

    /// One round-robin pass over all instances, and each solve's result.
    fn pass(
        &mut self,
        options: &BsoloOptions,
        pass: usize,
    ) -> Result<(Pass, Vec<SolveResult>), String> {
        let mark = self.host.mark();
        let (samples, results) = (0..self.setup.instances.len())
            .map(|i| self.solve(i, options, pass))
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();
        Ok((Pass { samples, slowdown: self.host.slowdown_since(mark) }, results))
    }

    /// Untraced passes while the next one fits in `budget`, and at least
    /// `min_passes`.
    fn timed_passes(&mut self, budget: Duration, min_passes: usize) -> Result<Vec<Pass>, String> {
        let options = self.workload.options();
        let start = Instant::now();
        let mut passes = Vec::new();
        loop {
            passes.push(self.pass(&options, passes.len())?.0);
            let per_pass = start.elapsed() / passes.len() as u32;
            if passes.len() >= min_passes && start.elapsed() + per_pass > budget {
                return Ok(passes);
            }
        }
    }
}

/// One round-robin pass: a sample per instance, in instance order, and
/// how much slower than its reference speed the host ran meanwhile.
pub struct Pass {
    samples: Vec<Sample>,
    slowdown: f64,
}

impl Pass {
    /// `field` summed over the pass, in reference-host seconds.
    pub fn total_s(&self, field: impl Fn(&Sample) -> f64) -> f64 {
        self.samples.iter().map(field).sum::<f64>() / self.slowdown
    }
}

/// Per-instance estimate in reference-host units: the median over the
/// instance's repeats of `field` divided by its pass's slowdown.
fn per_instance(passes: &[Pass], field: impl Fn(&Sample) -> f64) -> Vec<f64> {
    (0..passes[0].samples.len())
        .map(|i| {
            median(&passes.iter().map(|p| field(&p.samples[i]) / p.slowdown).collect::<Vec<_>>())
        })
        .collect()
}

pub type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics. Timings are in reference-host seconds (see
/// `host`), and take each instance's median repeat: unlike the fastest
/// repeat, its expectation does not depend on how many passes fit.
fn end_to_end(setup: &Setup, passes: &[Pass], runner: &Runner) -> Vec<Metric> {
    let solve_ms = per_instance(passes, |s| s.wall_s * 1e3);
    let ttb_s: f64 = per_instance(passes, |s| s.ttb_s).iter().sum();
    let cpu_s: Vec<f64> = passes.iter().map(|p| p.total_s(|s| s.cpu_s)).collect();
    let heap: Vec<f64> =
        passes.iter().flat_map(|p| &p.samples).map(|s| s.heap_bytes as f64 / 1e6).collect();
    vec![
        ("setup_s", setup.setup_s, "s"),
        ("solve_s", solve_ms.iter().sum::<f64>() / 1e3, "s"),
        ("solve_ms.sgm", shifted_geomean(&solve_ms, SGM_SHIFT_MS), "ms"),
        ("solve_ms.p50", median(&solve_ms), "ms"),
        ("solve_ms.p75", quantile(&solve_ms, 0.75), "ms"),
        ("ttb_s", ttb_s, "s"),
        ("cpu_s", median(&cpu_s), "s"),
        ("solve_heap_mb", heap.iter().sum::<f64>() / heap.len() as f64, "MB"),
        ("solved_frac", 1.0 - runner.failed as f64 / runner.attempted as f64, "ratio"),
    ]
}

fn run(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let w = args.workload;
    let mut host = Host::default();
    let setup = setup(w, args.seed, &mut host)?;
    let references = setup.instances.iter().map(reference).collect::<Result<Vec<_>, _>>()?;
    let mut runner = Runner {
        workload: w,
        seed: args.seed,
        setup: &setup,
        references,
        fingerprints: Vec::new(),
        host,
        attempted: 0,
        failed: 0,
        unsteady: None,
    };
    let budget = Duration::from_secs(args.seconds);
    let metrics = if args.trace {
        // Untraced passes for half the budget, then one traced pass that
        // must retrace the same search.
        let passes = runner.timed_passes(budget / 2, 1)?;
        let untraced_s: f64 = per_instance(&passes, |s| s.wall_s).iter().sum();
        let options = BsoloOptions { trace: true, ..w.options() };
        let (traced, results) = runner.pass(&options, passes.len())?;
        let slowdown = passes.iter().map(|p| p.slowdown).sum::<f64>() / passes.len() as f64;
        layers::per_layer(w, &setup, untraced_s, &traced, &results, slowdown)
    } else {
        let passes = runner.timed_passes(budget, MIN_PASSES)?;
        let slowdowns: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.slowdown)).collect();
        let measured_s: Vec<f64> =
            passes.iter().map(|p| p.samples.iter().map(|s| s.wall_s).sum()).collect();
        eprintln!(
            "{}: {} instances x {} passes; percentiles over the {} per-instance median times; \
             host slowdown per pass {}; solve_s as measured {:.3}",
            w.name(),
            setup.instances.len(),
            passes.len(),
            setup.instances.len(),
            slowdowns.join(" "),
            median(&measured_s),
        );
        end_to_end(&setup, &passes, &runner)
    };
    if let Some((name, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is {value}"));
    }
    if let Some(msg) = &runner.unsteady {
        eprintln!("{msg}");
    }
    Ok((runner.unsteady.is_none(), runner.attempted, runner.failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("proofbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (steady, attempted, failed, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("proofbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        steady && failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    println!("{out}");
    ExitCode::SUCCESS
}
