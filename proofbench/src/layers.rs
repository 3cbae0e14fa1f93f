//! Per-layer metrics of the traced pass. They come from the solver's own
//! `SolverStats` and `pbo-trace` events, plus layer calls this file
//! times itself outside any solve (parse, simplify, probe, root LP,
//! cost-cut replay). See README.md for which end-to-end metric each
//! should move, and on which workload.

use std::hint::black_box;
use std::time::Instant;

use pbo_bounds::LprBound;
use pbo_core::Instance;
use pbo_engine::Engine;
use pbo_lp::{DualSimplex, LpStatus};
use pbo_solver::{cost_cuts, probe, simplify, SolveResult, SolverStats, LB_METHOD_NAMES};
use pbo_trace::TraceEvent;

use crate::stats::{quantile, ratio};
use crate::workload::Workload;
use crate::{Metric, Pass, Setup};

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn bucket(name: &str) -> usize {
    LB_METHOD_NAMES.iter().position(|m| *m == name).expect("known bound method")
}

/// Root LP of `instance`: (wall ms, pivots, bound rounded up). The bound
/// adds back the constant the LP form drops: the objective offset and
/// the cost of every negative-literal term (`c * ~x = c - c * x`).
fn root_lp(instance: &Instance) -> (f64, u64, Option<i64>) {
    let t = Instant::now();
    let problem = LprBound::relaxation_problem(instance);
    let solution = DualSimplex::new(&problem).solve();
    let wall = ms(t);
    let obj = instance.objective().expect("root LP only for optimization instances");
    let shift = obj.offset()
        + obj.terms().iter().filter(|(_, l)| !l.is_positive()).map(|(c, _)| c).sum::<i64>();
    let bound = (solution.status == LpStatus::Optimal)
        .then(|| (solution.objective + shift as f64 - 1e-6).ceil() as i64);
    (wall, solution.iterations, bound)
}

/// `untraced_s` is the untraced passes' solve time and `traced` the traced
/// pass, both in reference-host seconds; `slowdown` is the host's mean
/// slowdown over the untraced passes. The other timings are as measured.
pub fn per_layer(
    workload: Workload,
    setup: &Setup,
    untraced_s: f64,
    traced: &Pass,
    results: &[SolveResult],
    slowdown: f64,
) -> Vec<Metric> {
    let options = workload.options();
    let n = setup.instances.len() as f64;
    let mut total = SolverStats::default();
    let (mut simplify_ms, mut probe_ms, mut search_ms) = (0.0, 0.0, 0.0);
    let (mut root_ms, mut root_pivots, mut root_gap) = (0.0, 0u64, 0.0);
    let (mut cuts_ms, mut cut_rows, mut first_incumbent_ms) = (0.0, 0u64, 0.0);
    let (mut lgr_us, mut lpr_us) = (Vec::new(), Vec::new());
    let mut events = 0u64;
    for (instance, result) in setup.instances.iter().zip(results) {
        let s = &result.stats;
        events += s.trace.len() as u64;
        total.absorb(s);
        total.trace.clear();

        // The solver searches the simplified instance, so the replayed
        // layers run on it too.
        let t = Instant::now();
        let simplified =
            if options.simplify { simplify(black_box(instance)) } else { instance.clone() };
        let simplify_i = ms(t);
        let t = Instant::now();
        let mut engine = Engine::new(simplified.num_vars());
        let loaded = simplified.constraints().iter().all(|c| engine.add_constraint(c).is_ok());
        if loaded && options.probing {
            black_box(probe(&simplified, &mut engine));
        }
        let probe_i = ms(t);
        simplify_ms += simplify_i;
        probe_ms += probe_i;
        search_ms += (s.solve_time - s.lb_time_total - s.sub_time_total).as_secs_f64() * 1e3
            - simplify_i
            - probe_i;

        if simplified.is_optimization() {
            let (wall, pivots, bound) = root_lp(&simplified);
            root_ms += wall;
            root_pivots += pivots;
            if let (Some(opt), Some(lp)) = (result.best_cost, bound) {
                root_gap += ratio((opt - lp) as f64, opt.abs().max(1) as f64) / n;
            }
        }

        let mut first = None;
        for e in &s.trace {
            match &e.data {
                TraceEvent::Bound { method: "lgr", dur_ns, .. } => {
                    lgr_us.push(*dur_ns as f64 / 1e3)
                }
                TraceEvent::Bound { method: "lpr", dur_ns, .. } => {
                    lpr_us.push(*dur_ns as f64 / 1e3)
                }
                TraceEvent::Solution { cost } => {
                    first.get_or_insert(e.t_ns);
                    let t = Instant::now();
                    cut_rows += black_box(cost_cuts(&simplified, *cost)).len() as u64;
                    cuts_ms += ms(t);
                }
                _ => {}
            }
        }
        first_incumbent_ms += first.unwrap_or(0) as f64 / 1e6;
    }

    let (lgr, lpr) = (total.lb_methods[bucket("lgr")], total.lb_methods[bucket("lpr")]);
    let lgr_ms = lgr.time_total.as_secs_f64() * 1e3;
    let lpr_ms = lpr.time_total.as_secs_f64() * 1e3;
    let count = |v: u64| v as f64;
    vec![
        ("core.parse_ms", setup.parse_ms, "ms"),
        ("core.opb_kb", setup.opb_bytes as f64 / 1e3 / n, "KB"),
        ("solver.simplify_ms", simplify_ms, "ms"),
        ("solver.probe_ms", probe_ms, "ms"),
        ("engine.decisions", count(total.decisions), "count"),
        ("engine.conflicts", count(total.conflicts), "count"),
        ("engine.propagations", count(total.propagations), "count"),
        ("engine.restarts", count(total.restarts), "count"),
        ("engine.search_ms", search_ms, "ms"),
        ("bounds.calls.lgr", count(lgr.calls), "count"),
        ("bounds.calls.lpr", count(lpr.calls), "count"),
        ("bounds.ms.lgr", lgr_ms, "ms"),
        ("bounds.ms.lpr", lpr_ms, "ms"),
        ("bounds.prune_ratio.lgr", ratio(count(lgr.prunes), count(lgr.calls)), "ratio"),
        ("bounds.prune_ratio.lpr", ratio(count(lpr.prunes), count(lpr.calls)), "ratio"),
        ("bounds.call_us.p50.lgr", quantile(&lgr_us, 0.5), "us"),
        ("bounds.call_us.p50.lpr", quantile(&lpr_us, 0.5), "us"),
        ("bounds.call_us.p99.lgr", quantile(&lgr_us, 0.99), "us"),
        ("bounds.call_us.p99.lpr", quantile(&lpr_us, 0.99), "us"),
        ("bounds.residual_ms", total.sub_time_total.as_secs_f64() * 1e3, "ms"),
        ("bounds.margin_mean", ratio(count(total.lb_margin_sum), count(total.lb_calls)), "count"),
        ("bounds.escalations", count(total.lb_escalations), "count"),
        ("bounds.escalation_ratio", ratio(count(total.lb_escalations), count(lgr.calls)), "ratio"),
        ("lp.pivots", count(total.lp_iterations), "count"),
        ("lp.us_per_pivot", ratio(lpr_ms * 1e3, count(total.lp_iterations)), "us"),
        ("lp.root_ms", root_ms, "ms"),
        ("lp.root_pivots", count(root_pivots), "count"),
        ("lp.root_gap", root_gap, "ratio"),
        ("solver.incumbents", count(total.solutions_found), "count"),
        ("solver.cost_cuts_ms", cuts_ms, "ms"),
        ("solver.cut_rows", count(cut_rows), "count"),
        ("solver.first_incumbent_ms", first_incumbent_ms, "ms"),
        ("solver.bound_conflicts", count(total.bound_conflicts), "count"),
        ("trace.overhead", ratio(traced.total_s(|s| s.wall_s), untraced_s), "ratio"),
        ("trace.events", count(events), "count"),
        ("host.slowdown", slowdown, "ratio"),
    ]
}
