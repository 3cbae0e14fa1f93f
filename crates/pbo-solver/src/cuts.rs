//! Cost-bound cuts (sec. 5 of the paper).
//!
//! * eq. 10, the knapsack cut: once a solution of cost `upper` is known,
//!   every better solution satisfies `sum c_j l_j <= upper - 1`.
//! * eqs. 11–13, the cardinality cost cuts: a cardinality constraint
//!   `sum_{j in K} l_j >= U` forces at least the `U` cheapest costs of
//!   `K` to be paid (`V`), so the objective terms *outside* `K` must fit
//!   in `upper - 1 - V`.
//!
//! A cut's support and its `V` depend only on the instance; only its
//! degree moves with the incumbent. [`CostCuts`] therefore normalizes
//! every cut once per solve and re-roots by arithmetic on the degree.

use pbo_core::{ConstraintClass, Instance, Lit, PbConstraint, PbTerm};

/// The cost cuts of one instance as normalized templates: cut `i` at
/// incumbent cost `u` is `sum terms_i >= k_i - u`, with coefficients
/// saturated at the degree.
///
/// Normalizing `sum_{j in S} c_j l_j <= u - 1 - V - offset` over the
/// objective's terms (costs `>= 1` on distinct, sorted variables) gives
/// `sum_{j in S} c_j ~l_j >= sum_S c_j + 1 + V + offset - u`, so a
/// template is the complemented objective terms of its support `S` plus
/// the constant `k = sum_S c_j + 1 + V + offset`.
///
/// Templates with equal terms and constant are stored once. Two distinct
/// templates can never produce the same cut: equal term lists mean equal
/// support, so they differ in `k` and hence in degree.
#[derive(Clone, Debug, Default)]
pub struct CostCuts {
    rows: Vec<CutTemplate>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct CutTemplate {
    /// Unsaturated `(c_j, ~l_j)` terms, sorted by variable.
    terms: Vec<PbTerm>,
    /// Degree at incumbent cost `u` is `k - u`.
    k: i128,
}

impl CutTemplate {
    /// The template of `sum_{support} c_j l_j <= u - 1 - v - offset`.
    fn new<'a>(support: impl Iterator<Item = &'a (i64, Lit)>, v: i128, offset: i64) -> Self {
        let terms: Vec<PbTerm> = support.map(|&(c, l)| PbTerm::new(c, !l)).collect();
        let k = terms.iter().map(|t| t.coeff as i128).sum::<i128>() + 1 + v + offset as i128;
        CutTemplate { terms, k }
    }
}

impl CostCuts {
    /// Builds the templates of `instance`: the eq. 10 knapsack cut first,
    /// then (with `cardinality`) one eqs. 11–13 cut per cardinality-class
    /// constraint with a positive `V` and a non-empty outside support, in
    /// constraint order. An instance without objective has no cuts.
    pub fn new(instance: &Instance, cardinality: bool) -> CostCuts {
        let mut cuts = CostCuts::default();
        let Some(obj) = instance.objective() else {
            return cuts;
        };
        let offset = obj.offset();
        cuts.rows.push(CutTemplate::new(obj.terms().iter(), 0, offset));
        if !cardinality {
            return cuts;
        }
        let mut costs: Vec<i64> = Vec::new();
        for c in instance.constraints() {
            if c.class() == ConstraintClass::General || c.is_empty() {
                continue;
            }
            // Cardinality form: at least U of the literals in K are true.
            let u = c.min_true_literals();
            if u <= 0 || u > c.len() as i64 {
                continue;
            }
            // V = sum of the U smallest costs of literals in K (eq. 12).
            costs.clear();
            costs.extend(c.terms().iter().map(|t| obj.cost_of_lit(t.lit)));
            costs.sort_unstable();
            let v: i128 = costs.iter().take(u as usize).map(|&x| x as i128).sum();
            if v <= 0 {
                continue; // dominated by the knapsack cut
            }
            // Objective terms outside K (eq. 13): both lists are sorted
            // by variable, so one merge walk finds them.
            let mut k_vars = c.terms().iter().map(|t| t.lit.var()).peekable();
            let outside = obj.terms().iter().filter(|(_, l)| {
                while k_vars.next_if(|&kv| kv < l.var()).is_some() {}
                k_vars.peek() != Some(&l.var())
            });
            let row = CutTemplate::new(outside, v, offset);
            if !row.terms.is_empty() && !cuts.rows.contains(&row) {
                cuts.rows.push(row);
            }
        }
        cuts
    }

    /// The cuts for an incumbent of cost `upper`, in template order. A
    /// row whose degree is not positive is trivially true and skipped; so
    /// is a row whose degree or saturated coefficient sum leaves the
    /// engine's safe arithmetic range (see [`pbo_core::MAX_COEFF_SUM`]).
    /// An unsatisfiable cut (no cheaper solution within its support) is
    /// returned as such; the engine reports it as a root conflict.
    pub fn at(&self, upper: i64) -> Vec<PbConstraint> {
        let mut cuts = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let Ok(degree) = i64::try_from(row.k - upper as i128) else {
                continue;
            };
            if degree > 0 {
                cuts.extend(PbConstraint::try_from_sorted(&row.terms, degree).ok());
            }
        }
        cuts
    }
}

/// The full cost-cut set for an incumbent of cost `upper`: the eq. 10
/// knapsack cut followed by the distinct eqs. 11–13 cardinality cost
/// cuts. One-shot form of [`CostCuts::at`]; a solver that re-roots
/// repeatedly keeps the [`CostCuts`] instead.
pub fn cost_cuts(instance: &Instance, upper: i64) -> Vec<PbConstraint> {
    CostCuts::new(instance, true).at(upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_core::{brute_force, InstanceBuilder, RelOp};

    /// Frozen copy of the per-incumbent cut builder that [`CostCuts`]
    /// replaced: it re-derived and re-normalized every cut from the
    /// instance on each call. The differential test pins the templates
    /// to it, row for row.
    mod legacy {
        use pbo_core::{normalize, Instance, PbConstraint, RelOp};

        pub fn knapsack_cut(instance: &Instance, upper: i64) -> Option<PbConstraint> {
            let obj = instance.objective()?;
            let rhs = upper - 1 - obj.offset();
            let terms: Vec<(i64, pbo_core::Lit)> = obj.terms().to_vec();
            let mut cs = normalize(&terms, RelOp::Le, rhs).ok()?;
            debug_assert!(cs.len() <= 1);
            cs.pop()
        }

        pub fn cost_cuts(instance: &Instance, upper: i64) -> Vec<PbConstraint> {
            let mut cuts = Vec::new();
            cuts.extend(knapsack_cut(instance, upper));
            for cut in cardinality_cost_cuts(instance, upper) {
                if !cuts.contains(&cut) {
                    cuts.push(cut);
                }
            }
            cuts
        }

        fn cardinality_cost_cuts(instance: &Instance, upper: i64) -> Vec<PbConstraint> {
            let Some(obj) = instance.objective() else {
                return Vec::new();
            };
            let mut cuts: Vec<PbConstraint> = Vec::new();
            for c in instance.constraints() {
                let class = c.class();
                if class == pbo_core::ConstraintClass::General || c.is_empty() {
                    continue;
                }
                let u = c.min_true_literals();
                if u <= 0 || u > c.len() as i64 {
                    continue;
                }
                let mut costs: Vec<i64> =
                    c.terms().iter().map(|t| obj.cost_of_lit(t.lit)).collect();
                costs.sort_unstable();
                let v: i64 = costs.iter().take(u as usize).sum();
                if v <= 0 {
                    continue;
                }
                let k_vars: std::collections::HashSet<usize> =
                    c.terms().iter().map(|t| t.lit.var().index()).collect();
                let outside: Vec<(i64, pbo_core::Lit)> = obj
                    .terms()
                    .iter()
                    .copied()
                    .filter(|(_, l)| !k_vars.contains(&l.var().index()))
                    .collect();
                if outside.is_empty() {
                    continue;
                }
                let rhs = upper - 1 - v - obj.offset();
                if let Ok(cs) = normalize(&outside, RelOp::Le, rhs) {
                    for cut in cs {
                        if !cuts.contains(&cut) {
                            cuts.push(cut);
                        }
                    }
                }
            }
            cuts
        }
    }

    /// Sweeps the incumbent cost from the trivial bound (every solution
    /// is cheaper) down to below every achievable cost — a grid plus each
    /// template's degree breakpoints and the `extra` costs — and checks
    /// both cut modes against the legacy builder. Returns how many
    /// (cost, row) pairs had a positive degree but no cut, i.e. were
    /// skipped on normalization overflow.
    fn assert_matches_legacy(inst: &Instance, extra: &[i64], label: &str) -> usize {
        let Some(obj) = inst.objective() else { return 0 };
        let all = CostCuts::new(inst, true);
        let knapsack = CostCuts::new(inst, false);
        assert_eq!(knapsack.rows.len(), 1, "{label}: knapsack-only mode");
        let (low, high) = (obj.min_value() - 1, obj.max_value() + 1);
        let mut us: Vec<i64> = extra.to_vec();
        for i in 0..=48i128 {
            us.push((low as i128 + (high as i128 - low as i128) * i / 48) as i64);
        }
        for row in &all.rows {
            for d in -1..=2i128 {
                us.extend(i64::try_from(row.k - d).ok());
            }
        }
        us.retain(|u| (low..=high).contains(u));
        us.sort_unstable();
        us.dedup();
        let mut skipped = 0;
        for &u in us.iter().rev() {
            let cuts = all.at(u);
            assert_eq!(cuts, legacy::cost_cuts(inst, u), "{label}: cut list at u = {u}");
            let kc: Vec<PbConstraint> = legacy::knapsack_cut(inst, u).into_iter().collect();
            assert_eq!(knapsack.at(u), kc, "{label}: knapsack cut at u = {u}");
            skipped += all.rows.iter().filter(|r| r.k - u as i128 > 0).count() - cuts.len();
        }
        skipped
    }

    /// ROADMAP item 1's scale generator: 12 variables, 10 `>=` rows of
    /// 2–4 terms with coefficients `k·S + u`, right-hand side half the
    /// coefficient sum, costs `S·k + u`.
    fn scaled_instance(scale: i64, seed: u64) -> Instance {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(12);
        for _ in 0..10 {
            let len = rng.gen_range(2..=4);
            let mut idxs: Vec<usize> = (0..12).collect();
            for i in 0..len {
                let j = rng.gen_range(i..12);
                idxs.swap(i, j);
            }
            let terms: Vec<(i64, Lit)> = idxs[..len]
                .iter()
                .map(|&i| {
                    let coeff = rng.gen_range(1..=3i64) * scale + rng.gen_range(0..=2i64);
                    (coeff, v[i].lit(rng.gen_bool(0.7)))
                })
                .collect();
            let rhs = terms.iter().map(|&(c, _)| c).sum::<i64>() / 2;
            b.add_linear(terms, RelOp::Ge, rhs);
        }
        b.minimize(
            v.iter()
                .map(|x| (scale * rng.gen_range(1..=3i64) + rng.gen_range(0..=6i64), x.positive())),
        );
        b.build().unwrap()
    }

    /// 3–7 variables, 1–4 random at-least rows, costs 0–4: small enough
    /// that rows often repeat their outside support and `V`.
    fn small_cardinality_instance(rng: &mut rand_chacha::ChaCha8Rng) -> Instance {
        use rand::Rng;
        let n = rng.gen_range(3..8);
        let mut b = InstanceBuilder::new();
        let vars = b.new_vars(n);
        for _ in 0..rng.gen_range(1..5) {
            let k = rng.gen_range(2..=n);
            let mut idxs: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n);
                idxs.swap(i, j);
            }
            b.add_at_least(
                rng.gen_range(1..=k as i64),
                idxs[..k].iter().map(|&i| vars[i].positive()),
            );
        }
        b.minimize(vars.iter().map(|v| (rng.gen_range(0..5), v.positive())));
        b.build().unwrap()
    }

    #[test]
    fn templates_match_legacy_cut_builder() {
        use pbo_benchgen::{GroutParams, PtlCmosParams, SynthesisParams};
        for seed in 0..3 {
            let families = [
                ("synthesis", SynthesisParams::default().generate(seed)),
                ("ptlcmos", PtlCmosParams::default().generate(seed)),
                ("grout", GroutParams::default().generate(seed)),
            ];
            for (name, inst) in families {
                let all = CostCuts::new(&inst, true);
                if name != "grout" {
                    assert!(all.rows.len() > 1, "{name}-{seed}: no cardinality cut to compare");
                }
                assert_matches_legacy(&inst, &[], &format!("{name}-{seed}"));
            }
        }
        // Small instances, where same-support rows (the deduplicated
        // case) are common.
        let mut rng = rand::SeedableRng::seed_from_u64(0xd1ff);
        for round in 0..200 {
            let inst = small_cardinality_instance(&mut rng);
            assert_matches_legacy(&inst, &[], &format!("small {round}"));
        }
        for scale in [1, 1_000_000, 1_000_000_000_000] {
            for seed in 0..40 {
                let inst = scaled_instance(scale, seed);
                let opt = brute_force(&inst).cost();
                let extra: Vec<i64> = opt.map_or(vec![], |o| vec![o - 1, o, o + 1]);
                assert_matches_legacy(&inst, &extra, &format!("S={scale} seed {seed}"));
            }
        }
    }

    #[test]
    fn templates_match_legacy_on_normalization_overflow() {
        // Five costs of 6e17 sum to 3e18 > MAX_COEFF_SUM: the knapsack cut
        // is skipped until saturation brings its sum back in range, while
        // the three-term cardinality cut (sum 1.8e18) always fits.
        let big = 600_000_000_000_000_000i64;
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(5);
        b.add_at_least(1, [v[0].positive(), v[1].positive()]);
        b.minimize(v.iter().map(|x| (big, x.positive())));
        let inst = b.build().unwrap();
        assert!(legacy::knapsack_cut(&inst, big).is_none(), "overflow path not reached");
        let skipped = assert_matches_legacy(&inst, &[big, big + 1, 2 * big], "overflow");
        assert!(skipped > 0, "sweep never hit a skipped row");
    }

    #[test]
    fn knapsack_cut_excludes_equal_cost_solutions() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(2);
        b.add_clause([v[0].positive(), v[1].positive()]);
        b.minimize([(2, v[0].positive()), (3, v[1].positive())]);
        let inst = b.build().unwrap();
        let cuts = CostCuts::new(&inst, false).at(3);
        let [cut] = cuts.as_slice() else { panic!("one cut expected, got {cuts:?}") };
        // Solutions of cost >= 3 must violate the cut; cost <= 2 satisfy.
        assert!(cut.is_satisfied_by(&[true, false])); // cost 2
        assert!(!cut.is_satisfied_by(&[false, true])); // cost 3
        assert!(!cut.is_satisfied_by(&[true, true])); // cost 5
        assert!(cut.is_satisfied_by(&[false, false])); // cost 0
    }

    #[test]
    fn knapsack_cut_none_when_trivial() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(1);
        b.add_clause([v[0].positive(), v[0].negative()]);
        b.minimize([(1, v[0].positive())]);
        let inst = b.build().unwrap();
        // upper = 3: every assignment costs at most 1 < 3, cut trivial.
        assert!(CostCuts::new(&inst, true).at(3).is_empty());
    }

    #[test]
    fn knapsack_cut_unsatisfiable_when_no_better_possible() {
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(1);
        b.add_clause([v[0].positive()]);
        b.minimize([(1, v[0].positive())]);
        let inst = b.build().unwrap();
        // upper = 0: need cost <= -1, impossible since costs >= 0.
        let cuts = CostCuts::new(&inst, false).at(0);
        assert_eq!(cuts.len(), 1, "constraint present");
        assert!(cuts[0].is_unsatisfiable());
    }

    #[test]
    fn cardinality_cut_restricts_outside_costs() {
        // K = {x1, x2, x3} with at least 2 true; costs 2, 3, 4; outside
        // cost 5 on x4. V = 2 + 3 = 5. With upper = 9: outside terms must
        // fit 9 - 1 - 5 = 3 -> 5*x4 <= 3 -> x4 forced false.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(4);
        b.add_at_least(2, [v[0].positive(), v[1].positive(), v[2].positive()]);
        b.minimize([
            (2, v[0].positive()),
            (3, v[1].positive()),
            (4, v[2].positive()),
            (5, v[3].positive()),
        ]);
        let inst = b.build().unwrap();
        let cuts = cost_cuts(&inst, 9);
        assert_eq!(cuts.len(), 2, "knapsack + one cardinality cut");
        assert!(!cuts[1].is_satisfied_by(&[true, true, false, true]), "x4 = 1 excluded");
        assert!(cuts[1].is_satisfied_by(&[true, true, false, false]));
    }

    #[test]
    fn duplicate_cardinality_rows_yield_one_cut() {
        // The same cardinality constraint twice used to produce the same
        // cut twice, doubling the engine's row count after every re-root.
        let mut b = InstanceBuilder::new();
        let v = b.new_vars(4);
        b.add_at_least(2, [v[0].positive(), v[1].positive(), v[2].positive()]);
        b.add_at_least(2, [v[0].positive(), v[1].positive(), v[2].positive()]);
        b.minimize([
            (2, v[0].positive()),
            (3, v[1].positive()),
            (4, v[2].positive()),
            (5, v[3].positive()),
        ]);
        let inst = b.build().unwrap();
        assert_eq!(CostCuts::new(&inst, true).rows.len(), 2, "duplicate template stored once");
        let all = cost_cuts(&inst, 9);
        assert_eq!(all.len(), 2, "knapsack + one cardinality cut");
        assert!(all.iter().all(|c| all.iter().filter(|d| *d == c).count() == 1));
    }

    #[test]
    fn cuts_preserve_better_solutions_randomized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xc075);
        for round in 0..40 {
            let inst = small_cardinality_instance(&mut rng);
            let n = inst.num_vars();
            let Some(opt) = brute_force(&inst).cost() else { continue };
            let upper = opt + rng.gen_range(1i64..4); // pretend incumbent is worse
            let cuts = cost_cuts(&inst, upper);
            // Every strictly-better-than-upper feasible assignment must
            // satisfy every cut.
            for mask in 0u64..(1 << n) {
                let vals: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
                if inst.is_feasible(&vals) && inst.cost_of(&vals) < upper {
                    for (ci, cut) in cuts.iter().enumerate() {
                        assert!(
                            cut.is_satisfied_by(&vals),
                            "round {round}: cut {ci} removes solution of cost {} < {upper}",
                            inst.cost_of(&vals)
                        );
                    }
                }
            }
        }
    }
}
