//! Multi-objective Pareto machinery: vector objectives, a deterministic
//! non-dominated front, and a hypervolume-guided TPE sampler.
//!
//! §4.4's ratio objective collapses accuracy, time and energy into one
//! scalar, so a study can only ever output a single "best" trade-off.
//! This module keeps the three axes apart: every trial can carry an
//! [`ObjectiveVector`], the engine accumulates the mutually
//! non-dominated set in a [`ParetoFront`], and the serving layer can
//! later *select* a feasible frontier point instead of re-tuning from
//! scratch. Search stays tractable the SoftNeuro way — dominated points
//! are pruned from promotion ([`promotion_layers`]) so scheduler rungs
//! advance front members first — and the model-based sampler
//! ([`ParetoTpeSampler`]) is an EHVI-style acquisition layered over the
//! existing TPE density machinery: the "good" kernel set is the Pareto
//! front (trimmed by hypervolume contribution when it outgrows the
//! quantile), so candidates maximising `l(x)/g(x)` are exactly those
//! expected to improve the dominated hypervolume.

use edgetune_util::rng::SeedStream;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::objective::{Metric, TrainMeasurement};
use crate::sampler::{draw_cohort, good_count, ParzenModel, Sampler, MIN_OBSERVATIONS};
use crate::space::{Config, SearchSpace};
use crate::trial::TrialOutcome;

/// One trial's coordinates in objective space.
///
/// Accuracy is maximised; both costs are minimised and are expressed in
/// the study's active [`Metric`] (seconds for `Runtime`, joules for
/// `Energy`). Internally every comparison runs on the *cost view*
/// ([`ObjectiveVector::costs`]), where accuracy is negated so all three
/// axes minimise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveVector {
    /// Model accuracy reached by the trial (higher is better).
    pub accuracy: f64,
    /// Training-side cost in the active metric (lower is better).
    pub train_cost: f64,
    /// Per-item inference cost in the active metric (lower is better).
    pub inference_cost: f64,
}

impl ObjectiveVector {
    /// Creates a vector.
    ///
    /// # Panics
    ///
    /// Panics if any component is NaN (infinities are allowed — they mark
    /// infeasible axes and lose every dominance comparison they should).
    #[must_use]
    pub fn new(accuracy: f64, train_cost: f64, inference_cost: f64) -> Self {
        assert!(
            !accuracy.is_nan() && !train_cost.is_nan() && !inference_cost.is_nan(),
            "objective vector must not contain NaN"
        );
        ObjectiveVector {
            accuracy,
            train_cost,
            inference_cost,
        }
    }

    /// Builds the vector a train measurement induces under `metric`, or
    /// `None` when the inference side never reported (degraded trials
    /// have no place on a frontier).
    #[must_use]
    pub fn from_measurement(m: &TrainMeasurement, metric: Metric) -> Option<Self> {
        let inference_cost = match metric {
            Metric::Runtime => m.inference_time?.value(),
            Metric::Energy => m.inference_energy?.value(),
        };
        let train_cost = match metric {
            Metric::Runtime => m.train_time.value(),
            Metric::Energy => m.train_energy.value(),
        };
        Some(ObjectiveVector::new(m.accuracy, train_cost, inference_cost))
    }

    /// The all-minimising cost view: `[-accuracy, train, inference]`.
    #[must_use]
    pub fn costs(&self) -> [f64; 3] {
        [-self.accuracy, self.train_cost, self.inference_cost]
    }

    /// True when `self` Pareto-dominates `other`: no worse on every axis
    /// and strictly better on at least one. Deterministic — ties on all
    /// axes dominate in neither direction.
    #[must_use]
    pub fn dominates(&self, other: &ObjectiveVector) -> bool {
        let a = self.costs();
        let b = other.costs();
        let mut strictly_better = false;
        for i in 0..3 {
            if a[i] > b[i] {
                return false;
            }
            if a[i] < b[i] {
                strictly_better = true;
            }
        }
        strictly_better
    }
}

/// Canonical ordering of vectors: lexicographic on the cost view, so the
/// highest-accuracy points sort first and every tie is broken the same
/// way on every machine.
fn cost_order(a: &ObjectiveVector, b: &ObjectiveVector) -> std::cmp::Ordering {
    let (ca, cb) = (a.costs(), b.costs());
    ca[0]
        .total_cmp(&cb[0])
        .then(ca[1].total_cmp(&cb[1]))
        .then(ca[2].total_cmp(&cb[2]))
}

/// One resident of a [`ParetoFront`]: a configuration, its objective
/// coordinates, and the trial that produced it (the final tie-break).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontPoint {
    /// The non-dominated configuration.
    pub config: Config,
    /// Its objective coordinates.
    pub vector: ObjectiveVector,
    /// Id of the trial that measured it.
    pub trial: u64,
}

/// The mutually non-dominated set of everything inserted so far.
///
/// The front is **insertion-order invariant**: dominance is transitive,
/// so whichever order points arrive in, the surviving set is exactly the
/// non-dominated subset of all insertions, and [`ParetoFront::points`]
/// returns it in a canonical order (cost view lexicographic, then config
/// key, then trial id). Duplicated coordinates dominate in neither
/// direction and therefore coexist.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ParetoFront {
    points: Vec<FrontPoint>,
}

impl ParetoFront {
    /// An empty front.
    #[must_use]
    pub fn new() -> Self {
        ParetoFront::default()
    }

    /// Number of points on the front.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has been inserted (or everything was dominated).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Offers a point to the front. Returns `true` when it joins (it is
    /// not dominated by any resident); residents it dominates are
    /// evicted.
    pub fn insert(&mut self, point: FrontPoint) -> bool {
        if self
            .points
            .iter()
            .any(|p| p.vector.dominates(&point.vector))
        {
            return false;
        }
        self.points.retain(|p| !point.vector.dominates(&p.vector));
        self.points.push(point);
        self.points.sort_by(|a, b| {
            cost_order(&a.vector, &b.vector)
                .then_with(|| a.config.key().cmp(&b.config.key()))
                .then(a.trial.cmp(&b.trial))
        });
        true
    }

    /// The front in canonical order.
    #[must_use]
    pub fn points(&self) -> &[FrontPoint] {
        &self.points
    }

    /// The first `k` points of the canonical order — the deterministic
    /// truncation a `--pareto K` report uses.
    #[must_use]
    pub fn top(&self, k: usize) -> &[FrontPoint] {
        &self.points[..self.points.len().min(k)]
    }

    /// True when no resident dominates another — the front's defining
    /// invariant, exposed so tests can assert it directly.
    #[must_use]
    pub fn is_mutually_non_dominated(&self) -> bool {
        for (i, a) in self.points.iter().enumerate() {
            for b in self.points.iter().skip(i + 1) {
                if a.vector.dominates(&b.vector) || b.vector.dominates(&a.vector) {
                    return false;
                }
            }
        }
        true
    }

    /// Exact dominated hypervolume against `reference` (a point every
    /// resident should dominate; residents outside it contribute
    /// nothing). Swept along the first cost axis with a 2-D staircase
    /// area per slab — O(n² log n), plenty for report-sized fronts.
    #[must_use]
    pub fn hypervolume(&self, reference: [f64; 3]) -> f64 {
        let mut pts: Vec<[f64; 3]> = self
            .points
            .iter()
            .map(|p| p.vector.costs())
            .filter(|c| c[0] < reference[0] && c[1] < reference[1] && c[2] < reference[2])
            .collect();
        if pts.is_empty() {
            return 0.0;
        }
        pts.sort_by(|a, b| a[0].total_cmp(&b[0]));
        let mut volume = 0.0;
        let mut i = 0;
        while i < pts.len() {
            let x = pts[i][0];
            // Everything at cost0 <= x is active in this slab.
            let mut j = i;
            while j < pts.len() && pts[j][0] <= x {
                j += 1;
            }
            let width = if j < pts.len() {
                pts[j][0]
            } else {
                reference[0]
            } - x;
            let area = staircase_area(&pts[..j], reference[1], reference[2]);
            volume += width * area;
            i = j;
        }
        volume
    }

    /// How much inserting `v` would grow the dominated hypervolume — the
    /// hypervolume-improvement acquisition value of a candidate.
    #[must_use]
    pub fn hypervolume_improvement(&self, v: &ObjectiveVector, reference: [f64; 3]) -> f64 {
        let mut extended = self.clone();
        extended.insert(FrontPoint {
            config: Config::new(),
            vector: *v,
            trial: u64::MAX,
        });
        (extended.hypervolume(reference) - self.hypervolume(reference)).max(0.0)
    }
}

/// 2-D dominated area of `pts` (projected to cost axes 1 and 2) against
/// the reference corner `(ry, rz)`.
fn staircase_area(pts: &[[f64; 3]], ry: f64, rz: f64) -> f64 {
    let mut proj: Vec<(f64, f64)> = pts
        .iter()
        .filter(|c| c[1] < ry && c[2] < rz)
        .map(|c| (c[1], c[2]))
        .collect();
    if proj.is_empty() {
        return 0.0;
    }
    proj.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut area = 0.0;
    let mut best_z = rz;
    let mut i = 0;
    while i < proj.len() {
        let y = proj[i].0;
        // Lowest z at this y (and everything left of it was already
        // swept).
        let mut z = proj[i].1;
        let mut j = i;
        while j < proj.len() && proj[j].0 <= y {
            z = z.min(proj[j].1);
            j += 1;
        }
        if z < best_z {
            let next_y = if j < proj.len() { proj[j].0 } else { ry };
            area += (next_y - y) * (rz - z.min(best_z));
            // Overlap with the already-counted slab to the right of y is
            // impossible: we sweep left to right and only count the strip
            // [y, next_y).
            best_z = best_z.min(z);
        } else {
            // Dominated in the projection: adds nothing.
            let next_y = if j < proj.len() { proj[j].0 } else { ry };
            area += (next_y - y) * (rz - best_z);
        }
        i = j;
    }
    area
}

/// Non-dominated sorting of a rung's outcomes into dominance layers —
/// the SoftNeuro-style pruning pass scheduler promotion runs on. Layer 0
/// is the Pareto front of the rung, layer 1 the front of what remains,
/// and so on; outcomes without a vector (failed or degraded trials)
/// land in `u32::MAX` so they only ever advance on their scalar score
/// after every vectored trial.
#[must_use]
pub fn promotion_layers(outcomes: &[TrialOutcome]) -> Vec<u32> {
    let mut layers = vec![u32::MAX; outcomes.len()];
    let mut remaining: Vec<usize> = (0..outcomes.len())
        .filter(|&i| outcomes[i].vector.is_some())
        .collect();
    let mut layer = 0u32;
    while !remaining.is_empty() {
        let front: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                let vi = outcomes[i].vector.expect("filtered to Some");
                !remaining
                    .iter()
                    .any(|&j| outcomes[j].vector.expect("filtered to Some").dominates(&vi))
            })
            .collect();
        debug_assert!(!front.is_empty(), "a finite set always has a front");
        for &i in &front {
            layers[i] = layer;
        }
        remaining.retain(|i| !front.contains(i));
        layer += 1;
    }
    layers
}

// ---------------------------------------------------------------------------
// EHVI-style acquisition over the TPE machinery
// ---------------------------------------------------------------------------

/// Cap on retained vector observations (most recent kept).
const MAX_OBSERVATIONS: usize = 256;

/// Multi-objective TPE: the hypervolume-improvement acquisition of
/// EHVI/MOTPE layered over [`crate::TpeSampler`]'s Parzen densities.
///
/// Observations arrive through [`Sampler::observe`] (the scalar
/// observation list of [`Sampler::suggest`] is ignored once enough
/// vectors exist). The "good" set is the current Pareto front — trimmed
/// to the TPE quantile by *hypervolume contribution* when the front is
/// larger, padded by the next dominance layers when it is smaller — so
/// maximising the density ratio `l(x)/g(x)` steers suggestions toward
/// configurations expected to expand the dominated hypervolume.
#[derive(Debug)]
pub struct ParetoTpeSampler {
    rng: StdRng,
    observed: Vec<(Config, ObjectiveVector)>,
}

impl ParetoTpeSampler {
    /// Creates a seeded sampler.
    #[must_use]
    pub fn new(seed: SeedStream) -> Self {
        ParetoTpeSampler {
            // The rng label deliberately matches the scalar TPE sampler:
            // below MIN_OBSERVATIONS both draw the same random stream, so
            // a Pareto study explores the same opening cohort.
            rng: seed.rng("tpe-sampler"),
            observed: Vec::new(),
        }
    }

    /// Number of vector observations retained.
    #[must_use]
    pub fn observations(&self) -> usize {
        self.observed.len()
    }

    /// Reference point for hypervolume bookkeeping: slightly beyond the
    /// worst observed value on every cost axis, so every observation
    /// contributes.
    fn reference(&self) -> [f64; 3] {
        let mut r = [f64::NEG_INFINITY; 3];
        for (_, v) in &self.observed {
            let c = v.costs();
            for i in 0..3 {
                if c[i].is_finite() {
                    r[i] = r[i].max(c[i]);
                }
            }
        }
        r.map(|x| {
            if x.is_finite() {
                x + x.abs() * 0.1 + 1e-9
            } else {
                1.0
            }
        })
    }

    /// Splits the retained observations into (good, bad) index sets of
    /// the TPE quantile size, good-first by dominance layer and, inside
    /// the front, by hypervolume contribution.
    fn split(&self) -> (Vec<usize>, Vec<usize>) {
        let outcomes: Vec<ObjectiveVector> = self.observed.iter().map(|(_, v)| *v).collect();
        let n = outcomes.len();
        let n_good = good_count(n);

        // Peel dominance layers (indices, deterministic order).
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut ordered: Vec<usize> = Vec::with_capacity(n);
        while !remaining.is_empty() {
            let front: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|&i| {
                    !remaining
                        .iter()
                        .any(|&j| outcomes[j].dominates(&outcomes[i]))
                })
                .collect();
            // Inside a layer, order by hypervolume contribution against
            // the shared reference (largest first): when the front alone
            // overflows the quantile, the kept subset is the one EHVI
            // values most. Ties fall back to the canonical cost order.
            let reference = self.reference();
            let mut layer_front = ParetoFront::new();
            for &i in &front {
                layer_front.insert(FrontPoint {
                    config: self.observed[i].0.clone(),
                    vector: outcomes[i],
                    trial: i as u64,
                });
            }
            let total = layer_front.hypervolume(reference);
            let contribution = |i: usize| {
                let mut without = ParetoFront::new();
                for &j in &front {
                    if j != i {
                        without.insert(FrontPoint {
                            config: self.observed[j].0.clone(),
                            vector: outcomes[j],
                            trial: j as u64,
                        });
                    }
                }
                total - without.hypervolume(reference)
            };
            let mut scored_front: Vec<(usize, f64)> =
                front.iter().map(|&i| (i, contribution(i))).collect();
            scored_front.sort_by(|a, b| {
                b.1.total_cmp(&a.1)
                    .then(cost_order(&outcomes[a.0], &outcomes[b.0]))
                    .then(a.0.cmp(&b.0))
            });
            for &(i, _) in &scored_front {
                ordered.push(i);
            }
            remaining.retain(|i| !front.contains(i));
        }
        let bad = ordered.split_off(n_good);
        (ordered, bad)
    }
}

impl Sampler for ParetoTpeSampler {
    fn suggest(&mut self, space: &SearchSpace, observations: &[(&Config, f64)]) -> Config {
        self.suggest_cohort(space, observations, 1)
            .pop()
            .expect("a cohort of one")
    }

    fn suggest_cohort(
        &mut self,
        space: &SearchSpace,
        _observations: &[(&Config, f64)],
        n: usize,
    ) -> Vec<Config> {
        let model = (self.observed.len() >= MIN_OBSERVATIONS).then(|| {
            let (good, bad) = self.split();
            let configs = |set: &[usize]| -> Vec<&Config> {
                set.iter().map(|&i| &self.observed[i].0).collect()
            };
            ParzenModel::fit(space, &configs(&good), &configs(&bad))
        });
        draw_cohort(model, space, &mut self.rng, n)
    }

    fn observe(&mut self, config: &Config, outcome: &TrialOutcome) {
        if outcome.is_failed() {
            return;
        }
        if let Some(vector) = outcome.vector {
            if vector.costs().iter().all(|c| c.is_finite()) {
                self.observed.push((config.clone(), vector));
                if self.observed.len() > MAX_OBSERVATIONS {
                    self.observed.remove(0);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "pareto-tpe"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgetune_util::units::{Joules, Seconds};

    fn vector(acc: f64, train: f64, inf: f64) -> ObjectiveVector {
        ObjectiveVector::new(acc, train, inf)
    }

    fn point(acc: f64, train: f64, inf: f64, trial: u64) -> FrontPoint {
        FrontPoint {
            config: Config::new().with("x", trial as f64),
            vector: vector(acc, train, inf),
            trial,
        }
    }

    #[test]
    fn dominance_is_strict_and_deterministic() {
        let a = vector(0.9, 10.0, 1.0);
        let b = vector(0.8, 12.0, 1.5);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        // Equal vectors dominate in neither direction.
        assert!(!a.dominates(&a));
        // A trade-off (better accuracy, worse cost) dominates neither way.
        let c = vector(0.95, 20.0, 1.0);
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
    }

    #[test]
    #[should_panic(expected = "must not contain NaN")]
    fn nan_components_are_rejected() {
        let _ = vector(f64::NAN, 1.0, 1.0);
    }

    #[test]
    fn from_measurement_follows_the_metric() {
        let m = TrainMeasurement {
            accuracy: 0.8,
            train_time: Seconds::new(100.0),
            train_energy: Joules::new(500.0),
            inference_time: Some(Seconds::new(0.2)),
            inference_energy: Some(edgetune_util::units::JoulesPerItem::new(0.5)),
        };
        let rt = ObjectiveVector::from_measurement(&m, Metric::Runtime).unwrap();
        assert_eq!((rt.train_cost, rt.inference_cost), (100.0, 0.2));
        let en = ObjectiveVector::from_measurement(&m, Metric::Energy).unwrap();
        assert_eq!((en.train_cost, en.inference_cost), (500.0, 0.5));
        let degraded = TrainMeasurement {
            inference_time: None,
            ..m
        };
        assert!(ObjectiveVector::from_measurement(&degraded, Metric::Runtime).is_none());
    }

    #[test]
    fn front_keeps_only_non_dominated_points() {
        let mut front = ParetoFront::new();
        assert!(front.insert(point(0.8, 10.0, 1.0, 0)));
        assert!(front.insert(point(0.9, 20.0, 2.0, 1))); // trade-off: stays
        assert!(!front.insert(point(0.7, 15.0, 1.5, 2))); // dominated by 0
        assert!(front.insert(point(0.95, 5.0, 0.5, 3))); // dominates both
        assert_eq!(front.len(), 1);
        assert_eq!(front.points()[0].trial, 3);
        assert!(front.is_mutually_non_dominated());
    }

    #[test]
    fn front_is_insertion_order_invariant() {
        let pts = [
            point(0.8, 10.0, 1.0, 0),
            point(0.9, 20.0, 2.0, 1),
            point(0.7, 15.0, 1.5, 2),
            point(0.85, 8.0, 3.0, 3),
            point(0.85, 8.0, 3.0, 4), // duplicate coordinates coexist
            point(0.6, 30.0, 4.0, 5),
        ];
        let build = |order: &[usize]| {
            let mut front = ParetoFront::new();
            for &i in order {
                front.insert(pts[i].clone());
            }
            front
        };
        let reference = build(&[0, 1, 2, 3, 4, 5]);
        // A deterministic LCG shuffles the insertion order.
        let mut state = 9_u64;
        for _ in 0..20 {
            let mut order: Vec<usize> = (0..pts.len()).collect();
            for i in (1..order.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            assert_eq!(build(&order), reference, "order {order:?} diverged");
        }
        assert!(reference.is_mutually_non_dominated());
    }

    #[test]
    fn top_truncates_the_canonical_order() {
        let mut front = ParetoFront::new();
        front.insert(point(0.8, 10.0, 1.0, 0));
        front.insert(point(0.9, 20.0, 2.0, 1));
        front.insert(point(0.95, 30.0, 3.0, 2));
        assert_eq!(front.top(2).len(), 2);
        // Canonical order leads with the highest accuracy.
        assert_eq!(front.top(1)[0].vector.accuracy, 0.95);
        assert_eq!(front.top(99).len(), 3);
    }

    #[test]
    fn hypervolume_grows_with_better_points() {
        let reference = [0.0, 100.0, 10.0]; // -accuracy, train, inference
        let mut front = ParetoFront::new();
        front.insert(point(0.5, 50.0, 5.0, 0));
        let hv1 = front.hypervolume(reference);
        assert!(hv1 > 0.0);
        // A non-dominated addition must add volume.
        let v = vector(0.9, 80.0, 8.0);
        let hvi = front.hypervolume_improvement(&v, reference);
        assert!(hvi > 0.0);
        front.insert(point(0.9, 80.0, 8.0, 1));
        let hv2 = front.hypervolume(reference);
        assert!((hv2 - hv1 - hvi).abs() < 1e-9, "{hv2} vs {hv1} + {hvi}");
        // A dominated candidate improves nothing.
        assert_eq!(
            front.hypervolume_improvement(&vector(0.4, 60.0, 6.0), reference),
            0.0
        );
    }

    #[test]
    fn hypervolume_matches_a_hand_computed_box_union() {
        // Two boxes against reference (1, 1, 1):
        // a = (-0.5, 0.5, 0.5) -> box 1.5 x 0.5 x 0.5 ... in cost space the
        // dominated region of a point c is the box [c, ref).
        let mut front = ParetoFront::new();
        front.insert(point(0.5, 0.5, 0.5, 0)); // costs (-0.5, 0.5, 0.5)
        let reference = [1.0, 1.0, 1.0];
        let expected = (1.0f64 - -0.5) * (1.0 - 0.5) * (1.0 - 0.5);
        assert!((front.hypervolume(reference) - expected).abs() < 1e-12);
        // Add a disjoint trade-off and check monotonicity + upper bound.
        front.insert(point(0.8, 0.9, 0.9, 1)); // costs (-0.8, 0.9, 0.9)
        let second = (1.0f64 - -0.8) * (1.0 - 0.9) * (1.0 - 0.9);
        let hv = front.hypervolume(reference);
        assert!(hv > expected);
        assert!(hv <= expected + second + 1e-12);
    }

    #[test]
    fn promotion_layers_peel_fronts_and_park_unvectored_trials() {
        let outcome = |acc: f64, train: f64, inf: f64| {
            TrialOutcome::new(1.0, acc, Seconds::new(train), Joules::new(1.0))
                .with_vector(vector(acc, train, inf))
        };
        let outcomes = vec![
            outcome(0.9, 10.0, 1.0),                                          // layer 0
            outcome(0.8, 20.0, 2.0),                                          // dominated: layer 1
            outcome(0.95, 30.0, 3.0),                                         // trade-off: layer 0
            TrialOutcome::new(2.0, 0.5, Seconds::new(1.0), Joules::new(1.0)), // no vector
            outcome(0.7, 25.0, 2.5),                                          // layer 2
        ];
        let layers = promotion_layers(&outcomes);
        assert_eq!(layers[0], 0);
        assert_eq!(layers[1], 1);
        assert_eq!(layers[2], 0);
        assert_eq!(layers[3], u32::MAX);
        assert_eq!(layers[4], 2);
    }

    #[test]
    fn pareto_tpe_is_seeded_and_concentrates_on_the_front() {
        let space = SearchSpace::new()
            .with("x", crate::space::Domain::float(0.0, 1.0))
            .with("y", crate::space::Domain::float(0.0, 1.0));
        // Two conflicting objectives over x: accuracy wants x -> 1, train
        // cost wants x -> 0; y is pure noise both objectives ignore, so a
        // model-based sampler should learn y's irrelevance.
        let measure = |c: &Config| {
            let x = c.get("x").unwrap();
            vector(x, x * 10.0, 1.0)
        };
        let run = |seed: u64| {
            let mut sampler = ParetoTpeSampler::new(SeedStream::new(seed));
            let mut suggestions = Vec::new();
            for i in 0..40 {
                let c = sampler.suggest(&space, &[]);
                let v = measure(&c);
                let outcome =
                    TrialOutcome::new(1.0, v.accuracy, Seconds::new(1.0), Joules::new(1.0))
                        .with_vector(v);
                sampler.observe(&c, &outcome);
                if i >= 30 {
                    suggestions.push(c);
                }
            }
            suggestions
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same suggestions");
        // Everything on the x axis is Pareto-optimal here, so late
        // suggestions must stay in-domain and vary along x.
        for c in &a {
            assert!(space.validate(c).is_ok());
        }
    }

    #[test]
    fn pareto_tpe_ignores_failed_and_degraded_outcomes() {
        let mut sampler = ParetoTpeSampler::new(SeedStream::new(1));
        let config = Config::new().with("x", 0.5);
        sampler.observe(
            &config,
            &TrialOutcome::failed(
                crate::trial::TrialFailure::Crash,
                Seconds::new(1.0),
                Joules::new(1.0),
            ),
        );
        sampler.observe(
            &config,
            &TrialOutcome::new(1.0, 0.5, Seconds::new(1.0), Joules::new(1.0)),
        );
        assert_eq!(sampler.observations(), 0);
        let vectored = TrialOutcome::new(1.0, 0.5, Seconds::new(1.0), Joules::new(1.0))
            .with_vector(vector(0.5, 1.0, 1.0));
        sampler.observe(&config, &vectored);
        assert_eq!(sampler.observations(), 1);
    }
}
