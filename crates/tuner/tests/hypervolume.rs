//! `ParetoFront::hypervolume` against an exact oracle: the volume of the
//! union of every inserted point's dominated box `[cost, reference)`,
//! by inclusion–exclusion over all subsets of boxes.
//!
//! The fronts are seeded and random: 1–8 points drawn from a coarse grid,
//! so ties on each axis, duplicates and points outside the reference
//! are common. The oracle sums the boxes of every point inserted, the
//! dominated ones included: a dominated box lies inside its dominator's,
//! so evicting it must not change the volume either.

use edgetune_tuner::pareto::{FrontPoint, ObjectiveVector, ParetoFront};
use edgetune_tuner::space::Config;
use edgetune_util::rng::SeedStream;
use rand::Rng;

/// Random fronts checked.
const CASES: u64 = 2_000;
/// Every front is measured against this corner (cost space:
/// −accuracy, train cost, inference cost).
const REFERENCE: [f64; 3] = [-0.3, 4.0, 4.0];

/// Volume of the union of the boxes `[c, REFERENCE)` for `c` in
/// `costs`, by inclusion–exclusion: the intersection of a set of boxes
/// is the box at their coordinate-wise maximum.
fn union_volume(costs: &[[f64; 3]]) -> f64 {
    let mut volume = 0.0;
    for subset in 1u32..(1 << costs.len()) {
        let mut corner = [f64::NEG_INFINITY; 3];
        for (i, c) in costs.iter().enumerate() {
            if subset & (1 << i) != 0 {
                for axis in 0..3 {
                    corner[axis] = corner[axis].max(c[axis]);
                }
            }
        }
        let size: f64 = (0..3)
            .map(|axis| (REFERENCE[axis] - corner[axis]).max(0.0))
            .product();
        let sign = if subset.count_ones() % 2 == 1 {
            1.0
        } else {
            -1.0
        };
        volume += sign * size;
    }
    volume
}

#[test]
fn hypervolume_equals_the_inclusion_exclusion_union_of_boxes() {
    for case in 0..CASES {
        let mut rng = SeedStream::new(case).rng("hypervolume-front");
        let points = rng.gen_range(1..=8);
        let mut front = ParetoFront::new();
        let mut costs = Vec::new();
        for trial in 0..points {
            // Accuracy 0.1–0.9 in tenths (below 0.3 is outside the
            // reference), costs 0.5–4.5 in halves (4 and up is outside).
            let vector = ObjectiveVector::new(
                f64::from(rng.gen_range(1..=9)) / 10.0,
                f64::from(rng.gen_range(1..=9)) / 2.0,
                f64::from(rng.gen_range(1..=9)) / 2.0,
            );
            costs.push(vector.costs());
            front.insert(FrontPoint {
                config: Config::new(),
                vector,
                trial,
            });
        }
        let want = union_volume(&costs);
        let got = front.hypervolume(REFERENCE);
        assert!(
            (got - want).abs() <= 1e-9 * want.max(1.0),
            "case {case}: hypervolume {got}, union of boxes {want}, costs {costs:?}"
        );
    }
}
