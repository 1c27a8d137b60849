//! Deterministic, hierarchically-derivable randomness.
//!
//! Every stochastic component in the reproduction (samplers, learning-curve
//! noise, Poisson arrivals, weight init) draws from a [`SeedStream`] so that
//! experiments are bit-for-bit reproducible and independent components do
//! not perturb each other's randomness when the code evolves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named, seedable source of independent RNGs.
///
/// A `SeedStream` mixes a root seed with a label (and an optional index) via
/// a SplitMix64-style finalizer to derive child seeds. Children derived with
/// different labels are statistically independent; the same
/// `(seed, label, index)` always yields the same child.
///
/// # Examples
///
/// ```
/// use edgetune_util::rng::SeedStream;
/// use rand::Rng;
///
/// let stream = SeedStream::new(42);
/// let mut a = stream.rng("sampler");
/// let mut b = stream.rng("sampler");
/// // Same label => identical stream.
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedStream {
    seed: u64,
}

impl SeedStream {
    /// Creates a stream rooted at `seed`.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The root seed.
    #[must_use]
    pub const fn seed(self) -> u64 {
        self.seed
    }

    /// Derives a child stream for a labelled subsystem.
    #[must_use]
    pub fn child(self, label: &str) -> SeedStream {
        SeedStream::new(mix(self.seed, hash_label(label)))
    }

    /// Derives a child stream for the `index`-th element of a labelled
    /// family (e.g. trial number, worker id).
    #[must_use]
    pub fn child_indexed(self, label: &str, index: u64) -> SeedStream {
        SeedStream::new(mix(mix(self.seed, hash_label(label)), index))
    }

    /// Builds a concrete RNG for a labelled subsystem.
    #[must_use]
    pub fn rng(self, label: &str) -> StdRng {
        self.rng_hashed(LabelHash::new().write_str(label))
    }

    /// [`SeedStream::rng`] for a label already fed to a [`LabelHash`]:
    /// the same stream, whichever pieces the label was fed in.
    #[must_use]
    pub fn rng_hashed(self, label: LabelHash) -> StdRng {
        StdRng::seed_from_u64(mix(self.seed, label.0))
    }

    /// Builds a concrete RNG for the `index`-th element of a labelled
    /// family.
    #[must_use]
    pub fn rng_indexed(self, label: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.child_indexed(label, index).seed)
    }
}

impl Default for SeedStream {
    /// The default stream uses the fixed seed `0xED6E_70AE` ("edgetune").
    fn default() -> Self {
        SeedStream::new(0xED6E_70AE)
    }
}

/// Streaming FNV-1a over a label's bytes; stable across runs and
/// platforms. Bytes fed in pieces hash as their concatenation does, so a
/// caller can keep the state after a label's fixed head and feed only
/// the varying rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelHash(u64);

impl LabelHash {
    /// The hash of the empty label.
    #[must_use]
    pub const fn new() -> Self {
        LabelHash(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `text`'s bytes.
    #[must_use]
    pub fn write_str(self, text: &str) -> Self {
        self.write_bytes(text.as_bytes())
    }

    /// Feeds the decimal digits of `n`, the bytes `format!("{n}")`
    /// spells, without formatting.
    #[must_use]
    pub fn write_decimal(self, mut n: u32) -> Self {
        let mut digits = [0u8; 10];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.write_bytes(&digits[start..])
    }

    fn write_bytes(self, bytes: &[u8]) -> Self {
        let mut h = self.0;
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        LabelHash(h)
    }
}

impl Default for LabelHash {
    fn default() -> Self {
        LabelHash::new()
    }
}

/// FNV-1a hash of a label string.
fn hash_label(label: &str) -> u64 {
    LabelHash::new().write_str(label).0
}

/// SplitMix64 finalizer combining two 64-bit values.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws a sample from an exponential distribution with the given rate
/// (events per unit time) using inverse-transform sampling.
///
/// Used by the multi-stream Poisson arrival generator (§3.4, Fig. 8).
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
pub fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be > 0, got {rate}");
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

/// Draws a standard-normal sample via the Box–Muller transform.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws a normal sample with the given mean and standard deviation.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * sample_standard_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let s = SeedStream::new(7);
        let mut a = s.rng("x");
        let mut b = s.rng("x");
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_labels_diverge() {
        let s = SeedStream::new(7);
        let a: u64 = s.rng("x").gen();
        let b: u64 = s.rng("y").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_indices_diverge() {
        let s = SeedStream::new(7);
        let a: u64 = s.rng_indexed("trial", 0).gen();
        let b: u64 = s.rng_indexed("trial", 1).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn child_composition_is_stable() {
        let s = SeedStream::new(99);
        assert_eq!(s.child("a").child("b"), s.child("a").child("b"));
        assert_ne!(s.child("a").child("b"), s.child("b").child("a"));
    }

    /// The FNV-1a published test vectors, so the streaming rewrite is
    /// held to the hash itself and not only to its own pieces.
    #[test]
    fn label_hash_matches_fnv1a_test_vectors() {
        assert_eq!(hash_label(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_label("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_label("foobar"), 0x8594_4171_f739_67e8);
    }

    /// Label text with `|`, digits, a sign and multi-byte characters.
    const ALPHABET: [char; 8] = ['R', '|', 'e', '7', '0', '.', '-', 'é'];

    proptest::proptest! {
        /// A label fed in pieces, decimal digits among them, hashes and
        /// seeds as its whole text does.
        #[test]
        fn label_hash_fed_in_pieces_equals_the_whole(
            picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..40),
            cut_a in 0usize..41,
            cut_b in 0usize..41,
            n in 0u32..=u32::MAX,
        ) {
            let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            let bounds: Vec<usize> =
                (0..=text.len()).filter(|&i| text.is_char_boundary(i)).collect();
            let a = bounds[cut_a % bounds.len()];
            let b = bounds[cut_b % bounds.len()].max(a);
            for n in [n, 0, 1, 9, 10, u32::MAX] {
                let pieces = LabelHash::new()
                    .write_str(&text[..a])
                    .write_str(&text[a..b])
                    .write_decimal(n)
                    .write_str(&text[b..]);
                let whole = format!("{}{n}{}", &text[..b], &text[b..]);
                proptest::prop_assert_eq!(pieces.0, hash_label(&whole));
                let stream = SeedStream::new(42).child("accuracy-noise");
                proptest::prop_assert_eq!(
                    stream.rng_hashed(pieces).gen::<u64>(),
                    stream.rng(&whole).gen::<u64>()
                );
            }
        }
    }

    #[test]
    fn default_seed_is_fixed() {
        assert_eq!(SeedStream::default().seed(), 0xED6E_70AE);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SeedStream::new(1).rng("exp");
        let rate = 4.0;
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| sample_exponential(&mut rng, rate))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean={mean}");
    }

    #[test]
    #[should_panic(expected = "rate must be > 0")]
    fn exponential_rejects_non_positive_rate() {
        let mut rng = SeedStream::new(1).rng("exp");
        let _ = sample_exponential(&mut rng, 0.0);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = SeedStream::new(2).rng("norm");
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.2, "var={var}");
    }
}
