//! Offline stand-in for the [rand](https://crates.io/crates/rand) crate,
//! providing the 0.8-era subset this workspace uses: the [`Rng`] extension
//! trait (`gen`, `gen_range`, `gen_bool`), [`SeedableRng::seed_from_u64`],
//! and [`rngs::StdRng`].
//!
//! The build environment has no access to crates.io, so this local crate
//! keeps the workspace hermetic. `StdRng` here is xoshiro256++ seeded via
//! SplitMix64 — a deterministic, high-quality non-cryptographic generator,
//! which is all the annealer and the noise models need.
//! Swap this path dependency for the real crate when a registry is
//! available (seeded streams will differ).

/// Low-level source of randomness.
pub trait RngCore {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Types samplable uniformly from an `Rng` via [`Rng::gen`] (stand-in for
/// rand's `Standard` distribution).
pub trait StandardSample: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Types usable as `gen_range` bounds.
pub trait UniformSampled: Copy + PartialOrd {
    /// Uniform draw from the half-open range `[lo, hi)`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform draw from the inclusive range `[lo, hi]`.
    fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSampled for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                debug_assert!(lo < hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128;
                // Modulo bias is < span / 2^64 -- negligible for the spans
                // this workspace draws (all far below 2^32).
                let off = (rng.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
            fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                debug_assert!(lo <= hi, "gen_range: empty range");
                // span + 1 cannot overflow in u128, so `lo..=T::MAX` works.
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
impl_uniform_int!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

impl UniformSampled for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        debug_assert!(lo < hi, "gen_range: empty range");
        lo + (hi - lo) * f64::sample(rng)
    }
    fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        debug_assert!(lo <= hi, "gen_range: empty range");
        // The exact upper endpoint has measure zero for lo < hi; what
        // matters is that degenerate `lo..=lo` ranges are valid.
        if lo == hi {
            return lo;
        }
        lo + (hi - lo) * f64::sample(rng)
    }
}

/// User-facing extension trait (stand-in for `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a value of type `T` from the standard distribution.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform draw from a half-open or inclusive range.
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        T: UniformSampled,
        Rg: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Ranges accepted by [`Rng::gen_range`].
pub trait SampleRange<T: UniformSampled> {
    /// Uniform draw from this range.
    fn sample_from<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

impl<T: UniformSampled> SampleRange<T> for std::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(&self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end)
    }
}

impl<T: UniformSampled> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(&self, rng: &mut R) -> T {
        T::sample_range_inclusive(rng, *self.start(), *self.end())
    }
}

/// Seedable generators (stand-in for `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (stand-in for `rand::rngs::StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let k = rng.gen_range(0..5usize);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
        for _ in 0..200 {
            let k = rng.gen_range(2u32..=4);
            assert!((2..=4).contains(&k));
            let x = rng.gen_range(-1.5f64..2.5);
            assert!((-1.5..2.5).contains(&x));
        }
    }

    #[test]
    fn inclusive_ranges_reach_both_endpoints() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut hit = [false; 3];
        for _ in 0..200 {
            hit[rng.gen_range(0u8..=2) as usize] = true;
        }
        assert_eq!(hit, [true; 3], "endpoints reachable: {hit:?}");
        // Degenerate and type-MAX inclusive ranges are valid.
        assert_eq!(rng.gen_range(5usize..=5), 5);
        assert_eq!(rng.gen_range(3.25f64..=3.25), 3.25);
        let big = rng.gen_range(u64::MAX - 1..=u64::MAX);
        assert!(big >= u64::MAX - 1);
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
