//! Stand-in for `rand` 0.8: the subset `nserver-specweb` compiles
//! against (`Rng::gen::<f64>()`, `SeedableRng::seed_from_u64`,
//! `rngs::StdRng`). The benchmark itself never draws from it — its
//! request sequences come from the harness-local splitmix64 through
//! `AccessSampler::sample_with` — so the streams need not match the
//! published crate's.

/// Source of raw 64-bit draws.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    fn from_u64(bits: u64) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` from the top 53 bits.
    fn from_u64(bits: u64) -> f64 {
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for u64 {
    fn from_u64(bits: u64) -> u64 {
        bits
    }
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::from_u64(self.next_u64())
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// splitmix64 (Steele, Lea and Flood's `SplittableRandom` mixer).
    #[derive(Debug, Clone)]
    pub struct StdRng(u64);

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng(seed)
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn unit_floats_stay_in_range_and_repeat_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = a.gen();
            assert!((0.0..1.0).contains(&x));
            assert_eq!(x, b.gen::<f64>());
        }
        assert_ne!(a.gen::<u64>(), StdRng::seed_from_u64(8).gen::<u64>());
    }
}
