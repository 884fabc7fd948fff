//! Access-frequency sampling: Zipf popularity across directories, the
//! 35/50/14/1 class mix, and a mild within-class skew — the SpecWeb99
//! shape the paper's workload follows.

use crate::fileset::{FileSet, FileSpec};

/// A discrete Zipf(α) sampler over ranks `0..n` (rank 0 most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Build a sampler for `n` items with exponent `alpha` (SpecWeb99 uses
    /// α = 1 across directories).
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0);
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(alpha);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        Self { cumulative }
    }

    /// Sample a rank using a uniform draw in `[0,1)`.
    pub fn sample_with(&self, u: f64) -> usize {
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).unwrap())
        {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Always false (a sampler has ≥ 1 rank).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Samples files from a [`FileSet`] with the SpecWeb99 popularity
/// structure.
#[derive(Debug, Clone)]
pub struct AccessSampler {
    dir_zipf: Zipf,
    // Within a class, SpecWeb99's table is mildly skewed toward middle
    // files; we use Zipf(0.8) over a fixed popularity order as a stand-in.
    file_zipf: Zipf,
    class_cumulative: [f64; 4],
}

impl AccessSampler {
    /// Build a sampler for the given file set.
    pub fn new(fileset: &FileSet) -> Self {
        let mut class_cumulative = [0.0; 4];
        let mut acc = 0.0;
        for c in 0..4u8 {
            acc += crate::fileset::FileClass(c).access_weight();
            class_cumulative[c as usize] = acc;
        }
        // Normalize to exactly 1 to be safe against float drift.
        for c in &mut class_cumulative {
            *c /= acc;
        }
        Self {
            dir_zipf: Zipf::new(fileset.dirs() as usize, 1.0),
            file_zipf: Zipf::new(9, 0.8),
            class_cumulative,
        }
    }

    /// Sample one file id, using three uniform draws in `[0,1)` (the
    /// caller supplies them, so the simulator, the benchmark and the
    /// socket driver each sample from their own seeded stream).
    pub fn sample_with(&self, fileset: &FileSet, u_dir: f64, u_class: f64, u_file: f64) -> u64 {
        let dir = self.dir_zipf.sample_with(u_dir) as u32;
        let class = self
            .class_cumulative
            .iter()
            .position(|&c| u_class < c)
            .unwrap_or(3) as u8;
        let index = self.file_zipf.sample_with(u_file) as u8 + 1;
        fileset
            .lookup(dir, class, index)
            .expect("sampler stays in range")
            .id
    }

    /// Sample a full [`FileSpec`], drawing the three uniforms from
    /// `uniform`.
    pub fn sample_spec<'a>(
        &self,
        fileset: &'a FileSet,
        mut uniform: impl FnMut() -> f64,
    ) -> &'a FileSpec {
        fileset.file(self.sample_with(fileset, uniform(), uniform(), uniform()))
    }
}

/// splitmix64 (Steele, Lea and Flood): the uniform stream behind the
/// socket driver's requests.
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    /// Uniform float in `[0, 1)`, from the top 53 bits of the next word.
    pub(crate) fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_first_rank_is_most_popular() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SplitMix64(1);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample_with(rng.next_f64())] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // Rank 0 of Zipf(1, n=100) has probability 1/H(100) ≈ 0.193.
        let p0 = counts[0] as f64 / 100_000.0;
        assert!((p0 - 0.193).abs() < 0.02, "p0 = {p0}");
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = SplitMix64(2);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample_with(rng.next_f64())] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn zipf_sample_with_is_monotone_in_u() {
        let z = Zipf::new(50, 1.0);
        let mut last = 0;
        for i in 0..100 {
            let u = i as f64 / 100.0;
            let r = z.sample_with(u);
            assert!(r >= last, "rank must be non-decreasing in u");
            last = r;
        }
        assert!(z.sample_with(0.999999) < z.len());
    }

    #[test]
    fn class_mix_matches_spec() {
        let fs = FileSet::with_dirs(10);
        let sampler = AccessSampler::new(&fs);
        let mut rng = SplitMix64(3);
        let mut class_counts = [0u32; 4];
        let n = 200_000;
        for _ in 0..n {
            let spec = sampler.sample_spec(&fs, || rng.next_f64());
            class_counts[spec.class.0 as usize] += 1;
        }
        let frac = |c: usize| class_counts[c] as f64 / n as f64;
        assert!((frac(0) - 0.35).abs() < 0.01, "class0 {}", frac(0));
        assert!((frac(1) - 0.50).abs() < 0.01, "class1 {}", frac(1));
        assert!((frac(2) - 0.14).abs() < 0.01, "class2 {}", frac(2));
        assert!((frac(3) - 0.01).abs() < 0.005, "class3 {}", frac(3));
    }

    #[test]
    fn mean_transfer_size_is_about_15kb() {
        // The paper reports a 16 KB average file size; the SpecWeb99 mix
        // yields a weighted mean transfer in that neighbourhood.
        let fs = FileSet::with_dirs(41);
        let sampler = AccessSampler::new(&fs);
        let mut rng = SplitMix64(4);
        let n = 100_000;
        let total: u64 = (0..n)
            .map(|_| sampler.sample_spec(&fs, || rng.next_f64()).size)
            .sum();
        let mean = total as f64 / n as f64;
        assert!(
            (10_000.0..22_000.0).contains(&mean),
            "mean transfer {mean} bytes"
        );
    }

    #[test]
    fn popular_directories_dominate() {
        let fs = FileSet::with_dirs(41);
        let sampler = AccessSampler::new(&fs);
        let mut rng = SplitMix64(5);
        let mut dir_counts = [0u32; 41];
        for _ in 0..100_000 {
            dir_counts[sampler.sample_spec(&fs, || rng.next_f64()).dir as usize] += 1;
        }
        assert!(dir_counts[0] > dir_counts[20] * 3);
    }

    #[test]
    fn deterministic_draws_are_reproducible() {
        let fs = FileSet::with_dirs(5);
        let sampler = AccessSampler::new(&fs);
        let a = sampler.sample_with(&fs, 0.3, 0.6, 0.9);
        let b = sampler.sample_with(&fs, 0.3, 0.6, 0.9);
        assert_eq!(a, b);
    }
}
