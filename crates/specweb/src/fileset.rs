//! The SpecWeb99 file-set layout.
//!
//! Each directory holds four *classes* of nine files each:
//!
//! | class | sizes              |
//! |-------|--------------------|
//! | 0     | 0.1 KB … 0.9 KB    |
//! | 1     | 1 KB … 9 KB        |
//! | 2     | 10 KB … 90 KB      |
//! | 3     | 100 KB … 900 KB    |
//!
//! One directory therefore holds ~5 MB; the paper's 204.8 MB file set is
//! about 41 directories. Synthesising contents costs what fresh memory
//! does, ~0.5 ns/byte of page faults and copying, not a computation per byte.

/// File size class (SpecWeb99 classes 0–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileClass(pub u8);

impl FileClass {
    /// Base size of class `c` in bytes: 102.4 B × 10^c (so file `i` of the
    /// class is `i × base`).
    pub fn base_bytes(self) -> u64 {
        // 0.1 KB expressed in bytes, times 10^class.
        let base = 102.4_f64 * 10f64.powi(self.0 as i32);
        base as u64
    }

    /// SpecWeb99 class access mix: 35% / 50% / 14% / 1%.
    pub fn access_weight(self) -> f64 {
        match self.0 {
            0 => 0.35,
            1 => 0.50,
            2 => 0.14,
            3 => 0.01,
            _ => 0.0,
        }
    }
}

/// One file in the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSpec {
    /// Global file id (stable across runs).
    pub id: u64,
    /// Directory index.
    pub dir: u32,
    /// Size class.
    pub class: FileClass,
    /// Index within the class (1–9).
    pub index: u8,
    /// Size in bytes.
    pub size: u64,
}

impl FileSpec {
    /// The file's URL path, e.g. `/dir0007/class2_5`.
    pub fn path(&self) -> String {
        format!("/dir{:04}/class{}_{}", self.dir, self.class.0, self.index)
    }
}

/// A complete SpecWeb99-style file set.
#[derive(Debug, Clone)]
pub struct FileSet {
    files: Vec<FileSpec>,
    dirs: u32,
    total_bytes: u64,
}

/// Bytes in one directory (classes 0–3, files 1–9 each).
pub fn dir_bytes() -> u64 {
    (0u8..4)
        .map(|c| {
            (1u64..=9)
                .map(|i| i * FileClass(c).base_bytes())
                .sum::<u64>()
        })
        .sum()
}

impl FileSet {
    /// Build a file set of at least `target_bytes` total size (the paper
    /// uses 204.8 MB).
    pub fn specweb99(target_bytes: u64) -> Self {
        let per_dir = dir_bytes();
        let dirs = target_bytes.div_ceil(per_dir).max(1) as u32;
        Self::with_dirs(dirs)
    }

    /// Build a file set with an explicit directory count.
    pub fn with_dirs(dirs: u32) -> Self {
        let mut files = Vec::with_capacity(dirs as usize * 36);
        let mut id = 0;
        let mut total = 0;
        for dir in 0..dirs {
            for c in 0u8..4 {
                let class = FileClass(c);
                for index in 1u8..=9 {
                    let size = index as u64 * class.base_bytes();
                    files.push(FileSpec {
                        id,
                        dir,
                        class,
                        index,
                        size,
                    });
                    id += 1;
                    total += size;
                }
            }
        }
        Self {
            files,
            dirs,
            total_bytes: total,
        }
    }

    /// All files.
    pub fn files(&self) -> &[FileSpec] {
        &self.files
    }

    /// File by global id.
    pub fn file(&self, id: u64) -> &FileSpec {
        &self.files[id as usize]
    }

    /// Look up a file by directory/class/index.
    pub fn lookup(&self, dir: u32, class: u8, index: u8) -> Option<&FileSpec> {
        if dir >= self.dirs || class >= 4 || !(1..=9).contains(&index) {
            return None;
        }
        let pos = dir as usize * 36 + class as usize * 9 + (index as usize - 1);
        Some(&self.files[pos])
    }

    /// Resolve a URL path produced by [`FileSpec::path`].
    pub fn resolve(&self, path: &str) -> Option<&FileSpec> {
        let rest = path.strip_prefix("/dir")?;
        let (dir_s, file_s) = rest.split_once('/')?;
        let dir: u32 = dir_s.parse().ok()?;
        let rest = file_s.strip_prefix("class")?;
        let (class_s, idx_s) = rest.split_once('_')?;
        let class: u8 = class_s.parse().ok()?;
        let index: u8 = idx_s.parse().ok()?;
        self.lookup(dir, class, index)
    }

    /// Directory count.
    pub fn dirs(&self) -> u32 {
        self.dirs
    }

    /// Total size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Synthesize deterministic file contents of the right size: byte `i`
    /// is `(seed >> (i % 57 % 56)) as u8 ^ i as u8`, `seed` being the id
    /// times 0x9E3779B97F4A7C15, so a file repeats every lcm(57, 256) =
    /// 14,592 bytes. One period is computed and then copied; a test pins
    /// the output to the per-byte formula. Callers: the benchmark's
    /// `Files::synthesise`, `examples/web_server.rs` and the
    /// `cops_http_e2e` / `realmode_load` integration tests.
    pub fn synth_content(&self, spec: &FileSpec) -> Vec<u8> {
        const PERIOD: usize = 57 * 256;
        let size = spec.size as usize;
        let seed = spec.id.wrapping_mul(0x9E3779B97F4A7C15);
        let table: [u8; 57] = std::array::from_fn(|k| (seed >> (k % 56)) as u8);
        let head = size.min(PERIOD);
        let mut data = Vec::with_capacity(size);
        while data.len() < head {
            let n = (head - data.len()).min(table.len());
            data.extend_from_slice(&table[..n]);
        }
        data.iter_mut().enumerate().for_each(|(i, b)| *b ^= i as u8);
        while data.len() < size {
            data.extend_from_within(..data.len().min(size - data.len()));
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_base_sizes() {
        assert_eq!(FileClass(0).base_bytes(), 102);
        assert_eq!(FileClass(1).base_bytes(), 1024);
        assert_eq!(FileClass(2).base_bytes(), 10240);
        assert_eq!(FileClass(3).base_bytes(), 102400);
    }

    #[test]
    fn directory_holds_36_files_of_about_5mb() {
        let fs = FileSet::with_dirs(1);
        assert_eq!(fs.files().len(), 36);
        let per_dir = dir_bytes();
        assert!(
            (4_900_000..5_300_000).contains(&per_dir),
            "dir bytes {per_dir}"
        );
        assert_eq!(fs.total_bytes(), per_dir);
    }

    #[test]
    fn paper_file_set_size_and_dir_count() {
        let target = (204.8 * 1024.0 * 1024.0) as u64;
        let fs = FileSet::specweb99(target);
        assert!(fs.total_bytes() >= target);
        // ~205 MB / ~5.1 MB per dir ≈ 42 dirs.
        assert!((40..=44).contains(&fs.dirs()), "dirs {}", fs.dirs());
    }

    #[test]
    fn ids_are_dense_and_lookup_agrees() {
        let fs = FileSet::with_dirs(3);
        for (i, f) in fs.files().iter().enumerate() {
            assert_eq!(f.id as usize, i);
            assert_eq!(fs.lookup(f.dir, f.class.0, f.index).unwrap().id, f.id);
            assert_eq!(fs.file(f.id).path(), f.path());
        }
    }

    #[test]
    fn paths_resolve_round_trip() {
        let fs = FileSet::with_dirs(2);
        for f in fs.files() {
            let resolved = fs.resolve(&f.path()).expect("resolvable");
            assert_eq!(resolved.id, f.id);
        }
        assert!(fs.resolve("/nope").is_none());
        assert!(
            fs.resolve("/dir0009/class1_5").is_none(),
            "dir out of range"
        );
        assert!(fs.resolve("/dir0001/class9_5").is_none());
        assert!(fs.resolve("/dir0001/class1_0").is_none());
    }

    #[test]
    fn synth_content_matches_size_and_is_deterministic() {
        let fs = FileSet::with_dirs(1);
        let f = fs.lookup(0, 2, 5).unwrap();
        let a = fs.synth_content(f);
        let b = fs.synth_content(f);
        assert_eq!(a.len(), f.size as usize);
        assert_eq!(a, b);
    }

    /// The per-byte loop `synth_content` replaced: the reference its
    /// output is pinned to.
    fn synth_reference(spec: &FileSpec) -> Vec<u8> {
        let mut data = Vec::with_capacity(spec.size as usize);
        let seed = spec.id.wrapping_mul(0x9E3779B97F4A7C15);
        while data.len() < spec.size as usize {
            let b = (seed >> (data.len() % 57 % 56)) as u8;
            data.push(b ^ (data.len() as u8));
        }
        data
    }

    #[test]
    fn synth_content_is_the_per_byte_formula_for_every_file_of_two_dirs() {
        let fs = FileSet::with_dirs(2);
        for f in fs.files() {
            assert!(fs.synth_content(f) == synth_reference(f), "{}", f.path());
        }
    }

    #[test]
    fn synth_content_is_the_per_byte_formula_around_the_period() {
        let fs = FileSet::with_dirs(1);
        let period = 57 * 256;
        for size in [1, 56, 57, 58, 14_591, 14_592, 14_593, 3 * period + 7] {
            for id in [0, 1, 35, 1_475] {
                let f = FileSpec {
                    id,
                    dir: 0,
                    class: FileClass(3),
                    index: 1,
                    size,
                };
                assert!(
                    fs.synth_content(&f) == synth_reference(&f),
                    "id {id} size {size}"
                );
            }
        }
    }

    #[test]
    fn access_weights_sum_to_one() {
        let sum: f64 = (0u8..4).map(|c| FileClass(c).access_weight()).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
