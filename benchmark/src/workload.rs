//! The four workloads: what files they serve, how requests are drawn
//! from the seed, and how the clients pace them. The server sees none of
//! this — only the request bytes that come out.

use std::sync::Arc;

use nserver_http::{ContentStore, MemStore};
use nserver_specweb::{AccessSampler, FileSet};

/// Client threads, and connections open at any instant. The reference
/// box has two cores and the generator may not use more than the box
/// has; `main` refuses to run on fewer.
pub const CLIENTS: usize = 2;

/// Client `lane`'s part of `total` requests or connections dealt evenly.
pub fn share_of(total: u64, lane: usize) -> u64 {
    total / CLIENTS as u64 + u64::from((lane as u64) < total % CLIENTS as u64)
}

/// SpecWeb99's connection model: connect, five requests, close.
pub const REQUESTS_PER_CHURN_CONN: usize = 5;

/// Which SpecWeb99 size classes a workload draws from, as the slice of
/// the class distribution's unit interval that `AccessSampler` maps to
/// them (classes 0-1 carry 0.35 + 0.50 of the accesses, 2-3 the rest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Classes {
    /// 102 B - 9.2 KB.
    Small,
    /// 10 KB - 921 KB.
    Large,
    /// The full SpecWeb99 mix.
    All,
}

impl Classes {
    fn unit_range(self) -> (f64, f64) {
        match self {
            Classes::Small => (0.0, 0.85),
            Classes::Large => (0.85, 1.0),
            Classes::All => (0.0, 1.0),
        }
    }

    fn holds(self, class: u8) -> bool {
        match self {
            Classes::Small => class <= 1,
            Classes::Large => class >= 2,
            Classes::All => true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Closed loop on keep-alive connections: write `depth` requests,
    /// read `depth` responses, repeat.
    Pipelined { depth: usize },
    /// Closed loop, a fresh connection per five requests, the fifth
    /// carrying `Connection: close`; the client reads to end of stream.
    Churn,
    /// Open loop: Poisson arrivals at `rate_per_conn` requests a second
    /// on each keep-alive connection, written when due whether or not
    /// earlier ones have been answered.
    Open { rate_per_conn: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// SpecWeb99 directories in the file set.
    pub dirs: u32,
    pub classes: Classes,
    pub pacing: Pacing,
    /// Compare every body byte for byte; otherwise every 16th body in
    /// full and the first and last 64 bytes of the rest.
    pub full_body_check: bool,
}

/// The paper's file set: ten times the 20 MB cache.
const SPECWEB_TARGET_BYTES: u64 = 2048 * 1024 * 1024 / 10;

pub fn all() -> [Workload; 4] {
    [
        Workload {
            name: "small_pipelined",
            dirs: 4,
            classes: Classes::Small,
            pacing: Pacing::Pipelined { depth: 16 },
            full_body_check: true,
        },
        Workload {
            name: "large_body",
            dirs: 2,
            classes: Classes::Large,
            pacing: Pacing::Pipelined { depth: 4 },
            full_body_check: false,
        },
        Workload {
            name: "specweb_churn",
            dirs: FileSet::specweb99(SPECWEB_TARGET_BYTES).dirs(),
            classes: Classes::All,
            pacing: Pacing::Churn,
            full_body_check: true,
        },
        Workload {
            name: "open_rate",
            dirs: 4,
            classes: Classes::Small,
            pacing: Pacing::Open {
                rate_per_conn: 1000.0,
            },
            full_body_check: true,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// splitmix64 (Steele, Lea and Flood): the harness's only randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for connection `lane` of the same seed.
    pub fn lane(seed: u64, lane: usize) -> Self {
        let mut root = Self(seed ^ 0xC0B5_0000_0000_0000);
        for _ in 0..=lane {
            root.next_u64();
        }
        Self(root.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean (Poisson gaps).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// A `MemStore` that several services can serve from: the ladder starts
/// the service more than once over one synthesised file set. (A newtype,
/// because `ContentStore` cannot be implemented for `Arc<MemStore>` from
/// outside its crate.)
#[derive(Clone)]
pub struct Store(Arc<MemStore>);

impl ContentStore for Store {
    fn load(&self, path: &str) -> Option<Arc<Vec<u8>>> {
        self.0.load(path)
    }
}

/// One servable file: its request bytes and the body the server owes.
pub struct File {
    pub path: String,
    pub body: Arc<Vec<u8>>,
    pub request: Vec<u8>,
    /// The same request carrying `Connection: close`.
    pub closing_request: Vec<u8>,
}

/// A workload's files, synthesised once per set-up and shared by the
/// server's store (through the same `Arc`s) and the clients' checks.
pub struct Files {
    set: FileSet,
    sampler: AccessSampler,
    classes: Classes,
    /// Indexed by `FileSpec::id`; `None` outside the workload's classes.
    by_id: Vec<Option<File>>,
}

impl Files {
    /// Synthesise the contents and hand back the store to serve them from.
    pub fn synthesise(w: &Workload) -> (Arc<Files>, Store) {
        let set = FileSet::with_dirs(w.dirs);
        let mut store = MemStore::new();
        let mut by_id = Vec::with_capacity(set.files().len());
        for spec in set.files() {
            if !w.classes.holds(spec.class.0) {
                by_id.push(None);
                continue;
            }
            let path = spec.path();
            store.insert(path.clone(), set.synth_content(spec));
            let body = store.load(&path).expect("just inserted");
            by_id.push(Some(File {
                request: format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes(),
                closing_request: format!(
                    "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
                )
                .into_bytes(),
                path,
                body,
            }));
        }
        let files = Files {
            sampler: AccessSampler::new(&set),
            set,
            classes: w.classes,
            by_id,
        };
        (Arc::new(files), Store(Arc::new(store)))
    }

    pub fn get(&self, id: u32) -> &File {
        self.by_id[id as usize]
            .as_ref()
            .expect("streams only draw ids inside the workload's classes")
    }

    /// Every servable file id, in id order (the warm-up walks these).
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.by_id
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_some())
            .map(|(i, _)| i as u32)
    }

    pub fn total_bytes(&self) -> u64 {
        self.by_id
            .iter()
            .flatten()
            .map(|f| f.body.len() as u64)
            .sum()
    }

    /// The next file id of a stream: SpecWeb99's directory and file
    /// popularity, with the class draw squeezed into the workload's range.
    pub fn draw(&self, rng: &mut SplitMix64) -> u32 {
        let (lo, hi) = self.classes.unit_range();
        let (u_dir, u_class, u_file) = (rng.unit(), lo + rng.unit() * (hi - lo), rng.unit());
        self.sampler.sample_with(&self.set, u_dir, u_class, u_file) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(w: &Workload, files: &Files, seed: u64, lane: usize, n: usize) -> Vec<u32> {
        let _ = w;
        let mut rng = SplitMix64::lane(seed, lane);
        (0..n).map(|_| files.draw(&mut rng)).collect()
    }

    #[test]
    fn same_seed_same_requests_and_another_seed_differs() {
        let w = by_name("small_pipelined").unwrap();
        let (files, _) = Files::synthesise(&w);
        let a = sequence(&w, &files, 7, 0, 500);
        assert_eq!(a, sequence(&w, &files, 7, 0, 500));
        assert_ne!(a, sequence(&w, &files, 8, 0, 500));
        assert_ne!(a, sequence(&w, &files, 7, 1, 500), "lanes are independent");
    }

    #[test]
    fn class_restriction_holds_and_shapes_the_sizes() {
        let small = by_name("small_pipelined").unwrap();
        let (files, store) = Files::synthesise(&small);
        assert_eq!(store.0.len(), 4 * 18);
        let mut rng = SplitMix64::new(3);
        let mean = (0..20_000)
            .map(|_| files.get(files.draw(&mut rng)).body.len() as f64)
            .sum::<f64>()
            / 20_000.0;
        assert!((1_000.0..4_000.0).contains(&mean), "small mean {mean}");

        let large = by_name("large_body").unwrap();
        let (files, _) = Files::synthesise(&large);
        assert!(
            files.total_bytes() < 11 << 20,
            "fits the 20 MB cache twice over"
        );
        let mut rng = SplitMix64::new(3);
        let mean = (0..20_000)
            .map(|_| {
                let body = files.get(files.draw(&mut rng)).body.len();
                assert!(body >= 10_240);
                body as f64
            })
            .sum::<f64>()
            / 20_000.0;
        assert!((40_000.0..90_000.0).contains(&mean), "large mean {mean}");
    }

    #[test]
    fn churn_uses_the_papers_file_set() {
        let w = by_name("specweb_churn").unwrap();
        assert!((40..=44).contains(&w.dirs), "dirs {}", w.dirs);
    }

    #[test]
    fn exponential_gaps_have_the_asked_mean() {
        let mut rng = SplitMix64::new(11);
        let mean = (0..100_000).map(|_| rng.exponential(0.001)).sum::<f64>() / 100_000.0;
        assert!((mean - 0.001).abs() < 0.00002, "mean gap {mean}");
    }
}
