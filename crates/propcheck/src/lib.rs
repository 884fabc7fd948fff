//! Property checks that replay.
//!
//! [`check`] runs a property over a fixed sequence of seeds, `0..cases`,
//! each case drawing its input from a [`Gen`]. The seed alone decides
//! every draw, so two runs visit identical cases, and a failure names the
//! seed that reproduces it: `NSERVER_REPLAY_SEED=n` — the variable the
//! conformance explorer and the chaos suite read — narrows every property
//! to exactly case `n`. Collection lengths are *sized*: they ramp from
//! almost nothing in the first cases to their full range by the middle
//! one, so the first failure a property meets is a small one. There is no
//! shrinking beyond that, and no strategy combinators: a generator is a
//! function of `&mut Gen`.

use std::ops::{Bound, Range, RangeBounds};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Lengths are drawn from this share of their range, in percent.
const FULL: u64 = 100;

/// A splitmix64 stream (Steele, Lea and Flood) and the size its length
/// draws are scaled by.
pub struct Gen {
    state: u64,
    size: u64,
}

/// The unsigned integers [`Gen::range`] draws.
pub trait Int: Copy {
    const MAX: Self;
    fn to_u64(self) -> u64;
    fn from_u64(v: u64) -> Self;
}

macro_rules! int {
    ($($t:ty),*) => {$(
        impl Int for $t {
            const MAX: Self = <$t>::MAX;
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}
int!(u8, u16, u32, u64, usize);

impl Gen {
    /// The stream of case `seed` of `cases`: size 1% at the first case,
    /// full from the middle one on (and for any seed past the sequence).
    fn for_case(seed: u64, cases: u64) -> Self {
        let ramp = seed.saturating_add(1).saturating_mul(2 * FULL) / cases.max(1);
        Self {
            state: seed,
            size: ramp.clamp(1, FULL),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻⁶⁴·n).
    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// Uniform over `range`, whatever the size: `g.range(1u16..2048)`,
    /// `g.range(0..=max)`, `g.range::<u8>(..)`.
    pub fn range<T: Int>(&mut self, range: impl RangeBounds<T>) -> T {
        let (lo, hi) = inclusive(range);
        match (hi - lo).checked_add(1) {
            Some(span) => T::from_u64(lo + self.below(span)),
            None => T::from_u64(self.next_u64()),
        }
    }

    /// Any value of the type.
    pub fn any<T: Int>(&mut self) -> T {
        self.range(..)
    }

    /// Uniform over the half-open float range.
    pub fn f64(&mut self, range: Range<f64>) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        range.start + unit * (range.end - range.start)
    }

    /// A length: the low end of `range` plus a draw from this case's
    /// share of what lies above it.
    pub fn len(&mut self, range: impl RangeBounds<usize>) -> usize {
        let (lo, hi) = inclusive(range);
        let span = ((hi - lo + 1) * self.size).div_ceil(FULL);
        (lo + self.below(span)) as usize
    }

    /// `len` items, each drawn by `item`.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        (0..self.len(len)).map(|_| item(self)).collect()
    }

    /// One of `items`, each as likely as the next.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// `len` characters of `alphabet`.
    pub fn string(&mut self, alphabet: &str, len: impl RangeBounds<usize>) -> String {
        let alphabet: Vec<char> = alphabet.chars().collect();
        (0..self.len(len)).map(|_| *self.pick(&alphabet)).collect()
    }

    /// `len` characters that are not control characters: printable ASCII
    /// three times in four, otherwise anything up to U+2FFF.
    pub fn text(&mut self, len: impl RangeBounds<usize>) -> String {
        let n = self.len(len);
        let mut char = || loop {
            let wide = self.below(4) == 0;
            let code = self.range(if wide { 0xA0u32..0x3000 } else { 0x20..0x7F });
            if let Some(c) = char::from_u32(code).filter(|c| !c.is_control()) {
                break c;
            }
        };
        (0..n).map(|_| char()).collect()
    }
}

/// The bounds of a non-empty range of `T`, both inclusive.
fn inclusive<T: Int>(range: impl RangeBounds<T>) -> (u64, u64) {
    let lo = match range.start_bound() {
        Bound::Included(&a) => a.to_u64(),
        Bound::Excluded(&a) => a.to_u64() + 1,
        Bound::Unbounded => 0,
    };
    let hi = match range.end_bound() {
        Bound::Included(&b) => b.to_u64(),
        Bound::Excluded(&b) => b.to_u64().checked_sub(1).expect("empty range"),
        Bound::Unbounded => T::MAX.to_u64(),
    };
    assert!(lo <= hi, "empty range");
    (lo, hi)
}

/// Run `property` on cases `0..cases`, or on the one case
/// `NSERVER_REPLAY_SEED` names. A panicking case fails the test with its
/// seed and the command that replays it.
pub fn check(cases: u64, property: impl Fn(&mut Gen)) {
    let seeds = match std::env::var("NSERVER_REPLAY_SEED") {
        Ok(s) => match s.trim().parse::<u64>() {
            Ok(seed) => seed..seed + 1,
            Err(e) => panic!("NSERVER_REPLAY_SEED={s:?} is not a u64: {e}"),
        },
        Err(_) => 0..cases,
    };
    check_seeds(seeds, cases, property);
}

fn check_seeds(seeds: Range<u64>, cases: u64, property: impl Fn(&mut Gen)) {
    for seed in seeds {
        let mut gen = Gen::for_case(seed, cases);
        // The hook has already printed the panic's own message and place.
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut gen))) {
            let why = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(a panic with no message)");
            let thread = std::thread::current();
            panic!(
                "property failed at seed {seed} of {cases}: {why}\n\
                 replay with: NSERVER_REPLAY_SEED={seed} cargo test {}",
                thread.name().unwrap_or("<the test's name>")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// The message `f` panics with.
    fn panic_of(f: impl FnOnce()) -> String {
        let panic = catch_unwind(AssertUnwindSafe(f)).expect_err("must fail");
        panic.downcast_ref::<String>().expect("a message").clone()
    }

    /// What a property over `vec(0..60, any::<u8>())` is handed, per case.
    fn visited(run: impl FnOnce(&dyn Fn(&mut Gen))) -> Vec<Vec<u8>> {
        let seen = RefCell::new(Vec::new());
        run(&|g| seen.borrow_mut().push(g.vec(0..60, Gen::any::<u8>)));
        seen.into_inner()
    }

    #[test]
    fn a_false_property_names_its_seed_and_the_seed_replays_the_draw() {
        // False from the first input of 20 items on: the ramp gets there.
        let falsehood = |g: &mut Gen| {
            let v = g.vec(0..60, Gen::any::<u8>);
            assert!(v.len() < 20, "{v:?} is long");
        };
        let why = panic_of(|| check_seeds(0..64, 64, falsehood));
        let seed: u64 = why
            .split_once("NSERVER_REPLAY_SEED=")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .expect("a replay command")
            .parse()
            .expect("a seed");
        assert!(why.starts_with(&format!("property failed at seed {seed} of 64: [")));
        assert!(why.contains("is long"), "the property's own message: {why}");

        // The variable narrows `check` to that case, which draws the
        // same input and fails the same way; unset, every case runs.
        // (The only test here that touches the environment or `check`.)
        std::env::set_var("NSERVER_REPLAY_SEED", seed.to_string());
        let replayed = visited(|p| check(64, p));
        let again = panic_of(|| check(64, falsehood));
        std::env::remove_var("NSERVER_REPLAY_SEED");
        assert_eq!(again, why);
        let all = visited(|p| check(64, p));
        assert_eq!(all.len(), 64);
        assert_eq!(replayed, [all[seed as usize].clone()]);
    }

    #[test]
    fn a_seed_decides_every_draw_and_two_runs_visit_the_same_cases() {
        let draws = |seed| {
            let mut g = Gen::for_case(seed, 1);
            let numbers = (g.any::<u64>(), g.bool(), g.f64(-1.0..1.0));
            (numbers, g.string("abc", 0..=9), g.text(0..9))
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7).0 .0, draws(8).0 .0);
        let run = || visited(|p| check_seeds(0..48, 48, p));
        assert_eq!(run(), run());
    }

    #[test]
    fn sizes_ramp_from_small_to_full() {
        let cases = visited(|p| check_seeds(0..64, 64, p));
        let lens: Vec<usize> = cases.iter().map(Vec::len).collect();
        assert!(lens[..4].iter().all(|&l| l <= 8), "short first: {lens:?}");
        assert!(lens[32..].iter().any(|&l| l >= 50), "full later: {lens:?}");
        assert!(lens.iter().all(|&l| l < 60));
        // A length's low end holds at any size; a value's range is never scaled.
        let mut small = Gen::for_case(0, 1000);
        assert_eq!(small.len(2..8), 2);
        assert_eq!(small.vec(64..=64, Gen::bool).len(), 64);
        assert!((0..200).any(|_| small.range(0u32..1000) > 900));
    }

    #[test]
    fn range_draws_stay_inside_their_bounds_and_reach_both_ends() {
        let mut g = Gen::for_case(1, 1);
        let mut seen = [false; 8];
        for _ in 0..400 {
            seen[g.range(3u8..7) as usize] = true;
            seen[g.range(1usize..=2)] = true;
            assert!((5.0..6.0).contains(&g.f64(5.0..6.0)));
            assert!(g.range(u64::MAX - 1..) >= u64::MAX - 1);
            assert_eq!(g.range(9u16..10), 9);
            assert!("xyz".contains(&g.string("xyz", 1..=1)));
            assert!(g.text(0..20).chars().all(|c| !c.is_control()));
            assert!([10, 20].contains(g.pick(&[10, 20])));
        }
        assert_eq!(seen, [false, true, true, true, true, true, true, false]);
        assert!((0..64).any(|_| g.any::<u8>() > 200));
    }
}
