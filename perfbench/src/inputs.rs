//! Seeded program inputs.
//!
//! Seed 0 is the paper's inputs: replace's `[a-c]x` / `Z` / `axbxdx` and
//! tcas's upward-advisory vector. Any other seed draws distinct replace
//! lines of the same length over the same alphabet — permutations of the
//! paper's line that make as many substitutions as it does — and one of
//! `tcas_input`'s four canned vectors per line. The pattern and
//! substitution never change.
//!
//! Why permutations: the search's cost follows the line's shape. Over the
//! 360 length-6 lines on `{a, b, d, x}` with two substitutions, campaign
//! time spreads by a quarter between quartiles and the BFS frontier peak
//! jumps between ~21 MB and ~69 MB; over the 24 qualifying permutations
//! of `axbxdx` the peak stays at ~21 MB and the time spread halves. A
//! run's figures then describe one workload, not a mix of two.

use std::collections::BTreeSet;

use sympl_apps::{replace_input, tcas_input};

/// The paper's replace pattern.
pub const REPLACE_PATTERN: &str = "[a-c]x";
/// The paper's replace substitution.
pub const REPLACE_SUBSTITUTION: &str = "Z";
/// The paper's replace line.
pub const REPLACE_LINE: &str = "axbxdx";

/// SplitMix64: a small, well-mixed generator, enough to draw inputs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One draw of program inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// The replace line (pattern and substitution are fixed).
    pub replace_line: String,
    /// Which canned tcas vector was drawn, by `tcas_input` function name.
    pub tcas_name: &'static str,
    /// The tcas input stream.
    pub tcas: Vec<i64>,
}

impl Inputs {
    /// The paper's inputs.
    #[must_use]
    pub fn paper() -> Inputs {
        Inputs {
            replace_line: REPLACE_LINE.to_owned(),
            tcas_name: "upward_advisory",
            tcas: tcas_input::upward_advisory(),
        }
    }

    /// The replace input stream.
    #[must_use]
    pub fn replace(&self) -> Vec<i64> {
        replace_input::encode(REPLACE_PATTERN, REPLACE_SUBSTITUTION, &self.replace_line)
    }
}

/// How many times the paper's pattern `[a-c]x` matches in `line` — the
/// number of substitutions replace makes. A match is never followed by
/// an overlapping one, since `x` is outside `[a-c]`.
#[must_use]
pub fn substitutions(line: &str) -> usize {
    let chars: Vec<char> = line.chars().collect();
    chars
        .windows(2)
        .filter(|w| ('a'..='c').contains(&w[0]) && w[1] == 'x')
        .count()
}

/// A canned tcas input constructor.
type TcasVector = fn() -> Vec<i64>;

/// Every distinct permutation of the paper's line that makes as many
/// substitutions as it does, in sorted order.
#[must_use]
pub fn replace_lines() -> Vec<String> {
    fn permute(rest: &mut Vec<char>, line: &mut String, out: &mut BTreeSet<String>) {
        if rest.is_empty() {
            out.insert(line.clone());
            return;
        }
        for i in 0..rest.len() {
            let c = rest.remove(i);
            line.push(c);
            permute(rest, line, out);
            line.pop();
            rest.insert(i, c);
        }
    }
    let mut all = BTreeSet::new();
    permute(
        &mut REPLACE_LINE.chars().collect(),
        &mut String::new(),
        &mut all,
    );
    all.into_iter()
        .filter(|line| substitutions(line) == substitutions(REPLACE_LINE))
        .collect()
}

/// The inputs of one run: seed 0 gives the paper's inputs alone; any
/// other seed draws `count` distinct lines from [`replace_lines`] (all of
/// them if `count` is larger) and a tcas vector for each.
#[must_use]
pub fn input_set(seed: u64, count: usize) -> Vec<Inputs> {
    if seed == 0 {
        return vec![Inputs::paper()];
    }
    let mut rng = SplitMix64(seed);
    let mut lines = replace_lines();
    for i in (1..lines.len()).rev() {
        lines.swap(i, rng.below(i + 1));
    }
    let vectors: [(&'static str, TcasVector); 4] = [
        ("upward_advisory", tcas_input::upward_advisory),
        ("downward_advisory", tcas_input::downward_advisory),
        ("unresolved", tcas_input::unresolved),
        ("disabled", tcas_input::disabled),
    ];
    lines
        .into_iter()
        .take(count.max(1))
        .map(|replace_line| {
            let (tcas_name, tcas) = vectors[rng.below(vectors.len())];
            Inputs {
                replace_line,
                tcas_name,
                tcas: tcas(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_paper_inputs() {
        let set = input_set(0, 8);
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].replace(), sympl_apps::replace().input);
        assert_eq!(set[0].tcas, sympl_apps::tcas().input);
    }

    #[test]
    fn a_fixed_seed_is_stable() {
        let set = input_set(7, 3);
        assert_eq!(set, input_set(7, 3));
        // Pinned so a change to the generator shows up as a changed input.
        let lines: Vec<&str> = set.iter().map(|i| i.replace_line.as_str()).collect();
        let vectors: Vec<&str> = set.iter().map(|i| i.tcas_name).collect();
        assert_eq!(lines, ["axxbxd", "bxxaxd", "axdbxx"]);
        assert_eq!(
            vectors,
            ["disabled", "upward_advisory", "downward_advisory"]
        );
    }

    #[test]
    fn there_are_24_lines() {
        let lines = replace_lines();
        assert_eq!(lines.len(), 24);
        assert!(lines.iter().any(|l| l == REPLACE_LINE));
    }

    #[test]
    fn other_seeds_draw_distinct_permutations() {
        let sorted = |s: &str| {
            let mut c: Vec<char> = s.chars().collect();
            c.sort_unstable();
            c
        };
        assert_eq!(substitutions(REPLACE_LINE), 2);
        for seed in 1..50 {
            let set = input_set(seed, 16);
            let distinct: BTreeSet<&str> = set.iter().map(|i| i.replace_line.as_str()).collect();
            assert_eq!(distinct.len(), 16);
            for inputs in set {
                assert_eq!(sorted(&inputs.replace_line), sorted(REPLACE_LINE));
                assert_eq!(substitutions(&inputs.replace_line), 2);
                assert_eq!(inputs.tcas.len(), 12);
            }
        }
    }
}
