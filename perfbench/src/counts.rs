//! The count-determinism tripwire: serial expansion and generation counts of
//! every (instance, algorithm) must repeat exactly, within a run and across
//! every run of the same benchmark binary (untraced and traced alike).
//!
//! The counts of earlier runs are kept in a file named after a hash of the
//! running executable, so a build of other code starts a baseline of its
//! own: a change that rightly alters the counts never trips against the
//! counts of its parent, whatever order the two run in.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::io::Read;
use std::path::PathBuf;

use optsched::core::SearchStats;

/// Directory (relative to the checkout root) for the benchmark's outputs.
pub const OUT_DIR: &str = ".bench_out";

/// Observed `(expanded, generated)` by `(instance key, algorithm)`.
#[derive(Debug, Default)]
pub struct Counts {
    seen: BTreeMap<(String, String), (u64, u64)>,
    path: Option<PathBuf>,
}

impl Counts {
    /// Counts recorded by earlier runs of this binary, if any.  Without a
    /// readable executable the tripwire covers this run only.
    pub fn load() -> Counts {
        let Some(build) = build_hash() else {
            return Counts::default();
        };
        let path = PathBuf::from(OUT_DIR).join(format!("exact_counts-{build:016x}.txt"));
        let mut seen = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            seen = parse(&text);
        }
        Counts {
            seen,
            path: Some(path),
        }
    }

    /// Compares `stats` with every earlier observation of the pair and
    /// records it if it is the first.
    pub fn check(&mut self, key: &str, alg: &str, stats: &SearchStats) -> Result<(), String> {
        let now = (stats.expanded, stats.generated);
        match self.seen.get(&(key.to_string(), alg.to_string())) {
            Some(&before) if before != now => Err(format!(
                "{key} {alg}: expanded/generated {}/{} differ from the earlier {}/{}",
                now.0, now.1, before.0, before.1
            )),
            Some(_) => Ok(()),
            None => {
                self.seen.insert((key.to_string(), alg.to_string()), now);
                Ok(())
            }
        }
    }

    /// Writes the counts back for later runs.
    pub fn save(&self) {
        let Some(path) = &self.path else { return };
        let _ = std::fs::create_dir_all(OUT_DIR);
        let _ = std::fs::write(path, render(&self.seen));
    }
}

/// A hash of the running executable's bytes: equal for runs of one build.
fn build_hash() -> Option<u64> {
    let mut file = std::fs::File::open(std::env::current_exe().ok()?).ok()?;
    let mut hasher = DefaultHasher::new();
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = file.read(&mut buf).ok()?;
        if n == 0 {
            return Some(hasher.finish());
        }
        hasher.write(&buf[..n]);
    }
}

fn render(seen: &BTreeMap<(String, String), (u64, u64)>) -> String {
    let mut out = String::new();
    for ((key, alg), (e, g)) in seen {
        let _ = writeln!(out, "{key} {alg} {e} {g}");
    }
    out
}

fn parse(text: &str) -> BTreeMap<(String, String), (u64, u64)> {
    let mut seen = BTreeMap::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [key, alg, e, g] = f[..] {
            if let (Ok(e), Ok(g)) = (e.parse(), g.parse()) {
                seen.insert((key.to_string(), alg.to_string()), (e, g));
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_changed_count_trips_and_counts_round_trip() {
        let mut c = Counts::default();
        let s = SearchStats {
            expanded: 10,
            generated: 30,
            ..Default::default()
        };
        assert!(c.check("v8-ccr1-i0", "astar", &s).is_ok());
        assert!(c.check("v8-ccr1-i0", "astar", &s).is_ok());
        let moved = SearchStats {
            expanded: 11,
            ..s.clone()
        };
        assert!(c.check("v8-ccr1-i0", "astar", &moved).is_err());
        assert!(
            c.check("v8-ccr1-i0", "aeps", &moved).is_ok(),
            "another algorithm is another pair"
        );
        assert_eq!(parse(&render(&c.seen)), c.seen);
    }

    #[test]
    fn the_build_hash_names_one_binary() {
        let h = build_hash();
        assert!(h.is_some(), "the running executable is readable");
        assert_eq!(h, build_hash());
    }
}
