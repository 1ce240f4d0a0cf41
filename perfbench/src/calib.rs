//! The host-speed reference of the exact workloads.
//!
//! On a shared host the speed of the same code changes in spells of seconds
//! to minutes (on the 2-core development host every exact job, from 0.06 ms
//! to 700 ms, spread by 0.3–0.5 of its median across a few minutes), so the
//! wall time of a run says as much about the host as about the program.
//! The exact workloads therefore run [`reference`] after every solve and
//! scale each solve's time by the host's speed at that moment: the median
//! time of the nearest reference calls ([`local`]) against
//! [`REF_NOMINAL_MS`].  The reference is the benchmark's own code, a small
//! best-first search with the same kinds of work as the program's (a binary
//! heap of small vectors, a hash set of them, allocation), so no change to
//! the program changes it.  Keep it as it is: a change to it rescales every
//! normalised time.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashSet};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Median time of one [`reference`] call on the development host (2-core
/// Xeon VM, quiet spell); a normalised time is in ms at this speed.
pub const REF_NOMINAL_MS: f64 = 2.0;
/// Reference calls on each side of a solve whose median gives its local
/// reference time.
pub const NEIGHBOURS: usize = 8;
/// Searches per reference call.
const SEARCHES: u64 = 8;
/// Expansions per search: the open list, closed set and states stay near
/// 100 KiB, inside the core's own cache, so the call measures the core's
/// speed rather than what the solve before it left in the caches.
const EXPANSIONS: usize = 400;
/// State length and children per expansion.
const STATE_LEN: usize = 12;
const CHILDREN: u16 = 4;

/// A fixed hasher, so every call does exactly the same work.
type Fixed = BuildHasherDefault<DefaultHasher>;

/// One search of the reference: expands up to [`EXPANSIONS`] states of a
/// synthetic best-first search and returns a checksum of what it did.
fn search(seed: u64) -> u64 {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut open: BinaryHeap<(u32, Vec<u16>)> = BinaryHeap::new();
    let mut closed: HashSet<Vec<u16>, Fixed> = HashSet::default();
    open.push((u32::MAX, vec![0; STATE_LEN]));
    let mut sum = 0u64;
    while let Some((f, state)) = open.pop() {
        if !closed.insert(state.clone()) {
            continue;
        }
        sum = sum.wrapping_mul(31).wrapping_add(u64::from(f));
        if closed.len() >= EXPANSIONS {
            break;
        }
        for k in 1..=CHILDREN {
            let mut child = state.clone();
            let i = (next() % STATE_LEN as u64) as usize;
            child[i] = child[i].wrapping_add(k);
            let g: u32 = child.iter().map(|&x| u32::from(x)).sum();
            open.push((u32::MAX - g - (next() % 16) as u32, child));
        }
    }
    sum ^ open.len() as u64
}

/// Runs the reference once and returns its wall time in ms.
pub fn reference() -> f64 {
    let t = Instant::now();
    black_box(checksum());
    t.elapsed().as_secs_f64() * 1e3
}

/// The reference's work: [`SEARCHES`] searches, folded into a checksum.
fn checksum() -> u64 {
    (0..SEARCHES).fold(0, |acc, i| acc ^ search(black_box(0x9E37_79B9 + i)))
}

/// For each reference time in `refs` (in time order), the median of it and
/// its [`NEIGHBOURS`] nearest calls on each side (fewer at the ends).
pub fn local(refs: &[f64]) -> Vec<f64> {
    (0..refs.len())
        .map(|i| {
            let lo = i.saturating_sub(NEIGHBOURS);
            let hi = (i + NEIGHBOURS + 1).min(refs.len());
            let mut w = refs[lo..hi].to_vec();
            w.sort_by(f64::total_cmp);
            w[(w.len() - 1) / 2]
        })
        .collect()
}

/// `ms` at the nominal host speed, given the local reference time.
pub fn normalise(ms: f64, local_ref_ms: f64) -> f64 {
    if local_ref_ms > 0.0 {
        ms * REF_NOMINAL_MS / local_ref_ms
    } else {
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_does_fixed_work() {
        // Changing the reference rescales every normalised time: this pins
        // its work.
        assert_eq!(checksum(), 3_952_691_098_707_005_226);
        assert!(reference() > 0.0);
    }

    #[test]
    fn local_is_the_median_of_the_neighbourhood() {
        let mut r = vec![1.0; 20];
        r[3] = 9.0;
        // One slow call does not move its neighbours' local time.
        assert_eq!(local(&r), vec![1.0; 20]);
        // A slow spell longer than the neighbourhood does.
        let s: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 2.0 }).collect();
        let l = local(&s);
        assert_eq!(l[0], 1.0);
        assert_eq!(l[19], 2.0);
        assert_eq!(local(&[3.0]), vec![3.0]);
        assert!(local(&[]).is_empty());
    }

    #[test]
    fn normalise_scales_to_the_nominal_speed() {
        assert_eq!(normalise(10.0, REF_NOMINAL_MS), 10.0);
        assert_eq!(normalise(10.0, 2.0 * REF_NOMINAL_MS), 5.0);
        assert_eq!(normalise(10.0, 0.0), 10.0);
    }
}
