//! Output checks computed apart from the program.
//!
//! Nothing here trusts the map's own bookkeeping: expected outcomes come
//! from regenerating the operation streams (see `gen`) and from a
//! `BTreeMap`, and final contents come from asking the map, key by key,
//! through `ConcurrentMap::get`.

use crate::drive::{Run, Target};
use crate::gen::{self, Spec, FIND, INSERT};
use nbbst_dictionary::ConcurrentMap;
use std::collections::BTreeMap;

/// What the checks found. `failed` counts operations whose outcome the
/// checks refute; `problems` describes every failed check.
#[derive(Default, Debug)]
pub struct Verdict {
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn ok(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn absorb(&mut self, other: Verdict) {
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    pub fn note(&mut self, problem: String) {
        // Keep the report readable when a fault repeats.
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }
}

/// Which keys of `[0, key_space)` the map holds, asked one key at a time;
/// a stored value that differs from its key is a problem.
pub fn scan<M: ConcurrentMap<u64, u64>>(map: &M, key_space: u64, v: &mut Verdict) -> Vec<bool> {
    (0..key_space)
        .map(|k| match map.get(&k) {
            Some(val) if val != k => {
                v.note(format!("key {k} holds value {val}"));
                true
            }
            found => found.is_some(),
        })
        .collect()
}

/// Presence of each key of the key space before the run.
pub fn presence(prefill: &[u64], key_space: u64) -> Vec<bool> {
    let mut p = vec![false; key_space as usize];
    for &k in prefill {
        p[k as usize] = true;
    }
    p
}

/// One worker: replays its stream into a `BTreeMap` and compares every
/// response, then compares the final contents.
pub fn against_btreemap(
    spec: &Spec,
    seed: u64,
    run: &Run,
    prefill: &[u64],
    final_presence: &[bool],
) -> Verdict {
    assert_eq!(
        run.workers.len(),
        1,
        "the oracle replay needs a total order"
    );
    let mut v = Verdict::default();
    let mut oracle: BTreeMap<u64, u64> = prefill.iter().map(|&k| (k, k)).collect();
    let mut ops = Vec::with_capacity(spec.window);
    for round in 0..run.rounds {
        gen::fill(&mut ops, spec, seed, 0, round);
        for (i, &op) in ops.iter().enumerate() {
            let k = gen::key(op);
            let expected = match gen::kind(op) {
                FIND => oracle.contains_key(&k),
                INSERT => match oracle.entry(k) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(k);
                        true
                    }
                    std::collections::btree_map::Entry::Occupied(_) => false,
                },
                _ => oracle.remove(&k).is_some(),
            };
            let got = run.outcome(0, round, i);
            if got != expected {
                v.failed += 1;
                v.note(format!(
                    "round {round} op {i} ({}) key {k}: map said {got}, BTreeMap {expected}",
                    ["find", "insert", "delete"][gen::kind(op) as usize]
                ));
            }
        }
    }
    let present = final_presence.iter().filter(|&&p| p).count();
    let lost = oracle
        .keys()
        .filter(|&&k| !final_presence[k as usize])
        .count();
    if present != oracle.len() || lost != 0 {
        v.note(format!(
            "final contents: map holds {present} keys, BTreeMap {} ({lost} missing from the map)",
            oracle.len()
        ));
    }
    v
}

/// Any number of workers: per key, initial presence plus successful
/// inserts minus successful deletes must equal final presence. Every
/// update on a key that breaks this counts as failed.
pub fn conservation(
    spec: &Spec,
    seed: u64,
    run: &Run,
    initial: &[bool],
    final_presence: &[bool],
) -> Verdict {
    let n = initial.len();
    let mut net = vec![0i32; n];
    let mut updates = vec![0u32; n];
    let mut ops = Vec::with_capacity(spec.window);
    for w in 0..run.workers.len() {
        for round in 0..run.rounds {
            gen::fill(&mut ops, spec, seed, w, round);
            for (i, &op) in ops.iter().enumerate() {
                let k = gen::key(op) as usize;
                match gen::kind(op) {
                    FIND => continue,
                    INSERT => net[k] += run.outcome(w, round, i) as i32,
                    _ => net[k] -= run.outcome(w, round, i) as i32,
                }
                updates[k] += 1;
            }
        }
    }
    let mut v = Verdict::default();
    for k in 0..n {
        let expected = initial[k] as i32 + net[k];
        if expected != final_presence[k] as i32 {
            v.failed += updates[k] as u64;
            v.note(format!(
                "key {k}: initially {}, net successful updates {:+}, finally {}",
                initial[k] as i32, net[k], final_presence[k] as i32
            ));
        }
    }
    v
}

/// Drops the map, drains its collector and checks that everything ever
/// retired was freed.
pub fn drop_and_drain<M: Target>(map: M, v: &mut Verdict) {
    let collector = map.reclaimer().clone();
    drop(map);
    collector.try_drain(10_000);
    let s = collector.stats();
    if s.retired != s.freed {
        v.note(format!(
            "after drop: retired {} != freed {}",
            s.retired, s.freed
        ));
    }
}

#[cfg(test)]
mod selftest {
    //! The same checks, pointed at deliberately faulty maps, must report
    //! failures; pointed at the real map, none.

    use super::*;
    use crate::drive::{self, Target};
    use crate::gen::{Dist, KeyGen, Mix, Spec};
    use nbbst_core::{NbBst, StatsSnapshot};
    use nbbst_reclaim::Collector;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    #[derive(Clone, Copy)]
    enum Fault {
        None,
        /// Every 97th successful delete reports `false`.
        LostDelete,
        /// Every 89th successful insert stores `key + 1` as the value.
        WrongValue,
        /// Every 101st find of a present key reports `false`.
        MissedFind,
    }

    /// Wraps two trees, one per worker, so that the real map's control
    /// run cannot meet the tree's known multi-updater defect.
    struct Faulty {
        inner: drive::Trees,
        fault: Fault,
        calls: AtomicU64,
    }

    impl Faulty {
        fn new(fault: Fault) -> Faulty {
            Faulty {
                inner: drive::Trees::new(BITS, false),
                fault,
                calls: AtomicU64::new(0),
            }
        }

        fn nth(&self, n: u64) -> bool {
            self.calls.fetch_add(1, Relaxed) % n == n - 1
        }
    }

    impl ConcurrentMap<u64, u64> for Faulty {
        fn insert(&self, key: u64, value: u64) -> bool {
            let value = match self.fault {
                Fault::WrongValue if self.nth(89) => value + 1,
                _ => value,
            };
            self.inner.insert(key, value)
        }
        fn remove(&self, key: &u64) -> bool {
            let ok = self.inner.remove(key);
            ok && !matches!(self.fault, Fault::LostDelete if self.nth(97))
        }
        fn contains(&self, key: &u64) -> bool {
            let ok = self.inner.contains(key);
            ok && !matches!(self.fault, Fault::MissedFind if self.nth(101))
        }
        fn get(&self, key: &u64) -> Option<u64> {
            self.inner.get(key)
        }
        fn quiescent_len(&self) -> usize {
            self.inner.quiescent_len()
        }
    }

    impl Target for Faulty {
        fn shard_of(&self, key: &u64) -> usize {
            self.inner.shard_of(key)
        }
        fn shard(&self, i: usize) -> &NbBst<u64, u64> {
            self.inner.shard(i)
        }
        fn reclaimer(&self) -> &Collector {
            self.inner.reclaimer()
        }
        fn tree_stats(&self) -> Option<StatsSnapshot> {
            None
        }
        fn shard_ops(&self) -> Option<Vec<u64>> {
            None
        }
        fn invariants(&self) -> Result<(), String> {
            self.inner.invariants()
        }
    }

    const BITS: u32 = 10;

    /// Runs the benchmark's driver and checks on a small workload.
    fn verdict(fault: Fault, threads: usize, dist: Dist) -> Verdict {
        let spec = Spec {
            threads,
            window: 4096,
            mix: Mix {
                find: 40,
                insert: 30,
            },
            keys: KeyGen::new(BITS, dist),
            owner: Some(|k| (k >> (BITS - 1)) as usize),
        };
        let map = Faulty::new(fault);
        let prefill = gen::prefill(BITS);
        for &k in &prefill {
            assert!(map.inner.insert(k, k));
        }
        let run = drive::run(&map, &spec, 42, 3, false);
        let mut v = Verdict::default();
        let last = scan(&map, 1 << BITS, &mut v);
        let initial = presence(&prefill, 1 << BITS);
        v.absorb(if threads == 1 {
            against_btreemap(&spec, 42, &run, &prefill, &last)
        } else {
            conservation(&spec, 42, &run, &initial, &last)
        });
        drop_and_drain(map, &mut v);
        v
    }

    #[test]
    fn real_map_passes_every_check() {
        for threads in [1, 2] {
            let v = verdict(Fault::None, threads, Dist::Uniform);
            assert!(v.ok(), "{threads} threads: {v:?}");
            let v = verdict(Fault::None, threads, Dist::Zipf(0.99));
            assert!(v.ok(), "{threads} threads, zipf: {v:?}");
        }
    }

    #[test]
    fn btreemap_replay_catches_a_lost_delete_and_a_missed_find() {
        for fault in [Fault::LostDelete, Fault::MissedFind] {
            let v = verdict(fault, 1, Dist::Uniform);
            assert!(v.failed > 0, "{v:?}");
        }
    }

    #[test]
    fn conservation_catches_a_lost_delete() {
        let v = verdict(Fault::LostDelete, 2, Dist::Uniform);
        assert!(v.failed > 0, "{v:?}");
    }

    #[test]
    fn scan_catches_a_wrong_value() {
        for threads in [1, 2] {
            let v = verdict(Fault::WrongValue, threads, Dist::Uniform);
            assert!(
                v.problems.iter().any(|p| p.contains("holds value")),
                "{v:?}"
            );
        }
    }
}
