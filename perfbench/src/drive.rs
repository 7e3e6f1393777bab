//! The closed-loop driver.
//!
//! A run is a fixed number of rounds. In each round every worker first
//! generates its whole window of operations, then all workers start
//! together and issue their operations back to back, each only after the
//! previous one returned. Every run of a workload therefore attempts the
//! same operations in the same number, whatever the host's speed. Round
//! 0 warms caches and thread registrations and is left out of every
//! metric; its operations are still checked.
//!
//! Only every `STRIDE`-th operation is timed, and the generator runs
//! before a round's clock starts, so neither sits on the measured path.

use crate::alloc;
use crate::gen::{self, Spec, FIND, INSERT};
use crate::host;
use nbbst_core::{NbBst, StatsSnapshot};
use nbbst_dictionary::ConcurrentMap;
use nbbst_reclaim::Collector;
use nbbst_sharded::ShardedNbBst;
use std::sync::Barrier;
use std::time::Instant;

/// One timed operation in this many.
pub const STRIDE: usize = 16;

/// The map under test, seen through its public functions.
pub trait Target: ConcurrentMap<u64, u64> {
    fn shard_of(&self, key: &u64) -> usize;
    fn shard(&self, i: usize) -> &NbBst<u64, u64>;
    /// Whether `shard_of` is the program's routing layer (the sharded
    /// frontend), timed in traced runs and by the route probe.
    fn routes(&self) -> bool {
        false
    }
    fn reclaimer(&self) -> &Collector;
    fn tree_stats(&self) -> Option<StatsSnapshot>;
    /// Completed operations per shard, if built with stats.
    fn shard_ops(&self) -> Option<Vec<u64>>;
    fn invariants(&self) -> Result<(), String>;
}

impl Target for NbBst<u64, u64> {
    fn shard_of(&self, _: &u64) -> usize {
        0
    }
    fn shard(&self, _: usize) -> &NbBst<u64, u64> {
        self
    }
    fn reclaimer(&self) -> &Collector {
        self.collector()
    }
    fn tree_stats(&self) -> Option<StatsSnapshot> {
        self.stats()
    }
    fn shard_ops(&self) -> Option<Vec<u64>> {
        self.stats().map(|s| vec![s.finds + s.inserts + s.deletes])
    }
    fn invariants(&self) -> Result<(), String> {
        self.check_invariants()
    }
}

impl Target for ShardedNbBst<u64, u64> {
    fn shard_of(&self, key: &u64) -> usize {
        ShardedNbBst::shard_of(self, key)
    }
    fn shard(&self, i: usize) -> &NbBst<u64, u64> {
        &self.shards()[i]
    }
    fn routes(&self) -> bool {
        true
    }
    fn reclaimer(&self) -> &Collector {
        self.collector()
    }
    fn tree_stats(&self) -> Option<StatsSnapshot> {
        self.stats()
    }
    fn shard_ops(&self) -> Option<Vec<u64>> {
        self.shard_load_report()
            .map(|r| r.loads().iter().map(|l| l.ops).collect())
    }
    fn invariants(&self) -> Result<(), String> {
        self.check_invariants()
    }
}

/// Two plain trees sharing one collector, each holding one half of the
/// key space, so that each can have a single updater while every worker
/// reads both. The split is the benchmark's own, not the program's
/// sharded frontend.
pub struct Trees {
    trees: Vec<NbBst<u64, u64>>,
    shift: u32,
}

impl Trees {
    /// Two trees over keys in `[0, 2^key_bits)`.
    pub fn new(key_bits: u32, stats: bool) -> Trees {
        let collector = Collector::new();
        let trees = (0..2)
            .map(|_| {
                if stats {
                    NbBst::with_stats_and_collector(collector.clone())
                } else {
                    NbBst::with_collector(collector.clone())
                }
            })
            .collect();
        Trees {
            trees,
            shift: key_bits - 1,
        }
    }

    #[inline]
    fn tree(&self, key: &u64) -> &NbBst<u64, u64> {
        &self.trees[(*key >> self.shift) as usize]
    }
}

impl ConcurrentMap<u64, u64> for Trees {
    fn insert(&self, key: u64, value: u64) -> bool {
        self.tree(&key).insert_entry(key, value).is_ok()
    }
    fn remove(&self, key: &u64) -> bool {
        self.tree(key).remove_key(key)
    }
    fn contains(&self, key: &u64) -> bool {
        self.tree(key).contains_key(key)
    }
    fn get(&self, key: &u64) -> Option<u64> {
        self.tree(key).get_cloned(key)
    }
    fn quiescent_len(&self) -> usize {
        self.trees.iter().map(NbBst::len_slow).sum()
    }
}

impl Target for Trees {
    fn shard_of(&self, key: &u64) -> usize {
        (*key >> self.shift) as usize
    }
    fn shard(&self, i: usize) -> &NbBst<u64, u64> {
        &self.trees[i]
    }
    fn reclaimer(&self) -> &Collector {
        self.trees[0].collector()
    }
    fn tree_stats(&self) -> Option<StatsSnapshot> {
        self.trees
            .iter()
            .map(NbBst::stats)
            .collect::<Option<Vec<_>>>()
            .map(StatsSnapshot::merged)
    }
    fn shard_ops(&self) -> Option<Vec<u64>> {
        self.trees
            .iter()
            .map(|t| t.stats().map(|s| s.finds + s.inserts + s.deletes))
            .collect()
    }
    fn invariants(&self) -> Result<(), String> {
        self.trees.iter().try_for_each(NbBst::check_invariants)
    }
}

/// A span recorded around one sampled call into the map (traced runs).
/// Times are nanoseconds since the run began; `route_end_ns` closes the
/// child span around `shard_of` that opens at `start_ns` (0: no child).
pub struct Span {
    pub thread: u16,
    pub kind: u8,
    pub ok: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    pub route_end_ns: u64,
}

/// Operation classes for allocation tallies.
pub const FIND_ANY: usize = 0;
pub const INSERT_OK: usize = 1;
pub const INSERT_DUP: usize = 2;
pub const DELETE_OK: usize = 3;
pub const DELETE_MISS: usize = 4;

/// `(operations, allocations, allocated bytes)` per class.
pub type AllocTally = [(u64, u64, u64); 5];

/// Latency samples in ns: exact counts below 2^16 ns, raw values above,
/// so memory stays fixed however long the run.
pub struct Latencies {
    counts: Vec<u32>,
    slow: Vec<u32>,
}

impl Default for Latencies {
    fn default() -> Latencies {
        Latencies {
            counts: vec![0; 1 << 16],
            slow: Vec::new(),
        }
    }
}

impl Latencies {
    fn record(&mut self, ns: u32) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.slow.push(ns),
        }
    }

    pub fn len(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum::<u64>() + self.slow.len() as u64
    }

    pub fn merge(&mut self, other: &Latencies) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.slow.extend_from_slice(&other.slow);
    }

    /// The `q`-quantile by nearest rank, in ns.
    pub fn percentile(&self, q: f64) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        let mut rank = ((q * n as f64).ceil() as u64).clamp(1, n) - 1;
        for (ns, &c) in self.counts.iter().enumerate() {
            if rank < c as u64 {
                return ns as f64;
            }
            rank -= c as u64;
        }
        let mut slow = self.slow.clone();
        slow.sort_unstable();
        slow[rank as usize] as f64
    }
}

#[derive(Default)]
pub struct WorkerLog {
    /// One outcome bit per operation, rounds in order.
    pub bits: Vec<u64>,
    pub find_ns: Latencies,
    pub update_ns: Latencies,
    pub starts: Vec<Instant>,
    pub ends: Vec<Instant>,
    pub gen_ns: u64,
    pub gen_ops: u64,
    pub run_delay_ns: u64,
    pub wall_ns: u64,
    pub allocs: AllocTally,
    pub spans: Vec<Span>,
}

pub struct Run {
    pub rounds: u64,
    pub window: usize,
    pub workers: Vec<WorkerLog>,
    pub steal_ticks: u64,
    pub total_ticks: u64,
}

impl Run {
    pub fn attempted(&self) -> u64 {
        self.rounds * (self.window * self.workers.len()) as u64
    }

    pub fn outcome(&self, worker: usize, round: u64, i: usize) -> bool {
        let n = round as usize * self.window + i;
        self.workers[worker].bits[n >> 6] >> (n & 63) & 1 == 1
    }

    /// Operations per second of each measured round (round 0 excluded):
    /// each worker's window over its own busy time, summed over workers.
    /// A worker that finishes early waits for the next round without
    /// pulling down the other's rate, which a closed loop without rounds
    /// would not do either.
    pub fn round_rates(&self) -> Vec<f64> {
        (1..self.rounds as usize)
            .map(|r| {
                self.workers
                    .iter()
                    .map(|w| self.window as f64 / (w.ends[r] - w.starts[r]).as_secs_f64())
                    .sum()
            })
            .collect()
    }
}

#[inline]
fn apply<M: ConcurrentMap<u64, u64> + ?Sized>(map: &M, op: u64) -> bool {
    let k = gen::key(op);
    match gen::kind(op) {
        FIND => map.contains(&k),
        INSERT => map.insert(k, k),
        _ => map.remove(&k),
    }
}

fn class(op: u64, ok: bool) -> usize {
    match (gen::kind(op), ok) {
        (FIND, _) => FIND_ANY,
        (INSERT, true) => INSERT_OK,
        (INSERT, false) => INSERT_DUP,
        (_, true) => DELETE_OK,
        (_, false) => DELETE_MISS,
    }
}

fn play<M: Target>(map: &M, ops: &[u64], bits: &mut [u64]) {
    for (i, &op) in ops.iter().enumerate() {
        if apply(map, op) {
            bits[i >> 6] |= 1 << (i & 63);
        }
    }
}

/// The measured loop. `TRACED` adds per-operation allocation tallies and
/// a span per sampled call; the untraced loop carries neither.
fn play_sampled<M: Target, const TRACED: bool>(
    map: &M,
    ops: &[u64],
    bits: &mut [u64],
    log: &mut WorkerLog,
    thread: u16,
    epoch: Instant,
) {
    let routed = TRACED && map.routes();
    for (i, &op) in ops.iter().enumerate() {
        let before = if TRACED {
            alloc::thread_allocs()
        } else {
            (0, 0)
        };
        let (ok, times) = if i & (STRIDE - 1) == 0 {
            let t0 = Instant::now();
            let (ok, t_route) = if routed {
                let s = map.shard_of(&gen::key(op));
                let t_route = Instant::now();
                (apply(map.shard(s), op), Some(t_route))
            } else {
                (apply(map, op), None)
            };
            (ok, Some((t0, t_route, Instant::now())))
        } else {
            (apply(map, op), None)
        };
        if TRACED {
            let after = alloc::thread_allocs();
            let t = &mut log.allocs[class(op, ok)];
            t.0 += 1;
            t.1 += after.0 - before.0;
            t.2 += after.1 - before.1;
        }
        if let Some((t0, t_route, t1)) = times {
            let ns = (t1 - t0).as_nanos().min(u32::MAX as u128) as u32;
            if gen::kind(op) == FIND {
                log.find_ns.record(ns);
            } else {
                log.update_ns.record(ns);
            }
            if TRACED {
                let since = |t: Instant| (t - epoch).as_nanos() as u64;
                log.spans.push(Span {
                    thread,
                    kind: gen::kind(op) as u8,
                    ok,
                    start_ns: since(t0),
                    end_ns: since(t1),
                    route_end_ns: t_route.map_or(0, since),
                });
            }
        }
        if ok {
            bits[i >> 6] |= 1 << (i & 63);
        }
    }
}

/// Runs `rounds` rounds of `spec` against `map`; round 0 is the warm-up,
/// so at least two are needed.
pub fn run<M: Target>(map: &M, spec: &Spec, seed: u64, rounds: u64, traced: bool) -> Run {
    assert_eq!(spec.window % 64, 0, "window must be a multiple of 64");
    assert!(
        rounds >= 2,
        "a warm-up round and at least one measured round"
    );
    let barrier = Barrier::new(spec.threads);
    let epoch = Instant::now();
    let (steal0, total0) = host::cpu_ticks();
    let workers = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.threads)
            .map(|w| {
                let barrier = &barrier;
                s.spawn(move || worker(map, spec, seed, w, rounds, barrier, traced, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let (steal1, total1) = host::cpu_ticks();
    Run {
        rounds,
        window: spec.window,
        workers,
        steal_ticks: steal1 - steal0,
        total_ticks: total1 - total0,
    }
}

#[allow(clippy::too_many_arguments)]
fn worker<M: Target>(
    map: &M,
    spec: &Spec,
    seed: u64,
    w: usize,
    rounds: u64,
    barrier: &Barrier,
    traced: bool,
    epoch: Instant,
) -> WorkerLog {
    let delay0 = host::run_delay_ns();
    let wall0 = Instant::now();
    let words = spec.window / 64;
    let mut bits = vec![0; rounds as usize * words];
    let mut log = WorkerLog::default();
    let mut ops = Vec::with_capacity(spec.window);
    for round in 0..rounds {
        let g0 = Instant::now();
        gen::fill(&mut ops, spec, seed, w, round);
        log.gen_ns += g0.elapsed().as_nanos() as u64;
        log.gen_ops += spec.window as u64;
        // All workers start a round together, each with its window ready.
        barrier.wait();
        let slot = &mut bits[round as usize * words..][..words];
        let start = Instant::now();
        if round == 0 {
            play(map, &ops, slot);
        } else if traced {
            play_sampled::<M, true>(map, &ops, slot, &mut log, w as u16, epoch);
        } else {
            play_sampled::<M, false>(map, &ops, slot, &mut log, w as u16, epoch);
        }
        let end = Instant::now();
        log.starts.push(start);
        log.ends.push(end);
    }
    log.bits = bits;
    log.run_delay_ns = host::run_delay_ns() - delay0;
    log.wall_ns = wall0.elapsed().as_nanos() as u64;
    log
}

/// Share of time the workers spent runnable but not running, in percent.
pub fn runqueue_wait_pct(runs: &[&Run]) -> f64 {
    let (delay, wall) = runs
        .iter()
        .flat_map(|r| r.workers.iter())
        .fold((0u64, 0u64), |(d, w), l| {
            (d + l.run_delay_ns, w + l.wall_ns)
        });
    100.0 * delay as f64 / wall.max(1) as f64
}

/// Steal time over all CPUs during the runs, in percent.
pub fn steal_pct(runs: &[&Run]) -> f64 {
    let steal: u64 = runs.iter().map(|r| r.steal_ticks).sum();
    let total: u64 = runs.iter().map(|r| r.total_ticks).sum();
    100.0 * steal as f64 / total.max(1) as f64
}

/// Mean generator cost per operation, in ns.
pub fn gen_ns_per_op(runs: &[&Run]) -> f64 {
    let (ns, ops) = runs
        .iter()
        .flat_map(|r| r.workers.iter())
        .fold((0u64, 0u64), |(n, o), l| (n + l.gen_ns, o + l.gen_ops));
    ns as f64 / ops.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::Latencies;

    #[test]
    fn percentile_is_nearest_rank_across_both_ranges() {
        let mut l = Latencies::default();
        for ns in 1..=98 {
            l.record(ns);
        }
        l.record(70_000);
        l.record(90_000);
        assert_eq!(l.len(), 100);
        assert_eq!(l.percentile(0.5), 50.0);
        assert_eq!(l.percentile(0.98), 98.0);
        assert_eq!(l.percentile(0.99), 70_000.0);
        assert_eq!(l.percentile(1.0), 90_000.0);
        let mut one = Latencies::default();
        one.record(7);
        assert_eq!(one.percentile(0.99), 7.0);
    }
}
