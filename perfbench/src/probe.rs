//! Fixed-key probes that time single layers from outside: search descent
//! through `raw::RawFind`, each Figure-4 CAS step through the `raw`
//! stepped insert and delete, pin/unpin on the collector, and routing.

use crate::drive::Target;
use nbbst_core::raw::{MarkOutcome, RawDelete, RawFind, RawInsert};
use std::hint::black_box;
use std::time::Instant;

/// Batches per timing probe; the median batch is reported.
const BATCHES: usize = 5;

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Cost of one `Instant::now`, in ns.
pub fn clock_ns() -> f64 {
    const N: u32 = 200_000;
    median(
        (0..BATCHES)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..N {
                    black_box(Instant::now());
                }
                t0.elapsed().as_nanos() as f64 / N as f64
            })
            .collect(),
    )
}

/// Mean number of edges a find descends, over `keys`.
pub fn levels_per_find<M: Target>(map: &M, keys: &[u64]) -> f64 {
    let steps: u64 = keys
        .iter()
        .map(|&k| {
            let mut f = RawFind::new(map.shard(map.shard_of(&k)), k);
            while !f.step() {}
            f.steps_taken()
        })
        .sum();
    steps as f64 / keys.len().max(1) as f64
}

/// Descent time per level, in ns. The finds of a batch are created
/// (and pinned) before its clock starts, so pinning stays out.
pub fn descent_ns_per_level<M: Target>(map: &M, keys: &[u64]) -> f64 {
    let batch = keys.len() / BATCHES;
    median(
        keys.chunks_exact(batch.max(1))
            .map(|chunk| {
                let mut finds: Vec<_> = chunk
                    .iter()
                    .map(|&k| RawFind::new(map.shard(map.shard_of(&k)), k))
                    .collect();
                let t0 = Instant::now();
                for f in finds.iter_mut() {
                    while !f.step() {}
                }
                let ns = t0.elapsed().as_nanos() as f64;
                let steps: u64 = finds.iter().map(|f| f.steps_taken()).sum();
                ns / steps.max(1) as f64
            })
            .collect(),
    )
}

/// One pin plus its unpin on the map's collector, in ns.
pub fn pin_unpin_ns<M: Target>(map: &M) -> f64 {
    const N: u32 = 200_000;
    let c = map.reclaimer();
    median(
        (0..BATCHES)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..N {
                    black_box(c.pin());
                }
                t0.elapsed().as_nanos() as f64 / N as f64
            })
            .collect(),
    )
}

/// One `shard_of`, in ns; 0 for a map without a routing layer.
pub fn route_ns<M: Target>(map: &M, keys: &[u64]) -> f64 {
    if !map.routes() {
        return 0.0;
    }
    median(
        (0..BATCHES)
            .map(|_| {
                let t0 = Instant::now();
                let mut acc = 0usize;
                for k in keys {
                    acc ^= map.shard_of(black_box(k));
                }
                black_box(acc);
                t0.elapsed().as_nanos() as f64 / keys.len().max(1) as f64
            })
            .collect(),
    )
}

/// Median cost of each Figure-4 CAS step, in ns, with one clock read
/// subtracted. The insert steps run on `absent` keys, the delete steps on
/// `present` ones, each operation completed before the next starts.
pub struct Steps {
    pub iflag: f64,
    pub ichild: f64,
    pub iunflag: f64,
    pub dflag: f64,
    pub mark: f64,
    pub dchild: f64,
    pub dunflag: f64,
}

pub fn steps<M: Target>(map: &M, absent: &[u64], present: &[u64], clock: f64) -> Steps {
    fn lap(t: &mut Instant) -> f64 {
        let now = Instant::now();
        let ns = (now - *t).as_nanos() as f64;
        *t = now;
        ns
    }
    let mut ins: [Vec<f64>; 3] = Default::default();
    for &k in absent {
        let mut op = RawInsert::new(map.shard(map.shard_of(&k)), k, k);
        assert!(op.search().is_ready(), "probe key {k} must be absent");
        let mut t = Instant::now();
        assert!(op.flag(), "uncontended iflag succeeds");
        ins[0].push(lap(&mut t));
        op.execute_child();
        ins[1].push(lap(&mut t));
        op.unflag();
        ins[2].push(lap(&mut t));
    }
    let mut del: [Vec<f64>; 4] = Default::default();
    for &k in present {
        let mut op = RawDelete::new(map.shard(map.shard_of(&k)), k);
        assert!(op.search().is_ready(), "probe key {k} must be present");
        let mut t = Instant::now();
        assert!(op.flag(), "uncontended dflag succeeds");
        del[0].push(lap(&mut t));
        assert_eq!(op.mark(), MarkOutcome::Marked, "uncontended mark succeeds");
        del[1].push(lap(&mut t));
        op.execute_child();
        del[2].push(lap(&mut t));
        op.unflag();
        del[3].push(lap(&mut t));
    }
    let [iflag, ichild, iunflag] = ins.map(|v| median(v) - clock);
    let [dflag, mark, dchild, dunflag] = del.map(|v| median(v) - clock);
    Steps {
        iflag,
        ichild,
        iunflag,
        dflag,
        mark,
        dchild,
        dunflag,
    }
}
