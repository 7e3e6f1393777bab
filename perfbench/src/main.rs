//! One closed-loop benchmark for the EFRB tree.
//!
//! ```text
//! nbbst-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced, and reports the per-layer metrics.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object. See README.md for the workloads and every metric.

mod alloc;
mod check;
mod drive;
mod gen;
mod host;
mod probe;

use check::Verdict;
use drive::{Run, Target};
use gen::{Dist, KeyGen, Mix, Spec};
use nbbst_core::NbBst;
use nbbst_dictionary::{FibonacciRoute, ShardRoute};
use nbbst_sharded::ShardedNbBst;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics, reported by `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_mops", "Mops/s"),
    ("find_p50_ns", "ns"),
    ("find_p99_ns", "ns"),
    ("update_p50_ns", "ns"),
    ("update_p99_ns", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("heap_bytes_per_key", "B"),
];

/// Per-layer metrics, reported by `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("reclaim.pin_unpin_ns", "ns"),
    ("reclaim.bags_published_per_update", "count"),
    ("reclaim.bags_stolen_share", "ratio"),
    ("reclaim.epoch_advances_per_kop", "count"),
    ("reclaim.retired_per_update", "count"),
    ("reclaim.peak_deferred_kib", "KiB"),
    ("core.levels_per_find", "count"),
    ("core.descent_ns_per_level", "ns"),
    ("core.searches_per_update", "count"),
    ("core.cas_attempts_per_update", "count"),
    ("core.step.iflag_ns", "ns"),
    ("core.step.ichild_ns", "ns"),
    ("core.step.iunflag_ns", "ns"),
    ("core.step.dflag_ns", "ns"),
    ("core.step.mark_ns", "ns"),
    ("core.step.dchild_ns", "ns"),
    ("core.step.dunflag_ns", "ns"),
    ("core.allocs_per_insert_ok", "count"),
    ("core.allocs_per_insert_dup", "count"),
    ("core.allocs_per_delete_ok", "count"),
    ("core.alloc_bytes_per_update", "B"),
    ("core.cas_success_ratio", "ratio"),
    ("core.helps_per_kupdate", "count"),
    ("core.retries_per_kupdate", "count"),
    ("core.backtracks_per_kdelete", "count"),
    ("sharded.route_ns", "ns"),
    ("sharded.imbalance", "ratio"),
    ("sharded.levels_per_find", "count"),
    ("harness.gen_ns_per_op", "ns"),
    ("harness.clock_ns", "ns"),
    ("host.steal_pct", "%"),
    ("host.runqueue_wait_pct", "%"),
    ("trace.overhead_pct", "%"),
];

#[derive(Clone, Copy)]
enum MapKind {
    /// One `NbBst`.
    Plain,
    /// Two `NbBst`s sharing one collector, split at the middle key.
    SplitTrees,
    /// `ShardedNbBst` with `SHARDS` shards and `FibonacciRoute`.
    Sharded,
}

struct Workload {
    name: &'static str,
    map: MapKind,
    threads: usize,
    /// Operations per worker per round.
    window: usize,
    /// Throughput on the reference host (README.md), in ops/s: a run of
    /// `--seconds s` attempts about `s` times this many operations, in
    /// whole rounds, whatever the speed of the host or the program.
    nominal_rate: f64,
    mix: Mix,
    key_bits: u32,
    dist: Dist,
    /// Which worker may update each key (see `gen::Spec::owner`).
    owner: Option<fn(u64) -> usize>,
    /// Set-ups per `--trace 0` run; `setup_s` is their median. All but
    /// the first run in child processes, whose peak RSS `peak_rss_mib`
    /// takes the median of.
    setup_reps: usize,
}

/// Why each workload exists is in README.md.
const WORKLOADS: &[Workload] = &[
    Workload {
        name: "read_mostly_1t",
        map: MapKind::Plain,
        threads: 1,
        window: 1 << 18,
        nominal_rate: 450_000.0,
        mix: Mix {
            find: 90,
            insert: 5,
        },
        key_bits: 21,
        dist: Dist::Uniform,
        owner: None,
        setup_reps: 5,
    },
    Workload {
        name: "update_churn_2t",
        map: MapKind::SplitTrees,
        threads: 2,
        window: 1 << 16,
        nominal_rate: 1_350_000.0,
        mix: Mix {
            find: 10,
            insert: 45,
        },
        key_bits: 15,
        dist: Dist::Uniform,
        // Worker w updates tree w only.
        owner: Some(|k| (k >> 14) as usize),
        setup_reps: 15,
    },
    Workload {
        name: "sharded_zipf_2t",
        map: MapKind::Sharded,
        threads: 2,
        window: 1 << 17,
        nominal_rate: 1_100_000.0,
        mix: Mix {
            find: 50,
            insert: 25,
        },
        key_bits: 20,
        dist: Dist::Zipf(0.99),
        // Worker w updates the shards s with s % 2 == w only.
        owner: Some(|k| FibonacciRoute.shard(&k, SHARDS) % 2),
        setup_reps: 5,
    },
];

/// Workloads outside BENCHMARK.json. `contended_zipf_2t` is
/// `sharded_zipf_2t` with both workers updating every shard: at this
/// commit its checks report failed operations on hot keys, in a number
/// that varies from run to run (README.md, "Known defect").
const DIAGNOSTICS: &[Workload] = &[Workload {
    name: "contended_zipf_2t",
    map: MapKind::Sharded,
    threads: 2,
    window: 1 << 17,
    nominal_rate: 1_100_000.0,
    mix: Mix {
        find: 50,
        insert: 25,
    },
    key_bits: 20,
    dist: Dist::Zipf(0.99),
    owner: None,
    setup_reps: 1,
}];

/// Shard count of `sharded_zipf_2t`, fixed so that results do not follow
/// the host's CPU count.
const SHARDS: usize = 8;
/// Keys per fixed probe set.
const PROBE_KEYS: usize = 1 << 16;
/// Raw insert and delete circuits timed per traced run.
const STEP_PROBES: usize = 2000;
/// Rounds each child process runs after its set-up: the warm-up round
/// and one measured round.
const CHILD_ROUNDS: u64 = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    /// Time one set-up, run `CHILD_ROUNDS` rounds of the workload, check them,
    /// print the set-up time and the peak RSS, and exit: how a run takes
    /// its further `setup_s` and its `peak_rss_mib` samples, each in a
    /// fresh process so that every sample starts from the same allocator
    /// state.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    let mut child = false;
    while let Some(flag) = a.next() {
        let mut value = || a.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace must be 0 or 1, not {t}")),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--child" => child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: nbbst-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>] [--child]");
            return ExitCode::from(2);
        }
    };
    let Some(w) = WORKLOADS
        .iter()
        .chain(DIAGNOSTICS)
        .find(|w| w.name == args.workload)
    else {
        let names: Vec<_> = WORKLOADS
            .iter()
            .chain(DIAGNOSTICS)
            .map(|w| w.name)
            .collect();
        eprintln!(
            "error: unknown workload {}; one of {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let report = match w.map {
        MapKind::Plain => bench(w, &args, |stats| {
            if stats {
                NbBst::with_stats()
            } else {
                NbBst::new()
            }
        }),
        MapKind::SplitTrees => bench(w, &args, |stats| drive::Trees::new(w.key_bits, stats)),
        MapKind::Sharded => bench(w, &args, |stats| {
            if stats {
                ShardedNbBst::with_stats_route_and_shards(FibonacciRoute, SHARDS)
            } else {
                ShardedNbBst::with_route_and_shards(FibonacciRoute, SHARDS)
            }
        }),
    };
    report.print(if args.trace { PER_LAYER } else { END_TO_END });
    ExitCode::SUCCESS
}

struct Report {
    attempted: u64,
    verdict: Verdict,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    fn print(&self, table: &[(&str, &str)]) {
        let mut out = std::io::stdout().lock();
        for n in &self.notes {
            writeln!(out, "# {n}").unwrap();
        }
        for p in &self.verdict.problems {
            writeln!(out, "# CHECK FAILED: {p}").unwrap();
        }
        let mut fields = Vec::new();
        for &(name, unit) in table {
            let v = self.metrics[name];
            writeln!(out, "{name:<36} {v:>16.4} {unit}").unwrap();
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            ));
        }
        writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.verdict.ok(),
            self.attempted,
            self.verdict.failed,
            fields.join(", ")
        )
        .unwrap();
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Builds the map and inserts the prefilled keys in their fixed order,
/// with the counting allocator on. Returns the map, the set-up time in
/// seconds and the live heap it holds afterwards.
fn setup<M: Target>(
    build: &impl Fn(bool) -> M,
    stats: bool,
    prefill: &[u64],
    v: &mut Verdict,
) -> (M, f64, i64) {
    alloc::set_counting(true);
    let live0 = alloc::live_bytes();
    let t0 = Instant::now();
    let map = build(stats);
    let inserted = prefill.iter().filter(|&&k| map.insert(k, k)).count();
    // Garbage from set-up is freed before the clock stops, so the heap
    // reading is the map alone.
    map.reclaimer().try_drain(1000);
    let secs = t0.elapsed().as_secs_f64();
    let heap = alloc::live_bytes() - live0;
    alloc::set_counting(false);
    if inserted != prefill.len() {
        v.note(format!(
            "set-up: {inserted} of {} distinct inserts succeeded",
            prefill.len()
        ));
    }
    (map, secs, heap)
}

/// Checks a finished run: tree invariants, final contents key by key,
/// and every outcome against the independent model. Returns the final
/// presence of each key.
fn verify<M: Target>(
    spec: &Spec,
    seed: u64,
    run: &Run,
    map: &M,
    prefill: &[u64],
    v: &mut Verdict,
) -> Vec<bool> {
    if let Err(e) = map.invariants() {
        v.note(format!("invariants: {e}"));
    }
    let key_space = spec.keys.key_space();
    let last = check::scan(map, key_space, v);
    v.absorb(if spec.threads == 1 {
        check::against_btreemap(spec, seed, run, prefill, &last)
    } else {
        check::conservation(spec, seed, run, &check::presence(prefill, key_space), &last)
    });
    last
}

/// Runs one child process (`--child`) and returns its set-up time in
/// seconds and its peak RSS in MiB.
fn child(args: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = args.seed.to_string();
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &seed])
        .args(["--seconds", "1", "--trace", "0", "--child"])
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{}: {text}", out.status));
    }
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    match (fields.next(), fields.next()) {
        (Some(Ok(secs)), Some(Ok(peak))) => Ok((secs, peak)),
        _ => Err(format!("unreadable output: {text}")),
    }
}

impl Workload {
    /// Rounds for `seconds` of nominal work: one warm-up round plus at
    /// least one measured round.
    fn rounds(&self, seconds: f64) -> u64 {
        let per_round = (self.window * self.threads) as f64;
        1 + ((seconds * self.nominal_rate / per_round).round() as u64).max(1)
    }
}

fn spec_of(w: &Workload) -> Spec {
    Spec {
        threads: w.threads,
        window: w.window,
        mix: w.mix,
        keys: KeyGen::new(w.key_bits, w.dist),
        owner: w.owner,
    }
}

fn bench<M: Target>(w: &Workload, args: &Args, build: impl Fn(bool) -> M) -> Report {
    let spec = spec_of(w);
    let prefill = gen::prefill(w.key_bits);
    let mut v = Verdict::default();
    let mut m = BTreeMap::new();
    let mut notes = vec![format!(
        "workload {} seed {} threads {} keys 2^{} prefilled {} trace {}",
        w.name,
        args.seed,
        w.threads,
        w.key_bits,
        prefill.len(),
        args.trace as u8
    )];
    if args.child {
        let (map, secs, _) = setup(&build, false, &prefill, &mut v);
        let run = drive::run(&map, &spec, args.seed, CHILD_ROUNDS, false);
        println!("{secs} {}", host::peak_rss_mib());
        verify(&spec, args.seed, &run, &map, &prefill, &mut v);
        if v.failed > 0 {
            println!("{} failed operations", v.failed);
        }
        for p in &v.problems {
            println!("{p}");
        }
        // Exit without dropping: the parent needs only the figures.
        std::mem::forget(map);
        std::process::exit(if v.ok() { 0 } else { 1 });
    }
    if !args.trace {
        let (map, first_setup, heap) = setup(&build, false, &prefill, &mut v);
        let run = drive::run(&map, &spec, args.seed, w.rounds(args.seconds), false);
        let own_peak = host::peak_rss_mib();
        verify(&spec, args.seed, &run, &map, &prefill, &mut v);
        check::drop_and_drain(map, &mut v);
        // The other set-ups each run in a fresh process: a set-up that
        // follows the drop of a large map allocates from scattered freed
        // chunks and runs slower than the first one does. Each child also
        // gives a peak RSS after a short run: one process's peak is the
        // worst moment of its run, so only a median over processes repeats.
        let mut setups = vec![first_setup];
        let mut peaks = Vec::new();
        for _ in 1..w.setup_reps {
            match child(args) {
                Ok((secs, peak)) => {
                    setups.push(secs);
                    peaks.push(peak);
                }
                Err(e) => v.note(format!("child process: {e}")),
            }
        }
        m.insert("peak_rss_mib", median(&peaks));
        let rates = run.round_rates();
        let (mut finds, mut updates) = (drive::Latencies::default(), drive::Latencies::default());
        for l in &run.workers {
            finds.merge(&l.find_ns);
            updates.merge(&l.update_ns);
        }
        m.insert("throughput_mops", median(&rates) / 1e6);
        m.insert("find_p50_ns", finds.percentile(0.50));
        m.insert("find_p99_ns", finds.percentile(0.99));
        m.insert("update_p50_ns", updates.percentile(0.50));
        m.insert("update_p99_ns", updates.percentile(0.99));
        m.insert("setup_s", median(&setups));
        m.insert("heap_bytes_per_key", heap as f64 / prefill.len() as f64);
        notes.push(format!(
            "{} rounds of {} ops per worker ({} measured); round rates min {:.4} max {:.4} Mops/s",
            run.rounds,
            w.window,
            rates.len(),
            rates.iter().copied().fold(f64::INFINITY, f64::min) / 1e6,
            rates.iter().copied().fold(0.0, f64::max) / 1e6,
        ));
        notes.push(format!(
            "latency samples (1 op in {}): finds {}, updates {}",
            drive::STRIDE,
            finds.len(),
            updates.len()
        ));
        notes.push(format!("set-ups {setups:?} s"));
        notes.push(format!(
            "peak RSS of children after {CHILD_ROUNDS} rounds {peaks:?} MiB; of this run after {} rounds {own_peak:.2} MiB",
            run.rounds
        ));
        notes.push(format!(
            "host: steal {:.3}%, runqueue wait {:.3}%",
            drive::steal_pct(&[&run]),
            drive::runqueue_wait_pct(&[&run])
        ));
        return Report {
            attempted: run.attempted(),
            verdict: v,
            metrics: m,
            notes,
        };
    }

    // Traced: the same workload untraced for half the rounds, then on a map
    // built with stats, the counting allocator live and spans recorded.
    let half = w.rounds(args.seconds / 2.0);
    let (map, _, _) = setup(&build, false, &prefill, &mut v);
    let plain = drive::run(&map, &spec, args.seed, half, false);
    verify(&spec, args.seed, &plain, &map, &prefill, &mut v);
    check::drop_and_drain(map, &mut v);

    let (map, _, _) = setup(&build, true, &prefill, &mut v);
    let uniform = KeyGen::new(w.key_bits, Dist::Uniform);
    let core_keys = gen::probe_keys(&uniform, PROBE_KEYS);
    let dist_keys = gen::probe_keys(&spec.keys, PROBE_KEYS);
    m.insert(
        "core.levels_per_find",
        probe::levels_per_find(&map, &core_keys),
    );
    m.insert(
        "sharded.levels_per_find",
        probe::levels_per_find(&map, &dist_keys),
    );

    let stats0 = map.tree_stats().expect("built with stats");
    let rec0 = map.reclaimer().stats();
    let shard0 = map.shard_ops().expect("built with stats");
    alloc::set_counting(true);
    let traced = drive::run(&map, &spec, args.seed, half, true);
    alloc::set_counting(false);
    let d = map.tree_stats().expect("built with stats").delta(&stats0);
    let rec1 = map.reclaimer().stats();
    let shard1 = map.shard_ops().expect("built with stats");
    if let Err(e) = d.check_figure4() {
        v.note(format!("traced run: {e}"));
    }
    let last = verify(&spec, args.seed, &traced, &map, &prefill, &mut v);

    let clock = probe::clock_ns();
    m.insert("harness.clock_ns", clock);
    m.insert("reclaim.pin_unpin_ns", probe::pin_unpin_ns(&map));
    m.insert(
        "core.descent_ns_per_level",
        probe::descent_ns_per_level(&map, &core_keys),
    );
    m.insert("sharded.route_ns", probe::route_ns(&map, &dist_keys));
    let probe_set = |want: bool| {
        let mut seen = vec![false; last.len()];
        core_keys
            .iter()
            .copied()
            .filter(|&k| {
                last[k as usize] == want && !std::mem::replace(&mut seen[k as usize], true)
            })
            .take(STEP_PROBES)
            .collect::<Vec<u64>>()
    };
    let (absent, present) = (probe_set(false), probe_set(true));
    let s = probe::steps(&map, &absent, &present, clock);
    for (name, ns) in [
        ("core.step.iflag_ns", s.iflag),
        ("core.step.ichild_ns", s.ichild),
        ("core.step.iunflag_ns", s.iunflag),
        ("core.step.dflag_ns", s.dflag),
        ("core.step.mark_ns", s.mark),
        ("core.step.dchild_ns", s.dchild),
        ("core.step.dunflag_ns", s.dunflag),
    ] {
        m.insert(name, ns);
    }
    check::drop_and_drain(map, &mut v);

    let updates = d.inserts + d.deletes;
    let ok_updates = d.inserts_true + d.deletes_true;
    let flag_attempts = d.iflag_attempts + d.dflag_attempts + d.mark_attempts;
    m.insert(
        "core.searches_per_update",
        ratio(d.searches - d.finds, updates),
    );
    m.insert(
        "core.cas_attempts_per_update",
        ratio(
            flag_attempts
                + d.ichild_success
                + d.iunflag_success
                + d.dchild_success
                + d.dunflag_success
                + d.backtrack_success,
            updates,
        ),
    );
    m.insert(
        "core.cas_success_ratio",
        ratio(
            d.iflag_success + d.dflag_success + d.mark_success,
            flag_attempts,
        ),
    );
    m.insert("core.helps_per_kupdate", 1000.0 * ratio(d.helps, updates));
    m.insert(
        "core.retries_per_kupdate",
        1000.0 * ratio(d.insert_retries + d.delete_retries, updates),
    );
    m.insert(
        "core.backtracks_per_kdelete",
        1000.0 * ratio(d.backtrack_success, d.deletes),
    );

    let mut tally = [(0u64, 0u64, 0u64); 5];
    for l in &traced.workers {
        for (t, x) in tally.iter_mut().zip(l.allocs) {
            *t = (t.0 + x.0, t.1 + x.1, t.2 + x.2);
        }
    }
    // (allocations, bytes) per operation of class `c`.
    let per = |c: usize| (ratio(tally[c].1, tally[c].0), ratio(tally[c].2, tally[c].0));
    m.insert("core.allocs_per_insert_ok", per(drive::INSERT_OK).0);
    m.insert("core.allocs_per_insert_dup", per(drive::INSERT_DUP).0);
    m.insert("core.allocs_per_delete_ok", per(drive::DELETE_OK).0);
    notes.push(format!(
        "(allocations, bytes) per insert ok {:?}, insert dup {:?}, delete ok {:?}, delete miss {:?}, find {:?}",
        per(drive::INSERT_OK),
        per(drive::INSERT_DUP),
        per(drive::DELETE_OK),
        per(drive::DELETE_MISS),
        per(drive::FIND_ANY),
    ));
    let upd = &tally[drive::INSERT_OK..];
    m.insert(
        "core.alloc_bytes_per_update",
        ratio(upd.iter().map(|t| t.2).sum(), upd.iter().map(|t| t.0).sum()),
    );

    m.insert(
        "reclaim.bags_published_per_update",
        ratio(rec1.bags_published - rec0.bags_published, ok_updates),
    );
    m.insert(
        "reclaim.bags_stolen_share",
        ratio(
            rec1.bags_stolen - rec0.bags_stolen,
            rec1.bags_freed - rec0.bags_freed,
        ),
    );
    m.insert(
        "reclaim.epoch_advances_per_kop",
        1000.0 * ratio(rec1.epoch_advances - rec0.epoch_advances, d.finds + updates),
    );
    m.insert(
        "reclaim.retired_per_update",
        ratio(rec1.retired - rec0.retired, ok_updates),
    );
    m.insert(
        "reclaim.peak_deferred_kib",
        rec1.peak_deferred_bytes as f64 / 1024.0,
    );

    let window_ops: Vec<u64> = shard1.iter().zip(&shard0).map(|(a, b)| a - b).collect();
    let mean = window_ops.iter().sum::<u64>() as f64 / window_ops.len() as f64;
    let max = window_ops.iter().copied().max().unwrap_or(0) as f64;
    m.insert(
        "sharded.imbalance",
        if mean > 0.0 { max / mean } else { 1.0 },
    );

    let both = [&plain, &traced];
    m.insert("harness.gen_ns_per_op", drive::gen_ns_per_op(&both));
    m.insert("host.steal_pct", drive::steal_pct(&both));
    m.insert("host.runqueue_wait_pct", drive::runqueue_wait_pct(&both));
    let (plain_rate, traced_rate) = (median(&plain.round_rates()), median(&traced.round_rates()));
    m.insert(
        "trace.overhead_pct",
        100.0 * (1.0 - traced_rate / plain_rate),
    );
    notes.push(format!(
        "untraced {:.4} Mops/s over {} rounds, traced {:.4} Mops/s over {} rounds",
        plain_rate / 1e6,
        plain.rounds,
        traced_rate / 1e6,
        traced.rounds
    ));
    notes.push(format!("traced window stats:\n{d}").replace('\n', "\n# "));

    if let Some(path) = &args.spans {
        match write_spans(path, &traced) {
            Ok(n) => notes.push(format!("{n} spans written to {}", path.display())),
            Err(e) => notes.push(format!("spans not written to {}: {e}", path.display())),
        }
    }
    Report {
        attempted: plain.attempted() + traced.attempted(),
        verdict: v,
        metrics: m,
        notes,
    }
}

/// Writes the traced run's spans as tab-separated values.
fn write_spans(path: &PathBuf, run: &Run) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "thread\tkind\tok\tstart_ns\tend_ns\troute_end_ns")?;
    let mut n = 0;
    for s in run.workers.iter().flat_map(|l| &l.spans) {
        let kind = ["find", "insert", "delete"][s.kind as usize];
        writeln!(
            f,
            "{}\t{kind}\t{}\t{}\t{}\t{}",
            s.thread, s.ok as u8, s.start_ns, s.end_ns, s.route_end_ns
        )?;
        n += 1;
    }
    f.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric this binary prints is declared in BENCHMARK.json with
    /// the same unit, and the workloads match.
    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        let declared = json.matches("\"unit\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name)));
        }
        assert_eq!(json.matches("\"why\"").count(), WORKLOADS.len());
    }
}
