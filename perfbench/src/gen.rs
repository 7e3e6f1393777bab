//! Deterministic load generation.
//!
//! Every operation a run issues follows from the workload, `--seed`, the
//! worker index and the round index, so the checks can regenerate any
//! worker's stream after the run instead of storing it. The prefilled key
//! set and the probe keys use fixed seeds of their own: the map a run
//! starts from is the same for every `--seed`, which keeps set-up cost and
//! the tree's shape (and so `core.levels_per_find`) identical from run to
//! run, while the seed varies the operation streams.

pub const FIND: u64 = 0;
pub const INSERT: u64 = 1;
pub const DELETE: u64 = 2;

const KEY_MASK: u64 = (1 << 62) - 1;
const PREFILL_SEED: u64 = 0x005E_ED0F_F111;
const PROBE_SEED: u64 = 0x005E_ED0F_0BE5;

/// One operation packed in a word: the kind in the top two bits, the key
/// below.
pub fn pack(kind: u64, key: u64) -> u64 {
    kind << 62 | key
}

pub fn kind(op: u64) -> u64 {
    op >> 62
}

pub fn key(op: u64) -> u64 {
    op & KEY_MASK
}

/// SplitMix64: small, fast and good enough for load generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The seed of one worker's stream in one round.
fn stream_seed(seed: u64, worker: usize, round: u64) -> u64 {
    let mut r = Rng::new(
        seed ^ (worker as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)
            ^ (round + 1).wrapping_mul(0x9FB2_1C65_1E98_DF25),
    );
    r.next_u64()
}

/// Find/insert shares in percent; deletes take the rest.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub find: u32,
    pub insert: u32,
}

#[derive(Clone, Copy, Debug)]
pub enum Dist {
    Uniform,
    /// Zipf with the given exponent over ranks, ranks scattered over the
    /// key space by a fixed bijection so that hot keys are not neighbours.
    Zipf(f64),
}

/// Draws keys in `[0, 2^bits)`.
pub struct KeyGen {
    bits: u32,
    zipf: Option<Zipf>,
}

/// Gray et al.'s constant-time Zipf sampler (as in YCSB).
struct Zipf {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl KeyGen {
    pub fn new(bits: u32, dist: Dist) -> KeyGen {
        let zipf = match dist {
            Dist::Uniform => None,
            Dist::Zipf(theta) => {
                let n = (1u64 << bits) as f64;
                let zetan: f64 = (1..=1u64 << bits).map(|i| (i as f64).powf(-theta)).sum();
                let zeta2 = 1.0 + 0.5f64.powf(theta);
                Some(Zipf {
                    n,
                    theta,
                    alpha: 1.0 / (1.0 - theta),
                    zetan,
                    eta: (1.0 - (2.0 / n).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
                })
            }
        };
        KeyGen { bits, zipf }
    }

    pub fn key_space(&self) -> u64 {
        1 << self.bits
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let mask = self.key_space() - 1;
        match &self.zipf {
            None => rng.next_u64() & mask,
            Some(z) => {
                let u = rng.next_f64();
                let uz = u * z.zetan;
                let rank = if uz < 1.0 {
                    0
                } else if uz < 1.0 + 0.5f64.powf(z.theta) {
                    1
                } else {
                    ((z.n * (z.eta * u - z.eta + 1.0).powf(z.alpha)) as u64).min(mask)
                };
                self.scatter(rank)
            }
        }
    }

    /// A bijection on `[0, 2^bits)`: odd multiplies and right xorshifts
    /// are each invertible modulo a power of two.
    fn scatter(&self, mut x: u64) -> u64 {
        let mask = self.key_space() - 1;
        let s = (self.bits / 2).max(1);
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;
        x ^= x >> s;
        x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93) & mask;
        x ^ (x >> s)
    }
}

/// What a workload's workers issue.
pub struct Spec {
    pub threads: usize,
    /// Operations per worker per round; a multiple of 64.
    pub window: usize,
    pub mix: Mix,
    pub keys: KeyGen,
    /// If set, the worker that owns each key: a worker's inserts and
    /// deletes then draw only keys it owns, while its finds draw from the
    /// whole distribution.
    pub owner: Option<fn(u64) -> usize>,
}

/// Fills `buf` with worker `worker`'s operations for round `round`.
pub fn fill(buf: &mut Vec<u64>, spec: &Spec, seed: u64, worker: usize, round: u64) {
    let mut rng = Rng::new(stream_seed(seed, worker, round));
    buf.clear();
    buf.extend((0..spec.window).map(|_| {
        let r = (rng.next_u64() % 100) as u32;
        let kind = if r < spec.mix.find {
            FIND
        } else if r < spec.mix.find + spec.mix.insert {
            INSERT
        } else {
            DELETE
        };
        let mut k = spec.keys.sample(&mut rng);
        if let (true, Some(owner)) = (kind != FIND, spec.owner) {
            while owner(k) != worker {
                k = spec.keys.sample(&mut rng);
            }
        }
        pack(kind, k)
    }));
}

/// Half of the key space, in a fixed shuffled order: the keys the map
/// holds after set-up, inserted in this order. Random insertion order
/// gives the unbalanced tree its expected logarithmic depth.
pub fn prefill(bits: u32) -> Vec<u64> {
    let n = 1u64 << bits;
    let mut keys: Vec<u64> = (0..n).collect();
    let mut rng = Rng::new(PREFILL_SEED);
    for i in (1..keys.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        keys.swap(i, j);
    }
    keys.truncate(keys.len() / 2);
    keys.shrink_to_fit();
    keys
}

/// `count` probe keys drawn from `keys` with a fixed seed.
pub fn probe_keys(keys: &KeyGen, count: usize) -> Vec<u64> {
    let mut rng = Rng::new(PROBE_SEED);
    (0..count).map(|_| keys.sample(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_is_a_bijection() {
        let g = KeyGen::new(12, Dist::Uniform);
        let mut seen = vec![false; 1 << 12];
        for x in 0..1u64 << 12 {
            let y = g.scatter(x) as usize;
            assert!(!seen[y]);
            seen[y] = true;
        }
    }

    #[test]
    fn streams_repeat_per_seed_and_respect_ownership() {
        let spec = Spec {
            threads: 2,
            window: 1024,
            mix: Mix {
                find: 50,
                insert: 25,
            },
            keys: KeyGen::new(15, Dist::Zipf(0.99)),
            owner: Some(|k| (k & 1) as usize),
        };
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        fill(&mut a, &spec, 7, 1, 3);
        fill(&mut b, &spec, 7, 1, 3);
        fill(&mut c, &spec, 8, 1, 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&op| key(op) < 1 << 15 && kind(op) <= DELETE));
        assert!(a
            .iter()
            .filter(|&&op| kind(op) != FIND)
            .all(|&op| key(op) & 1 == 1));
        assert!(a.iter().any(|&op| kind(op) == FIND && key(op) & 1 == 0));
    }

    #[test]
    fn zipf_is_skewed() {
        let g = KeyGen::new(16, Dist::Zipf(0.99));
        let mut rng = Rng::new(1);
        let hot = g.scatter(0);
        let hits = (0..100_000).filter(|_| g.sample(&mut rng) == hot).count();
        // Rank 0 holds about 1 / zeta(2^16, 0.99) ~ 8% of the mass.
        assert!(hits > 5_000 && hits < 12_000, "{hits}");
    }
}
