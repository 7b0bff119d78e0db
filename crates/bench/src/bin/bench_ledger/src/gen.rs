//! Everything a run's inputs are made from: the seed. The same `--seed`
//! gives the same coordinates, index lists, query stream and arrival
//! schedule (and so the same `workload_hash`); the measured program only
//! ever sees the generated inputs.

use crate::spec::{Kind, Load, Workload, KERNEL_PAIRS};
use dataset::PointSet;

/// SplitMix64: a fixed, dependency-free stream so schedules and index
/// lists do not move when a library RNG changes.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Independent stream `lane` of `seed`. The lanes do not depend on the
/// workload, so `route_2x2_open` replays exactly the references and
/// queries `serve_m1_open` saw under the same seed.
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    SplitMix64::new(seed ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

const LANE_REFS: u64 = 1;
const LANE_QUERIES: u64 = 2;
const LANE_FOREST: u64 = 3;
const LANE_SCHEDULE: u64 = 4;
const LANE_SUBSETS: u64 = 5;

/// `count` distinct ids below `universe`, in drawn order (the paper's
/// general-stride index list).
fn random_subset(rng: &mut SplitMix64, universe: usize, count: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..universe).collect();
    for i in 0..count {
        let j = i + (rng.next_u64() % (universe - i) as u64) as usize;
        ids.swap(i, j);
    }
    ids.truncate(count);
    ids
}

/// Poisson arrival offsets in nanoseconds from the start of the run,
/// covering `span_s` seconds at `qps`.
pub fn poisson_schedule(seed: u64, qps: f64, span_s: f64) -> Vec<u64> {
    let mut rng = SplitMix64::new(sub_seed(seed, LANE_SCHEDULE));
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((qps * span_s * 1.05) as usize + 16);
    loop {
        // inverse-CDF exponential gap; 1 - u is in (0, 1]
        t += -(1.0 - rng.next_f64()).ln() / qps;
        if t >= span_s {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    /// Serve/route: the reference set. Kernel: the coordinate table.
    pub refs: PointSet<f64>,
    /// Serve/route: the query pool the stream cycles through.
    pub queries: PointSet<f64>,
    /// Kernel: `(q_idx, r_idx)` pairs the calls cycle through.
    pub pairs: Vec<(Vec<usize>, Vec<usize>)>,
    /// Seed handed to `ServeIndex::build` / `Forest::build`.
    pub forest_seed: u64,
    /// Open loop: arrival offsets (ns) over warm-up plus window.
    pub schedule: Vec<u64>,
}

impl Inputs {
    /// Generate the inputs of `w` for a run of `span_s` seconds
    /// (warm-up included) from `seed`.
    pub fn generate(w: &Workload, seed: u64, span_s: f64) -> Inputs {
        let forest_seed = sub_seed(seed, LANE_FOREST);
        let schedule = match w.load {
            Load::Open { qps, .. } => poisson_schedule(seed, qps, span_s),
            _ => Vec::new(),
        };
        match w.kind {
            Kind::Kernel => {
                let refs = dataset::uniform(w.table_n, w.d, sub_seed(seed, LANE_REFS));
                let mut rng = SplitMix64::new(sub_seed(seed, LANE_SUBSETS));
                let pairs = (0..KERNEL_PAIRS)
                    .map(|_| {
                        (
                            random_subset(&mut rng, w.table_n, w.m),
                            random_subset(&mut rng, w.table_n, w.n),
                        )
                    })
                    .collect();
                Inputs {
                    refs,
                    queries: PointSet::from_vec(w.d, 0, Vec::new()),
                    pairs,
                    forest_seed,
                    schedule,
                }
            }
            Kind::Serve | Kind::Route => Inputs {
                refs: dataset::uniform(w.n, w.d, sub_seed(seed, LANE_REFS)),
                queries: dataset::uniform(w.pool_rows(), w.d, sub_seed(seed, LANE_QUERIES)),
                pairs: Vec::new(),
                forest_seed,
                schedule,
            },
        }
    }

    /// FNV-1a over every generated input, printed as `workload_hash`.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for v in self.refs.as_slice().iter().chain(self.queries.as_slice()) {
            h.write(v.to_bits());
        }
        for (q, r) in &self.pairs {
            for &i in q.iter().chain(r) {
                h.write(i as u64);
            }
        }
        h.write(self.forest_seed);
        for &t in &self.schedule {
            h.write(t);
        }
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_inputs_and_schedule() {
        for w in &WORKLOADS {
            let a = Inputs::generate(w, 41, 3.0);
            let b = Inputs::generate(w, 41, 3.0);
            assert_eq!(a.hash(), b.hash(), "{}", w.name);
            assert_eq!(a.schedule, b.schedule, "{}", w.name);
            let c = Inputs::generate(w, 42, 3.0);
            assert_ne!(
                a.hash(),
                c.hash(),
                "{}: another seed must move the hash",
                w.name
            );
        }
    }

    #[test]
    fn routed_workload_replays_the_single_node_stream() {
        let serve = Inputs::generate(crate::spec::workload("serve_m1_open").unwrap(), 7, 1.0);
        let route = Inputs::generate(crate::spec::workload("route_2x2_open").unwrap(), 7, 1.0);
        assert_eq!(serve.refs.as_slice(), route.refs.as_slice());
        assert_eq!(serve.queries.as_slice(), route.queries.as_slice());
        assert_eq!(serve.forest_seed, route.forest_seed);
    }

    #[test]
    fn poisson_schedule_is_sorted_and_near_the_rate() {
        let s = poisson_schedule(3, 5000.0, 4.0);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        let rate = s.len() as f64 / 4.0;
        assert!((rate - 5000.0).abs() < 250.0, "rate {rate}");
    }

    #[test]
    fn subsets_are_distinct_ids() {
        let mut rng = SplitMix64::new(9);
        let mut s = random_subset(&mut rng, 100, 40);
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 40);
        assert!(s.iter().all(|&i| i < 100));
    }
}
