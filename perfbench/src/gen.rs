//! Seeded workload inputs. Every workload's input is a pure function of
//! the benchmark seed and the *draw* (the iteration's index): a
//! `StudyConfig` for the two study workloads, scenario TOML text for the
//! other two. [`DEFAULT_SEED`] reproduces the presets on every draw, so its
//! result digests can be pinned; any other seed draws fresh inputs for each
//! iteration, perturbed within strata chosen to keep the amount of work
//! close to the preset's, so a run's medians average over several inputs.

use permea_analysis::study::StudyConfig;
use permea_fi::adaptive::AdaptivePlan;

/// The seed that reproduces every preset (the repository's usual seed).
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Threads (and worker processes, and daemon slots) any workload uses.
pub const THREADS: usize = 2;

/// Campaigns each daemon tenant runs per round, one after the other.
pub const CAMPAIGNS_PER_TENANT: usize = 6;

/// The two daemon tenants.
pub const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

/// SplitMix64: a tiny, well-mixed generator for drawing workload inputs.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one named input stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// The generator of input stream `stream` for iteration `draw`.
    fn drawn(seed: u64, draw: u64, stream: u64) -> Self {
        let mut g = SplitMix::new(seed, draw);
        let mixed = g.next_u64();
        let mut g = SplitMix(mixed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `k` distinct values of `0..n`, ascending.
    pub fn distinct(&mut self, k: usize, n: u64) -> Vec<u64> {
        let mut pool: Vec<u64> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i as u64) as usize;
            pool.swap(i, j);
        }
        let mut picked = pool[..k].to_vec();
        picked.sort_unstable();
        picked
    }
}

/// `quick-dense`: the ROADMAP quick study (9 360 runs, 9 s horizon) on two
/// threads. The seed draws the five injection instants, each within 25 ms
/// of the preset's (500, 1500, …, 4500 ms): how many injected errors die
/// out, and so how much there is to simulate, depends strongly on the
/// phase of the arrestment an instant falls in.
pub fn quick_dense(seed: u64, draw: u64) -> StudyConfig {
    let mut config = StudyConfig::quick();
    config.threads = THREADS;
    if seed != DEFAULT_SEED {
        let mut g = SplitMix::drawn(seed, draw, 1);
        config.times_ms = (0..5).map(|i| 1000 * i + 475 + g.below(51)).collect();
        config.seed = g.next_u64();
    }
    config
}

/// `full-adaptive`: the paper's 52 000-run grid at full trace length under
/// the default adaptive plan, on two threads. The seed is the planner's
/// master seed on the first draw; later draws derive theirs from it. (The
/// master seed decides after how many batch rounds the planner stops, so
/// the amount of work depends on it.)
pub fn full_adaptive(seed: u64, draw: u64) -> StudyConfig {
    let master = if seed == DEFAULT_SEED || draw == 0 {
        seed
    } else {
        SplitMix::drawn(seed, draw, 4).next_u64() >> 1
    };
    StudyConfig {
        threads: THREADS,
        seed: master,
        adaptive: Some(AdaptivePlan::default()),
        ..StudyConfig::paper()
    }
}

/// `pipeline-durable`: a wide mask-pipeline scenario (6 ports × 22 error
/// models × 8 instants × 48 cases = 50 688 runs inside a 48 ms horizon;
/// most reconverge at the next fork point, ~10 ticks in). The seed draws
/// the instants (one per 4 ms stratum) and the error-model mix; the model
/// count stays 22 so the run count never changes.
pub fn pipeline_toml(seed: u64, draw: u64) -> String {
    let (master, times, bits, burst_width, burst_starts, masks, inter_bits, period, count) =
        if seed == DEFAULT_SEED {
            (
                0xACED_u64,
                (0..8).map(|i| 8 + 4 * i).collect::<Vec<u64>>(),
                vec![0, 1, 2, 3, 4, 6, 8, 9, 10, 12, 13, 15],
                2,
                vec![0, 4, 8, 12],
                vec![0x0101, 0x1010, 0x8001],
                vec![1, 9, 14],
                3,
                3,
            )
        } else {
            let mut g = SplitMix::drawn(seed, draw, 2);
            let times = (0..8).map(|i| 6 + 4 * i + g.below(4)).collect();
            let bits = g.distinct(12, 16);
            let width = 2 + g.below(2);
            let starts = g.distinct(4, 17 - width);
            let mut masks: Vec<u64> = Vec::new();
            while masks.len() < 3 {
                let m = g.below(0x1_0000);
                if m.count_ones() >= 2 && !masks.contains(&m) {
                    masks.push(m);
                }
            }
            let inter = g.distinct(3, 16);
            let period = 2 + g.below(4);
            let count = 2 + g.below(3);
            (
                g.next_u64() >> 1,
                times,
                bits,
                width,
                starts,
                masks,
                inter,
                period,
                count,
            )
        };
    format!(
        "[scenario]\nname = \"pipeline-durable\"\n\n\
         [target]\nname = \"mask-pipeline\"\n\n\
         [workload]\ncases = 48\n\n\
         [campaign]\nseed = {master}\nthreads = {THREADS}\ntimes_ms = {}\nhorizon_ms = 48\n\n\
         [error-model]\nkind = \"bit-flip\"\nbits = {}\n\n\
         [error-model.2]\nkind = \"burst\"\nstarts = {}\nwidth = {burst_width}\n\n\
         [error-model.3]\nkind = \"multi-bit\"\nmasks = {}\n\n\
         [error-model.4]\nkind = \"intermittent\"\nbits = {}\nperiod_ms = {period}\ncount = {count}\n",
        list(&times),
        list(&bits),
        list(&burst_starts),
        list(&masks),
        list(&inter_bits),
    )
}

/// `daemon-two-tenant`: campaign `index` of `tenant` in round `draw` — a reduced
/// arrestment scenario (13 ports × 8 bits × 3 instants × 2 cases = 624
/// runs, 3 s horizon, one thread). The seed draws its three instants, one
/// per 800 ms stratum (preset: 700, 1500, 2300 ms for every campaign).
pub fn daemon_toml(seed: u64, draw: u64, tenant: usize, index: usize) -> String {
    let (master, times) = if seed == DEFAULT_SEED {
        (DEFAULT_SEED, vec![700, 1500, 2300])
    } else {
        let mut g = SplitMix::drawn(seed, draw, 3 + ((tenant as u64) << 32) + index as u64);
        let times = (0..3).map(|i| 300 + 800 * i + g.below(800)).collect();
        (g.next_u64() >> 1, times)
    };
    format!(
        "[scenario]\nname = \"{}-{index}\"\n\n\
         [target]\nname = \"arrestment\"\n\n\
         [workload]\nmasses = 1\nvelocities = 2\n\n\
         [campaign]\nseed = {master}\nthreads = 1\ntimes_ms = {}\nhorizon_ms = 3000\n\n\
         [error-model]\nkind = \"bit-flip\"\nbits = [0, 2, 4, 6, 8, 10, 12, 14]\n",
        TENANTS[tenant],
        list(&times),
    )
}

fn list(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(", "))
}
