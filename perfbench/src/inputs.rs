//! Seeded inputs: one xorshift64 stream per workload derives every initial
//! occupancy, parameter override, tenant pick, time bound and schedule.
//!
//! Draws that shape the cost of an operation (how often a request is cold,
//! which time bound an op integrates to) are *stratified*: each block of
//! draws holds the same multiset of classes, shuffled by the stream. Two
//! seeds then give different inputs with the same cost distribution, which
//! is what keeps medians and peaks steady from seed to seed.

/// An xorshift64 generator (Marsaglia's 13/7/17 triple).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream of `workload` at `seed`: the workload name is hashed into
    /// the state, so two workloads never share a stream.
    pub fn for_workload(seed: u64, workload: &str) -> Rng {
        let mut state = fnv1a(workload.as_bytes()) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if state == 0 {
            state = 0x2545_F491_4F6C_DD1D;
        }
        let mut rng = Rng(state);
        // Decorrelate nearby seeds before the first draw.
        for _ in 0..8 {
            rng.next_u64();
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` values over `[lo, hi)`: value `k` is a draw from the `k`-th of
    /// `n` equal strata.
    pub fn jittered(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n)
            .map(|i| lo + (hi - lo) * (i as f64 + self.unit()) / n as f64)
            .collect()
    }

    /// `n` values stratified over `[lo, hi)`: one draw from each of `n`
    /// equal strata, in shuffled order.
    pub fn stratified(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut values = self.jittered(n, lo, hi);
        self.shuffle(&mut values);
        values
    }
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A 3-state virus occupancy, mostly not infected as in the paper's
/// examples: `infected` in `[0, 1)` places the infected share in 5%..30%,
/// `active` the active part of it. Fractions are multiples of 1/1024: they
/// sum to exactly 1, so no renormalization touches their bits, and they
/// travel through JSON and back bit-exactly.
pub fn virus_m0_at(infected: f64, active: f64) -> [f64; 3] {
    let infected = 52 + (infected * 256.0) as usize;
    let active = 10 + (active * (infected - 19) as f64) as usize;
    [
        (1024 - infected) as f64 / 1024.0,
        (infected - active) as f64 / 1024.0,
        active as f64 / 1024.0,
    ]
}

pub fn virus_m0(rng: &mut Rng) -> [f64; 3] {
    virus_m0_at(rng.unit(), rng.unit())
}

/// A virus population count vector `(c1, c2, c3)` summing to `n`, with
/// 5–30% of the population infected.
pub fn virus_counts(rng: &mut Rng, n: usize) -> [usize; 3] {
    let lo = n / 20;
    let infected = lo + rng.below(n * 3 / 10 - lo + 1);
    let active = 1 + rng.below(infected.max(2) - 1);
    [n - infected, infected - active, active]
}

/// One request of a serve workload's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// The warm hot key.
    Hot,
    /// A tenant key: a `k2` override from a fixed seeded set.
    Tenant(u16),
    /// A key seen once: a fresh `k2` override, always cold.
    Unique(u32),
    /// `GET /metrics`.
    Scrape,
}

/// The seeded keys and request stream of a serve workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInputs {
    /// The hot key's initial occupancy.
    pub hot_m0: [f64; 3],
    /// Per tenant: `(k2, m0)`.
    pub tenants: Vec<(f64, [f64; 3])>,
    /// Per unique key, in first-use order: `(k2, m0)`.
    pub uniques: Vec<(f64, [f64; 3])>,
    pub stream: Vec<Item>,
}

/// Mix of a serve stream, per block of 20 check requests.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub tenant_per_20: usize,
    pub unique_per_20: usize,
    pub tenants: usize,
    /// One scrape after every this many check requests (0: none).
    pub scrape_every: usize,
}

/// `requests` check requests in blocks of 20 with exactly the mix's class
/// counts per block, plus the interleaved scrapes.
pub fn serve_inputs(rng: &mut Rng, requests: usize, mix: Mix) -> ServeInputs {
    let hot_m0 = virus_m0(rng);
    let mut tenants: Vec<(f64, [f64; 3])> = Vec::with_capacity(mix.tenants);
    while tenants.len() < mix.tenants {
        // k2 in [0.05, 0.2) at 1e-4 resolution, distinct.
        let k2 = (500 + rng.below(1500)) as f64 / 10_000.0;
        if tenants.iter().all(|(t, _)| *t != k2) {
            tenants.push((k2, virus_m0(rng)));
        }
    }
    // Unique keys sit above every tenant value: k2 in [0.25, 0.35).
    let unique_base = rng.below(50_000);
    let mut uniques = Vec::new();
    let mut stream = Vec::with_capacity(requests + requests / mix.scrape_every.max(1) + 1);
    let mut block: Vec<Item> = Vec::with_capacity(20);
    let mut checks = 0;
    while checks < requests {
        block.clear();
        for i in 0..20 {
            block.push(if i < mix.unique_per_20 {
                Item::Unique(0)
            } else if i < mix.unique_per_20 + mix.tenant_per_20 {
                Item::Tenant(0)
            } else {
                Item::Hot
            });
        }
        rng.shuffle(&mut block);
        for item in &block {
            if checks == requests {
                break;
            }
            let item = match item {
                Item::Tenant(_) => Item::Tenant(rng.below(mix.tenants) as u16),
                Item::Unique(_) => {
                    let j = uniques.len();
                    let k2 = (250_000 + (unique_base + j) % 100_000) as f64 / 1_000_000.0;
                    uniques.push((k2, virus_m0(rng)));
                    Item::Unique(j as u32)
                }
                other => *other,
            };
            stream.push(item);
            checks += 1;
            if mix.scrape_every > 0 && checks % mix.scrape_every == 0 {
                stream.push(Item::Scrape);
            }
        }
    }
    ServeInputs {
        hot_m0,
        tenants,
        uniques,
        stream,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed(seed: u64) -> ServeInputs {
        let mix = Mix {
            tenant_per_20: 4,
            unique_per_20: 1,
            tenants: 48,
            scrape_every: 250,
        };
        serve_inputs(&mut Rng::for_workload(seed, "serve_mixed"), 5_000, mix)
    }

    fn ops(seed: u64) -> (Vec<[f64; 3]>, Vec<f64>, Vec<f64>) {
        let mut rng = Rng::for_workload(seed, "check_virus");
        let m0s = (0..100).map(|_| virus_m0(&mut rng)).collect();
        let ts = rng.stratified(50, 1.0, 2.0);
        let jittered = rng.jittered(300, 0.0, 128.0);
        (m0s, ts, jittered)
    }

    #[test]
    fn same_seed_same_streams_and_ops() {
        assert_eq!(mixed(7), mixed(7));
        let (a, b) = (ops(7), ops(7));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.0.concat()), bits(&b.0.concat()));
        assert_eq!(bits(&a.1), bits(&b.1));
        assert_eq!(bits(&a.2), bits(&b.2));
    }

    #[test]
    fn different_seed_different_streams_and_ops() {
        assert_ne!(mixed(7).stream, mixed(8).stream);
        assert_ne!(ops(7).0, ops(8).0);
        assert_ne!(ops(7).2, ops(8).2);
        assert_ne!(
            Rng::for_workload(7, "a").next_u64(),
            Rng::for_workload(7, "b").next_u64()
        );
    }

    #[test]
    fn blocks_hold_the_exact_mix() {
        let inputs = mixed(3);
        let checks: Vec<Item> = inputs
            .stream
            .iter()
            .copied()
            .filter(|i| *i != Item::Scrape)
            .collect();
        assert_eq!(checks.len(), 5_000);
        for block in checks.chunks(20) {
            let count = |f: fn(&Item) -> bool| block.iter().filter(|i| f(i)).count();
            assert_eq!(count(|i| matches!(i, Item::Unique(_))), 1);
            assert_eq!(count(|i| matches!(i, Item::Tenant(_))), 4);
        }
        assert_eq!(inputs.stream.len() - checks.len(), 20);
        assert_eq!(inputs.uniques.len(), 250);
        let mut k2s: Vec<u64> = inputs.uniques.iter().map(|u| u.0.to_bits()).collect();
        k2s.extend(inputs.tenants.iter().map(|t| t.0.to_bits()));
        k2s.sort_unstable();
        k2s.dedup();
        assert_eq!(k2s.len(), 250 + 48, "every override is a distinct key");
    }

    #[test]
    fn occupancies_are_on_the_simplex() {
        let mut rng = Rng::for_workload(1, "x");
        for _ in 0..1000 {
            let m = virus_m0(&mut rng);
            assert!(m.iter().all(|&x| x > 0.0));
            assert_eq!(m.iter().sum::<f64>(), 1.0);
            let c = virus_counts(&mut rng, 200);
            assert_eq!(c.iter().sum::<usize>(), 200);
            assert!(c[2] >= 1);
        }
        let t = rng.stratified(10, 1.0, 2.0);
        let mut sorted = t.clone();
        sorted.sort_by(f64::total_cmp);
        for (i, x) in sorted.iter().enumerate() {
            assert!(*x >= 1.0 + i as f64 / 10.0 && *x < 1.0 + (i + 1) as f64 / 10.0);
        }
        assert_ne!(t, sorted, "stratified values come shuffled");
        for (i, x) in rng.jittered(10, 1.0, 2.0).iter().enumerate() {
            assert!(*x >= 1.0 + i as f64 / 10.0 && *x < 1.0 + (i + 1) as f64 / 10.0);
        }
    }
}
