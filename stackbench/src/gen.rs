//! Seeded input generation.
//!
//! Every input the simulator sees — neighbor lists, pairings, message
//! sizes, the payload body bytes — is a pure function of the `--seed`
//! argument. Sizes are drawn by *stratified* sampling: a plan with `n`
//! draws takes exactly one value from each of `n` equal-probability
//! strata (jittered inside the stratum, in a seeded order), so two seeds
//! move individual messages around but give almost the same size
//! distribution. That keeps the virtual-time metrics steady across seeds
//! without making the traffic itself fixed.

/// SplitMix64: small, fast and good enough to scatter benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed ^ 0x5eed_5eed_5eed_5eed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// The SplitMix64 finalizer: a bijective 64-bit hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` stratified draws from `[lo, hi]`, uniform (`log = false`) or
/// log-uniform (`log = true`), in a seeded order.
pub fn stratified(rng: &mut Rng, n: usize, lo: u64, hi: u64, log: bool) -> Vec<u32> {
    let mut strata: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut strata);
    strata
        .into_iter()
        .map(|s| {
            let q = (s as f64 + rng.unit()) / n as f64;
            let v = if log {
                ((lo as f64).ln() + q * ((hi as f64).ln() - (lo as f64).ln())).exp()
            } else {
                lo as f64 + q * (hi - lo + 1) as f64
            };
            (v as u64).clamp(lo, hi) as u32
        })
        .collect()
}

/// `count` distinct positions out of `0..n`, chosen by the seed.
pub fn choose(rng: &mut Rng, n: usize, count: usize) -> Vec<bool> {
    let mut pick = vec![false; n];
    let mut idx: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut idx);
    for &i in &idx[..count.min(n)] {
        pick[i as usize] = true;
    }
    pick
}

/// Seeded body bytes every message body is sliced from (zero-copy).
pub fn body_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_covers_every_stratum_once() {
        let mut r = Rng::new(7);
        let mut v = stratified(&mut r, 100, 0, 99, false);
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn log_uniform_stays_in_range() {
        let mut r = Rng::new(9);
        let v = stratified(&mut r, 1000, 1024, 1 << 20, true);
        assert!(v.iter().all(|&s| (1024..=1 << 20).contains(&s)));
        let below_32k = v.iter().filter(|&&s| s < 32 * 1024).count();
        assert!((480..=520).contains(&below_32k), "{below_32k}");
    }
}
