//! Seed derivation: one splitmix64 stream per purpose, so the RS seeds,
//! the arrival seeds and the request order are independent functions of
//! `--seed` and the same seed always yields the same inputs.

/// A splitmix64 generator (the same mixer the repo's sweep runner and
/// arrival generator use; re-implemented here because the harness may
/// not bind to private items).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `purpose` under `seed`. Distinct purposes give
    /// decorrelated streams.
    pub fn new(seed: u64, purpose: &str) -> Self {
        let mut state = seed ^ 0x6C61_6D73_2D62_6E63; // "lams-bnc"
        for b in purpose.bytes() {
            state = (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = Rng(state);
        rng.next_u64();
        rng
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seed small enough to travel in a request line unchanged.
    pub fn next_seed(&mut self) -> u64 {
        self.next_u64() >> 32
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
