//! Seeded inputs: the op-stream generators and the payload pool draw from
//! here and from nowhere else, so a workload's inputs are a pure function of
//! `--seed` and the program under test receives only the generated inputs.

/// SplitMix64: small, fast, and good enough to shuffle keys and cut payloads.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair, so adding a stream
    /// never shifts the draws of another.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻³² for every
    /// `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Pseudo-random bytes generated once in set-up; every payload is a slice of
/// it, so a put never sends a constant fill and a read is verified by
/// slicing the same bytes again.
pub struct PayloadPool {
    bytes: Vec<u8>,
}

/// Where a payload sits in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadRef {
    pub offset: u32,
    pub len: u32,
}

impl PayloadPool {
    pub fn new(seed: u64, len: usize) -> Self {
        let mut rng = Rng::new(seed, 0x706f_6f6c);
        let mut bytes = Vec::with_capacity(len + 8);
        while bytes.len() < len {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        bytes.truncate(len);
        PayloadPool { bytes }
    }

    /// A payload of `len` bytes at a seeded offset.
    pub fn pick(&self, rng: &mut Rng, len: usize) -> PayloadRef {
        let room = (self.bytes.len() - len) as u64 + 1;
        PayloadRef {
            offset: rng.below(room) as u32,
            len: len as u32,
        }
    }

    pub fn slice(&self, payload: PayloadRef) -> &[u8] {
        &self.bytes[payload.offset as usize..(payload.offset + payload.len) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds_and_streams() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn payloads_are_not_a_constant_fill_and_stay_in_bounds() {
        let pool = PayloadPool::new(3, 1 << 16);
        let mut rng = Rng::new(3, 9);
        for _ in 0..100 {
            let payload = pool.pick(&mut rng, 4096);
            let bytes = pool.slice(payload);
            assert_eq!(bytes.len(), 4096);
            assert!(bytes.iter().any(|&b| b != bytes[0]));
        }
        let whole = pool.pick(&mut rng, 1 << 16);
        assert_eq!(whole.offset, 0);
    }
}
