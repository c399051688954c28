//! The two-string LCP oracle behind the diagonal BFS: direct
//! word-at-a-time comparison, no index.
//!
//! [`LcpOracle::lcp`] answers "how far do `a[i..]` and `b[j..]` match?"
//! by XOR-ing 8-byte little-endian words of both suffixes: the first
//! non-zero word holds the first mismatch, in the byte lane its lowest
//! set bit falls in (`trailing_zeros / 8`). A query costs
//! O(1 + lcp / 8) and nothing is preprocessed — in the regime the BFS
//! serves, rounds extend by a few symbols, so a suffix-array index
//! would cost far more to build than every probe it answers.

/// Longest-common-prefix queries between suffixes of two borrowed
/// strings.
pub struct LcpOracle<'a> {
    a: &'a [u8],
    b: &'a [u8],
}

impl<'a> LcpOracle<'a> {
    pub fn new(a: &'a [u8], b: &'a [u8]) -> LcpOracle<'a> {
        LcpOracle { a, b }
    }

    /// Length of the longest common prefix of `a[i..]` and `b[j..]`
    /// (0 when either start is past its string's end).
    pub fn lcp(&self, i: usize, j: usize) -> usize {
        let (Some(x), Some(y)) = (self.a.get(i..), self.b.get(j..)) else {
            return 0;
        };
        let len = x.len().min(y.len());
        let (x, y) = (&x[..len], &y[..len]);
        let (xw, _) = x.as_chunks::<8>();
        let (yw, _) = y.as_chunks::<8>();
        for (k, (p, q)) in xw.iter().zip(yw).enumerate() {
            let diff = u64::from_le_bytes(*p) ^ u64::from_le_bytes(*q);
            if diff != 0 {
                return 8 * k + (diff.trailing_zeros() / 8) as usize;
            }
        }
        let k = 8 * xw.len();
        k + x[k..].iter().zip(&y[k..]).take_while(|(p, q)| p == q).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_lcp(a: &[u8], b: &[u8], i: usize, j: usize) -> usize {
        match (a.get(i..), b.get(j..)) {
            (Some(x), Some(y)) => x.iter().zip(y).take_while(|(p, q)| p == q).count(),
            _ => 0,
        }
    }

    fn assert_matches_naive(a: &[u8], b: &[u8]) {
        let oracle = LcpOracle::new(a, b);
        for i in 0..=a.len() + 1 {
            for j in 0..=b.len() + 1 {
                assert_eq!(oracle.lcp(i, j), naive_lcp(a, b, i, j), "({i}, {j})");
            }
        }
    }

    #[test]
    fn oracle_matches_naive_lcp_everywhere() {
        assert_matches_naive(b"abracadabra", b"abracedabracadabra");
        // Period-3 strings long enough that most queries span several
        // whole words before the tail.
        let a: Vec<u8> = (0..70u8).map(|i| i % 3).collect();
        let mut b = a.clone();
        b[41] = 7;
        assert_matches_naive(&a, &b);
    }

    #[test]
    fn oracle_handles_runs_past_one_and_eight_words() {
        // Runs longer than one word (8 bytes) and than 8 words (64
        // bytes); the shorter string's end must stop the match.
        let a = vec![b'x'; 200];
        let mut b = vec![b'x'; 150];
        b.push(b'y');
        let oracle = LcpOracle::new(&a, &b);
        assert_eq!(oracle.lcp(0, 0), 150);
        assert_eq!(oracle.lcp(10, 0), 150);
        assert_eq!(oracle.lcp(0, 20), 130);
        assert_eq!(oracle.lcp(130, 0), 70);
        assert_eq!(oracle.lcp(0, 140), 10);
        assert_eq!(oracle.lcp(0, 150), 0);
    }

    #[test]
    fn mismatch_in_every_byte_lane_at_unaligned_offsets() {
        // For every start offset mod 8 and every lane of the first,
        // second and ninth word, plant one mismatch and expect the
        // oracle to stop exactly on it.
        let base: Vec<u8> = (0..160u32).map(|i| (i * 37 % 251) as u8).collect();
        for i in 0..8 {
            for j in 0..8 {
                for at in (0..16).chain(64..72) {
                    let mut b = base.clone();
                    b[j + at] ^= 0x80;
                    let mut a = vec![0xff; i];
                    a.extend_from_slice(&base[j..]);
                    let oracle = LcpOracle::new(&a, &b);
                    assert_eq!(oracle.lcp(i, j), at, "i={i} j={j} mismatch at +{at}");
                }
            }
        }
    }

    #[test]
    fn full_byte_range_symbols_are_handled() {
        let a: Vec<u8> = (0..=255u8).collect();
        let b: Vec<u8> = (0..=255u8).collect();
        let oracle = LcpOracle::new(&a, &b);
        assert_eq!(oracle.lcp(0, 0), 256);
        assert_eq!(oracle.lcp(100, 100), 156);
        assert_eq!(oracle.lcp(0, 1), 0);
        // Every byte value against a copy differing in only its lowest
        // or only its highest bit: the lane must not depend on which
        // bit of the byte differs.
        for bit in [0x01u8, 0x80] {
            for c in 0..=255u8 {
                let mut b = a.clone();
                b[usize::from(c)] ^= bit;
                assert_eq!(LcpOracle::new(&a, &b).lcp(0, 0), usize::from(c), "c={c} bit={bit}");
            }
        }
    }

    #[test]
    fn oracle_tolerates_empty_strings() {
        assert_eq!(LcpOracle::new(b"", b"abc").lcp(0, 0), 0);
        assert_eq!(LcpOracle::new(b"abc", b"").lcp(0, 0), 0);
        assert_eq!(LcpOracle::new(b"", b"").lcp(0, 0), 0);
        assert_matches_naive(b"", b"abcdefghijk");
    }
}
