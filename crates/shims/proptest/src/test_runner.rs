//! Per-test configuration and the deterministic case RNG.

/// Subset of `proptest::test_runner::ProptestConfig`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 64 keeps the no-shrink shim's CI
        // runs fast while still exploring a meaningful sample.
        ProptestConfig { cases: 64 }
    }
}

/// Names the failing case: dropped while its thread unwinds from a
/// panic in the case, it prints the property's path and the case index to
/// stderr. The case RNG is a function of both, so that is the whole
/// reproduction.
#[doc(hidden)]
pub struct CaseGuard {
    pub test: &'static str,
    pub case: u32,
    pub cases: u32,
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest: {} failed at case {}/{} (TestRng::for_case({:?}, {}) replays it)",
                self.test, self.case, self.cases, self.test, self.case
            );
        }
    }
}

/// Deterministic per-case RNG (SplitMix64 seeded from the test's module
/// path and the case index, so every failure reproduces on re-run).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for case `case` of test `name`.
    pub fn for_case(name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Next uniform 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
