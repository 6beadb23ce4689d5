//! Compute-backend selection.

use wavefuse_power::ExecutionMode;

/// The compute engines the transforms can run on.
///
/// [`Backend::Arm`], [`Backend::Neon`] and [`Backend::Fpga`] are the
/// paper's §VII configurations; the adaptive scheduler picks one of them
/// per frame (§VIII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Plain scalar execution on the ARM Cortex-A9 model.
    Arm,
    /// The 4-lane NEON SIMD engine.
    Neon,
    /// The PL wavelet engine over the ACP.
    Fpga,
}

impl Backend {
    /// Number of backends ([`Backend::ALL`]'s length) — the size of
    /// per-backend accounting arrays.
    pub const COUNT: usize = 3;

    /// The paper's three reporting configurations (Figs. 9–10).
    pub const ALL: [Backend; 3] = [Backend::Arm, Backend::Neon, Backend::Fpga];

    /// The platform power-model mode this backend runs in.
    pub fn execution_mode(self) -> ExecutionMode {
        match self {
            Backend::Arm => ExecutionMode::ArmOnly,
            Backend::Neon => ExecutionMode::ArmNeon,
            Backend::Fpga => ExecutionMode::ArmFpga,
        }
    }

    /// Display label (the paper's naming for its three modes).
    pub fn label(self) -> &'static str {
        self.execution_mode().label()
    }

    /// Dense index for per-backend accounting arrays.
    pub fn index(self) -> usize {
        match self {
            Backend::Arm => 0,
            Backend::Neon => 1,
            Backend::Fpga => 2,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A per-backend tally, indexed by [`Backend`] instead of by position, so
/// the `[ARM, NEON, FPGA]` ordering cannot silently drift from
/// [`Backend::index`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendCounts([u64; Backend::COUNT]);

impl BackendCounts {
    /// All-zero tally.
    pub fn new() -> Self {
        BackendCounts::default()
    }

    /// `(backend, count)` pairs in [`Backend::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Backend, u64)> + '_ {
        Backend::ALL.into_iter().map(|b| (b, self.0[b.index()]))
    }

    /// Sum over all backends.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The raw array, in [`Backend::ALL`] order.
    pub fn as_array(&self) -> [u64; Backend::COUNT] {
        self.0
    }
}

impl std::ops::Index<Backend> for BackendCounts {
    type Output = u64;

    fn index(&self, b: Backend) -> &u64 {
        &self.0[b.index()]
    }
}

impl std::ops::IndexMut<Backend> for BackendCounts {
    fn index_mut(&mut self, b: Backend) -> &mut u64 {
        &mut self.0[b.index()]
    }
}

impl PartialEq<[u64; Backend::COUNT]> for BackendCounts {
    fn eq(&self, other: &[u64; Backend::COUNT]) -> bool {
        self.0 == *other
    }
}

impl From<BackendCounts> for [u64; Backend::COUNT] {
    fn from(c: BackendCounts) -> Self {
        c.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_maps_to_power_mode() {
        assert_eq!(Backend::Arm.execution_mode(), ExecutionMode::ArmOnly);
        assert_eq!(Backend::Neon.execution_mode(), ExecutionMode::ArmNeon);
        assert_eq!(Backend::Fpga.execution_mode(), ExecutionMode::ArmFpga);
        assert_eq!(Backend::ALL.len(), 3);
        assert_eq!(Backend::Fpga.to_string(), "ARM+FPGA");
    }

    #[test]
    fn indices_are_dense_and_distinct() {
        let mut seen = [false; Backend::COUNT];
        for b in Backend::ALL {
            assert!(!seen[b.index()]);
            seen[b.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn backend_counts_index_by_backend() {
        let mut c = BackendCounts::new();
        c[Backend::Neon] += 2;
        c[Backend::Fpga] += 1;
        assert_eq!(c[Backend::Neon], 2);
        assert_eq!(c, [0, 2, 1]);
        assert_eq!(c.total(), 3);
        assert_eq!(c.as_array(), [0, 2, 1]);
        let pairs: Vec<_> = c.iter().collect();
        assert_eq!(pairs[1], (Backend::Neon, 2));
    }
}
