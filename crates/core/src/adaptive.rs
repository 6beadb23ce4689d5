//! Run-time backend selection — the paper's headline finding and its
//! stated future work, implemented.
//!
//! §VII shows that neither accelerator dominates: the FPGA wins above a
//! frame-size threshold, the NEON engine below it, because the FPGA's
//! per-row driver/command overhead is fixed while its computational
//! advantage scales with the row length. §VIII proposes a system that
//! "automatically chooses the resources (NEON or FPGA) to execute when
//! fusing with different frame sizes and decomposition levels" — this
//! module provides three such policies:
//!
//! * [`Policy::Threshold`] — the simple rule suggested by Fig. 9: pick the
//!   FPGA when the frame has at least `min_pixels` pixels.
//! * [`Policy::Model`] — evaluate the calibrated cost model for both
//!   accelerators at the frame's geometry and pick the winner, optimizing
//!   either time or energy.
//! * [`Policy::Online`] — measure: try each accelerator once per frame
//!   geometry, then exploit the faster (or more frugal) one, continually
//!   refreshed by an exponential moving average of observations.

use std::collections::HashMap;
use std::sync::Arc;

use wavefuse_trace::MetricsRegistry;

use crate::backend::{Backend, BackendCounts};
use crate::cost::{CostModel, TransformPlan};
use crate::rules::FusionRule;
use crate::FusionError;
use wavefuse_power::PowerModel;

/// What the scheduler optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize modeled wall-clock time per fused frame.
    Time,
    /// Minimize modeled energy per fused frame.
    Energy,
}

/// Backend-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// FPGA at or above a pixel-count threshold, NEON below.
    Threshold {
        /// Minimum `width * height` for the FPGA to be selected.
        min_pixels: usize,
    },
    /// Cost-model-driven argmin over {NEON, FPGA}.
    Model(Objective),
    /// Measurement-driven argmin with explore-then-exploit.
    Online(Objective),
}

/// The adaptive scheduler.
///
/// # Examples
///
/// ```
/// use wavefuse_core::adaptive::{AdaptiveScheduler, Objective, Policy};
/// use wavefuse_core::Backend;
///
/// let mut sched = AdaptiveScheduler::new(Policy::Model(Objective::Time), 3);
/// // Small frames run on NEON, the paper's full frames on the FPGA.
/// assert_eq!(sched.choose(32, 24)?, Backend::Neon);
/// assert_eq!(sched.choose(88, 72)?, Backend::Fpga);
/// # Ok::<(), wavefuse_core::FusionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveScheduler {
    policy: Policy,
    levels: usize,
    rule: FusionRule,
    cost: CostModel,
    power: PowerModel,
    /// EMA of observed per-frame cost (seconds or millijoules) per geometry
    /// and backend, for the online policy.
    observations: HashMap<(usize, usize), [Option<f64>; 4]>,
    /// Decisions made per backend (for reports).
    decisions: BackendCounts,
    /// Backends the scheduler chooses among.
    candidates: Vec<Backend>,
    telemetry: Option<Arc<MetricsRegistry>>,
}

/// Smoothing factor of the online EMA (weight of the newest observation).
const EMA_ALPHA: f64 = 0.3;

/// The accelerators the scheduler considers by default, in exploration
/// order (the ARM is never optimal, matching the paper's future-work
/// framing of "NEON or FPGA").
pub const DEFAULT_CANDIDATES: [Backend; 2] = [Backend::Neon, Backend::Fpga];

impl AdaptiveScheduler {
    /// Creates a scheduler with the standard fusion rule at the given
    /// decomposition depth.
    pub fn new(policy: Policy, levels: usize) -> Self {
        AdaptiveScheduler {
            policy,
            levels,
            rule: FusionRule::WindowEnergy { radius: 1 },
            cost: CostModel::calibrated(),
            power: PowerModel::zc702(),
            observations: HashMap::new(),
            decisions: BackendCounts::new(),
            candidates: DEFAULT_CANDIDATES.to_vec(),
            telemetry: None,
        }
    }

    /// Attaches a metrics registry: every decision bumps a per-backend
    /// counter, and every observation records the cost model's
    /// predicted-vs-observed error.
    pub fn set_telemetry(&mut self, metrics: Arc<MetricsRegistry>) {
        metrics.describe(
            "wavefuse_scheduler_decisions_total",
            "Backend selections made by the adaptive scheduler",
        );
        metrics.describe(
            "wavefuse_scheduler_prediction_error",
            "Relative error of the cost model vs observed frame cost",
        );
        self.telemetry = Some(metrics);
    }

    /// Restricts or extends the candidate set (e.g. include
    /// [`Backend::Hybrid`] to let the scheduler pick the per-row-routed
    /// backend).
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn with_candidates(mut self, candidates: &[Backend]) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate");
        self.candidates = candidates.to_vec();
        self
    }

    /// The active policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// How many times each backend has been chosen.
    pub fn decision_counts(&self) -> BackendCounts {
        self.decisions
    }

    /// Chooses the backend for the next frame of the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::Transform`] if the geometry cannot support
    /// the configured decomposition depth.
    pub fn choose(&mut self, width: usize, height: usize) -> Result<Backend, FusionError> {
        let backend = match self.policy {
            Policy::Threshold { min_pixels } => {
                if width * height >= min_pixels {
                    Backend::Fpga
                } else {
                    Backend::Neon
                }
            }
            Policy::Model(objective) => self.model_choice(width, height, objective)?,
            Policy::Online(objective) => {
                let obs = self
                    .observations
                    .entry((width, height))
                    .or_insert([None; 4]);
                // Explore each candidate once, then exploit the best EMA.
                match self
                    .candidates
                    .iter()
                    .find(|b| obs[Self::index(**b)].is_none())
                {
                    Some(&unexplored) => unexplored,
                    None => {
                        let mut best = self.candidates[0];
                        for &b in &self.candidates[1..] {
                            let cur = obs[Self::index(b)].expect("explored");
                            let best_v = obs[Self::index(best)].expect("explored");
                            if cur < best_v {
                                best = b;
                            }
                        }
                        let _ = objective; // objective chooses what observe() records
                        best
                    }
                }
            }
        };
        self.decisions[backend] += 1;
        if let Some(m) = &self.telemetry {
            m.counter_add(
                "wavefuse_scheduler_decisions_total",
                &[("backend", backend.label())],
                1.0,
            );
        }
        Ok(backend)
    }

    /// Feeds a measurement back to the online policy: the time and energy of
    /// one fused frame of this geometry on this backend. No-op under other
    /// policies.
    pub fn observe(
        &mut self,
        width: usize,
        height: usize,
        backend: Backend,
        seconds: f64,
        energy_mj: f64,
    ) {
        if let Some(m) = &self.telemetry {
            // Predicted-vs-observed: useful feedback under every policy, so
            // record it before the online-only bookkeeping below.
            if let Ok(pred_s) = self.predicted_cost(width, height, backend, Objective::Time) {
                let err = if seconds > 0.0 {
                    (pred_s - seconds).abs() / seconds
                } else {
                    0.0
                };
                m.observe(
                    "wavefuse_scheduler_prediction_error",
                    &[("backend", backend.label())],
                    err,
                );
            }
        }
        let Policy::Online(objective) = self.policy else {
            return;
        };
        let value = match objective {
            Objective::Time => seconds,
            Objective::Energy => energy_mj,
        };
        let slot = &mut self
            .observations
            .entry((width, height))
            .or_insert([None; 4])[Self::index(backend)];
        *slot = Some(match *slot {
            None => value,
            Some(prev) => prev * (1.0 - EMA_ALPHA) + value * EMA_ALPHA,
        });
    }

    /// The cost-model prediction (per-frame seconds or millijoules) for a
    /// geometry and backend.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::Transform`] for unsupported geometries.
    pub fn predicted_cost(
        &self,
        width: usize,
        height: usize,
        backend: Backend,
        objective: Objective,
    ) -> Result<f64, FusionError> {
        let plan = TransformPlan::dtcwt(width, height, self.levels)?;
        let seconds = self.cost.frame_seconds(&plan, self.rule, backend);
        Ok(match objective {
            Objective::Time => seconds,
            Objective::Energy => self.power.energy_mj(backend.execution_mode(), seconds),
        })
    }

    fn model_choice(
        &self,
        width: usize,
        height: usize,
        objective: Objective,
    ) -> Result<Backend, FusionError> {
        let mut best = self.candidates[0];
        let mut best_v = self.predicted_cost(width, height, best, objective)?;
        for &b in &self.candidates[1..] {
            let v = self.predicted_cost(width, height, b, objective)?;
            if v < best_v {
                best = b;
                best_v = v;
            }
        }
        Ok(best)
    }

    /// Finds the square frame edge at which the FPGA starts beating NEON
    /// under the given objective (the paper's "breaking point"), scanning
    /// `lo..=hi`.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors for unsupported geometries.
    pub fn crossover_edge(
        &self,
        objective: Objective,
        lo: usize,
        hi: usize,
    ) -> Result<Option<usize>, FusionError> {
        for edge in lo..=hi {
            let fpga = self.predicted_cost(edge, edge, Backend::Fpga, objective)?;
            let neon = self.predicted_cost(edge, edge, Backend::Neon, objective)?;
            if fpga < neon {
                return Ok(Some(edge));
            }
        }
        Ok(None)
    }

    fn index(b: Backend) -> usize {
        b.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_policy_is_a_step_function() {
        let mut s = AdaptiveScheduler::new(
            Policy::Threshold {
                min_pixels: 40 * 40,
            },
            3,
        );
        assert_eq!(s.choose(35, 35).unwrap(), Backend::Neon);
        assert_eq!(s.choose(40, 40).unwrap(), Backend::Fpga);
        assert_eq!(s.decision_counts(), [0, 1, 1, 0]);
    }

    #[test]
    fn model_policy_reproduces_paper_extremes() {
        let mut s = AdaptiveScheduler::new(Policy::Model(Objective::Time), 3);
        assert_eq!(s.choose(32, 24).unwrap(), Backend::Neon);
        assert_eq!(s.choose(88, 72).unwrap(), Backend::Fpga);
        let mut e = AdaptiveScheduler::new(Policy::Model(Objective::Energy), 3);
        assert_eq!(e.choose(32, 24).unwrap(), Backend::Neon);
        assert_eq!(e.choose(88, 72).unwrap(), Backend::Fpga);
    }

    #[test]
    fn energy_crossover_is_at_or_above_time_crossover() {
        // The FPGA must win on time before it can win on energy (it draws
        // strictly more power).
        let s = AdaptiveScheduler::new(Policy::Model(Objective::Time), 3);
        let t = s.crossover_edge(Objective::Time, 24, 96).unwrap().unwrap();
        let e = s
            .crossover_edge(Objective::Energy, 24, 96)
            .unwrap()
            .unwrap();
        assert!(e >= t, "energy crossover {e} vs time crossover {t}");
    }

    #[test]
    fn online_policy_explores_then_exploits() {
        let mut s = AdaptiveScheduler::new(Policy::Online(Objective::Time), 3);
        // First two decisions explore NEON then FPGA (with feedback).
        let first = s.choose(64, 48).unwrap();
        assert_eq!(first, Backend::Neon);
        s.observe(64, 48, Backend::Neon, 0.010, 5.3);
        let second = s.choose(64, 48).unwrap();
        assert_eq!(second, Backend::Fpga);
        s.observe(64, 48, Backend::Fpga, 0.006, 3.4);
        // Now it exploits the faster one.
        assert_eq!(s.choose(64, 48).unwrap(), Backend::Fpga);
        // New geometry triggers fresh exploration.
        assert_eq!(s.choose(16, 16).unwrap(), Backend::Neon);
    }

    #[test]
    fn online_ema_adapts_to_drift() {
        let mut s = AdaptiveScheduler::new(Policy::Online(Objective::Time), 3);
        s.observe(32, 32, Backend::Neon, 0.004, 2.0);
        s.observe(32, 32, Backend::Fpga, 0.003, 1.7);
        assert_eq!(s.choose(32, 32).unwrap(), Backend::Fpga);
        // The FPGA path degrades (e.g. bus contention): repeated slow
        // observations flip the decision.
        for _ in 0..12 {
            s.observe(32, 32, Backend::Fpga, 0.009, 5.0);
        }
        assert_eq!(s.choose(32, 32).unwrap(), Backend::Neon);
    }

    #[test]
    fn observe_is_noop_for_model_policy() {
        let mut s = AdaptiveScheduler::new(Policy::Model(Objective::Time), 3);
        s.observe(64, 48, Backend::Neon, 1.0, 1.0);
        assert!(s.observations.is_empty());
    }

    #[test]
    fn hybrid_candidate_wins_everywhere_under_the_model() {
        let mut s = AdaptiveScheduler::new(Policy::Model(Objective::Time), 3).with_candidates(&[
            Backend::Neon,
            Backend::Fpga,
            Backend::Hybrid,
        ]);
        for (w, h) in [(32, 24), (40, 40), (88, 72)] {
            assert_eq!(s.choose(w, h).unwrap(), Backend::Hybrid, "{w}x{h}");
        }
    }

    #[test]
    fn unsupported_geometry_propagates() {
        let mut s = AdaptiveScheduler::new(Policy::Model(Objective::Time), 6);
        assert!(s.choose(8, 8).is_err());
    }
}
