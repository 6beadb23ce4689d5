//! Deadline-and-energy governor (extension).
//!
//! The paper's adaptive conclusion picks a *backend* for a given frame
//! size. A deployed fusion camera has one more degree of freedom the paper
//! itself points at ("different frame sizes and decomposition levels",
//! §VIII): the decomposition depth trades fusion quality against time.
//! [`QosGovernor`] closes the loop: given a frame geometry and a target
//! frame rate, it selects the **deepest decomposition that still meets the
//! deadline**, and for that depth the **most energy-efficient backend** —
//! quality first, energy second, deadline always.

use crate::adaptive::Objective;
use crate::backend::Backend;
use crate::cost::{CostModel, TransformPlan};
use crate::rules::FusionRule;
use crate::FusionError;
use wavefuse_dtcwt::Dwt2d;
use wavefuse_power::PowerModel;

/// One feasible operating point chosen by the governor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosDecision {
    /// Backend to execute on.
    pub backend: Backend,
    /// Decomposition depth to configure.
    pub levels: usize,
    /// Predicted seconds per fused frame.
    pub predicted_seconds: f64,
    /// Predicted energy per fused frame, millijoules.
    pub predicted_energy_mj: f64,
}

/// The deadline/energy governor.
///
/// # Examples
///
/// ```
/// use wavefuse_core::governor::QosGovernor;
///
/// let gov = QosGovernor::new(4);
/// // A relaxed 5 fps target at full frames affords the full 4-level
/// // decomposition; a hard 15 fps target forces a shallower transform.
/// let relaxed = gov.decide(88, 72, 5.0)?.expect("feasible");
/// let tight = gov.decide(88, 72, 15.0)?.expect("feasible");
/// assert!(relaxed.levels >= tight.levels);
/// # Ok::<(), wavefuse_core::FusionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QosGovernor {
    cost: CostModel,
    power: PowerModel,
    rule: FusionRule,
    max_levels: usize,
    candidates: Vec<Backend>,
}

impl QosGovernor {
    /// Creates a governor that considers depths `1..=max_levels` and the
    /// NEON, FPGA and hybrid backends.
    pub fn new(max_levels: usize) -> Self {
        QosGovernor {
            cost: CostModel::calibrated(),
            power: PowerModel::zc702(),
            rule: FusionRule::WindowEnergy { radius: 1 },
            max_levels: max_levels.max(1),
            candidates: vec![Backend::Neon, Backend::Fpga, Backend::Hybrid],
        }
    }

    /// Restricts the candidate backends (e.g. exclude the hybrid to model
    /// the paper's platform exactly).
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn with_candidates(mut self, candidates: &[Backend]) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate");
        self.candidates = candidates.to_vec();
        self
    }

    /// Per-frame cost of one operating point.
    fn operating_point(
        &self,
        w: usize,
        h: usize,
        levels: usize,
        backend: Backend,
    ) -> Result<QosDecision, FusionError> {
        let plan = TransformPlan::dtcwt(w, h, levels)?;
        let seconds = self.cost.frame_seconds(&plan, self.rule, backend);
        Ok(QosDecision {
            backend,
            levels,
            predicted_seconds: seconds,
            predicted_energy_mj: self.power.energy_mj(backend.execution_mode(), seconds),
        })
    }

    /// Chooses the operating point for a stream of `w`-by-`h` frames at
    /// `target_fps`: the deepest feasible decomposition, then the
    /// minimum-energy backend at that depth. Returns `None` if no
    /// combination meets the deadline.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::Transform`] only if even a single level is
    /// unsupported for the geometry.
    pub fn decide(
        &self,
        w: usize,
        h: usize,
        target_fps: f64,
    ) -> Result<Option<QosDecision>, FusionError> {
        let deadline = 1.0 / target_fps.max(1e-9);
        let depth_cap = self.max_levels.min(Dwt2d::max_levels(w, h));
        if depth_cap == 0 {
            return Err(FusionError::Transform(
                wavefuse_dtcwt::DtcwtError::BadLevels {
                    requested: 1,
                    max_supported: 0,
                },
            ));
        }
        // Deepest level first; within a level, minimum energy among the
        // deadline-meeting backends.
        for levels in (1..=depth_cap).rev() {
            let mut best: Option<QosDecision> = None;
            for &backend in &self.candidates {
                let point = self.operating_point(w, h, levels, backend)?;
                if point.predicted_seconds <= deadline {
                    let better = match &best {
                        None => true,
                        Some(b) => point.predicted_energy_mj < b.predicted_energy_mj,
                    };
                    if better {
                        best = Some(point);
                    }
                }
            }
            if let Some(d) = best {
                return Ok(Some(d));
            }
        }
        Ok(None)
    }

    /// The highest sustainable frame rate at a geometry for a given
    /// objective: the best backend at one decomposition level.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::Transform`] for unsupported geometries.
    pub fn max_fps(&self, w: usize, h: usize, objective: Objective) -> Result<f64, FusionError> {
        let mut best = f64::MAX;
        for &backend in &self.candidates {
            let p = self.operating_point(w, h, 1, backend)?;
            let key = match objective {
                Objective::Time => p.predicted_seconds,
                Objective::Energy => p.predicted_energy_mj,
            };
            if key < best {
                best = key;
            }
        }
        Ok(match objective {
            Objective::Time => 1.0 / best,
            // For the energy objective the "rate" is frames per joule.
            Objective::Energy => 1e3 / best,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxed_deadline_buys_depth() {
        let gov = QosGovernor::new(5);
        let relaxed = gov.decide(88, 72, 2.0).unwrap().expect("feasible");
        // ~16 fps is the platform's ceiling at 88x72 (hybrid, one level).
        let tight = gov.decide(88, 72, 15.0).unwrap().expect("feasible");
        assert!(relaxed.levels > tight.levels, "{relaxed:?} vs {tight:?}");
        assert_eq!(relaxed.levels, 5, "relaxed deadline affords full depth");
    }

    #[test]
    fn impossible_deadline_returns_none() {
        let gov = QosGovernor::new(3);
        assert_eq!(gov.decide(88, 72, 100_000.0).unwrap(), None);
    }

    #[test]
    fn decisions_meet_their_deadline() {
        let gov = QosGovernor::new(4);
        for fps in [5.0, 10.0, 20.0, 40.0] {
            if let Some(d) = gov.decide(64, 48, fps).unwrap() {
                assert!(d.predicted_seconds <= 1.0 / fps + 1e-12, "{fps} fps: {d:?}");
            }
        }
    }

    #[test]
    fn governor_prefers_energy_within_a_depth() {
        // At full frames with a loose deadline every backend is feasible at
        // the chosen depth; the winner must be the min-energy one.
        let gov = QosGovernor::new(3);
        let d = gov.decide(88, 72, 3.0).unwrap().expect("feasible");
        for backend in [Backend::Neon, Backend::Fpga, Backend::Hybrid] {
            let p = gov.operating_point(88, 72, d.levels, backend).unwrap();
            assert!(d.predicted_energy_mj <= p.predicted_energy_mj + 1e-12);
        }
    }

    #[test]
    fn candidate_restriction_is_respected() {
        let gov = QosGovernor::new(3).with_candidates(&[Backend::Neon]);
        let d = gov.decide(88, 72, 5.0).unwrap().expect("feasible");
        assert_eq!(d.backend, Backend::Neon);
    }

    #[test]
    fn max_fps_orders_by_size() {
        let gov = QosGovernor::new(3);
        let small = gov.max_fps(32, 24, Objective::Time).unwrap();
        let large = gov.max_fps(88, 72, Objective::Time).unwrap();
        assert!(small > large);
        assert!(large > 5.0, "full frames sustain more than 5 fps: {large}");
    }

    #[test]
    fn unsupported_geometry_errors() {
        let gov = QosGovernor::new(3);
        assert!(gov.decide(1, 1, 10.0).is_err());
    }
}
