//! Run-time backend selection — the paper's headline finding and its
//! stated future work, implemented.
//!
//! §VII shows that neither accelerator dominates: the FPGA wins above a
//! frame-size threshold, the NEON engine below it, because the FPGA's
//! per-row driver/command overhead is fixed while its computational
//! advantage scales with the row length. §VIII proposes a system that
//! "automatically chooses the resources (NEON or FPGA) to execute when
//! fusing with different frame sizes and decomposition levels".
//!
//! Every model-driven choice in the crate goes through one function,
//! [`decide`]: the argmin of [`CostModel::predict`] (time, or energy via
//! the [`PowerModel`]) over a candidate list on one plan, under an
//! optional deadline. The scheduler's model policy, the "breaking point"
//! search ([`crossover_edge`]) and serve's `Auto` admission all call it.
//! The scheduler offers two policies:
//!
//! * [`Policy::Model`] — [`decide`] over NEON and FPGA at the frame's
//!   geometry, optimizing either time or energy.
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
    /// Cost-model-driven argmin over {NEON, FPGA} ([`decide`]).
    Model(Objective),
    /// Measurement-driven argmin with explore-then-exploit.
    Online(Objective),
}

/// One candidate's predicted cost for one fused frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// The candidate backend.
    pub backend: Backend,
    /// Predicted seconds per fused frame ([`CostModel::predict`]'s total).
    pub seconds: f64,
    /// Predicted energy per fused frame, millijoules.
    pub energy_mj: f64,
}

impl Prediction {
    fn new(
        cost: &CostModel,
        power: &PowerModel,
        rule: FusionRule,
        plan: &TransformPlan,
        backend: Backend,
    ) -> Self {
        let seconds = cost.predict(plan, rule, backend).total_seconds();
        Prediction {
            backend,
            seconds,
            energy_mj: power.energy_mj(backend.execution_mode(), seconds),
        }
    }

    fn value(&self, objective: Objective) -> f64 {
        match objective {
            Objective::Time => self.seconds,
            Objective::Energy => self.energy_mj,
        }
    }
}

/// The argmin every backend decision uses: evaluates each candidate once on
/// `plan`, drops those predicted slower than `deadline_s`, and returns the
/// strict minimum under `objective` — ties go to the earlier candidate.
/// `None` when no candidate meets the deadline (pass `f64::INFINITY` for
/// none).
///
/// # Examples
///
/// ```
/// use wavefuse_core::adaptive::{decide, Objective};
/// use wavefuse_core::cost::{CostModel, TransformPlan};
/// use wavefuse_core::{Backend, FusionRule};
/// use wavefuse_power::PowerModel;
///
/// let (cost, power) = (CostModel::calibrated(), PowerModel::zc702());
/// let rule = FusionRule::WindowEnergy { radius: 1 };
/// let plan = TransformPlan::dtcwt(88, 72, 3)?;
/// let pick = decide(&cost, &power, rule, &plan, &[Backend::Neon, Backend::Fpga],
///                   Objective::Energy, f64::INFINITY).expect("no deadline");
/// assert_eq!(pick.backend, Backend::Fpga);
/// # Ok::<(), wavefuse_dtcwt::DtcwtError>(())
/// ```
pub fn decide(
    cost: &CostModel,
    power: &PowerModel,
    rule: FusionRule,
    plan: &TransformPlan,
    candidates: &[Backend],
    objective: Objective,
    deadline_s: f64,
) -> Option<Prediction> {
    let mut best: Option<Prediction> = None;
    for &backend in candidates {
        let p = Prediction::new(cost, power, rule, plan, backend);
        if p.seconds <= deadline_s && best.is_none_or(|b| p.value(objective) < b.value(objective)) {
            best = Some(p);
        }
    }
    best
}

/// Finds the square frame edge in `lo..=hi` at which the FPGA starts
/// beating NEON under `objective` (the paper's "breaking point"): the first
/// edge where [`decide`] over [`DEFAULT_CANDIDATES`] picks the FPGA, with
/// the scheduler's fusion rule at `levels` decomposition levels.
///
/// # Errors
///
/// Returns [`FusionError::Transform`] if an edge cannot support `levels`.
pub fn crossover_edge(
    cost: &CostModel,
    power: &PowerModel,
    levels: usize,
    objective: Objective,
    lo: usize,
    hi: usize,
) -> Result<Option<usize>, FusionError> {
    for edge in lo..=hi {
        let plan = TransformPlan::dtcwt(edge, edge, levels)?;
        let pick = decide(
            cost,
            power,
            DEFAULT_RULE,
            &plan,
            &DEFAULT_CANDIDATES,
            objective,
            f64::INFINITY,
        );
        if pick.map(|p| p.backend) == Some(Backend::Fpga) {
            return Ok(Some(edge));
        }
    }
    Ok(None)
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
    cost: CostModel,
    power: PowerModel,
    /// EMA of observed per-frame cost (seconds or millijoules) per geometry
    /// and backend, for the online policy.
    observations: HashMap<(usize, usize), [Option<f64>; Backend::COUNT]>,
    /// The model policy's decision per geometry. `cost` and `power` are
    /// fixed once [`AdaptiveScheduler::new`] returns, so a geometry's
    /// argmin never changes and is planned once.
    decided: HashMap<(usize, usize), Backend>,
    /// The cost model's per-frame seconds per geometry and backend, which
    /// [`AdaptiveScheduler::observe`] compares each measurement with. Fixed
    /// for the same reason as `decided`, so each is planned once.
    predicted_s: HashMap<(usize, usize), [Option<f64>; Backend::COUNT]>,
    /// Decisions made per backend (for reports).
    decisions: BackendCounts,
    telemetry: Option<Arc<MetricsRegistry>>,
}

/// Smoothing factor of the online EMA (weight of the newest observation).
const EMA_ALPHA: f64 = 0.3;

/// The fusion rule the scheduler and serve admission predict with (the
/// engine's default).
pub(crate) const DEFAULT_RULE: FusionRule = FusionRule::WindowEnergy { radius: 1 };

/// The accelerators the scheduler considers, in exploration order (the
/// ARM is never optimal, matching the paper's future-work framing of "NEON
/// or FPGA").
pub const DEFAULT_CANDIDATES: [Backend; 2] = [Backend::Neon, Backend::Fpga];

impl AdaptiveScheduler {
    /// Creates a scheduler with the standard fusion rule at the given
    /// decomposition depth.
    pub fn new(policy: Policy, levels: usize) -> Self {
        AdaptiveScheduler {
            policy,
            levels,
            cost: CostModel::calibrated(),
            power: PowerModel::zc702(),
            observations: HashMap::new(),
            decided: HashMap::new(),
            predicted_s: HashMap::new(),
            decisions: BackendCounts::new(),
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
            Policy::Model(objective) => match self.decided.get(&(width, height)) {
                Some(&backend) => backend,
                None => {
                    let plan = TransformPlan::dtcwt(width, height, self.levels)?;
                    let backend = decide(
                        &self.cost,
                        &self.power,
                        DEFAULT_RULE,
                        &plan,
                        &DEFAULT_CANDIDATES,
                        objective,
                        f64::INFINITY,
                    )
                    .expect("an unbounded deadline admits every candidate")
                    .backend;
                    self.decided.insert((width, height), backend);
                    backend
                }
            },
            Policy::Online(_) => {
                let obs = self
                    .observations
                    .entry((width, height))
                    .or_insert([None; Backend::COUNT]);
                // `None < Some(_)`, so each candidate is explored once, in
                // order, before the lowest EMA is exploited (the objective
                // chooses what observe() records).
                let ema = |b: Backend| obs[b.index()];
                DEFAULT_CANDIDATES
                    .into_iter()
                    .reduce(|best, b| if ema(b) < ema(best) { b } else { best })
                    .expect("at least one candidate")
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
        // Predicted-vs-observed: useful feedback under every policy, so
        // record it before the online-only bookkeeping below.
        if let Some(m) = self.telemetry.clone() {
            if let Ok(pred_s) = self.memoized_predicted_s(width, height, backend) {
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
            .or_insert([None; Backend::COUNT])[backend.index()];
        *slot = Some(match *slot {
            None => value,
            Some(prev) => prev * (1.0 - EMA_ALPHA) + value * EMA_ALPHA,
        });
    }

    /// The cost-model prediction (per-frame seconds or millijoules) for a
    /// geometry and backend: [`CostModel::predict`]'s total, bit for bit
    /// the `predicted_s` the engine records for the same frame.
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
        Ok(Prediction::new(&self.cost, &self.power, DEFAULT_RULE, &plan, backend).value(objective))
    }

    /// [`AdaptiveScheduler::predicted_cost`] in seconds, planned once per
    /// geometry and backend.
    fn memoized_predicted_s(
        &mut self,
        width: usize,
        height: usize,
        backend: Backend,
    ) -> Result<f64, FusionError> {
        let memo = self.predicted_s.get(&(width, height));
        if let Some(&Some(s)) = memo.map(|m| &m[backend.index()]) {
            return Ok(s);
        }
        let s = self.predicted_cost(width, height, backend, Objective::Time)?;
        self.predicted_s
            .entry((width, height))
            .or_insert([None; Backend::COUNT])[backend.index()] = Some(s);
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn memoized_model_choices_equal_a_fresh_decide() {
        // Repeated choices at the paper sizes come from the memo; each must
        // equal a fresh plan-and-decide, and each still counts once.
        let (cost, power) = (CostModel::calibrated(), PowerModel::zc702());
        let sizes = [(32, 24), (35, 35), (40, 40), (64, 48), (88, 72)];
        for objective in [Objective::Time, Objective::Energy] {
            let mut s = AdaptiveScheduler::new(Policy::Model(objective), 3);
            let mut want = BackendCounts::new();
            for round in 0..3 {
                for (w, h) in sizes {
                    let plan = TransformPlan::dtcwt(w, h, 3).unwrap();
                    let fresh = decide(
                        &cost,
                        &power,
                        DEFAULT_RULE,
                        &plan,
                        &DEFAULT_CANDIDATES,
                        objective,
                        f64::INFINITY,
                    )
                    .unwrap()
                    .backend;
                    let got = s.choose(w, h).unwrap();
                    assert_eq!(got, fresh, "{objective:?} {w}x{h} round {round}");
                    want[fresh] += 1;
                }
            }
            assert_eq!(s.decision_counts(), want, "{objective:?}");
        }
    }

    #[test]
    fn memoized_predictions_equal_a_fresh_predicted_cost() {
        // observe() compares every measurement with a memoized prediction;
        // each must equal a fresh plan-and-predict, bit for bit, on the
        // first call and the repeats.
        let sizes = [(32, 24), (35, 35), (40, 40), (64, 48), (88, 72)];
        let mut s = AdaptiveScheduler::new(Policy::Model(Objective::Time), 3);
        for round in 0..2 {
            for (w, h) in sizes {
                for backend in DEFAULT_CANDIDATES {
                    let fresh = s.predicted_cost(w, h, backend, Objective::Time).unwrap();
                    let memo = s.memoized_predicted_s(w, h, backend).unwrap();
                    assert_eq!(
                        memo.to_bits(),
                        fresh.to_bits(),
                        "{w}x{h} {backend:?} round {round}"
                    );
                }
            }
        }
        assert!(s.memoized_predicted_s(2, 2, Backend::Neon).is_err());
    }

    #[test]
    fn energy_crossover_is_at_or_above_time_crossover() {
        // The FPGA must win on time before it can win on energy (it draws
        // strictly more power).
        let (cost, power) = (CostModel::calibrated(), PowerModel::zc702());
        let edge = |objective| crossover_edge(&cost, &power, 3, objective, 24, 96);
        let t = edge(Objective::Time).unwrap().unwrap();
        let e = edge(Objective::Energy).unwrap().unwrap();
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

    fn decide_on(
        cost: &CostModel,
        (w, h): (usize, usize),
        candidates: &[Backend],
        objective: Objective,
        deadline_s: f64,
    ) -> Option<Prediction> {
        let plan = TransformPlan::dtcwt(w, h, 3).unwrap();
        let power = PowerModel::zc702();
        decide(
            cost,
            &power,
            DEFAULT_RULE,
            &plan,
            candidates,
            objective,
            deadline_s,
        )
    }

    #[test]
    fn decide_breaks_ties_toward_the_earlier_candidate() {
        // With nothing vectorizable, NEON's Amdahl factor is exactly 1, so
        // ARM and NEON predict the same seconds bit for bit.
        let mut cost = CostModel::calibrated();
        cost.neon_vectorizable_forward = 0.0;
        cost.neon_vectorizable_inverse = 0.0;
        let pick = |candidates: &[Backend]| {
            decide_on(&cost, (64, 48), candidates, Objective::Time, f64::INFINITY).unwrap()
        };
        let arm_first = pick(&[Backend::Arm, Backend::Neon]);
        let neon_first = pick(&[Backend::Neon, Backend::Arm]);
        assert_eq!(arm_first.seconds.to_bits(), neon_first.seconds.to_bits());
        assert_eq!(arm_first.backend, Backend::Arm);
        assert_eq!(neon_first.backend, Backend::Neon);
    }

    #[test]
    fn decide_drops_candidates_over_the_deadline() {
        let cost = CostModel::calibrated();
        let all = Backend::ALL;
        let free = decide_on(&cost, (88, 72), &all, Objective::Time, f64::INFINITY).unwrap();
        // A deadline below the fastest candidate admits nobody...
        let none = decide_on(&cost, (88, 72), &all, Objective::Time, free.seconds * 0.5);
        assert_eq!(none, None);
        // ...and one exactly at it admits the fastest.
        let at = decide_on(&cost, (88, 72), &all, Objective::Time, free.seconds);
        assert_eq!(at, Some(free));
    }

    #[test]
    fn unsupported_geometry_propagates() {
        let mut s = AdaptiveScheduler::new(Policy::Model(Objective::Time), 6);
        assert!(s.choose(8, 8).is_err());
    }
}
