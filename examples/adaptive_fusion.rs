//! The adaptive NEON/FPGA selection study (the paper's §VIII future work).
//!
//! ```text
//! cargo run --release --example adaptive_fusion
//! ```
//!
//! Runs a workload whose frame size varies frame to frame (as happens when
//! the decomposition level or sensor windowing changes) under fixed and
//! adaptive policies, and shows that the adaptive scheduler achieves "the
//! most energy and performance efficient point" the paper predicts.

use wavefuse::core::adaptive::{crossover_edge, AdaptiveScheduler, Objective, Policy};
use wavefuse::core::cost::CostModel;
use wavefuse::core::{Backend, FusionEngine};
use wavefuse::power::PowerModel;
use wavefuse::video::scene::ScenePair;

const SIZES: [(usize, usize); 5] = [(32, 24), (35, 35), (40, 40), (64, 48), (88, 72)];
const ROUNDS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scene = ScenePair::new(7);

    // Per-size decisions of the model policy, with predictions.
    let mut sched = AdaptiveScheduler::new(Policy::Model(Objective::Time), 3);
    println!("per-size predictions (ms per fused frame) and decisions:");
    println!("{:>8} | {:>9} {:>9} | decision", "size", "NEON", "FPGA");
    for &(w, h) in &SIZES {
        let neon = sched.predicted_cost(w, h, Backend::Neon, Objective::Time)? * 1e3;
        let fpga = sched.predicted_cost(w, h, Backend::Fpga, Objective::Time)? * 1e3;
        let pick = sched.choose(w, h)?;
        println!(
            "{:>8} | {neon:>9.2} {fpga:>9.2} | {}",
            format!("{w}x{h}"),
            pick.label()
        );
    }
    let (cost, power) = (CostModel::calibrated(), PowerModel::zc702());
    println!(
        "\nbreaking points: time at {:?}, energy at {:?} (paper: between 40x40 and 64x48)",
        crossover_edge(&cost, &power, 3, Objective::Time, 24, 96)?,
        crossover_edge(&cost, &power, 3, Objective::Energy, 24, 96)?
    );

    // The mixed workload under four policies.
    let policies: Vec<(&str, Option<Policy>, Option<Backend>)> = vec![
        ("fixed NEON", None, Some(Backend::Neon)),
        ("fixed FPGA", None, Some(Backend::Fpga)),
        (
            "adaptive (model)",
            Some(Policy::Model(Objective::Time)),
            None,
        ),
        (
            "adaptive (online)",
            Some(Policy::Online(Objective::Time)),
            None,
        ),
    ];
    println!(
        "\nmixed workload ({} frames across {} sizes):",
        SIZES.len() * ROUNDS,
        SIZES.len()
    );
    println!(
        "{:>18} | {:>9} | {:>11} | NEON/FPGA",
        "policy", "time (s)", "energy (mJ)"
    );
    for (label, policy, fixed) in policies {
        let mut engine = FusionEngine::new(3)?;
        let mut sched = policy.map(|p| AdaptiveScheduler::new(p, 3));
        let (mut time, mut energy) = (0.0f64, 0.0f64);
        let mut usage = [0u64; 4];
        for round in 0..ROUNDS {
            for &(w, h) in &SIZES {
                let t = round as f64 / 10.0;
                let a = scene.render_visible(w, h, t);
                let b = scene.render_thermal(w, h, t);
                let backend = match (&mut sched, fixed) {
                    (Some(s), _) => s.choose(w, h)?,
                    (_, Some(b)) => b,
                    _ => unreachable!(),
                };
                let out = engine.fuse(&a, &b, backend)?;
                if let Some(s) = &mut sched {
                    s.observe(w, h, backend, out.timing.total_seconds(), out.energy_mj);
                }
                time += out.timing.total_seconds();
                energy += out.energy_mj;
                usage[backend.index()] += 1;
            }
        }
        println!(
            "{label:>18} | {time:>9.4} | {energy:>11.2} | {:>4}/{:<4}",
            usage[1], usage[2]
        );
    }
    Ok(())
}
