//! Energy/performance design-space exploration around the paper's
//! breaking-point finding.
//!
//! ```text
//! cargo run --release --example energy_explorer
//! ```
//!
//! Sweeps frame sizes to chart where each engine wins, then asks the
//! "what-if" questions the paper's platform fixes: how does the crossover
//! move if the PL clock is faster, or the driver overhead smaller?

use wavefuse::core::adaptive::{crossover_edge, decide, Objective};
use wavefuse::core::cost::{CostModel, TransformPlan};
use wavefuse::core::rules::FusionRule;
use wavefuse::core::Backend;
use wavefuse::power::PowerModel;
use wavefuse::zynq::ZynqConfig;

const LEVELS: usize = 3;
const RULE: FusionRule = FusionRule::WindowEnergy { radius: 1 };

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = CostModel::calibrated();
    let power = PowerModel::zc702();

    println!("energy per fused frame (mJ) across square frame sizes:");
    println!(
        "{:>6} | {:>9} {:>9} {:>9} | winner",
        "edge", "ARM", "NEON", "FPGA"
    );
    for edge in (24..=96).step_by(8) {
        let plan = TransformPlan::dtcwt(edge, edge, LEVELS)?;
        let e = |b: Backend| {
            let seconds = model.predict(&plan, RULE, b).total_seconds();
            power.energy_mj(b.execution_mode(), seconds)
        };
        let (ea, en, ef) = (e(Backend::Arm), e(Backend::Neon), e(Backend::Fpga));
        let all = [Backend::Arm, Backend::Neon, Backend::Fpga];
        let winner = match decide(
            &model,
            &power,
            RULE,
            &plan,
            &all,
            Objective::Energy,
            f64::INFINITY,
        )
        .expect("no deadline")
        .backend
        {
            Backend::Fpga => "FPGA",
            Backend::Neon => "NEON",
            _ => "ARM",
        };
        println!("{edge:>4}^2 | {ea:>9.3} {en:>9.3} {ef:>9.3} | {winner}");
    }

    println!(
        "\nbaseline energy breaking point: {:?} (paper: between 40x40 and 64x48)",
        crossover_edge(&model, &power, LEVELS, Objective::Energy, 24, 128)?
    );

    // What-if: PL clock scaling. A faster engine shortens the pipeline
    // phase but not the driver overhead, so the crossover barely moves —
    // the paper's bottleneck diagnosis, quantified.
    println!("\nwhat-if: PL clock frequency");
    for mhz in [50.0, 100.0, 150.0, 200.0] {
        let mut m = CostModel::calibrated();
        m.zynq.pl_clk_hz = mhz * 1e6;
        println!(
            "  PL @ {mhz:>5.0} MHz -> energy crossover {:?}",
            crossover_edge(&m, &power, LEVELS, Objective::Energy, 24, 128)?
        );
    }

    // What-if: driver overhead. Halving the ioctl cost moves the crossover
    // far more — the adaptive scheduler's threshold must be platform-tuned.
    println!("\nwhat-if: per-call driver overhead (forward/inverse PS cycles)");
    let base = ZynqConfig::default();
    for scale in [0.25, 0.5, 1.0, 2.0] {
        let mut m = CostModel::calibrated();
        m.zynq.call_overhead_ps_cycles_forward =
            (base.call_overhead_ps_cycles_forward as f64 * scale) as u64;
        m.zynq.call_overhead_ps_cycles_inverse =
            (base.call_overhead_ps_cycles_inverse as f64 * scale) as u64;
        println!(
            "  {scale:>4.2}x overhead -> energy crossover {:?}",
            crossover_edge(&m, &power, LEVELS, Objective::Energy, 24, 128)?
        );
    }

    // What-if: PL power increment. The 19.2 mW delta is what separates the
    // time and energy breaking points.
    println!("\nwhat-if: PL power increment");
    for inc_mw in [0.0, 19.2, 60.0, 150.0] {
        let p = PowerModel::new(0.533, inc_mw / 1e3);
        println!(
            "  +{inc_mw:>5.1} mW -> energy crossover {:?}",
            crossover_edge(&model, &p, LEVELS, Objective::Energy, 24, 128)?
        );
    }
    Ok(())
}
