//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! figures fig3 [--jvm-artifact] [--measure-max-exp K] [--runs R]
//! figures fig4 [--jvm-artifact] [--measure-max-exp K] [--runs R]
//! figures mpi    [--runs R]
//! figures tiezip [--runs R]
//! figures all
//! ```
//!
//! Every figure prints **two** series:
//!
//! * `measured` — real wall-clock on this host (both the sequential
//!   stream baseline and the parallel PowerList collect actually run;
//!   on a 1-core container the parallel side cannot win, which the
//!   output says explicitly);
//! * `simulated-8-core` — the calibrated cost-model prediction from the
//!   `simsched` crate, which is the series whose *shape* reproduces the
//!   paper's 8-core plots (see DESIGN.md's substitution table).
//!
//! The paper sweeps polynomial degrees 2^20..2^26 with 5-run averages;
//! `--measure-max-exp` caps the *measured* sweep (default 22) so the
//! harness completes in sensible time on small hosts, while the
//! simulated series always covers the full 2^20..2^26 range.

use plbench::{ms, random_coeffs, time_avg, time_avg_with, PAPER_RUNS};
use simsched::{predict_poly, MachineModel};
use std::sync::Arc;

const LO_EXP: u32 = 20;
const HI_EXP: u32 = 26;
const EVAL_POINT: f64 = 0.9999993;

struct Args {
    command: String,
    jvm_artifact: bool,
    measure_max_exp: u32,
    runs: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: "all".to_string(),
        jvm_artifact: false,
        measure_max_exp: 22,
        runs: PAPER_RUNS,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "fig3" | "fig4" | "mpi" | "tiezip" | "all" => args.command = a,
            "--jvm-artifact" => args.jvm_artifact = true,
            "--measure-max-exp" => {
                args.measure_max_exp = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--measure-max-exp needs an integer");
            }
            "--runs" => {
                args.runs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--runs needs an integer");
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Measured sequential/parallel times at size `n` (averaged).
fn measure(n: usize, runs: usize) -> (f64, f64) {
    let coeffs = random_coeffs(n, 0xC0FFEE);
    let pool = Arc::new(forkjoin::ForkJoinPool::with_default_parallelism());
    let input = || coeffs.clone();
    let (_, seq) = time_avg_with(runs, input, |c| plalgo::eval_seq_stream(c, EVAL_POINT));
    let (_, par) = time_avg_with(runs, input, |c| {
        plalgo::eval_par_stream_with(c, EVAL_POINT, Some(Arc::clone(&pool)), None)
    });
    (ms(seq), ms(par))
}

fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

fn fig3(args: &Args) {
    header("Figure 3: speedup of the parallel execution (seq_time / par_time)");
    println!(
        "host: {} core(s); measured series capped at 2^{}; simulated series: 8 cores (paper machine)",
        num_cpus::get(),
        args.measure_max_exp
    );
    println!(
        "{:>6}  {:>16}  {:>20}",
        "n", "measured speedup", "simulated-8c speedup"
    );
    let machine = MachineModel::paper_8core();
    for k in LO_EXP..=HI_EXP {
        let n = 1usize << k;
        let sim = predict_poly(&machine, n, None, args.jvm_artifact);
        let measured = if k <= args.measure_max_exp {
            let (seq, par) = measure(n, args.runs);
            format!("{:>16.2}", seq / par)
        } else {
            format!("{:>16}", "-")
        };
        println!("2^{k:<4}  {measured}  {:>20.2}", sim.speedup);
    }
    if args.jvm_artifact {
        println!(
            "note: --jvm-artifact models the paper's observed JIT anomaly at 2^24 \
             (sequential ~3x faster than at 2^23)"
        );
    }
}

fn fig4(args: &Args) {
    header("Figure 4: execution times (ms) for sequential and parallel executions");
    println!(
        "{:>6}  {:>12} {:>12}  {:>14} {:>14}",
        "n", "meas seq", "meas par", "sim-8c seq", "sim-8c par"
    );
    let machine = MachineModel::paper_8core();
    for k in LO_EXP..=HI_EXP {
        let n = 1usize << k;
        let sim = predict_poly(&machine, n, None, args.jvm_artifact);
        let (mseq, mpar) = if k <= args.measure_max_exp {
            let (s, p) = measure(n, args.runs);
            (format!("{s:>12.2}"), format!("{p:>12.2}"))
        } else {
            (format!("{:>12}", "-"), format!("{:>12}", "-"))
        };
        println!(
            "2^{k:<4}  {mseq} {mpar}  {:>14.2} {:>14.2}",
            sim.seq_ms, sim.par_ms
        );
    }
}

fn mpi(args: &Args) {
    header("MPI ablation: simulated-rank scaling of the vp function (Section III claim)");
    let n = 1usize << 18;
    let coeffs = random_coeffs(n, 0xBEEF);
    let view = coeffs.clone().view();
    use jplf::Executor;
    let baseline = {
        let (_, d) = time_avg(args.runs, || {
            jplf::SequentialExecutor::new().execute(&plalgo::VpFunction::new(EVAL_POINT), &view)
        });
        ms(d)
    };
    println!("n = 2^18; sequential executor: {baseline:.2} ms");
    println!(
        "{:>6}  {:>12}  {:>18}",
        "ranks", "meas ms", "sim-8c speedup"
    );
    let machine = MachineModel::paper_8core();
    for ranks in [1usize, 2, 4, 8] {
        let exec = jplf::MpiExecutor::new(ranks);
        let (_, d) = time_avg(args.runs, || {
            exec.execute(&plalgo::VpFunction::new(EVAL_POINT), &view)
        });
        let sim = predict_poly(&machine.with_cores(ranks), n, None, false);
        println!("{ranks:>6}  {:>12.2}  {:>18.2}", ms(d), sim.speedup);
    }
}

fn tiezip(args: &Args) {
    header("Ablation A: tie vs zip decomposition for a collect-based map");
    let model = simsched::MapCostModel::default();
    println!(
        "{:>6}  {:>12} {:>12}  {:>14} {:>14}",
        "n", "meas tie ms", "meas zip ms", "sim-8c tie ms", "sim-8c zip ms"
    );
    for k in [16u32, 18, 20] {
        let n = 1usize << k;
        let data = plbench::random_ints(n, 0xA11CE);
        use jstreams::Decomposition;
        let input = || data.clone();
        let (_, tie) = time_avg_with(args.runs, input, |d| {
            plalgo::map_stream(d, Decomposition::Tie, |x| x * 3 + 1)
        });
        let (_, zip) = time_avg_with(args.runs, input, |d| {
            plalgo::map_stream(d, Decomposition::Zip, |x| x * 3 + 1)
        });
        let (sim_tie, sim_zip) = simsched::predict_map_collect(8, n, n / 32, &model);
        println!(
            "2^{k:<4}  {:>12.2} {:>12.2}  {:>14.2} {:>14.2}",
            ms(tie),
            ms(zip),
            sim_tie,
            sim_zip
        );
    }
    println!(
        "tie leaves are contiguous (linear distribution); zip leaves are strided residue classes"
    );
}

fn main() {
    let args = parse_args();
    println!("powerlist-streams figure harness (paper: Enhancing Java Streams API with PowerList Computation)");
    match args.command.as_str() {
        "fig3" => fig3(&args),
        "fig4" => fig4(&args),
        "mpi" => mpi(&args),
        "tiezip" => tiezip(&args),
        "all" => {
            fig3(&args);
            fig4(&args);
            mpi(&args);
            tiezip(&args);
        }
        _ => unreachable!(),
    }
}
