//! End-to-end and per-layer benchmark of the PowerList streams
//! reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <poly_zip|tie_collect|search_needle|fft_jplf> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Closed loop: one client thread issues one op at a time against one
//! `ForkJoinPool` of `nproc` workers. Inputs derive from `--seed` and
//! are built outside every timed region; every op's output is checked
//! against a reference. Op times are read on the threads' CPU clocks
//! (see `bench::Sample::ms`), which stolen time does not advance.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is a separate
//! run of the same ops that records spans and a `plobs` run report per
//! op, writes them under `perfbench-out/`, and prints the per-layer
//! metrics. The last stdout line is the result
//! object; `METRICS.md` says which end-to-end metric each layer metric
//! should move.

mod bench;
mod host;
mod inputs;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use bench::{measure, setup, timed, Pace, Route, Tally, Workload};
use layers::{leaf_touched_bytes, Layers};
use stats::{median, tail};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;
use trace::Spans;
use workloads::{FftJplf, PolyZip, SearchNeedle, TieCollect};

/// Schema tag of every line and file this benchmark writes.
const SCHEMA: &str = "perfbench.v1";
/// Set-ups per untraced run; `setup_s` is the median of their CPU
/// times.
const SETUPS: usize = 5;
const MIB: f64 = (1u64 << 20) as f64;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument: {flag}")),
        }
    }
    Ok(a)
}

/// How each workload is paced, and how many op pairs its traced run
/// records.
fn plan(workload: &str) -> Option<(Pace, u64)> {
    let (warm_rounds, side_every, trace_ops) = match workload {
        "poly_zip" | "tie_collect" => (2, 2, 24),
        "search_needle" => (4, 2, 192),
        "fft_jplf" => (2, 4, 16),
        _ => return None,
    };
    Some((
        Pace {
            warm_rounds,
            side_every,
        },
        trace_ops,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some((pace, trace_ops)) = plan(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (poly_zip, tie_collect, search_needle, fft_jplf)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let threads = host::nproc();
    let seed = args.seed;
    let run = Run {
        args: &args,
        pace,
        trace_ops,
        threads,
    };
    let ok = match args.workload.as_str() {
        "poly_zip" => run.go(&|| PolyZip::new(seed)),
        "tie_collect" => run.go(&|| TieCollect::new(seed)),
        "search_needle" => run.go(&|| SearchNeedle::new(seed)),
        _ => run.go(&|| FftJplf::new(seed, threads)),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Run<'a> {
    args: &'a Args,
    pace: Pace,
    trace_ops: u64,
    threads: usize,
}

impl Run<'_> {
    fn meta(&self, n: usize, ops: &str) -> String {
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"run_report_schema\":\"plobs.run_report.v2\",\
             \"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\"nproc\":{},\
             \"pool_threads\":{},\"client_threads\":1,\"commit\":\"{}\",\"n\":{n},\"ops\":{ops}}}",
            self.args.workload,
            self.args.seed,
            u8::from(self.args.trace),
            self.args.seconds,
            host::nproc(),
            self.threads,
            host::commit(),
        )
    }

    fn go<W: Layers>(&self, make: &dyn Fn() -> W) -> bool {
        if self.args.trace {
            self.traced(make)
        } else {
            self.end_to_end(make)
        }
    }

    fn end_to_end<W: Workload>(&self, make: &dyn Fn() -> W) -> bool {
        let mut setup_s = Vec::new();
        let mut kept = None;
        for _ in 0..SETUPS {
            drop(kept.take());
            let c = host::process_cpu_ns();
            kept = Some(setup(make, self.threads, self.pace));
            setup_s.push((host::process_cpu_ns() - c) as f64 / 1e9);
        }
        let (w, rig) = kept.expect("at least one set-up");
        let budget = Duration::from_secs(self.args.seconds);
        let (steal0, total0) = host::steal_and_total_ticks();
        let s = measure(&w, &rig, budget, self.pace, self.pace.warm_rounds);
        let (steal1, total1) = host::steal_and_total_ticks();
        // Share of the host's CPU time the hypervisor gave to other
        // machines during the loop. It slows wall times, not the CPU
        // clocks the metrics are read on.
        let steal_share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        drop(rig);

        let ops = format!(
            "{{\"par\":{},\"seq\":{},\"hand\":{},\"attempted\":{},\
             \"warmup_rounds_per_setup\":{},\"setups\":{SETUPS},\"host_steal_share\":{steal_share:.4}}}",
            s.par.len(),
            s.seq.len(),
            s.hand.len(),
            s.tally.attempted,
            self.pace.warm_rounds,
        );
        println!("meta {}", self.meta(w.n(), &ops));
        let Some(p90) = tail(&s.par, 0.9) else {
            eprintln!(
                "perfbench: only {} parallel ops in {:?}: too few for a p90",
                s.par.len(),
                bench::HARD_CAP
            );
            return false;
        };
        let op_p50 = median(&s.par);
        let seq_p50 = median(&s.seq);
        let hand_p50 = median(&s.hand);
        let values = [
            ("setup_s", median(&setup_s)),
            ("vs_hand_loop", op_p50 / hand_p50),
            ("op_p90_vs_p50", p90.value / op_p50),
            ("par_speedup", seq_p50 / op_p50),
            ("seq_vs_hand_loop", seq_p50 / hand_p50),
            ("ok_rate", 1.0 - s.tally.error_rate()),
            ("peak_rss_mib", host::peak_rss_mib()),
        ];
        print_values(
            metrics::END_TO_END,
            &values.map(|(name, v)| (name, Some(v))),
        );
        println!(
            "  op_p90_vs_p50 takes the nearest-rank p90 of the {} parallel ops, {} beyond it",
            p90.samples, p90.beyond
        );
        // The times behind the ratios. They follow the host's speed,
        // which other machines' load moves by up to half from run to
        // run, so they are printed but not on the result line.
        let total_par_s: f64 = s.par.iter().sum::<f64>() / 1e3;
        let times = [
            ("op_ms_p50", op_p50, "ms"),
            ("op_ms_p90", p90.value, "ms"),
            ("seq_ms_p50", seq_p50, "ms"),
            ("hand_ms_p50", hand_p50, "ms"),
            (
                "throughput_melem_s",
                w.n() as f64 * s.par.len() as f64 / total_par_s / 1e6,
                "Melem/s",
            ),
            ("op_wall_ms_p50", median(&s.par_wall), "ms"),
        ];
        for (name, v, unit) in times {
            println!("  {name} = {v:.6} {unit} (not gated)");
        }
        println!(
            "  error_rate = {} ({} failed of {} ops attempted)",
            s.tally.error_rate(),
            s.tally.failed,
            s.tally.attempted
        );
        println!(
            "{}",
            metrics::result_line(s.tally.failed == 0, s.tally, metrics::END_TO_END, &values)
        );
        true
    }

    fn traced<W: Layers>(&self, make: &dyn Fn() -> W) -> bool {
        let (w, rig) = setup(make, self.threads, self.pace);
        let pool = &rig.pool;
        let mut spans = Spans::new();
        let mut tally = Tally::default();
        let (mut plain_ms, mut plain_wall_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut steals, mut parks, mut cpu_ns) = (0u64, 0u64, 0u64);
        let mut reports = Vec::new();
        let first = self.pace.warm_rounds;
        for op in first..first + self.trace_ops {
            // Each op runs twice, untraced and under a plobs recorder;
            // which goes first alternates, so order effects cancel.
            for recorded in [op % 2 == 1, op % 2 == 0] {
                if recorded {
                    let (s, report) = spans.span("op.par_recorded", op, None, |sp, root| {
                        plobs::recorded(|| timed(&w, Route::Par, op, &rig, Some((sp, root))))
                    });
                    tally.add(s);
                    traced_ms.push(s.ms);
                    reports.push((op, report));
                } else {
                    // Pool counters and CPU time, no recorder.
                    let s = spans.span("op.par", op, None, |sp, root| {
                        let m0 = pool.metrics();
                        let s = timed(&w, Route::Par, op, &rig, Some((sp, root)));
                        let d = pool.metrics().since(&m0);
                        steals += d.injector_steals + d.peer_steals;
                        parks += d.parks;
                        s
                    });
                    tally.add(s);
                    cpu_ns += s.worker_cpu_ns;
                    plain_ms.push(s.ms);
                    plain_wall_ms.push(s.wall_ms);
                }
            }
        }
        let ops = reports.len() as f64;
        let sum = |f: &dyn Fn(&plobs::RunReport) -> u64| {
            reports.iter().map(|(_, r)| f(r)).sum::<u64>() as f64
        };
        let full_tree = reports
            .iter()
            .map(|(_, r)| r.routes.total_leaves() + r.leaves_pruned)
            .max()
            .unwrap_or(1)
            .max(1)
            .next_power_of_two() as usize;
        let combines = sum(&|r| r.combines);
        let placement_share = if combines > 0. {
            sum(&|r| r.combines_placement) / combines
        } else {
            0.0
        };
        let op_ns = median(&plain_ms) * 1e6;
        let touched: f64 = reports
            .iter()
            .map(|(_, r)| {
                let items = r.routes.total_items();
                let leaves = r.routes.total_leaves();
                leaf_touched_bytes(w.access(), items, leaves) as f64
            })
            .sum::<f64>()
            / ops;
        let leaf_ns = sum(&|r| r.leaf_ns) / ops;
        let needed: Option<f64> = reports
            .iter()
            .map(|(op, _)| w.items_needed(*op).map(|n| n as f64))
            .sum();

        let sp = &mut spans;
        let install_us = probe(sp, "probe.forkjoin.install", || {
            layers::install_us(pool, 400)
        });
        let join_ns = probe(sp, "probe.forkjoin.join", || layers::join_ns(pool, 2000));
        let split_ns = probe(sp, "probe.jstreams.split", || w.split_ns(full_tree));
        let leaf = probe(sp, "probe.jstreams.leaf", || w.stream_leaf(full_tree));
        let jplf_leaf_ns = probe(sp, "probe.jplf.leaf", || w.jplf_leaf_ns_per_elem(full_tree));
        let read_bytes = w.n() * w.access().elem as usize;
        let read_gib_s = probe(sp, "probe.mem.read", || layers::read_gib_s(read_bytes, 9));
        let combine_ns = probe(sp, "probe.jstreams.combine", || {
            w.stream_combine_ns(full_tree, placement_share)
        });
        let jcombine_ns = probe(sp, "probe.jplf.combine", || w.jplf_combine_ns(full_tree));
        drop(rig);

        let leaf_gib_s = if leaf_ns > 0.0 {
            touched / leaf_ns * 1e9 / (1u64 << 30) as f64
        } else {
            0.0
        };
        let per_op = |f: &dyn Fn(&plobs::RunReport) -> u64| Some(sum(f) / ops);
        let values = [
            ("forkjoin.install_us_p50", Some(install_us)),
            ("forkjoin.join_ns_p50", Some(join_ns)),
            ("forkjoin.steals_per_op", Some(steals as f64 / ops)),
            ("forkjoin.parks_per_op", Some(parks as f64 / ops)),
            (
                "forkjoin.cpu_busy_share",
                Some(
                    cpu_ns as f64 / (plain_wall_ms.iter().sum::<f64>() * 1e6 * self.threads as f64),
                ),
            ),
            (
                "forkjoin.off_cpu_ms_p50",
                Some(median(
                    &plain_wall_ms
                        .iter()
                        .zip(&plain_ms)
                        .map(|(wall, cpu)| wall - cpu)
                        .collect::<Vec<_>>(),
                )),
            ),
            ("jstreams.split_ns", split_ns),
            ("jstreams.splits_per_op", per_op(&|r| r.splits)),
            ("jstreams.combines_per_op", Some(combines / ops)),
            (
                "jstreams.shared_state_contended",
                per_op(&|r| r.lock_contended),
            ),
            (
                "jstreams.leaf_ns_per_elem",
                leaf.map(|l| l.lib_ns / l.elems as f64),
            ),
            ("jstreams.leaf_vs_hand", leaf.map(|l| l.lib_ns / l.hand_ns)),
            ("jstreams.leaf_touched_mib", Some(touched / MIB)),
            ("mem.read_gib_s", Some(read_gib_s)),
            ("jstreams.leaf_bw_share", Some(leaf_gib_s / read_gib_s)),
            ("jstreams.combine_share", combine_ns.map(|ns| ns / op_ns)),
            (
                "jstreams.leaves.zero_copy_slice",
                per_op(&|r| r.routes.zero_copy_slice.leaves),
            ),
            (
                "jstreams.leaves.zero_copy_strided",
                per_op(&|r| r.routes.zero_copy_strided.leaves),
            ),
            (
                "jstreams.leaves.fused_borrow",
                per_op(&|r| r.routes.fused_borrow.leaves),
            ),
            (
                "jstreams.leaves.cloning_drain",
                per_op(&|r| r.routes.cloning_drain.leaves),
            ),
            (
                "jstreams.leaves.template",
                per_op(&|r| r.routes.template.leaves),
            ),
            (
                "jstreams.leaves.placement",
                per_op(&|r| r.routes.placement.leaves),
            ),
            (
                "jstreams.search_scan_ratio",
                needed.map(|n| sum(&|r| r.routes.total_items()) / n),
            ),
            (
                "jstreams.leaves_pruned",
                needed.and(per_op(&|r| r.leaves_pruned)),
            ),
            ("jplf.leaf_ns_per_elem", jplf_leaf_ns),
            ("jplf.combine_share", jcombine_ns.map(|ns| ns / op_ns)),
            (
                "plobs.trace_overhead",
                Some(median(&traced_ms) / median(&plain_ms)),
            ),
        ];

        let ops_meta = format!(
            "{{\"par_pairs\":{},\"warmup_rounds\":{},\"probe_leaves\":{full_tree}}}",
            reports.len(),
            self.pace.warm_rounds
        );
        let meta = self.meta(w.n(), &ops_meta);
        println!("meta {meta}");
        match write_trace(self.args, &meta, &spans, &reports, &values) {
            Ok(path) => println!("  spans and per-op run reports: {path}"),
            Err(e) => {
                eprintln!("perfbench: cannot write the trace: {e}");
                return false;
            }
        }
        print_values(metrics::PER_LAYER, &values);
        // The result line carries every per-layer metric; a layer off
        // this workload's path does no work on it, so it reads 0 there.
        let reported: Vec<(&str, f64)> = values
            .iter()
            .map(|&(name, v)| (name, v.unwrap_or(0.0)))
            .collect();
        println!(
            "{}",
            metrics::result_line(tally.failed == 0, tally, metrics::PER_LAYER, &reported)
        );
        true
    }
}

/// Runs one layer probe inside a top-level span.
fn probe<R>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> R) -> R {
    spans.span(name, 0, None, |_, _| f())
}

fn print_values(catalogue: &[(&str, &str)], values: &[(&str, Option<f64>)]) {
    for (name, unit) in catalogue {
        match values.iter().find(|(n, _)| n == name) {
            Some((_, Some(v))) => println!("  {name} = {v:.6} {unit}"),
            Some((_, None)) => println!("  {name}: off this workload's path"),
            None => {}
        }
    }
}

/// Writes spans, per-op run reports and the metrics to
/// `perfbench-out/<workload>-seed<seed>-trace.json`.
fn write_trace(
    args: &Args,
    meta: &str,
    spans: &Spans,
    reports: &[(u64, plobs::RunReport)],
    values: &[(&str, Option<f64>)],
) -> std::io::Result<String> {
    let mut out = format!(
        "{{\"meta\":{meta},\"spans\":{},\"self_ns\":{{",
        spans.to_json()
    );
    for (i, (name, ns)) in spans.self_ns_by_name().iter().enumerate() {
        let _ = write!(out, "{}\"{name}\":{ns}", if i > 0 { "," } else { "" });
    }
    out.push_str("},\"reports\":[");
    for (i, (op, r)) in reports.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"op\":{op},\"report\":{}}}",
            if i > 0 { "," } else { "" },
            r.to_json()
        );
    }
    out.push_str("],\"metrics\":{");
    for (i, (name, v)) in values.iter().enumerate() {
        let v = v.map_or("null".to_owned(), |v| v.to_string());
        let _ = write!(out, "{}\"{name}\":{v}", if i > 0 { "," } else { "" });
    }
    out.push_str("}}\n");
    std::fs::create_dir_all("perfbench-out")?;
    let path = format!(
        "perfbench-out/{}-seed{}-trace.json",
        args.workload, args.seed
    );
    std::fs::write(&path, out)?;
    Ok(path)
}
