//! The workload protocol and the closed-loop runner: one client thread
//! issues one op at a time against one pool.

use crate::host::{self, Workers};
use crate::trace::Spans;
use forkjoin::{ForkJoinPool, PoolBuilder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which implementation an op runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The library's parallel route, on the run's pool.
    Par,
    /// The library's sequential route.
    Seq,
    /// A hand-written loop over the same input.
    Hand,
}

impl Route {
    /// All routes, in the order one round first issues them.
    pub const ALL: [Route; 3] = [Route::Par, Route::Seq, Route::Hand];
}

/// One benchmark workload: inputs derived from a seed, an op on each
/// route, and a reference check of every op's output.
pub trait Workload {
    /// A freshly owned input of one op.
    type Input;
    /// What an op returns, on every route.
    type Output;

    /// Elements in one op's input.
    fn n(&self) -> usize;
    /// Builds op `op`'s input (outside any timed region).
    fn input(&self, op: u64) -> Self::Input;
    /// Runs the op on `route`: the timed region. An `Err` is an
    /// execution error the library returned.
    fn execute(
        &self,
        route: Route,
        input: Self::Input,
        pool: &Arc<ForkJoinPool>,
    ) -> Result<Self::Output, String>;
    /// `true` when `out` matches op `op`'s reference result.
    fn check(&self, op: u64, out: &Self::Output) -> bool;
    /// Span name of the library entry point `route` calls.
    fn entry(&self, route: Route) -> &'static str;
}

/// Name prefix of the run's pool workers, whose CPU clocks the
/// benchmark reads.
pub const POOL_NAME: &str = "pb-worker";

/// The run's pool and the CPU clocks of its workers.
pub struct Rig {
    /// The pool every parallel op runs on.
    pub pool: Arc<ForkJoinPool>,
    workers: Workers,
}

impl Rig {
    /// Starts a pool of `threads` workers.
    pub fn new(threads: usize) -> Self {
        let pool = Arc::new(
            PoolBuilder::new()
                .threads(threads)
                .name_prefix(POOL_NAME)
                .build(),
        );
        let workers = Workers::named(POOL_NAME, pool.threads());
        Rig { pool, workers }
    }
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The op's time, in ms, on CPU clocks: the calling thread's CPU
    /// time during the call plus the largest CPU time any one pool
    /// worker spent in it. It leaves out time the op's threads slept
    /// or the hypervisor ran other machines; on a host of its own, a
    /// CPU-bound op's wall time.
    pub ms: f64,
    /// Wall time of the call, in ms.
    pub wall_ms: f64,
    /// The output passed the reference check (no panic, no error).
    pub ok: bool,
    /// CPU time of all pool workers during the call, in ns.
    pub worker_cpu_ns: u64,
}

/// An op's time on CPU clocks, in ns, from the calling thread's CPU
/// time and each worker's CPU time during the call.
pub fn span_ns(caller_ns: u64, worker_ns: &[u64]) -> u64 {
    caller_ns + worker_ns.iter().copied().max().unwrap_or(0)
}

/// Runs op `op` on `route`: builds its input, times only the call,
/// then checks the output. Panics and returned errors count as failed
/// ops instead of aborting the run. With `spans`, records the input,
/// call and check as children of the given parent span.
pub fn timed<W: Workload>(
    w: &W,
    route: Route,
    op: u64,
    rig: &Rig,
    mut spans: Option<(&mut Spans, u32)>,
) -> Sample {
    let input = in_span(&mut spans, "bench.input", op, || w.input(op));
    let (out, wall, caller, workers) = in_span(&mut spans, w.entry(route), op, || {
        let w0 = rig.workers.cpu_ns();
        let c0 = host::thread_cpu_ns();
        let t = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| w.execute(route, input, &rig.pool)));
        let wall = t.elapsed();
        let c1 = host::thread_cpu_ns();
        let w1 = rig.workers.cpu_ns();
        let workers: Vec<u64> = w1.iter().zip(&w0).map(|(b, a)| b - a).collect();
        (r, wall, c1 - c0, workers)
    });
    let ok = in_span(
        &mut spans,
        "bench.check",
        op,
        || matches!(&out, Ok(Ok(o)) if w.check(op, o)),
    );
    drop(out);
    Sample {
        ms: span_ns(caller, &workers) as f64 / 1e6,
        wall_ms: wall.as_secs_f64() * 1e3,
        ok,
        worker_cpu_ns: workers.iter().sum(),
    }
}

fn in_span<R>(
    spans: &mut Option<(&mut Spans, u32)>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> R {
    match spans {
        Some((s, parent)) => s.span(name, op, Some(*parent), |_, _| f()),
        None => f(),
    }
}

/// Ops attempted and failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Ops issued.
    pub attempted: u64,
    /// Ops that panicked, returned an error or failed the reference check.
    pub failed: u64,
}

impl Tally {
    /// Counts one op.
    pub fn add(&mut self, s: Sample) {
        self.attempted += 1;
        self.failed += u64::from(!s.ok);
    }

    /// Failed ÷ attempted (0 before any op).
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Op times of a measured loop, per route, in ms on CPU clocks (see
/// [`Sample::ms`]).
#[derive(Debug, Default)]
pub struct Samples {
    /// Parallel-route times.
    pub par: Vec<f64>,
    /// Parallel-route wall times.
    pub par_wall: Vec<f64>,
    /// Sequential-route times.
    pub seq: Vec<f64>,
    /// Hand-loop times.
    pub hand: Vec<f64>,
    /// Every op of the loop, all routes.
    pub tally: Tally,
}

impl Samples {
    fn push(&mut self, route: Route, s: Sample) {
        self.tally.add(s);
        match route {
            Route::Par => {
                self.par.push(s.ms);
                self.par_wall.push(s.wall_ms);
            }
            Route::Seq => self.seq.push(s.ms),
            Route::Hand => self.hand.push(s.ms),
        }
    }
}

/// Parallel ops a measured loop times at least: the p90 then has ten
/// samples beyond it.
pub const MIN_PAR_OPS: usize = 100;

/// A measured loop stops here even short of [`MIN_PAR_OPS`], so a run
/// always ends within its time limit.
pub const HARD_CAP: Duration = Duration::from_secs(120);

/// How a workload's rounds are paced.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// Rounds (one op per route) run during set-up, untimed.
    pub warm_rounds: u64,
    /// The sequential and hand-loop ops run every `side_every`-th round;
    /// the parallel op runs every round.
    pub side_every: u64,
}

/// Set-up: builds the workload (inputs from the seed, references),
/// starts a pool of `threads` workers and runs the warm-up rounds.
pub fn setup<W: Workload>(make: &dyn Fn() -> W, threads: usize, pace: Pace) -> (W, Rig) {
    let w = make();
    let rig = Rig::new(threads);
    for op in 0..pace.warm_rounds {
        for route in Route::ALL {
            timed(&w, route, op, &rig, None);
        }
    }
    (w, rig)
}

/// The closed measuring loop: rounds of interleaved par / seq / hand
/// ops (the order rotates every round) until `budget` has passed and
/// [`MIN_PAR_OPS`] parallel ops are timed. Ops are numbered from
/// `first_op`, so they never repeat a warm-up op.
pub fn measure<W: Workload>(
    w: &W,
    rig: &Rig,
    budget: Duration,
    pace: Pace,
    first_op: u64,
) -> Samples {
    let start = Instant::now();
    let mut s = Samples::default();
    for round in 0u64.. {
        let elapsed = start.elapsed();
        if (elapsed >= budget && s.par.len() >= MIN_PAR_OPS) || elapsed >= HARD_CAP {
            break;
        }
        for k in 0..Route::ALL.len() {
            let route = Route::ALL[(round as usize + k) % Route::ALL.len()];
            if route != Route::Par && round % pace.side_every != 0 {
                continue;
            }
            s.push(route, timed(w, route, first_op + round, rig, None));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Returns the op number; op 3 answers wrongly, op 5 panics and
    /// op 7 returns an execution error.
    struct Faulty;

    impl Workload for Faulty {
        type Input = u64;
        type Output = u64;
        fn n(&self) -> usize {
            1
        }
        fn input(&self, op: u64) -> u64 {
            op
        }
        fn execute(&self, route: Route, op: u64, _: &Arc<ForkJoinPool>) -> Result<u64, String> {
            match (route, op) {
                (Route::Par, 3) => Ok(op + 1),
                (Route::Par, 5) => panic!("injected panic"),
                (Route::Par, 7) => Err("injected error".into()),
                _ => Ok(op),
            }
        }
        fn check(&self, op: u64, out: &u64) -> bool {
            *out == op
        }
        fn entry(&self, _: Route) -> &'static str {
            "test.op"
        }
    }

    /// A rig finds its workers by name, so tests start one at a time.
    static ONE_RIG: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn wrong_results_panics_and_errors_count_as_failed() {
        let _one = ONE_RIG.lock().unwrap_or_else(|e| e.into_inner());
        let rig = Rig::new(1);
        let mut tally = Tally::default();
        for op in 0..10 {
            for route in Route::ALL {
                tally.add(timed(&Faulty, route, op, &rig, None));
            }
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 30,
                failed: 3
            }
        );
        assert_eq!(tally.error_rate(), 0.1);
    }

    #[test]
    fn loop_times_enough_par_ops_and_interleaves_the_others() {
        let _one = ONE_RIG.lock().unwrap_or_else(|e| e.into_inner());
        let rig = Rig::new(1);
        let pace = Pace {
            warm_rounds: 0,
            side_every: 2,
        };
        let s = measure(&Faulty, &rig, Duration::ZERO, pace, 0);
        assert_eq!(s.par.len(), MIN_PAR_OPS);
        assert_eq!(
            (s.seq.len(), s.hand.len()),
            (MIN_PAR_OPS / 2, MIN_PAR_OPS / 2)
        );
        assert_eq!(s.tally.failed, 3);
        assert_eq!(s.tally.attempted, 200);
    }

    #[test]
    fn an_op_spans_its_caller_and_its_busiest_worker() {
        assert_eq!(span_ns(5, &[]), 5);
        assert_eq!(span_ns(5, &[30, 70]), 75);
    }
}
