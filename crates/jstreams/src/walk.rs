//! The one divide-and-conquer tree walk behind every parallel driver.
//!
//! The paper makes `collect` the template method of a divide-and-conquer
//! skeleton, and JPLF runs every `PowerFunction` through one template.
//! This module is that template for the fork-join pool: a single
//! recursion, monomorphised per kind through the [`TreeWalk`] node
//! protocol. Five kinds run on it:
//!
//! | kind | node | split keeps for the combine | combine |
//! |---|---|---|---|
//! | splice collect | spliterator | nothing | `Collector::combine` |
//! | placement collect | spliterator + output `Window` | window, left slots | `OutputBuffer::combine` |
//! | streams search | spliterator + virtual base | nothing | none |
//! | JPLF compute | function + `PowerView` | parent function | `PowerFunction::combine` |
//! | JPLF search | `PowerView` | nothing | none |
//!
//! The walk owns, once for all of them:
//!
//! * the node-entry checkpoint and the kind's prune hook, recording one
//!   `EarlyExit` per pruned subtree;
//! * the stop rule, [`SplitPolicy::should_split`];
//! * panic containment of every split, leaf and combine;
//! * interrupt merging after both halves quiesce (a panic outranks a
//!   cancellation);
//! * the combine checkpoint;
//! * the `Split`, `DescendNs`, `Leaf` and `Combine` events;
//! * at the root, the pool fallbacks ([`live_pool`]) and the submission
//!   ([`on_pool`]), whose depth cap budgets the pool that executes.
//!
//! The n-way driver (`crate::nway`) is not a kind: its nodes fan out to
//! any arity, while the walk forks exactly two halves per split.

use crate::exec::{ExecConfig, ExecSession, Interrupt};
use forkjoin::{current_probe, join, ForkJoinPool, SplitPolicy};
use plobs::{Event, FallbackReason, LeafRoute};
use std::sync::Arc;
use std::time::Instant;

/// The checkpoint and containment surface a walk runs under.
pub trait WalkSession: Clone + Send + Sync + 'static {
    /// A cooperative checkpoint. `Ok(true)`: the run already holds its
    /// answer (a search's `Found` trip), so the node counts as pruned
    /// and succeeds. `Err`: an interrupt that propagates to the root.
    fn checkpoint(&self) -> Result<bool, Interrupt>;

    /// Runs walk code under panic containment.
    fn contain<R>(&self, f: impl FnOnce() -> R) -> Result<R, Interrupt>;
}

impl WalkSession for ExecSession {
    fn checkpoint(&self) -> Result<bool, Interrupt> {
        self.check().map(|()| false)
    }

    fn contain<R>(&self, f: impl FnOnce() -> R) -> Result<R, Interrupt> {
        self.run(f)
    }
}

/// One kind of tree walk: the run-wide state every node reads
/// (collector, output buffer, search sink), plus the node protocol.
pub trait TreeWalk: Send + Sync + Sized + 'static {
    /// A subtree's input.
    type Node: Send + 'static;
    /// A subtree's result.
    type Out: Send + 'static;
    /// What a split hands to the combine of its two halves.
    type Join: Send + 'static;
    /// The session the kind runs under.
    type Session: WalkSession;
    /// Whether the ascend phase does work. Without one (search), halves
    /// merge by interrupt priority alone: no combine checkpoint, no
    /// containment and no `Combine` event.
    const COMBINES: bool = true;
    /// Tags the kind's `Combine` events as placement combines.
    const PLACEMENT: bool = false;

    /// The node's exact size; `None` when only an upper bound is known.
    fn exact_size(&self, node: &Self::Node) -> Option<usize>;

    /// Node-entry prune hook, consulted after the checkpoint (`answered`
    /// is its `Ok(true)`). `Some(out)` abandons the subtree as success.
    fn prune(&self, _node: &Self::Node, _answered: bool) -> Option<Self::Out> {
        None
    }

    /// Splits a node into its left and right halves, or hands it back
    /// when it cannot split (it then runs as a leaf).
    fn split(&self, node: Self::Node) -> Result<Halves<Self>, Self::Node>;

    /// Runs a leaf: its result, the route it took and the elements it
    /// processed (for the `Leaf` event).
    fn leaf(&self, node: Self::Node) -> (Self::Out, LeafRoute, u64);

    /// Combines two sibling results in encounter order.
    fn combine(&self, join: Self::Join, left: Self::Out, right: Self::Out) -> Self::Out;
}

/// A split's left half, right half and the state its combine needs.
pub type Halves<W> = (
    <W as TreeWalk>::Node,
    <W as TreeWalk>::Node,
    <W as TreeWalk>::Join,
);

/// The pool a parallel run executes on: `pool`, or the global pool when
/// `None`. Returns `None` instead, after recording one `Fallback`, when
/// that pool is shut down or its queued backlog exceeds
/// `cfg.fallback_threshold()`; the run then takes its sequential route
/// rather than failing.
pub fn live_pool<'a>(pool: Option<&'a ForkJoinPool>, cfg: &ExecConfig) -> Option<&'a ForkJoinPool> {
    let pool = pool.unwrap_or_else(|| forkjoin::global_pool());
    let reason = if pool.is_shut_down() {
        FallbackReason::SubmitFailed
    } else if cfg
        .fallback_threshold()
        .is_some_and(|t| pool.queued_tasks() > t)
    {
        FallbackReason::PoolSaturated
    } else {
        return Some(pool);
    };
    plobs::emit(Event::Fallback { reason });
    None
}

/// Walks the tree rooted at `root` on `pool` under `policy`.
///
/// If the submission loses a shutdown race, the walk runs on the
/// calling thread as a recorded `SubmitFailed` fallback, and its joins
/// migrate to the global pool (or stay on the caller's own pool).
pub fn on_pool<W: TreeWalk>(
    pool: &ForkJoinPool,
    walk: W,
    root: W::Node,
    policy: SplitPolicy,
    session: &W::Session,
) -> Result<W::Out, Interrupt> {
    let walk = Arc::new(walk);
    let session = session.clone();
    let run = move || {
        // The depth cap must budget the pool that executes the walk,
        // which is not `pool` after a lost submission. Deriving it here,
        // inside the submitted closure, keeps the fallback from
        // splitting for a dead pool's width.
        let probe = current_probe();
        let threads = probe
            .as_ref()
            .map_or_else(|| forkjoin::global_pool().threads(), |p| p.threads());
        let at = Frame {
            policy,
            cap: policy.depth_cap(threads),
            depth: 0,
            steals: probe.map_or(0, |p| p.steal_pressure()),
        };
        visit(&walk, root, at, &session)
    };
    pool.try_install(run).unwrap_or_else(|run| {
        plobs::emit(Event::Fallback {
            reason: FallbackReason::SubmitFailed,
        });
        run()
    })
}

/// Runs the tree rooted at `root` as a single leaf on the calling
/// thread, behind the same node-entry checkpoint and prune hook as every
/// walked node: the sequential route of a kind, and the degraded route
/// of a parallel run whose pool is unavailable.
pub fn sequential<W: TreeWalk>(
    walk: &W,
    root: W::Node,
    session: &W::Session,
) -> Result<W::Out, Interrupt> {
    match enter(walk, &root, session)? {
        Some(out) => Ok(out),
        None => leaf(walk, root, session),
    }
}

/// Node entry: the checkpoint, which covers both the split decision and
/// leaf entry (so an interrupted run prunes whole subtrees here), then
/// the kind's prune hook. `Some` means the subtree is done.
fn enter<W: TreeWalk>(
    walk: &W,
    node: &W::Node,
    session: &W::Session,
) -> Result<Option<W::Out>, Interrupt> {
    let answered = session.checkpoint()?;
    let pruned = walk.prune(node, answered);
    if pruned.is_some() {
        plobs::emit(Event::EarlyExit { leaves_pruned: 1 });
    }
    Ok(pruned)
}

/// One contained, recorded leaf.
fn leaf<W: TreeWalk>(walk: &W, node: W::Node, session: &W::Session) -> Result<W::Out, Interrupt> {
    session.contain(|| record_leaf(|| walk.leaf(node)))
}

/// Runs one leaf and records its `Event::Leaf`; the clock is read only
/// while a sink listens. Sequential routes record their leaves through
/// this too.
pub(crate) fn record_leaf<R>(leaf: impl FnOnce() -> (R, LeafRoute, u64)) -> R {
    let start = plobs::enabled().then(Instant::now);
    let (out, route, items) = leaf();
    if let Some(start) = start {
        plobs::emit(Event::Leaf {
            route,
            items,
            ns: start.elapsed().as_nanos() as u64,
        });
    }
    out
}

/// Where a node sits in the walk.
#[derive(Clone, Copy)]
struct Frame {
    policy: SplitPolicy,
    cap: u32,
    depth: u32,
    steals: u64,
}

fn visit<W: TreeWalk>(
    walk: &Arc<W>,
    node: W::Node,
    at: Frame,
    session: &W::Session,
) -> Result<W::Out, Interrupt> {
    if let Some(out) = enter(&**walk, &node, session)? {
        return Ok(out);
    }
    let (split, steals) =
        at.policy
            .should_split(walk.exact_size(&node), at.depth, at.cap, at.steals);
    if !split {
        return leaf(&**walk, node, session);
    }
    let observe = plobs::enabled();
    let descend_start = observe.then(Instant::now);
    let (left, right, join_state) = match session.contain(|| walk.split(node))? {
        Ok(halves) => halves,
        Err(node) => return leaf(&**walk, node, session),
    };
    if let Some(start) = descend_start {
        plobs::emit(Event::Split {
            depth: at.depth,
            adaptive: at.policy.is_adaptive(),
        });
        plobs::emit(Event::DescendNs {
            ns: start.elapsed().as_nanos() as u64,
        });
    }
    let next = Frame {
        depth: at.depth + 1,
        steals,
        ..at
    };
    let (w_left, s_left) = (Arc::clone(walk), session.clone());
    let (w_right, s_right) = (Arc::clone(walk), session.clone());
    let (left, right) = join(
        move || visit(&w_left, left, next, &s_left),
        move || visit(&w_right, right, next, &s_right),
    );
    let (left, right) = match (left, right) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(a), Err(b)) => return Err(a.merge(b)),
        (Err(a), Ok(_)) | (Ok(_), Err(a)) => return Err(a),
    };
    if !W::COMBINES {
        return Ok(walk.combine(join_state, left, right));
    }
    // Combine checkpoint: skip merging results already doomed to be
    // discarded.
    session.checkpoint()?;
    let combine_start = observe.then(Instant::now);
    let out = session.contain(|| walk.combine(join_state, left, right))?;
    if let Some(start) = combine_start {
        plobs::emit(Event::Combine {
            depth: at.depth,
            ns: start.elapsed().as_nanos() as u64,
            placement: W::PLACEMENT,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    //! The walk's contract, checked once for every kind on a synthetic
    //! range-sum walk. Leaves and splits are counted by the walk's own
    //! atomics, never read from a process-global run report.

    use super::*;
    use forkjoin::{AdaptiveSplit, CancelReason, CancelToken};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[derive(Default)]
    struct Counts {
        leaves: AtomicUsize,
        splits: AtomicUsize,
    }

    /// Sums `start..start + len` over a halving tree.
    struct RangeSum {
        counts: Arc<Counts>,
        /// Whether nodes report their size as exact.
        exact: bool,
        /// Splitting this node panics.
        panic_at: Option<(u64, u64)>,
        /// Splitting this node waits for the token to trip, so its
        /// children observe the cancellation.
        wait_at: Option<(u64, u64)>,
        token: CancelToken,
    }

    impl RangeSum {
        fn new(exact: bool) -> (Self, Arc<Counts>) {
            let counts = Arc::new(Counts::default());
            let walk = RangeSum {
                counts: Arc::clone(&counts),
                exact,
                panic_at: None,
                wait_at: None,
                token: CancelToken::new(),
            };
            (walk, counts)
        }
    }

    impl TreeWalk for RangeSum {
        type Node = (u64, u64);
        type Out = u64;
        type Join = ();
        type Session = ExecSession;

        fn exact_size(&self, &(_, len): &(u64, u64)) -> Option<usize> {
            self.exact.then_some(len as usize)
        }

        fn split(&self, (start, len): (u64, u64)) -> Result<Halves<Self>, (u64, u64)> {
            if len < 2 {
                return Err((start, len));
            }
            if self.panic_at == Some((start, len)) {
                panic!("split bang");
            }
            if self.wait_at == Some((start, len)) {
                let deadline = Instant::now() + Duration::from_secs(30);
                while !self.token.is_cancelled() && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            self.counts.splits.fetch_add(1, Ordering::Relaxed);
            let half = len / 2;
            Ok(((start, half), (start + half, len - half), ()))
        }

        fn leaf(&self, (start, len): (u64, u64)) -> (u64, LeafRoute, u64) {
            self.counts.leaves.fetch_add(1, Ordering::Relaxed);
            ((start..start + len).sum(), LeafRoute::Template, len)
        }

        fn combine(&self, (): (), left: u64, right: u64) -> u64 {
            left + right
        }
    }

    fn pool() -> ForkJoinPool {
        ForkJoinPool::new(3)
    }

    /// [`on_pool`] inside a recorded section, only so that the walk's
    /// events stay out of other tests' recordings.
    fn run(
        pool: &ForkJoinPool,
        walk: RangeSum,
        root: (u64, u64),
        policy: SplitPolicy,
        session: &ExecSession,
    ) -> Result<u64, Interrupt> {
        plobs::recorded(|| on_pool(pool, walk, root, policy, session)).0
    }

    #[test]
    fn stop_rule_splits_inexact_sizes_to_the_depth_cap() {
        let p = pool();
        let session = ExecSession::default();
        // A leaf as large as the whole input stops an exact root...
        let (exact, counts) = RangeSum::new(true);
        let sum = run(&p, exact, (0, 4096), SplitPolicy::Fixed(4096), &session);
        assert_eq!(sum.unwrap(), 4095 * 4096 / 2);
        assert_eq!(counts.splits.load(Ordering::Relaxed), 0);
        assert_eq!(counts.leaves.load(Ordering::Relaxed), 1);
        // ...but an upper bound of the same value descends to the cap.
        let (inexact, counts) = RangeSum::new(false);
        let sum = run(&p, inexact, (0, 4096), SplitPolicy::Fixed(4096), &session);
        assert_eq!(sum.unwrap(), 4095 * 4096 / 2);
        let cap = SplitPolicy::Fixed(4096).depth_cap(p.threads());
        assert_eq!(counts.splits.load(Ordering::Relaxed), (1 << cap) - 1);
        assert_eq!(counts.leaves.load(Ordering::Relaxed), 1 << cap);
    }

    #[test]
    fn pre_cancelled_session_runs_no_leaf() {
        let token = CancelToken::new();
        token.cancel(CancelReason::User);
        let session = ExecSession::new(&ExecConfig::par().with_cancel_token(token));
        let (walk, counts) = RangeSum::new(true);
        let out = run(&pool(), walk, (0, 64), SplitPolicy::Fixed(1), &session);
        assert!(matches!(out, Err(Interrupt::Cancelled(CancelReason::User))));
        assert_eq!(counts.leaves.load(Ordering::Relaxed), 0);
        assert_eq!(counts.splits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn panic_outranks_cancel_when_both_siblings_fail() {
        // The root's halves are (0, 2) and (2, 2). One panics in its
        // split; the other waits for that panic to trip the token, so
        // both of its children are cancelled at node entry. Either way
        // round, the root must report the panic, and no leaf runs.
        let p = ForkJoinPool::new(2);
        for (panic_at, wait_at) in [((0, 2), (2, 2)), ((2, 2), (0, 2))] {
            let session = ExecSession::default();
            let (mut walk, counts) = RangeSum::new(true);
            walk.panic_at = Some(panic_at);
            walk.wait_at = Some(wait_at);
            walk.token = session.token().clone();
            let out = run(&p, walk, (0, 4), SplitPolicy::Fixed(1), &session);
            match out {
                Err(Interrupt::Panicked(payload)) => {
                    assert_eq!(payload.downcast_ref::<&str>(), Some(&"split bang"));
                }
                other => panic!("panic at {panic_at:?}: expected Panicked, got {other:?}"),
            }
            assert_eq!(
                counts.leaves.load(Ordering::Relaxed),
                0,
                "panic at {panic_at:?}: the waiting half must be cancelled, not run"
            );
        }
    }

    #[test]
    fn submit_race_fallback_recomputes_cap_from_executing_pool() {
        // A lost submission runs the walk on this external thread, with
        // joins migrating to the global pool. A depth cap taken from the
        // dead 1-thread target (`ceil_log2(1) + 0 = 0` under zero slack)
        // would stop an adaptive descent at the root with zero splits;
        // the cap must budget the pool that executes instead.
        if forkjoin::global_pool().threads() < 2 {
            return; // single-core runner: both caps coincide
        }
        let dead = ForkJoinPool::new(1);
        dead.shutdown();
        let policy = SplitPolicy::Adaptive(AdaptiveSplit {
            min_leaf: 1,
            depth_slack: 0,
            ..AdaptiveSplit::default()
        });
        let (walk, counts) = RangeSum::new(true);
        let sum = run(&dead, walk, (0, 4096), policy, &ExecSession::default());
        assert_eq!(sum.unwrap(), 4095 * 4096 / 2);
        assert!(
            counts.splits.load(Ordering::Relaxed) >= 1,
            "the fallback must split for the executing pool, not the dead target"
        );
    }
}
