//! plcheck models of the short-circuiting search protocol
//! (`jstreams::search`): the record-before-cancel invariant behind
//! `Found` pruning, the minimal-index guarantee of the `FirstHit` cell
//! under encounter-order pruning, and the private-session contract of
//! `SearchSession`.

use forkjoin::{CancelReason, CancelToken};
use jstreams::{ExecConfig, FirstHit, Interrupt, SearchSession};
use parking_lot::Mutex;
use std::sync::Arc;

/// The `Found` short-circuit is lossless because leaves *record before
/// they cancel*: a hit is published to the shared sink strictly before
/// the token trips. Any task that observes `Found` — in any
/// interleaving — must therefore find the answer already in the sink.
/// This is the exact protocol of `search::scan`'s `record` closure,
/// modelled with the real `CancelToken` and an any-sink.
#[test]
fn found_observers_always_find_a_recorded_hit() {
    let report = plcheck::Explorer::exhaustive(5_000).run(|| {
        let token = CancelToken::new();
        let sink: Arc<Mutex<Option<i64>>> = Arc::default();

        // Two leaves hit concurrently; each records, then cancels.
        let mut leaves = Vec::new();
        for hit in [10i64, 20] {
            let (t, s) = (token.clone(), Arc::clone(&sink));
            leaves.push(plcheck::spawn(move || {
                {
                    let mut slot = s.lock();
                    if slot.is_none() {
                        *slot = Some(hit);
                    }
                }
                t.cancel(CancelReason::Found);
            }));
        }

        // A sibling subtree checkpoints: the moment it sees the trip it
        // may abandon its scan, relying on the sink being populated.
        if token.reason() == Some(CancelReason::Found) {
            assert!(
                sink.lock().is_some(),
                "observed Found but the sink is empty: a pruned subtree \
                 would have discarded the only copy of the answer"
            );
        }
        for leaf in leaves {
            leaf.join();
        }
        // Quiescence: the search ended with a trip and an answer.
        assert_eq!(token.reason(), Some(CancelReason::Found));
        let v = sink.lock().expect("some hit must have been recorded");
        assert!(v == 10 || v == 20);
    });
    report.assert_ok();
}

/// `find_first`'s minimal-index guarantee: leaves offer hits into a
/// [`FirstHit`] cell while subtrees prune themselves when their base
/// encounter index is at or past the recorded bound. In *every*
/// interleaving of offers and prune checks, the subtree that holds the
/// minimal hit can never be pruned (its base lies below its own hit,
/// and the bound can never drop below the global minimum), so the cell
/// always ends holding the minimal index.
#[test]
fn first_hit_pruning_never_loses_the_minimum() {
    let report = plcheck::Explorer::exhaustive(5_000).run(|| {
        let cell: Arc<FirstHit<i64>> = Arc::new(FirstHit::new());

        // Subtree A: base 2, holds the minimal hit at index 3.
        let a = {
            let cell = Arc::clone(&cell);
            plcheck::spawn(move || {
                if !cell.prunes(2) {
                    cell.offer(3, 30);
                }
            })
        };
        // Subtree B: base 8, holds a later hit at index 9. It may or
        // may not get pruned depending on what it observes — both are
        // sound.
        let b = {
            let cell = Arc::clone(&cell);
            plcheck::spawn(move || {
                if !cell.prunes(8) {
                    cell.offer(9, 90);
                }
            })
        };
        // The root leaf records its own hit at index 5 unconditionally.
        cell.offer(5, 50);
        a.join();
        b.join();

        // A's subtree can only be pruned when bound() <= 2, and no
        // offer in this run can push the bound below 3 — so the global
        // minimum always survives.
        assert_eq!(
            cell.take(),
            Some((3, 30)),
            "encounter-order pruning lost the minimal hit"
        );
    });
    report.assert_ok();
}

/// Improve-only publication: once the cell holds an index, a racing
/// offer with a *larger* index never replaces it, and `bound()` is
/// monotonically non-increasing across any interleaving.
#[test]
fn first_hit_offers_only_improve() {
    let report = plcheck::Explorer::exhaustive(5_000).run(|| {
        let cell: Arc<FirstHit<&'static str>> = Arc::new(FirstHit::new());
        let t = {
            let cell = Arc::clone(&cell);
            plcheck::spawn(move || {
                cell.offer(7, "seven");
            })
        };
        let before = cell.bound();
        cell.offer(12, "twelve");
        let after = cell.bound();
        assert!(after <= before, "bound must never move up");
        t.join();
        assert_eq!(
            cell.get(),
            Some((7, "seven")),
            "a later index must never displace an earlier one"
        );
    });
    report.assert_ok();
}

/// The private-session contract: a caller-held token racing a `Found`
/// trip. Whatever the interleaving, `check()` resolves to exactly one
/// of "answered" (`Ok(true)`) or "cancelled by the caller" — never a
/// silent `Ok(false)` continue — and the `Found` trip never leaks onto
/// the caller's token.
#[test]
fn search_session_keeps_found_off_the_caller_token() {
    let report = plcheck::Explorer::exhaustive(5_000).run(|| {
        let caller = CancelToken::new();
        let cfg = ExecConfig::par().with_cancel_token(caller.clone());
        let session = SearchSession::new(&cfg);

        let canceller = {
            let caller = caller.clone();
            plcheck::spawn(move || {
                caller.cancel(CancelReason::User);
            })
        };
        let found = session.found();
        assert!(found || session.token().is_cancelled());
        match session.check() {
            Ok(true) => {}
            Err(Interrupt::Cancelled(CancelReason::User)) => {}
            Ok(false) => panic!("check() returned Ok(false) after a Found trip"),
            Err(_) => panic!("check() surfaced an unexpected interrupt"),
        }
        canceller.join();
        assert_ne!(
            caller.reason(),
            Some(CancelReason::Found),
            "Found must stay on the private token"
        );
    });
    report.assert_ok();
}
