//! The [`IssueGate`] — ordered issue of pipelined platform calls.
//!
//! The pipelined execution engine (core's `pipeline` module) keeps several
//! platform round-trips in flight at once. Overlap is only safe if the
//! *effects* of those calls — task-id allocation, budget charges, API-call
//! accounting — still land in one deterministic order: a platform that
//! allocates ids in arrival order would otherwise bind different ids to
//! different batches on every run, destroying the bit-for-bit
//! reproducibility the whole system is built on.
//!
//! An `IssueGate` is the client-side sequencer that fixes this. The caller
//! numbers its calls with consecutive *slots* (0, 1, 2, …); each call takes
//! its [`turn`](IssueGate::turn) before performing its effect, and the gate
//! admits slot `k` only after slot `k - 1` has completed its effect. The
//! wire time of a call — the part a latency-bound platform spends waiting
//! on the network — happens *outside* the turn, so round-trips overlap
//! while their effects serialize. This is exactly the contract of a
//! pipelined HTTP/1.1 connection: requests are in flight concurrently, the
//! server applies them in order.
//!
//! Failure is ordered too. A turn that is dropped without
//! [`complete`](IssueTurn::complete) — the call behind it failed — closes
//! the gate for every later slot, so a pipelined run fails with exactly the
//! platform state a sequential run stopping at the same batch would leave:
//! a committed prefix, one failed call, nothing after it.

use crate::error::{Error, Result};
use std::sync::{Condvar, Mutex};

struct GateState {
    /// The slot currently admitted.
    next: u64,
    /// Slots `>= closed_at` fail with [`Error::Cancelled`] instead of
    /// running.
    closed_at: Option<u64>,
}

/// A sequencer admitting pipelined calls one slot at a time, in slot order.
///
/// Create one gate per pipelined phase; number the phase's calls with
/// consecutive slots starting at 0. See the module docs for the contract.
#[derive(Debug)]
pub struct IssueGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl std::fmt::Debug for GateState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GateState")
            .field("next", &self.next)
            .field("closed_at", &self.closed_at)
            .finish()
    }
}

impl Default for IssueGate {
    fn default() -> Self {
        IssueGate::new()
    }
}

impl IssueGate {
    /// A fresh gate admitting slot 0 first.
    pub fn new() -> Self {
        IssueGate {
            state: Mutex::new(GateState { next: 0, closed_at: None }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until slot `slot` is admitted, then returns the turn token.
    ///
    /// Errors with [`Error::Cancelled`] if the gate was closed at or below
    /// `slot` (an earlier slot failed), and with [`Error::InvalidRequest`]
    /// if `slot` was already taken — slots are use-once and must be issued
    /// consecutively.
    pub fn turn(&self, slot: u64) -> Result<IssueTurn<'_>> {
        let mut s = self.state.lock().expect("issue gate lock");
        loop {
            if s.closed_at.is_some_and(|c| slot >= c) {
                return Err(Error::Cancelled(format!(
                    "issue slot {slot}: an earlier pipelined call failed"
                )));
            }
            if slot < s.next {
                return Err(Error::InvalidRequest(format!(
                    "issue slot {slot} already taken (next is {})",
                    s.next
                )));
            }
            if s.next == slot {
                return Ok(IssueTurn { gate: self, slot, completed: false });
            }
            s = self.cv.wait(s).expect("issue gate wait");
        }
    }

    /// Runs `effect` in slot `slot`'s turn: takes the turn, runs the
    /// effect, and completes the turn only if the effect succeeded. A
    /// failed effect drops the turn, which closes the gate for every later
    /// slot (see the module docs).
    pub fn run<T>(&self, slot: u64, effect: impl FnOnce() -> Result<T>) -> Result<T> {
        let turn = self.turn(slot)?;
        let out = effect()?;
        turn.complete();
        Ok(out)
    }

    /// Closes the gate: slots `>= slot` will fail with
    /// [`Error::Cancelled`]; slots below proceed normally. Idempotent
    /// (keeps the lowest close point). Used by the pipeline driver to
    /// cancel in-flight work past the first failure.
    pub fn close_from(&self, slot: u64) {
        let mut s = self.state.lock().expect("issue gate lock");
        s.closed_at = Some(s.closed_at.map_or(slot, |c| c.min(slot)));
        self.cv.notify_all();
    }

    /// The slot the gate would admit next (diagnostics and tests).
    pub fn admitted(&self) -> u64 {
        self.state.lock().expect("issue gate lock").next
    }
}

/// Possession of the gate for one slot: the holder's effect is the next in
/// the global order.
///
/// Call [`complete`](IssueTurn::complete) once the effect is done to admit
/// the next slot. Dropping the turn without completing it means the call
/// failed: the gate closes for every later slot (see the module docs).
#[derive(Debug)]
pub struct IssueTurn<'a> {
    gate: &'a IssueGate,
    slot: u64,
    completed: bool,
}

impl IssueTurn<'_> {
    /// The slot this turn holds.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Marks the effect done and admits the next slot.
    pub fn complete(mut self) {
        self.completed = true;
        let mut s = self.gate.state.lock().expect("issue gate lock");
        s.next = self.slot + 1;
        self.gate.cv.notify_all();
    }
}

impl Drop for IssueTurn<'_> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        // The call behind this turn failed: advance past it so waiters
        // wake, and close the gate so they observe the failure instead of
        // issuing their own effects.
        let mut s = self.gate.state.lock().expect("issue gate lock");
        s.next = self.slot + 1;
        s.closed_at = Some(s.closed_at.map_or(self.slot + 1, |c| c.min(self.slot + 1)));
        self.gate.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn turns_admit_in_slot_order_across_threads() {
        let gate = IssueGate::new();
        let effects = Mutex::new(Vec::new());
        // Take turns from threads in scrambled spawn order; effects must
        // still land 0, 1, 2, ..., regardless of scheduling.
        std::thread::scope(|scope| {
            for slot in [3u64, 1, 4, 0, 2] {
                let gate = &gate;
                let effects = &effects;
                scope.spawn(move || {
                    let turn = gate.turn(slot).unwrap();
                    effects.lock().unwrap().push(slot);
                    turn.complete();
                });
            }
        });
        assert_eq!(*effects.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(gate.admitted(), 5);
    }

    #[test]
    fn dropped_turn_closes_later_slots_only() {
        let gate = IssueGate::new();
        let ran = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for slot in 0..4u64 {
                let gate = &gate;
                let ran = &ran;
                scope.spawn(move || match gate.turn(slot) {
                    Ok(turn) => {
                        if slot == 1 {
                            drop(turn); // "the call failed"
                        } else {
                            ran.fetch_add(1, Ordering::SeqCst);
                            turn.complete();
                        }
                    }
                    Err(e) => {
                        assert!(matches!(e, Error::Cancelled(_)), "slot {slot}: {e}");
                        assert!(slot >= 2, "only slots after the failure cancel");
                    }
                });
            }
        });
        // Slot 0 ran; slots 2 and 3 were cancelled.
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn close_from_is_idempotent_and_keeps_lowest() {
        let gate = IssueGate::new();
        gate.close_from(5);
        gate.close_from(3);
        gate.close_from(9);
        gate.turn(0).unwrap().complete();
        gate.turn(1).unwrap().complete();
        gate.turn(2).unwrap().complete();
        assert!(matches!(gate.turn(3), Err(Error::Cancelled(_))));
    }

    #[test]
    fn reused_slot_rejected() {
        let gate = IssueGate::new();
        gate.turn(0).unwrap().complete();
        assert!(matches!(gate.turn(0), Err(Error::InvalidRequest(_))));
    }
}
