//! Per-device health state machine.
//!
//! Crockett's file concepts assume devices that fail and come back; this
//! module gives the volume a place to remember which regime each device
//! is in, driven by error feedback from the I/O executor:
//!
//! ```text
//!             transient streak >= suspect_after
//!   Healthy ---------------------------------------> Suspect
//!      ^  \                                          /  |
//!      |   \     recover_after consecutive OKs      /   |
//!      |    +--------------------------------------+    |
//!      |                                                |
//!      |          DeviceFailed / mark_failed            |
//!      +<---- Rebuilding <---- Failed <-----------------+
//!        complete       begin_rebuild
//!        (Rebuilding -> Failed is also legal: a device can die again
//!         mid-rebuild.)
//! ```
//!
//! The board keeps two views of the same state:
//!
//! * a lock-free **mirror** (`pario_check::AtomicU64` per device, SeqCst)
//!   that the read/write hot paths consult on every block access, and
//! * the authoritative **board** behind a [`LockLevel::FsHealth`] mutex
//!   (rank 80, above every I/O-path lock, because errors are reported
//!   from inside RMW/stripe critical sections) where transitions are
//!   decided and recorded.
//!
//! `note_ok` is a single atomic streak reset plus a mirror load unless
//! the device is Suspect, so the happy path stays lock-free.

use std::fmt;

use pario_check::{AtomicU64, LockLevel, Mutex};
use pario_disk::DiskError;

use std::sync::atomic::Ordering;

/// The regime a device is currently in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum HealthState {
    /// Normal service: route I/O to the device directly.
    Healthy = 0,
    /// A streak of transient faults: still served, but shadowed reads
    /// hedge against the mirror and the device is watched for recovery.
    Suspect = 1,
    /// Fail-stop observed: the device is skipped and I/O is degraded.
    Failed = 2,
    /// An online rebuild is replaying redundancy onto the device. Its
    /// media is writable but **stale**, so reads still route around it.
    Rebuilding = 3,
}

impl HealthState {
    fn from_u64(v: u64) -> HealthState {
        match v {
            0 => HealthState::Healthy,
            1 => HealthState::Suspect,
            2 => HealthState::Failed,
            _ => HealthState::Rebuilding,
        }
    }

    /// Whether I/O must route around the device (reads of Rebuilding
    /// media would return stale data; Failed media returns errors).
    pub fn is_down(self) -> bool {
        matches!(self, HealthState::Failed | HealthState::Rebuilding)
    }

    /// Stable single-byte tag for wire protocols (`pario-net` carries
    /// the server's `Degraded` advisory across processes). Round-trips
    /// through [`from_wire_tag`](HealthState::from_wire_tag).
    pub fn wire_tag(self) -> u8 {
        self as u8
    }

    /// Decode a [`wire_tag`](HealthState::wire_tag); `None` for bytes no
    /// version of this enum ever produced.
    pub fn from_wire_tag(tag: u8) -> Option<HealthState> {
        match tag {
            0 => Some(HealthState::Healthy),
            1 => Some(HealthState::Suspect),
            2 => Some(HealthState::Failed),
            3 => Some(HealthState::Rebuilding),
            _ => None,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Failed => "failed",
            HealthState::Rebuilding => "rebuilding",
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether `from -> to` is an edge of the state machine above. Exposed
/// so model tests can assert no interleaving manufactures an illegal
/// transition.
pub fn legal_transition(from: HealthState, to: HealthState) -> bool {
    use HealthState::*;
    matches!(
        (from, to),
        (Healthy, Suspect)
            | (Suspect, Healthy)
            | (Healthy, Failed)
            | (Suspect, Failed)
            | (Failed, Rebuilding)
            | (Healthy, Rebuilding)
            | (Suspect, Rebuilding)
            | (Rebuilding, Healthy)
            | (Rebuilding, Failed)
    )
}

/// Thresholds driving Healthy <-> Suspect demotion/recovery.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive transient faults before a Healthy device is demoted
    /// to Suspect.
    pub suspect_after: u32,
    /// Consecutive successful operations before a Suspect device is
    /// promoted back to Healthy.
    pub recover_after: u32,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy {
            suspect_after: 3,
            recover_after: 8,
        }
    }
}

/// A point-in-time snapshot of one device's health record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceHealth {
    /// Current state.
    pub state: HealthState,
    /// Total transient faults observed (after executor retries gave up).
    pub transient_errors: u64,
    /// Total permanent / unclassified errors observed.
    pub permanent_errors: u64,
    /// Every state the device has been in, starting at Healthy.
    pub transitions: Vec<HealthState>,
}

/// Callback fired after a device changes state, with the board mutex
/// already released (so the listener may take lower-ranked locks — the
/// volume cache uses this to drop frames of Failed/Rebuilding devices).
pub type HealthListener = std::sync::Arc<dyn Fn(usize, HealthState) + Send + Sync>;

struct Slot {
    state: HealthState,
    consecutive_ok: u32,
    transient_errors: u64,
    permanent_errors: u64,
    history: Vec<HealthState>,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            state: HealthState::Healthy,
            consecutive_ok: 0,
            transient_errors: 0,
            permanent_errors: 0,
            history: vec![HealthState::Healthy],
        }
    }
}

/// Per-volume device health registry: one slot per device, indexed by
/// volume device number.
pub struct HealthBoard {
    /// Lock-free mirror of each slot's state for hot-path routing.
    mirror: Vec<AtomicU64>,
    /// Consecutive-transient streak per device; reset by any success.
    streak: Vec<AtomicU64>,
    /// Authoritative state, counters and transition history.
    board: Mutex<Vec<Slot>>,
    policy: HealthPolicy,
    /// Transition listener, set at most once (lock-free reads). Invoked
    /// strictly *after* the board mutex is released: the board is rank
    /// 80, so calling out while holding it would invert the hierarchy
    /// against any lower-ranked lock the listener takes.
    listener: std::sync::OnceLock<HealthListener>,
}

impl HealthBoard {
    /// A board for `n` devices, all initially Healthy.
    pub fn new(n: usize, policy: HealthPolicy) -> HealthBoard {
        HealthBoard {
            mirror: (0..n).map(|_| AtomicU64::new(0)).collect(),
            streak: (0..n).map(|_| AtomicU64::new(0)).collect(),
            board: Mutex::new_named((0..n).map(|_| Slot::new()).collect(), LockLevel::FsHealth),
            policy,
            listener: std::sync::OnceLock::new(),
        }
    }

    /// Register the transition listener. Returns `false` (keeping the
    /// existing one) if a listener was already set.
    pub fn set_listener(&self, listener: HealthListener) -> bool {
        self.listener.set(listener).is_ok()
    }

    /// Fire the listener for a committed transition. Must be called with
    /// the board mutex released.
    fn notify(&self, d: usize, to: HealthState) {
        if let Some(l) = self.listener.get() {
            l(d, to);
        }
    }

    /// Number of devices tracked.
    pub fn len(&self) -> usize {
        self.mirror.len()
    }

    /// Whether the board tracks zero devices.
    pub fn is_empty(&self) -> bool {
        self.mirror.is_empty()
    }

    /// The thresholds this board was built with.
    pub fn policy(&self) -> HealthPolicy {
        self.policy
    }

    /// Current state of device `d` (lock-free).
    pub fn state(&self, d: usize) -> HealthState {
        HealthState::from_u64(self.mirror[d].load(Ordering::SeqCst))
    }

    /// Whether I/O must route around device `d` (lock-free).
    pub fn is_down(&self, d: usize) -> bool {
        self.state(d).is_down()
    }

    /// Whether any device is not Healthy.
    pub fn any_degraded(&self) -> bool {
        (0..self.len()).any(|d| self.state(d) != HealthState::Healthy)
    }

    /// The lowest-indexed device that is not Healthy, with its state —
    /// the advisory service layers attach to brownout errors. Lock-free.
    pub fn first_degraded(&self) -> Option<(usize, HealthState)> {
        (0..self.len())
            .map(|d| (d, self.state(d)))
            .find(|(_, s)| *s != HealthState::Healthy)
    }

    fn transition(&self, slot: &mut Slot, d: usize, to: HealthState) {
        debug_assert!(
            legal_transition(slot.state, to),
            "illegal health transition {} -> {} on device {}",
            slot.state,
            to,
            d
        );
        slot.state = to;
        slot.consecutive_ok = 0;
        slot.history.push(to);
        self.streak[d].store(0, Ordering::SeqCst);
        self.mirror[d].store(to as u64, Ordering::SeqCst);
    }

    /// Record a successful operation on device `d`. Lock-free unless
    /// the device is Suspect (recovery accounting needs the board).
    pub fn note_ok(&self, d: usize) {
        self.streak[d].store(0, Ordering::SeqCst);
        if self.state(d) != HealthState::Suspect {
            return;
        }
        let mut fired = None;
        {
            let mut board = self.board.lock();
            let slot = &mut board[d];
            if slot.state != HealthState::Suspect {
                return;
            }
            slot.consecutive_ok += 1;
            if slot.consecutive_ok >= self.policy.recover_after {
                self.transition(slot, d, HealthState::Healthy);
                fired = Some(HealthState::Healthy);
            }
        }
        if let Some(to) = fired {
            self.notify(d, to);
        }
    }

    /// Record a failed operation on device `d`, classifying `err` per
    /// the [`DiskError`] taxonomy: transient faults feed the Suspect
    /// streak, fail-stop errors force Failed (from any state, including
    /// mid-rebuild), anything else is counted without a transition.
    ///
    /// A fail-stop report can be *stale*: raised against dead media,
    /// delivered after a rebuild has begun. Fail-stop is synchronously
    /// re-checkable, so the reporter passes `still_failed` (the
    /// device's `is_failed()`), asked here under the board mutex — the
    /// mutex [`HealthBoard::begin_rebuild`] heals the media under. The
    /// report is therefore ordered against the flip-and-heal as a
    /// whole: before it, it lands on a device that is Failed anyway;
    /// after it, the media answers "alive" and the report is dropped.
    /// It can never abort the rebuild it preceded, while a device that
    /// dies again mid-rebuild still answers "failed" and goes Failed.
    pub fn note_error(&self, d: usize, err: &DiskError, still_failed: impl FnOnce() -> bool) {
        let mut fired = None;
        if err.is_transient() {
            let run = self.streak[d].fetch_add(1, Ordering::SeqCst) + 1;
            let mut board = self.board.lock();
            let slot = &mut board[d];
            slot.transient_errors += 1;
            slot.consecutive_ok = 0;
            if slot.state == HealthState::Healthy && run >= u64::from(self.policy.suspect_after) {
                self.transition(slot, d, HealthState::Suspect);
                fired = Some(HealthState::Suspect);
            }
        } else {
            let fail_stop = matches!(err, DiskError::DeviceFailed { .. });
            let mut board = self.board.lock();
            if fail_stop && !still_failed() {
                return;
            }
            let slot = &mut board[d];
            slot.permanent_errors += 1;
            slot.consecutive_ok = 0;
            if fail_stop && slot.state != HealthState::Failed {
                self.transition(slot, d, HealthState::Failed);
                fired = Some(HealthState::Failed);
            }
        }
        if let Some(to) = fired {
            self.notify(d, to);
        }
    }

    /// Force device `d` to Failed (administrative / rebuild-abort path).
    pub fn mark_failed(&self, d: usize) {
        let mut fired = false;
        {
            let mut board = self.board.lock();
            let slot = &mut board[d];
            if slot.state != HealthState::Failed {
                self.transition(slot, d, HealthState::Failed);
                fired = true;
            }
        }
        if fired {
            self.notify(d, HealthState::Failed);
        }
    }

    /// Enter Rebuilding: the device's media is being repopulated and
    /// must keep routing as down until [`HealthBoard::complete_rebuild`].
    /// `heal` brings the media back (the device's `heal()`; a no-op
    /// when it never died). It runs after the flip — once media accepts
    /// I/O again every reader already routes around it — and under the
    /// board mutex, so no failure report is judged between the two (see
    /// [`HealthBoard::note_error`]). It must not call back into the
    /// board.
    pub fn begin_rebuild(&self, d: usize, heal: impl FnOnce()) {
        let mut fired = false;
        {
            let mut board = self.board.lock();
            let slot = &mut board[d];
            if slot.state != HealthState::Rebuilding {
                self.transition(slot, d, HealthState::Rebuilding);
                fired = true;
            }
            heal();
        }
        if fired {
            self.notify(d, HealthState::Rebuilding);
        }
    }

    /// Leave Rebuilding for Healthy. Returns `false` (and does nothing)
    /// if the device is no longer Rebuilding — e.g. it failed again
    /// mid-rebuild — so a racing failure report is never lost.
    pub fn complete_rebuild(&self, d: usize) -> bool {
        {
            let mut board = self.board.lock();
            let slot = &mut board[d];
            if slot.state != HealthState::Rebuilding {
                return false;
            }
            self.transition(slot, d, HealthState::Healthy);
        }
        self.notify(d, HealthState::Healthy);
        true
    }

    /// Snapshot every device's record.
    pub fn snapshot(&self) -> Vec<DeviceHealth> {
        let board = self.board.lock();
        board
            .iter()
            .map(|s| DeviceHealth {
                state: s.state,
                transient_errors: s.transient_errors,
                permanent_errors: s.permanent_errors,
                transitions: s.history.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transient() -> DiskError {
        DiskError::Transient { device: "t".into() }
    }

    fn fail_stop() -> DiskError {
        DiskError::DeviceFailed { device: "t".into() }
    }

    #[test]
    fn transient_streak_demotes_to_suspect() {
        let b = HealthBoard::new(2, HealthPolicy::default());
        for _ in 0..2 {
            b.note_error(0, &transient(), || true);
        }
        assert_eq!(b.state(0), HealthState::Healthy);
        b.note_error(0, &transient(), || true);
        assert_eq!(b.state(0), HealthState::Suspect);
        assert_eq!(b.state(1), HealthState::Healthy);
    }

    #[test]
    fn an_ok_breaks_the_streak() {
        let b = HealthBoard::new(1, HealthPolicy::default());
        b.note_error(0, &transient(), || true);
        b.note_error(0, &transient(), || true);
        b.note_ok(0);
        b.note_error(0, &transient(), || true);
        assert_eq!(b.state(0), HealthState::Healthy);
    }

    #[test]
    fn suspect_recovers_after_quiet_run() {
        let b = HealthBoard::new(1, HealthPolicy::default());
        for _ in 0..3 {
            b.note_error(0, &transient(), || true);
        }
        assert_eq!(b.state(0), HealthState::Suspect);
        for _ in 0..7 {
            b.note_ok(0);
        }
        assert_eq!(b.state(0), HealthState::Suspect);
        b.note_ok(0);
        assert_eq!(b.state(0), HealthState::Healthy);
        let snap = b.snapshot();
        assert_eq!(
            snap[0].transitions,
            vec![
                HealthState::Healthy,
                HealthState::Suspect,
                HealthState::Healthy
            ]
        );
    }

    #[test]
    fn fail_stop_forces_failed_from_any_state() {
        let b = HealthBoard::new(1, HealthPolicy::default());
        b.note_error(0, &fail_stop(), || true);
        assert_eq!(b.state(0), HealthState::Failed);
        assert!(b.is_down(0));
        // Dies again mid-rebuild: Rebuilding -> Failed is legal and a
        // racing complete_rebuild must report failure.
        b.begin_rebuild(0, || ());
        assert_eq!(b.state(0), HealthState::Rebuilding);
        assert!(b.is_down(0));
        b.note_error(0, &fail_stop(), || true);
        assert_eq!(b.state(0), HealthState::Failed);
        assert!(!b.complete_rebuild(0));
        assert_eq!(b.state(0), HealthState::Failed);
    }

    #[test]
    fn rebuild_round_trip() {
        let b = HealthBoard::new(1, HealthPolicy::default());
        b.mark_failed(0);
        b.begin_rebuild(0, || ());
        assert!(b.complete_rebuild(0));
        assert_eq!(b.state(0), HealthState::Healthy);
        assert!(!b.any_degraded());
        let snap = b.snapshot();
        assert_eq!(
            snap[0].transitions,
            vec![
                HealthState::Healthy,
                HealthState::Failed,
                HealthState::Rebuilding,
                HealthState::Healthy
            ]
        );
    }

    #[test]
    fn timeouts_count_as_transient_and_others_do_not_transition() {
        let b = HealthBoard::new(1, HealthPolicy::default());
        for _ in 0..3 {
            b.note_error(0, &DiskError::Timeout { device: "t".into() }, || true);
        }
        assert_eq!(b.state(0), HealthState::Suspect);

        let b2 = HealthBoard::new(1, HealthPolicy::default());
        for _ in 0..10 {
            b2.note_error(0, &DiskError::Corruption { block: 3 }, || true);
        }
        assert_eq!(b2.state(0), HealthState::Healthy);
        assert_eq!(b2.snapshot()[0].permanent_errors, 10);
    }

    #[test]
    fn listener_fires_per_transition_outside_the_board_lock() {
        use std::sync::{Arc, Mutex as StdMutex};
        let b = Arc::new(HealthBoard::new(2, HealthPolicy::default()));
        let seen: Arc<StdMutex<Vec<(usize, HealthState)>>> = Arc::default();
        let b2 = Arc::clone(&b);
        let seen2 = Arc::clone(&seen);
        assert!(b.set_listener(Arc::new(move |d, to| {
            // Reading the board from the listener deadlocks unless the
            // mutex was released before the callback.
            assert_eq!(b2.snapshot()[d].state, to);
            seen2.lock().unwrap().push((d, to));
        })));
        assert!(!b.set_listener(Arc::new(|_, _| {})), "second set refused");
        b.mark_failed(1);
        b.mark_failed(1); // no transition, no callback
        b.begin_rebuild(1, || ());
        assert!(b.complete_rebuild(1));
        assert_eq!(
            *seen.lock().unwrap(),
            vec![
                (1, HealthState::Failed),
                (1, HealthState::Rebuilding),
                (1, HealthState::Healthy)
            ]
        );
    }

    #[test]
    fn wire_tags_round_trip() {
        use HealthState::*;
        for s in [Healthy, Suspect, Failed, Rebuilding] {
            assert_eq!(HealthState::from_wire_tag(s.wire_tag()), Some(s));
        }
        assert_eq!(HealthState::from_wire_tag(4), None);
        assert_eq!(HealthState::from_wire_tag(255), None);
    }

    #[test]
    fn legal_transition_table_matches_machine() {
        use HealthState::*;
        assert!(legal_transition(Healthy, Suspect));
        assert!(legal_transition(Rebuilding, Failed));
        assert!(!legal_transition(Failed, Healthy));
        assert!(!legal_transition(Failed, Suspect));
        assert!(!legal_transition(Rebuilding, Suspect));
    }
}
