//! `crossbeam-channel`-style MPMC channels on std primitives.
//!
//! The collectives build a P×P mesh where, unlike `std::sync::mpsc`, the
//! receiving end must be `Clone` (dummy self-links share one receiver).
//! Both ends share one `Mutex` over the queue, the endpoint counts and two
//! waiter counts, with a `Condvar` per direction: `ready` for receivers of
//! an empty queue, `space` for senders of a full bounded one. The endpoint
//! counts give crossbeam's disconnect semantics: `recv` on an empty queue
//! with no senders fails, `send` with no receivers fails.
//!
//! Two flavours share the endpoint types: [`unbounded`] (the collectives'
//! mesh links) and [`bounded`] (the serving layer's admission queue, where
//! a full queue must exert backpressure on producers via blocking `send`
//! or an observable [`TrySendError::Full`]).
//!
//! **Spin, count, park.** A thread parks only when its channel is idle, and
//! a thread is woken only if it is parked:
//! - A receiver that finds the queue empty first backs off, as crossbeam's
//!   `Backoff` does: `2^0 … 2^SPIN_LIMIT` spin hints, polling a lock-free
//!   mirror of the queue length and of disconnection between steps. A
//!   message that arrives within the spin costs no syscall on either side.
//! - Only then does it count itself in `parked`, under the mutex, and wait.
//!   A sender of a full bounded queue counts itself and waits at once.
//! - A push (a pop) notifies `ready` (`space`) only when a parked thread is
//!   still owed a wake-up, `parked > woken`, and counts it in `woken`. The
//!   decision is made under the mutex, and the notify follows the unlock,
//!   so the woken thread does not wake into a held lock.
//! - A thread leaving its wait, notified or timed out or spuriously, takes
//!   itself out of `parked` and one wake-up out of `woken`.
//!
//! No wake-up is lost. Call the threads inside a wait that no notify has
//! reached *asleep*; the invariant is `asleep ≤ parked − woken`. A thread
//! parks by raising `parked` before `Condvar::wait` releases the mutex,
//! and a late notify still reaches a thread that released it. An owed
//! wake-up raises `woken` and then takes one thread out of `asleep`. A
//! thread leaving its wait was not asleep, so lowering `parked` by one and
//! `woken` by at most one keeps the invariant. So a push that finds
//! `parked == woken` has nobody asleep to wake: every counted thread is
//! awake and re-checks the queue under the mutex before it parks again.
//! Disconnection wakes every parked thread the same way.

use std::collections::VecDeque;
use std::fmt;
use std::hint::spin_loop;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Acquire `m`, recovering the guard if a previous holder panicked.
///
/// Shared stats/state mutexes (loader counters, serve histograms, the
/// channel internals below) hold plain-old-data that stays consistent
/// across a panic, so poisoning carries no information here — it only
/// cascades one thread's panic into every other thread that touches the
/// lock. Recovery keeps a dying background thread from taking the main
/// thread down with it.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Mirror of `crossbeam::channel`.
pub mod channel {
    pub use super::{
        bounded, unbounded, Receiver, RecvError, RecvTimeoutError, SendError, Sender,
        TrySendError,
    };
}

/// A receiver of an empty queue spins `2^0 … 2^SPIN_LIMIT` hints before it
/// parks (crossbeam's `Backoff` limit: ≈ 130 hints, a few microseconds).
const SPIN_LIMIT: u32 = 6;

/// The threads parked on one condvar, and how many of them a notify is
/// already on its way to.
#[derive(Default)]
struct Waiters {
    parked: usize,
    woken: usize,
}

impl Waiters {
    /// Whether a parked thread is still owed a wake-up; if so, count the
    /// one `notify_one` the caller then sends.
    fn owe_one(&mut self) -> bool {
        let owed = self.parked > self.woken;
        self.woken += usize::from(owed);
        owed
    }

    /// Whether any parked thread is still owed a wake-up; count one for
    /// each, all sent by the caller's `notify_all`.
    fn owe_all(&mut self) -> bool {
        let owed = self.parked > self.woken;
        self.woken = self.parked;
        owed
    }
}

struct Inner<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// `None` for unbounded channels; `Some(cap)` makes `send` block while
    /// the queue holds `cap` messages.
    capacity: Option<usize>,
    /// Receivers parked on `ready`.
    receiving: Waiters,
    /// Senders parked on `space` (only a bounded queue fills).
    sending: Waiters,
}

impl<T> Inner<T> {
    fn is_full(&self) -> bool {
        matches!(self.capacity, Some(cap) if self.queue.len() >= cap)
    }
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    /// `queue.len() << 1 | (senders == 0)`, stored under the mutex after
    /// every change: what a spinning receiver polls, and what `len` reads,
    /// without taking the mutex. It publishes no other data (a receiver
    /// re-checks the queue under the mutex), so it is read and written
    /// `Relaxed`.
    state: AtomicUsize,
    ready: Condvar,
    /// Signalled when a bounded queue frees a slot (unused by unbounded).
    space: Condvar,
}

impl<T> Shared<T> {
    /// Mirror `inner` into `state`.
    fn publish(&self, inner: &Inner<T>) {
        let state = inner.queue.len() << 1 | usize::from(inner.senders == 0);
        self.state.store(state, Ordering::Relaxed);
    }

    /// A message joined the queue: publish, unlock, and wake one parked
    /// receiver if one is owed a wake-up.
    fn pushed(&self, mut inner: MutexGuard<'_, Inner<T>>) {
        self.publish(&inner);
        let wake = inner.receiving.owe_one();
        drop(inner);
        if wake {
            self.ready.notify_one();
        }
    }

    /// A message left the queue: publish, unlock, and wake one parked
    /// sender if one is owed a wake-up.
    fn popped(&self, mut inner: MutexGuard<'_, Inner<T>>) {
        self.publish(&inner);
        let wake = inner.sending.owe_one();
        drop(inner);
        if wake {
            self.space.notify_one();
        }
    }

    /// Back off before parking: `2^0 … 2^SPIN_LIMIT` spin hints, stopping
    /// once the queue holds a message, every sender is gone or `deadline`
    /// has passed.
    fn spin(&self, deadline: Option<Instant>) {
        for step in 0..=SPIN_LIMIT {
            for _ in 0..1u32 << step {
                spin_loop();
            }
            if self.state.load(Ordering::Relaxed) != 0 || deadline.is_some_and(|d| Instant::now() >= d) {
                return;
            }
        }
    }
}

/// Park on `cv`, counted in the [`Waiters`] that `waiters` picks, until a
/// notify or `timeout` (never, for `None`); return the re-taken guard.
fn park<'a, T>(
    cv: &Condvar,
    mut inner: MutexGuard<'a, Inner<T>>,
    waiters: fn(&mut Inner<T>) -> &mut Waiters,
    timeout: Option<Duration>,
) -> MutexGuard<'a, Inner<T>> {
    waiters(&mut inner).parked += 1;
    let mut inner = match timeout {
        None => cv.wait(inner).unwrap_or_else(|p| p.into_inner()),
        Some(t) => cv.wait_timeout(inner, t).unwrap_or_else(|p| p.into_inner()).0,
    };
    let w = waiters(&mut inner);
    w.parked -= 1;
    w.woken = w.woken.saturating_sub(1);
    inner
}

/// Sending half; clonable.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half; clonable (MPMC, unlike `std::sync::mpsc`).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// The message could not be delivered: every receiver is gone.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a channel with no receivers")
    }
}

/// The channel is empty and every sender is gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty channel with no senders")
    }
}

/// A non-blocking send could not enqueue the message.
pub enum TrySendError<T> {
    /// The bounded queue is at capacity.
    Full(T),
    /// Every receiver is gone.
    Disconnected(T),
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TrySendError::Full(_) => "TrySendError::Full(..)",
            TrySendError::Disconnected(_) => "TrySendError::Disconnected(..)",
        })
    }
}

/// A timed receive expired or found the channel dead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline passed with no message.
    Timeout,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecvTimeoutError::Timeout => "timed out waiting on an empty channel",
            RecvTimeoutError::Disconnected => "receiving on an empty channel with no senders",
        })
    }
}

fn make_channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            capacity,
            receiving: Waiters::default(),
            sending: Waiters::default(),
        }),
        state: AtomicUsize::new(0),
        ready: Condvar::new(),
        space: Condvar::new(),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

/// Create an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    make_channel(None)
}

/// Create a bounded channel holding at most `cap` messages (`cap ≥ 1`):
/// `send` blocks while full, `try_send` reports [`TrySendError::Full`].
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "bounded channel capacity must be at least 1");
    make_channel(Some(cap))
}

impl<T> Sender<T> {
    /// Enqueue `value`, waking a parked receiver if one waits. On a bounded
    /// channel this blocks while the queue is full (backpressure).
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let shared = &*self.shared;
        let mut inner = lock_unpoisoned(&shared.inner);
        loop {
            if inner.receivers == 0 {
                return Err(SendError(value));
            }
            if !inner.is_full() {
                break;
            }
            inner = park(&shared.space, inner, |i| &mut i.sending, None);
        }
        inner.queue.push_back(value);
        shared.pushed(inner);
        Ok(())
    }

    /// Non-blocking enqueue: fails with [`TrySendError::Full`] instead of
    /// blocking when a bounded queue is at capacity.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut inner = lock_unpoisoned(&self.shared.inner);
        if inner.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if inner.is_full() {
            return Err(TrySendError::Full(value));
        }
        inner.queue.push_back(value);
        self.shared.pushed(inner);
        Ok(())
    }

    /// Messages currently queued (a racy snapshot — the serving loop reads
    /// it as the queue-depth gauge, not for synchronization).
    pub fn len(&self) -> usize {
        self.shared.state.load(Ordering::Relaxed) >> 1
    }

    /// Whether the queue is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock_unpoisoned(&self.shared.inner).senders += 1;
        Sender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let shared = &*self.shared;
        let mut inner = lock_unpoisoned(&shared.inner);
        inner.senders -= 1;
        if inner.senders == 0 {
            // Wake parked receivers so they can observe disconnection;
            // spinning ones see it in `state`.
            shared.publish(&inner);
            let wake = inner.receiving.owe_all();
            drop(inner);
            if wake {
                shared.ready.notify_all();
            }
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeue the next message, blocking until one arrives or every
    /// sender disconnects.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_until(None).map_err(|_| RecvError)
    }

    /// Dequeue with a deadline: blocks at most `timeout` for a message.
    /// The micro-batching loop leans on this to flush a partial batch when
    /// the latency budget expires before the batch fills.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    /// The one blocking receive: take a message, else spin, else park —
    /// until a message arrives, every sender is gone or `deadline` (never,
    /// for `None`) passes. `Timeout` is never returned before `deadline`.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let shared = &*self.shared;
        let mut spun = false;
        let mut inner = lock_unpoisoned(&shared.inner);
        loop {
            if let Some(v) = inner.queue.pop_front() {
                shared.popped(inner);
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let remaining = match deadline {
                None => None,
                Some(d) => match d.checked_duration_since(Instant::now()).filter(|r| !r.is_zero()) {
                    None => return Err(RecvTimeoutError::Timeout),
                    left => left,
                },
            };
            if spun {
                inner = park(&shared.ready, inner, |i| &mut i.receiving, remaining);
                spun = false;
            } else {
                drop(inner);
                shared.spin(deadline);
                inner = lock_unpoisoned(&shared.inner);
                spun = true;
            }
        }
    }

    /// Non-blocking dequeue; `None` when currently empty (regardless of
    /// sender liveness).
    pub fn try_recv(&self) -> Option<T> {
        let mut inner = lock_unpoisoned(&self.shared.inner);
        let v = inner.queue.pop_front()?;
        self.shared.popped(inner);
        Some(v)
    }

    /// Messages currently queued (racy snapshot — a gauge, not a guard).
    pub fn len(&self) -> usize {
        self.shared.state.load(Ordering::Relaxed) >> 1
    }

    /// Whether the queue is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        lock_unpoisoned(&self.shared.inner).receivers += 1;
        Receiver { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = lock_unpoisoned(&self.shared.inner);
        inner.receivers -= 1;
        if inner.receivers == 0 {
            // Wake senders parked on a full bounded queue so they can
            // observe disconnection instead of sleeping forever.
            let wake = inner.sending.owe_all();
            drop(inner);
            if wake {
                self.shared.space.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod schedule;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Generated producer/consumer mixes under perturbed schedules
        /// deliver every message once, in order per producer, see every
        /// disconnect, time out no earlier than asked, and never stall.
        #[test]
        fn perturbed_schedules_lose_no_message_and_no_wake_up(seed in 0u64..u64::MAX) {
            let case = schedule::Case::from_seed(seed);
            let outcome = schedule::run(&case, Duration::from_secs(20));
            prop_assert!(outcome.is_ok(), "{:?} on {case:?}", outcome);
        }
    }

    #[test]
    fn a_hand_off_to_a_parked_receiver_wakes_it_once() {
        let (tx, rx) = unbounded::<u8>();
        std::thread::scope(|s| {
            let got = s.spawn(|| rx.recv());
            // Let the receiver spin out and park.
            while lock_unpoisoned(&tx.shared.inner).receiving.parked == 0 {
                std::thread::yield_now();
            }
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            let inner = lock_unpoisoned(&tx.shared.inner);
            assert!(inner.receiving.woken <= 1, "one parked receiver is owed one wake-up");
            drop(inner);
            assert_eq!(got.join().unwrap(), Ok(1));
        });
        assert_eq!(rx.try_recv(), Some(2));
        let inner = lock_unpoisoned(&tx.shared.inner);
        assert_eq!((inner.receiving.parked, inner.receiving.woken), (0, 0));
    }

    #[test]
    fn fifo_within_channel() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn recv_blocks_until_send() {
        let (tx, rx) = unbounded();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                tx.send(42u32).unwrap();
            });
            assert_eq!(rx.recv().unwrap(), 42);
        });
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));

        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn bounded_try_send_reports_full() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(rx.recv().unwrap(), 1);
        tx.try_send(3).unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn bounded_send_blocks_until_space() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                // Blocks until the main thread drains a slot.
                tx.send(2).unwrap();
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv().unwrap(), 2);
        });
    }

    #[test]
    fn bounded_send_observes_receiver_drop() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        std::thread::scope(|s| {
            let handle = s.spawn(move || tx.send(2));
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(rx);
            assert!(handle.join().unwrap().is_err(), "blocked send must fail");
        });
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = bounded::<u8>(4);
        let t0 = std::time::Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(10));
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Ok(9));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn len_tracks_queue_depth() {
        let (tx, rx) = bounded::<u8>(8);
        assert!(rx.is_empty());
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(tx.len(), 2);
        rx.recv().unwrap();
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn cloned_receivers_share_the_queue() {
        let (tx, rx1) = unbounded();
        let rx2 = rx1.clone();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let a = rx1.recv().unwrap();
        let b = rx2.recv().unwrap();
        let mut got = [a, b];
        got.sort_unstable();
        assert_eq!(got, [1, 2]);
    }
}
