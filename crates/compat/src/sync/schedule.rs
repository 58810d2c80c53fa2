//! A schedule property for the channels: generated mixes of producers and
//! consumers, bounded or not, under seeded yields and microsecond sleeps in
//! their threads. `sync`'s unit tests run it at a few dozen cases;
//! `tests/gates.rs` includes this file and runs it at a larger count in
//! release, where both ends of a hand-off really run at once.
//!
//! Names resolve through `super`: `sync` itself inside the crate, a module
//! that re-exports `sync::channel` in the gate.
//!
//! A case checks:
//! - exactly-once delivery, and per-producer FIFO as each consumer sees it;
//! - a blocked `recv` sees the last sender drop, and a blocked bounded
//!   `send` sees the last receiver drop (consumers with a quota hang up
//!   early, and every producer's next or blocked send must fail);
//! - `recv_timeout` never returns `Timeout` before its deadline;
//! - every thread finishes within the watchdog. Producers keep their
//!   senders until every message is taken, so a receiver whose wake-up is
//!   lost is not rescued by the final disconnect: it stalls the case.

use super::{bounded, unbounded, RecvError, RecvTimeoutError, SendError, TrySendError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// One generated case.
#[derive(Clone, Debug)]
pub struct Case {
    /// Seeds every thread's operation mix and perturbation.
    pub seed: u64,
    /// Messages each producer sends (1–4 producers, 0–40 each).
    pub messages: Vec<usize>,
    /// Consumer threads (1–4).
    pub consumers: usize,
    /// `None`: unbounded; else the bound (1–8).
    pub capacity: Option<usize>,
    /// `Some(n)`: each consumer hangs up after taking `n` messages.
    pub quota: Option<usize>,
}

impl Case {
    /// The case `seed` generates.
    pub fn from_seed(seed: u64) -> Case {
        let mut mix = Mix(seed);
        let producers = 1 + mix.below(4) as usize;
        let messages = (0..producers).map(|_| mix.below(41) as usize).collect();
        let consumers = 1 + mix.below(4) as usize;
        let capacity = (mix.below(3) != 0).then(|| 1 + mix.below(8) as usize);
        let quota = (mix.below(4) == 0).then(|| mix.below(12) as usize);
        Case { seed, messages, consumers, capacity, quota }
    }
}

/// SplitMix64: each thread's own stream (this file builds inside and
/// outside the crate, so it names no crate RNG).
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    /// Nothing, a yield, or a sleep of 1–50 µs.
    fn perturb(&mut self) {
        match self.below(8) {
            0..=4 => {}
            5 | 6 => thread::yield_now(),
            _ => thread::sleep(Duration::from_micros(1 + self.below(50))),
        }
    }
}

/// What one thread reports when it finishes, or the violation it saw.
enum Report {
    /// Producer `p` sent its first `n` messages; the next was refused (and
    /// came back intact) if `n` falls short of its count.
    Producer(Result<(usize, usize), String>),
    /// A consumer's messages in the order it took them.
    Consumer(Result<Vec<(usize, usize)>, String>),
}

/// Run `case` and check it; `Err` names the first violation, or the stall
/// when the threads do not all finish within `watchdog`.
pub fn run(case: &Case, watchdog: Duration) -> Result<(), String> {
    let (tx, rx) = match case.capacity {
        Some(cap) => bounded::<(usize, usize)>(cap),
        None => unbounded(),
    };
    let total: usize = case.messages.iter().sum();
    let taken = Arc::new(AtomicUsize::new(0));
    let (done, reports) = mpsc::channel();
    let started = Instant::now();
    // Joined once every thread has reported; a stalled case leaves its
    // threads parked and returns, so the watchdog can fail it.
    let mut threads = Vec::new();
    for (p, &count) in case.messages.iter().enumerate() {
        let (tx, taken, done) = (tx.clone(), Arc::clone(&taken), done.clone());
        let mut mix = Mix(case.seed ^ (p as u64 + 1) << 32);
        let hold = case.quota.is_none();
        threads.push(thread::spawn(move || {
            let mut sent = 0;
            while sent < count {
                mix.perturb();
                let refused = if mix.below(2) == 0 {
                    tx.send((p, sent)).err().map(|SendError(m)| m)
                } else {
                    let mut msg = (p, sent);
                    loop {
                        match tx.try_send(msg) {
                            Ok(()) => break None,
                            Err(TrySendError::Full(m)) => {
                                msg = m;
                                thread::yield_now();
                            }
                            Err(TrySendError::Disconnected(m)) => break Some(m),
                        }
                    }
                };
                match refused {
                    None => sent += 1,
                    Some(m) if m == (p, sent) => break,
                    Some(m) => {
                        let _ = done.send(Report::Producer(Err(format!("send of {:?} refused {m:?}", (p, sent)))));
                        return;
                    }
                }
            }
            // Keep the sender until everything is taken: the final
            // disconnect must not be what wakes a stalled receiver.
            while hold && taken.load(Ordering::Acquire) < total {
                if started.elapsed() > watchdog {
                    let _ = done.send(Report::Producer(Err(format!("stalled with producer {p} done"))));
                    return;
                }
                thread::sleep(Duration::from_micros(50));
            }
            drop(tx);
            let _ = done.send(Report::Producer(Ok((p, sent))));
        }));
    }
    for c in 0..case.consumers {
        let (rx, taken, done) = (rx.clone(), Arc::clone(&taken), done.clone());
        let mut mix = Mix(case.seed ^ (c as u64 + 1) << 48);
        let quota = case.quota.unwrap_or(usize::MAX);
        threads.push(thread::spawn(move || {
            let mut got = Vec::new();
            let outcome = loop {
                if got.len() >= quota {
                    break Ok(got);
                }
                mix.perturb();
                let msg = match mix.below(3) {
                    0 => match rx.recv() {
                        Ok(m) => Some(m),
                        Err(RecvError) => break Ok(got),
                    },
                    1 => rx.try_recv(),
                    _ => {
                        let timeout = Duration::from_micros(mix.below(200));
                        let asked = Instant::now();
                        match rx.recv_timeout(timeout) {
                            Ok(m) => Some(m),
                            Err(RecvTimeoutError::Timeout) if asked.elapsed() < timeout => {
                                break Err(format!("Timeout after {:?} of {timeout:?}", asked.elapsed()));
                            }
                            Err(RecvTimeoutError::Timeout) => None,
                            Err(RecvTimeoutError::Disconnected) => break Ok(got),
                        }
                    }
                };
                if let Some(m) = msg {
                    got.push(m);
                    taken.fetch_add(1, Ordering::AcqRel);
                }
            };
            drop(rx);
            let _ = done.send(Report::Consumer(outcome));
        }));
    }
    drop((tx, rx, done));

    let spawned = threads.len();
    let mut sent = vec![0; case.messages.len()];
    let mut delivered = vec![Vec::new(); case.messages.len()];
    for finished in 0..spawned {
        let left = watchdog.saturating_sub(started.elapsed());
        let report = reports.recv_timeout(left).map_err(|_| {
            format!(
                "stalled: {finished} of {spawned} threads finished in {watchdog:?}, {} of {total} messages taken",
                taken.load(Ordering::Acquire)
            )
        })?;
        match report {
            Report::Producer(report) => {
                let (p, n) = report?;
                sent[p] = n;
            }
            Report::Consumer(got) => {
                let mut last = vec![None; case.messages.len()];
                for (p, i) in got? {
                    if last[p].is_some_and(|l| l >= i) {
                        return Err(format!("producer {p}'s message {i} arrived after {:?}", last[p]));
                    }
                    last[p] = Some(i);
                    delivered[p].push(i);
                }
            }
        }
    }
    for t in threads {
        t.join().map_err(|_| "a case thread panicked".to_string())?;
    }
    for (p, got) in delivered.iter_mut().enumerate() {
        got.sort_unstable();
        let held = match case.quota {
            // Receivers stay: everything is sent and delivered once.
            None => sent[p] == case.messages[p] && got.iter().copied().eq(0..sent[p]),
            // Receivers hang up: what arrives was sent, and arrives once.
            Some(_) => got.windows(2).all(|w| w[0] < w[1]) && got.iter().all(|&i| i < sent[p]),
        };
        if !held {
            return Err(format!("producer {p}: sent {} of {}, delivered {got:?}", sent[p], case.messages[p]));
        }
    }
    Ok(())
}
