//! # torchgt-faults
//!
//! The unified, seeded fault-injection plane. `torchgt-comm` pioneered the
//! discipline for the collectives: every injected fault is a **pure
//! function of `(seed, key, op index, salt)`**, so a faulty run replays
//! bit-identically and a recovery path proven against one seed stays
//! proven forever. This crate generalizes that discipline into one plane
//! with three domains:
//!
//! * **comm** — delayed sends, dropped-and-retried sends, a deterministic
//!   straggler and a hard rank crash ([`FaultPlan`], keyed by
//!   `(rank, op)`). The plan is plain data and lives here beside the
//!   decision function ([`decide`]); `torchgt-comm` keeps only the per-run
//!   counters and re-exports the names.
//! * **disk** — transient read errors, torn (short) reads, bit flips, and
//!   injected latency on file reads ([`DiskFaultPlan`]), keyed by
//!   `(path hash, per-path op index)` the way comm faults are keyed by
//!   `(rank, op)`. [`read_file`] is the single choke point the `TGDS` /
//!   `TGTS` / `TGTF` readers route through.
//! * **serve** — burst arrivals and a slow executor ([`ServeFaultPlan`]),
//!   keyed by client/batch indices.
//!
//! A whole plan parses from one spec string (`TORCHGT_FAULTS=<spec>` /
//! `--faults <spec>`; see [`FaultSpec::parse`] for the grammar) and
//! installs process-globally via [`install`]. **Zero-cost-by-default**: the
//! accessors check one relaxed atomic and return `None` when nothing is
//! installed, so hot paths pay a single predictable branch.
//!
//! The crate also hosts [`backoff_s`], the seeded jittered exponential
//! backoff the elastic recovery ladder uses — shared here so the disk
//! retry loops wait exactly the way rank-recovery retries do.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Environment variable carrying the fault-plan spec string.
pub const ENV_VAR: &str = "TORCHGT_FAULTS";

/// Salt namespace offsets so each decision stream is independent.
pub const SALT_DELAY: u64 = 1;
/// Salt for drop decisions (comm; combined with the attempt number).
pub const SALT_DROP: u64 = 2;
const SALT_DISK_ERR: u64 = 11;
const SALT_DISK_TORN: u64 = 12;
const SALT_DISK_FLIP: u64 = 13;
const SALT_DISK_DELAY: u64 = 14;
const SALT_SERVE_SLOW: u64 = 21;
const SALT_SERVE_BURST: u64 = 22;

/// Deterministic fault decision: a pure hash of `(seed, key, op, salt)`
/// mapped to `[0, 1)` and compared against `prob`. The comm domain passes
/// the rank as `key`; the disk domain passes a path hash.
pub fn decide(seed: u64, key: u64, op: u64, salt: u64, prob: f64) -> bool {
    if prob <= 0.0 {
        return false;
    }
    if prob >= 1.0 {
        return true;
    }
    let mut state = seed
        ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ op.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ salt.wrapping_mul(0x1656_67B1_9E37_79F9);
    let x = torchgt_compat::rng::splitmix64(&mut state);
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
    unit < prob
}

/// Seeded jittered exponential backoff: `base * 2^(attempt-1)` scaled by a
/// deterministic jitter factor in `[0.5, 1.5)` drawn from
/// `(seed, attempt)`. Pure — a replayed run waits identically. Attempt 0
/// (the first try) waits nothing. This is the exact formula
/// `torchgt_runtime::RecoveryPolicy::backoff_s` has always used; the
/// policy now delegates here so disk-retry loops share it.
pub fn backoff_s(seed: u64, base_s: f64, attempt: usize) -> f64 {
    if base_s <= 0.0 || attempt == 0 {
        return 0.0;
    }
    let exp = base_s * (1u64 << (attempt - 1).min(10)) as f64;
    let mut state = seed.wrapping_mul(0x1656_67B1_9E37_79F9)
        ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let x = torchgt_compat::rng::splitmix64(&mut state);
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
    exp * (0.5 + unit)
}

/// FNV-1a hash of a path's string form — the disk domain's stable per-file
/// key (comm's analogue of a rank id).
pub fn path_key(path: &Path) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.to_string_lossy().as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Where an injected rank crash fires: the `op`-th collective invocation
/// (0-based, counting nested collectives) on rank `rank`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// Rank that crashes.
    pub rank: usize,
    /// Collective-op index on that rank at which the crash fires.
    pub op: u64,
}

/// A deterministic fault schedule for one device group. Real NCCL jobs see
/// delayed messages, dropped packets (retried by the transport), and hard
/// rank failures that abort the whole communicator; the plan reproduces all
/// three against the channel mesh, every decision a pure function of
/// `(seed, rank, op index)`:
///
/// * **delay** — with probability `delay_prob`, a point-to-point send
///   sleeps `delay_s` before enqueueing (numerics unchanged);
/// * **drop** — with probability `drop_prob`, a send is "lost" and retried
///   after a receiver-side timeout, modelled sender-side as
///   `retry_backoff_s` of latency per lost attempt (bounded by
///   `max_retries`, after which the attempt always succeeds — the message
///   is never silently lost, matching a reliable transport);
/// * **crash** — at the [`CrashPoint`]'s nth collective op on the chosen
///   rank, the rank panics with a [`RankCrash`] payload. Peer ranks then
///   fail their blocking receives ("peer hung up"), cascading exactly like
///   a NCCL communicator abort. The crash is one-shot: a re-run of the
///   same group (the recovery attempt) proceeds clean.
///
/// Delay and drop never alter delivered data or ordering, so a faulty run
/// converges to bit-identical results — the point being reproduced is the
/// *schedule* surviving faults, not numerical drift.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed all per-op fault decisions derive from.
    pub seed: u64,
    /// Per-send probability of an injected delay.
    pub delay_prob: f64,
    /// Duration of each injected delay, seconds.
    pub delay_s: f64,
    /// Per-send probability that an attempt is dropped.
    pub drop_prob: f64,
    /// Maximum lost attempts per message; the next attempt always succeeds.
    pub max_retries: u32,
    /// Latency charged per lost attempt (the receiver's timeout), seconds.
    pub retry_backoff_s: f64,
    /// Optional hard rank failure.
    pub crash: Option<CrashPoint>,
    /// Optional straggler: this global rank sleeps `slow_delay_s` before
    /// *every* send (deterministic, no probability — models a uniformly
    /// slow worker for the watchdog to flag).
    pub slow_rank: Option<usize>,
    /// Per-send slowdown of the straggler rank, seconds.
    pub slow_delay_s: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            delay_prob: 0.0,
            delay_s: 0.0,
            drop_prob: 0.0,
            max_retries: 3,
            retry_backoff_s: 0.0,
            crash: None,
            slow_rank: None,
            slow_delay_s: 0.0,
        }
    }
}

impl FaultPlan {
    /// Delay-only plan: each send delayed `delay_s` with probability `prob`.
    pub fn delays(seed: u64, prob: f64, delay_s: f64) -> Self {
        Self { seed, delay_prob: prob, delay_s, ..Self::default() }
    }

    /// Drop-only plan: each send attempt lost with probability `prob`,
    /// retried up to `max_retries` times.
    pub fn drops(seed: u64, prob: f64, max_retries: u32) -> Self {
        Self { seed, drop_prob: prob, max_retries, ..Self::default() }
    }

    /// Crash-only plan: rank `rank` dies at its `op`-th collective.
    pub fn crash_at(seed: u64, rank: usize, op: u64) -> Self {
        Self { seed, crash: Some(CrashPoint { rank, op }), ..Self::default() }
    }

    /// Straggler-only plan: global rank `rank` sleeps `delay_s` before
    /// every send.
    pub fn slow(rank: usize, delay_s: f64) -> Self {
        Self { slow_rank: Some(rank), slow_delay_s: delay_s, ..Self::default() }
    }

    /// True when the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.delay_prob > 0.0
            || self.drop_prob > 0.0
            || self.crash.is_some()
            || (self.slow_rank.is_some() && self.slow_delay_s > 0.0)
    }
}

/// Panic payload of an injected rank crash (callers of
/// `torchgt_comm::DeviceGroup::try_run` get it back as
/// `RankFailure::Crash`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankCrash {
    /// The rank that crashed.
    pub rank: usize,
    /// The collective-op index at which it crashed.
    pub op: u64,
}

/// Disk-I/O fault parameters: each read of a file draws independent
/// decisions keyed by `(seed, path hash, per-path op index)`, so a retry
/// (the next op index on the same path) sees a fresh decision — transient
/// faults genuinely heal on re-read.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiskFaultPlan {
    /// Probability a read fails outright with a transient I/O error.
    pub read_error_prob: f64,
    /// Probability a read comes back torn (short — the tail truncated).
    pub torn_read_prob: f64,
    /// Probability a read comes back with one bit flipped.
    pub bit_flip_prob: f64,
    /// Probability a read is delayed by `delay_s` before returning.
    pub delay_prob: f64,
    /// Duration of each injected read delay, seconds.
    pub delay_s: f64,
}

impl DiskFaultPlan {
    /// True when any disk fault can fire.
    pub fn is_active(&self) -> bool {
        self.read_error_prob > 0.0
            || self.torn_read_prob > 0.0
            || self.bit_flip_prob > 0.0
            || (self.delay_prob > 0.0 && self.delay_s > 0.0)
    }
}

/// Serving-path fault parameters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServeFaultPlan {
    /// Per-batch probability the executor stalls for `slow_s`.
    pub slow_prob: f64,
    /// Duration of an injected executor stall, seconds.
    pub slow_s: f64,
    /// Per-query probability a load generator switches into a burst.
    pub burst_prob: f64,
    /// Number of back-to-back (unpaced) queries per burst.
    pub burst_len: usize,
}

impl ServeFaultPlan {
    /// True when any serve fault can fire.
    pub fn is_active(&self) -> bool {
        (self.slow_prob > 0.0 && self.slow_s > 0.0)
            || (self.burst_prob > 0.0 && self.burst_len > 0)
    }

    /// Should batch `batch_idx` of the executor stall? Deterministic in
    /// `(seed, batch_idx)`.
    pub fn executor_stalls(&self, seed: u64, batch_idx: u64) -> bool {
        decide(seed, 0, batch_idx, SALT_SERVE_SLOW, self.slow_prob)
    }

    /// Should load-generator client `client` start a burst at its `i`-th
    /// query? Deterministic in `(seed, client, i)`.
    pub fn burst_starts(&self, seed: u64, client: u64, i: u64) -> bool {
        self.burst_len > 0 && decide(seed, client, i, SALT_SERVE_BURST, self.burst_prob)
    }
}

/// A full multi-domain fault plan: one seed, up to three domains.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Seed every per-op decision in every domain derives from.
    pub seed: u64,
    /// Collective-fabric faults (consumed by `torchgt-comm`). The spec
    /// grammar sets delays, drops and the straggler; crashes stay
    /// CLI-flag territory, and [`comm_plan`] stamps the spec's `seed` in.
    pub comm: FaultPlan,
    /// Disk-I/O faults (consumed by the `TGDS`/`TGTS`/`TGTF` readers).
    pub disk: DiskFaultPlan,
    /// Serving faults (consumed by the serve loop and load generators).
    pub serve: ServeFaultPlan,
}

/// Longest injectable delay. Every duration in a spec becomes a sleep, and
/// an infinite or astronomically long one would panic the sleeping thread
/// (`Duration::from_secs_f64`) or hang it.
const MAX_DURATION_S: f64 = 60.0;

/// Parse `key`'s `"250ms"`, `"1.5s"`, or bare number of seconds: finite and
/// in `[0, MAX_DURATION_S]`.
fn parse_duration_s(key: &str, s: &str) -> Result<f64, String> {
    let (num, mult) = if let Some(v) = s.strip_suffix("ms") {
        (v, 1e-3)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1.0)
    } else {
        (s, 1.0)
    };
    let secs = num
        .parse::<f64>()
        .map(|v| v * mult)
        .map_err(|_| format!("{key}: bad duration `{s}` (want e.g. 5ms, 0.5s, or seconds)"))?;
    if !(0.0..=MAX_DURATION_S).contains(&secs) {
        return Err(format!("{key}: duration `{s}` is outside [0, {MAX_DURATION_S} s]"));
    }
    Ok(secs)
}

fn parse_prob(key: &str, s: &str) -> Result<f64, String> {
    let p: f64 = s.parse().map_err(|_| format!("{key} wants a probability, got `{s}`"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{key}={p} is outside [0, 1]"));
    }
    Ok(p)
}

/// Split `"<prob>@<duration>"`; a missing `@` part falls back to `default`.
fn parse_prob_at(key: &str, s: &str, default_s: f64) -> Result<(f64, f64), String> {
    match s.split_once('@') {
        Some((p, d)) => Ok((parse_prob(key, p)?, parse_duration_s(key, d)?)),
        None => Ok((parse_prob(key, s)?, default_s)),
    }
}

impl FaultSpec {
    /// Parse a spec string. Grammar: comma-separated `key=value` entries —
    ///
    /// ```text
    /// seed=7                      decision seed (default 1)
    /// comm.delay=0.2@1.5ms        P(send delayed)@duration
    /// comm.drop=0.1               P(send attempt dropped, retried)
    /// comm.slow=1@2ms             straggler rank@per-send delay
    /// disk.read_err=0.2           P(read fails with a transient error)
    /// disk.torn=0.1               P(read comes back short)
    /// disk.flip=0.05              P(read comes back with one bit flipped)
    /// disk.delay=0.1@5ms          P(read delayed)@duration
    /// serve.slow=0.1@5ms          P(executor batch stalls)@duration
    /// serve.burst=0.2@4           P(burst starts)@burst length
    /// ```
    ///
    /// Whitespace around entries is tolerated; an unknown key is an error
    /// (a typo must not silently disable a chaos run), and so is a duration
    /// that is not finite or lies outside `[0, 60 s]`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut spec = FaultSpec { seed: 1, ..Default::default() };
        for entry in s.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry `{entry}` is not key=value"))?;
            match key.trim() {
                "seed" => {
                    spec.seed =
                        value.parse().map_err(|_| format!("bad seed `{value}`"))?;
                }
                "comm.delay" => {
                    let (p, d) = parse_prob_at(key, value, 1e-3)?;
                    spec.comm.delay_prob = p;
                    spec.comm.delay_s = d;
                }
                "comm.drop" => spec.comm.drop_prob = parse_prob(key, value)?,
                "comm.slow" => {
                    let (rank, d) = match value.split_once('@') {
                        Some((r, d)) => (r, parse_duration_s(key, d)?),
                        None => (value, 1e-3),
                    };
                    spec.comm.slow_rank = Some(
                        rank.parse()
                            .map_err(|_| format!("comm.slow wants <rank>[@delay], got `{value}`"))?,
                    );
                    spec.comm.slow_delay_s = d;
                }
                "disk.read_err" => spec.disk.read_error_prob = parse_prob(key, value)?,
                "disk.torn" => spec.disk.torn_read_prob = parse_prob(key, value)?,
                "disk.flip" => spec.disk.bit_flip_prob = parse_prob(key, value)?,
                "disk.delay" => {
                    let (p, d) = parse_prob_at(key, value, 1e-3)?;
                    spec.disk.delay_prob = p;
                    spec.disk.delay_s = d;
                }
                "serve.slow" => {
                    let (p, d) = parse_prob_at(key, value, 1e-3)?;
                    spec.serve.slow_prob = p;
                    spec.serve.slow_s = d;
                }
                "serve.burst" => {
                    let (p, len) = match value.split_once('@') {
                        Some((p, l)) => (
                            parse_prob(key, p)?,
                            l.parse().map_err(|_| {
                                format!("serve.burst wants <prob>@<len>, got `{value}`")
                            })?,
                        ),
                        None => (parse_prob(key, value)?, 4),
                    };
                    spec.serve.burst_prob = p;
                    spec.serve.burst_len = len;
                }
                other => {
                    return Err(format!(
                        "unknown fault key `{other}` (domains: comm.delay/drop/slow, \
                         disk.read_err/torn/flip/delay, serve.slow/burst, plus seed)"
                    ))
                }
            }
        }
        Ok(spec)
    }

    /// True when any domain can inject anything.
    pub fn is_active(&self) -> bool {
        self.comm.is_active() || self.disk.is_active() || self.serve.is_active()
    }
}

impl std::str::FromStr for FaultSpec {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        Self::parse(s)
    }
}

/// The installed plan plus the disk domain's per-path op counters (the
/// counters are what make a *retry* of the same path a fresh decision).
struct Installed {
    spec: FaultSpec,
    disk_ops: Mutex<HashMap<u64, u64>>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<Arc<Installed>>> = RwLock::new(None);

fn plan() -> Option<Arc<Installed>> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    PLAN.read().unwrap_or_else(|p| p.into_inner()).clone()
}

/// Install `spec` process-globally. Injection points all over the
/// workspace consult it through [`disk_read`]/[`serve_plan`]/etc. An
/// inactive spec (all probabilities zero) uninstalls.
pub fn install(spec: FaultSpec) {
    let active = spec.is_active();
    *PLAN.write().unwrap_or_else(|p| p.into_inner()) = active
        .then(|| Arc::new(Installed { spec, disk_ops: Mutex::new(HashMap::new()) }));
    ACTIVE.store(active, Ordering::SeqCst);
}

/// Remove any installed plan (tests use this to restore the zero-cost
/// default).
pub fn clear() {
    ACTIVE.store(false, Ordering::SeqCst);
    *PLAN.write().unwrap_or_else(|p| p.into_inner()) = None;
}

/// Install from the `TORCHGT_FAULTS` environment variable. Returns whether
/// a plan was installed; a malformed spec is an error (fail loudly, never
/// silently run fault-free when chaos was requested).
pub fn install_from_env() -> Result<bool, String> {
    match std::env::var(ENV_VAR) {
        Ok(s) if !s.trim().is_empty() => {
            let spec = FaultSpec::parse(&s)?;
            let active = spec.is_active();
            install(spec);
            Ok(active)
        }
        _ => Ok(false),
    }
}

/// The installed spec, if any (None when the plane is cold).
pub fn installed() -> Option<FaultSpec> {
    plan().map(|p| p.spec.clone())
}

/// The installed comm domain under the spec's seed, when it can fire.
pub fn comm_plan() -> Option<FaultPlan> {
    let p = plan()?;
    p.spec.comm.is_active().then_some(FaultPlan { seed: p.spec.seed, ..p.spec.comm })
}

/// The installed serve domain, when it can fire.
pub fn serve_plan() -> Option<(u64, ServeFaultPlan)> {
    let p = plan()?;
    p.spec.serve.is_active().then_some((p.spec.seed, p.spec.serve))
}

/// Read `path` through the fault plane. With no disk domain installed this
/// is exactly `std::fs::read` (one relaxed atomic load of overhead). With
/// one installed, each call advances the path's op counter and draws
/// delay / transient-error / torn-read / bit-flip decisions from
/// `(seed, path hash, op)` — so retrying the read draws fresh decisions
/// and transient faults heal, while the file on disk is never touched.
pub fn read_file(path: &Path) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    read_file_into(path, &mut bytes)?;
    Ok(bytes)
}

/// [`read_file`] into `bytes`, which it clears first and whose allocation
/// it reuses: the same op counter and the same fault draws, so a reader
/// that keeps its buffer across reads sees what one that does not sees.
/// On an error, `bytes` holds nothing of use.
pub fn read_file_into(path: &Path, bytes: &mut Vec<u8>) -> io::Result<()> {
    match plan() {
        Some(p) if p.spec.disk.is_active() => read_faulted(&p, path, bytes),
        _ => read_whole(path, bytes),
    }
}

/// `std::fs::read` into a reused buffer.
fn read_whole(path: &Path, bytes: &mut Vec<u8>) -> io::Result<()> {
    use std::io::Read;
    bytes.clear();
    let mut file = std::fs::File::open(path)?;
    bytes.reserve(file.metadata().map_or(0, |m| m.len() as usize));
    file.read_to_end(bytes)?;
    Ok(())
}

fn read_faulted(p: &Installed, path: &Path, bytes: &mut Vec<u8>) -> io::Result<()> {
    let disk = &p.spec.disk;
    let key = path_key(path);
    let op = {
        let mut ops = p.disk_ops.lock().unwrap_or_else(|e| e.into_inner());
        let c = ops.entry(key).or_insert(0);
        let op = *c;
        *c += 1;
        op
    };
    if decide(p.spec.seed, key, op, SALT_DISK_DELAY, disk.delay_prob) && disk.delay_s > 0.0 {
        std::thread::sleep(std::time::Duration::from_secs_f64(disk.delay_s));
    }
    if decide(p.spec.seed, key, op, SALT_DISK_ERR, disk.read_error_prob) {
        return Err(io::Error::new(
            io::ErrorKind::Interrupted,
            format!("injected transient read error on {} (op {op})", path.display()),
        ));
    }
    read_whole(path, bytes)?;
    if !bytes.is_empty() && decide(p.spec.seed, key, op, SALT_DISK_TORN, disk.torn_read_prob) {
        // Torn read: drop a deterministic fraction of the tail (at least
        // one byte) — models a short read / partial page.
        let mut state = p.spec.seed ^ key ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let cut = 1 + (torchgt_compat::rng::splitmix64(&mut state) as usize) % bytes.len();
        bytes.truncate(bytes.len() - cut);
    }
    if !bytes.is_empty() && decide(p.spec.seed, key, op, SALT_DISK_FLIP, disk.bit_flip_prob) {
        let mut state = p.spec.seed ^ key.rotate_left(17) ^ op.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        let pos = (torchgt_compat::rng::splitmix64(&mut state) as usize) % bytes.len();
        let bit = (torchgt_compat::rng::splitmix64(&mut state) % 8) as u8;
        bytes[pos] ^= 1 << bit;
    }
    Ok(())
}

/// Is an io::Error one the self-healing readers should retry? Injected
/// transient errors are `Interrupted`; real-world analogues (EINTR,
/// EAGAIN-ish conditions) map to the same kinds. Corruption
/// (`InvalidData`) is retryable exactly once by the CRC re-read rule,
/// which callers handle separately.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Is an io::Error a corruption-class failure — the class the healing
/// ladders re-read exactly once for? A CRC/parse mismatch reads as
/// `InvalidData`; a torn (short) read of a length-framed format surfaces
/// as `UnexpectedEof` before any checksum is reached.
pub fn is_corruption(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::path::PathBuf;
    use std::sync::{Mutex, OnceLock};

    /// The plan registry is process-global; tests that install serialize.
    fn gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmpfile(tag: &str, bytes: &[u8]) -> PathBuf {
        let p = std::env::temp_dir().join(format!("tgt_faults_{tag}_{}", std::process::id()));
        let mut f = std::fs::File::create(&p).unwrap();
        f.write_all(bytes).unwrap();
        p
    }

    #[test]
    fn decisions_are_deterministic_and_streams_distinct() {
        for key in 0..4u64 {
            for op in 0..64 {
                assert_eq!(
                    decide(7, key, op, SALT_DELAY, 0.3),
                    decide(7, key, op, SALT_DELAY, 0.3)
                );
            }
        }
        let a: Vec<bool> = (0..256).map(|op| decide(7, 0, op, SALT_DELAY, 0.5)).collect();
        let b: Vec<bool> = (0..256).map(|op| decide(8, 0, op, SALT_DELAY, 0.5)).collect();
        let c: Vec<bool> = (0..256).map(|op| decide(7, 0, op, SALT_DROP, 0.5)).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn probability_roughly_respected() {
        let hits = (0..10_000).filter(|&op| decide(42, 1, op, SALT_DROP, 0.2)).count();
        assert!((1_500..2_500).contains(&hits), "0.2 prob gave {hits}/10000 hits");
    }

    #[test]
    fn edge_probabilities() {
        assert!(!decide(1, 0, 0, 0, 0.0));
        assert!(decide(1, 0, 0, 0, 1.0));
    }

    #[test]
    fn backoff_is_seeded_jittered_exponential() {
        assert_eq!(backoff_s(7, 0.1, 0), 0.0);
        assert_eq!(backoff_s(7, 0.0, 3), 0.0);
        for attempt in 1..6 {
            let a = backoff_s(7, 0.1, attempt);
            assert_eq!(a.to_bits(), backoff_s(7, 0.1, attempt).to_bits(), "pure");
            let nominal = 0.1 * (1u64 << (attempt - 1)) as f64;
            assert!(a >= 0.5 * nominal && a < 1.5 * nominal, "jitter range at {attempt}");
        }
        assert_ne!(backoff_s(7, 0.1, 2).to_bits(), backoff_s(8, 0.1, 2).to_bits());
    }

    #[test]
    fn spec_parses_all_domains() {
        let s = FaultSpec::parse(
            "seed=42, comm.delay=0.25@1.5ms, comm.drop=0.1, comm.slow=2@2ms, \
             disk.read_err=0.2, disk.torn=0.1, disk.flip=0.05, disk.delay=0.1@5ms, \
             serve.slow=0.3@4ms, serve.burst=0.2@8",
        )
        .unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.comm.delay_prob, 0.25);
        assert!((s.comm.delay_s - 1.5e-3).abs() < 1e-12);
        assert_eq!(s.comm.drop_prob, 0.1);
        assert_eq!(s.comm.slow_rank, Some(2));
        assert_eq!(s.disk.read_error_prob, 0.2);
        assert_eq!(s.disk.torn_read_prob, 0.1);
        assert_eq!(s.disk.bit_flip_prob, 0.05);
        assert!((s.disk.delay_s - 5e-3).abs() < 1e-12);
        assert_eq!(s.serve.slow_prob, 0.3);
        assert_eq!(s.serve.burst_len, 8);
        assert!(s.is_active());
    }

    #[test]
    fn spec_rejects_unknown_keys_and_bad_probs() {
        assert!(FaultSpec::parse("disk.red_err=0.2").is_err(), "typo must not pass");
        assert!(FaultSpec::parse("disk.read_err=1.5").is_err());
        assert!(FaultSpec::parse("disk.read_err").is_err());
        assert!(FaultSpec::parse("").unwrap() == FaultSpec { seed: 1, ..Default::default() });
    }

    /// `key=<head>@<duration>` parses for finite durations up to a minute
    /// and is an error naming `key` for anything a sleep cannot take.
    fn assert_durations_bounded(key: &str, head: &str) {
        for bad in ["inf", "infms", "NaN", "-1ms", "60.5s", "1e300"] {
            let err = FaultSpec::parse(&format!("{key}={head}@{bad}")).expect_err(bad);
            assert!(err.contains(key), "{key}@{bad}: {err}");
        }
        for good in ["0", "250ms", "60s"] {
            assert!(FaultSpec::parse(&format!("{key}={head}@{good}")).is_ok(), "{key}@{good}");
        }
    }

    #[test]
    fn comm_delay_takes_only_bounded_durations() {
        assert_durations_bounded("comm.delay", "0.5");
    }

    #[test]
    fn comm_slow_takes_only_bounded_durations() {
        assert_durations_bounded("comm.slow", "1");
    }

    #[test]
    fn disk_delay_takes_only_bounded_durations() {
        assert_durations_bounded("disk.delay", "1");
    }

    #[test]
    fn serve_slow_takes_only_bounded_durations() {
        assert_durations_bounded("serve.slow", "0.5");
    }

    #[test]
    fn injected_reads_heal_on_retry_and_never_touch_disk() {
        let _g = gate();
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let path = tmpfile("heal", &payload);
        install(FaultSpec {
            seed: 3,
            disk: DiskFaultPlan {
                read_error_prob: 0.5,
                torn_read_prob: 0.3,
                bit_flip_prob: 0.3,
                ..Default::default()
            },
            ..Default::default()
        });
        let mut clean = 0;
        let mut faulted = 0;
        for _ in 0..64 {
            match read_file(&path) {
                Ok(b) if b == payload => clean += 1,
                _ => faulted += 1,
            }
        }
        clear();
        assert!(clean > 0, "some reads must come back clean (faults are transient)");
        assert!(faulted > 0, "some reads must be faulted at these probabilities");
        assert_eq!(std::fs::read(&path).unwrap(), payload, "file on disk untouched");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_kept_buffer_reads_what_a_fresh_one_reads_under_faults() {
        let _g = gate();
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let path = tmpfile("into", &payload);
        let spec = FaultSpec {
            seed: 5,
            disk: DiskFaultPlan { read_error_prob: 0.3, torn_read_prob: 0.3, bit_flip_prob: 0.3, ..Default::default() },
            ..Default::default()
        };
        install(spec.clone());
        let fresh: Vec<io::Result<Vec<u8>>> = (0..32).map(|_| read_file(&path)).collect();
        install(spec);
        let mut kept = Vec::new();
        for expected in fresh {
            match (read_file_into(&path, &mut kept), expected) {
                (Ok(()), Ok(bytes)) => assert_eq!(kept, bytes),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("kept buffer read {a:?}, fresh read {:?}", b.map(|v| v.len())),
            }
        }
        clear();
        read_file_into(&path, &mut kept).unwrap();
        assert_eq!(kept, payload, "a cold plane reads the file as it is");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cold_plane_is_passthrough() {
        let _g = gate();
        clear();
        let path = tmpfile("cold", b"hello");
        assert_eq!(read_file(&path).unwrap(), b"hello");
        assert!(installed().is_none());
        assert!(serve_plan().is_none());
        assert!(comm_plan().is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn comm_domain_installs_as_a_plan_under_the_spec_seed() {
        let _g = gate();
        install(FaultSpec::parse("seed=9,comm.slow=1@2ms,comm.drop=0.25").unwrap());
        let plan = comm_plan().expect("comm domain is active");
        clear();
        assert_eq!(plan, FaultPlan { seed: 9, drop_prob: 0.25, ..FaultPlan::slow(1, 0.002) });
    }

    #[test]
    fn env_install_round_trip() {
        let _g = gate();
        std::env::set_var(ENV_VAR, "seed=9,disk.flip=0.5");
        assert!(install_from_env().unwrap());
        let spec = installed().unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.disk.bit_flip_prob, 0.5);
        std::env::set_var(ENV_VAR, "disk.bogus=1");
        assert!(install_from_env().is_err());
        std::env::remove_var(ENV_VAR);
        clear();
        assert!(!install_from_env().unwrap());
    }
}
