//! The benchmark's own kernels.
//!
//! They are deliberately *stateful* (a running xor, a sequence check), so
//! the fusion pass must leave them alone, and they move **one element per
//! `run()`** through `ctx.input(..).pop()` / `ctx.output(..).push()` — the
//! same shape as the library's `Map` — so every element pays the full
//! ring + port + scheduler-step cost the `hop_chain_*` workloads exist to
//! measure. Each takes an optional [`LaneRecorder`]; without one the only
//! tracing cost is a predictable branch.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::hist::LogHist;
use crate::rng::XorShift;
use crate::sut::{Context, KStatus, Kernel, PortSpec};
use crate::trace::{LaneRecorder, PortOp};

#[inline]
fn timed<R>(rec: &mut Option<LaneRecorder>, op: PortOp, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => r.port(op, f),
        None => f(),
    }
}

#[inline]
fn begin(rec: &mut Option<LaneRecorder>) {
    if let Some(r) = rec {
        r.run_begin();
    }
}

#[inline]
fn end(rec: &mut Option<LaneRecorder>, elems: u64, status: KStatus) -> KStatus {
    if let Some(r) = rec {
        r.run_end(elems);
    }
    status
}

// ---------------------------------------------------------------------------
// closed loop: source → relay → relay → sink over u64
// ---------------------------------------------------------------------------

/// Emits `count` seeded `u64`s as fast as the stream accepts them.
pub struct HopSource {
    gen: XorShift,
    left: u64,
    rec: Option<LaneRecorder>,
}

impl HopSource {
    pub fn new(gen: XorShift, count: u64, rec: Option<LaneRecorder>) -> Self {
        HopSource {
            gen,
            left: count,
            rec,
        }
    }
}

impl Kernel for HopSource {
    fn ports(&self) -> PortSpec {
        PortSpec::new().output::<u64>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        if self.left == 0 || ctx.stop_requested() {
            return KStatus::Stop;
        }
        begin(&mut self.rec);
        let v = self.gen.next_u64();
        let pushed = timed(&mut self.rec, PortOp::Push, || {
            ctx.output::<u64>("out").push(v)
        });
        self.left -= 1;
        let status = if pushed.is_err() || self.left == 0 {
            KStatus::Stop
        } else {
            KStatus::Proceed
        };
        end(&mut self.rec, 1, status)
    }

    fn name(&self) -> String {
        "bench-source".to_string()
    }
}

/// What a [`Relay`] does to each element, given its running state.
pub trait Mix<T>: Send + 'static {
    fn mix(state: &mut u64, v: T) -> T;
}

/// `u64` stream: forward the running xor of everything seen so far.
pub struct XorPrefix;
impl Mix<u64> for XorPrefix {
    #[inline]
    fn mix(state: &mut u64, v: u64) -> u64 {
        *state ^= v;
        *state
    }
}

/// Paced stream: fold the sequence number into the state, forward the
/// element untouched (its due time must survive).
pub struct KeepElement;
impl Mix<Paced> for KeepElement {
    #[inline]
    fn mix(state: &mut u64, v: Paced) -> Paced {
        *state ^= v.0;
        v
    }
}

/// One stateful hop: pop, mix, push.
pub struct Relay<T, M> {
    state: u64,
    rec: Option<LaneRecorder>,
    _marker: std::marker::PhantomData<fn(T, M)>,
}

impl<T, M> Relay<T, M> {
    pub fn new(rec: Option<LaneRecorder>) -> Self {
        Relay {
            state: 0,
            rec,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Send + Clone + 'static, M: Mix<T>> Kernel for Relay<T, M> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<T>("in").output::<T>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        begin(&mut self.rec);
        let popped = timed(&mut self.rec, PortOp::Pop, || ctx.input::<T>("in").pop());
        let Ok(v) = popped else {
            return end(&mut self.rec, 0, KStatus::Stop);
        };
        let out = M::mix(&mut self.state, v);
        let pushed = timed(&mut self.rec, PortOp::Push, || {
            ctx.output::<T>("out").push(out)
        });
        let status = if pushed.is_ok() {
            KStatus::Proceed
        } else {
            KStatus::Stop
        };
        end(&mut self.rec, 1, status)
    }

    fn name(&self) -> String {
        "bench-relay".to_string()
    }
}

/// Order-sensitive checksum of a `u64` stream: a lost, duplicated,
/// corrupted or reordered element changes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checksum {
    pub count: u64,
    pub acc: u64,
}

impl Checksum {
    #[inline]
    pub fn add(&mut self, v: u64) {
        self.acc = self.acc.rotate_left(1) ^ v;
        self.count += 1;
    }
}

/// The single-threaded reference for the hop chain: what the sink must see
/// when `count` elements of `gen` pass through `relays` xor-prefix hops.
pub fn hop_reference(mut gen: XorShift, count: u64, relays: usize) -> Checksum {
    let mut states = vec![0u64; relays];
    let mut sum = Checksum::default();
    for _ in 0..count {
        let mut v = gen.next_u64();
        for s in &mut states {
            v = XorPrefix::mix(s, v);
        }
        sum.add(std::hint::black_box(v));
    }
    sum
}

/// Consumes the `u64` stream and leaves its [`Checksum`] in `result`.
pub struct HopSink {
    sum: Checksum,
    result: Arc<Mutex<Checksum>>,
    rec: Option<LaneRecorder>,
}

impl HopSink {
    pub fn new(rec: Option<LaneRecorder>) -> (Self, Arc<Mutex<Checksum>>) {
        let result = Arc::new(Mutex::new(Checksum::default()));
        (
            HopSink {
                sum: Checksum::default(),
                result: result.clone(),
                rec,
            },
            result,
        )
    }
}

impl Kernel for HopSink {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<u64>("in")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        begin(&mut self.rec);
        let popped = timed(&mut self.rec, PortOp::Pop, || ctx.input::<u64>("in").pop());
        match popped {
            Ok(v) => {
                self.sum.add(v);
                end(&mut self.rec, 1, KStatus::Proceed)
            }
            Err(_) => {
                *self.result.lock().expect("sink result lock") = self.sum;
                end(&mut self.rec, 0, KStatus::Stop)
            }
        }
    }

    fn name(&self) -> String {
        "bench-sink".to_string()
    }
}

// ---------------------------------------------------------------------------
// open loop: paced source → relay → latency sink over (seq, due_ns)
// ---------------------------------------------------------------------------

/// One paced element: `(sequence number, due time in ns since the epoch)`.
pub type Paced = (u64, u64);

/// The open-loop schedule: element `i` is due at `t0 + i × period`, however
/// late the generator ran for the elements before it. A stalled generator
/// therefore catches up in a burst and the stall shows up as latency of the
/// delayed elements — it is never hidden by shifting later due times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    pub t0_ns: u64,
    pub period_ns: u64,
}

impl Schedule {
    pub fn new(t0_ns: u64, rate_per_s: u64) -> Self {
        Schedule {
            t0_ns,
            period_ns: 1_000_000_000 / rate_per_s,
        }
    }

    #[inline]
    pub fn due_ns(&self, i: u64) -> u64 {
        self.t0_ns + i * self.period_ns
    }
}

/// How late the generator itself was, so that a latency it caused is not
/// blamed on the runtime.
#[derive(Debug, Clone, Default)]
pub struct GeneratorLateness {
    pub late_ns: LogHist,
}

/// Sleep until this long before a due time, then spin.
const SPIN_WINDOW: Duration = Duration::from_micros(100);
/// Lead between the source's first `run()` and the first due time: the spin
/// window, so that the first element is never slept for (a sleep of under
/// a millisecond overshoots by a variable amount, which would dominate the
/// one-element run that `setup_s` times).
const START_LEAD_NS: u64 = SPIN_WINDOW.as_nanos() as u64;

/// Emits `(seq, due_ns)` on a fixed schedule.
pub struct PacedSource {
    epoch: Instant,
    rate_per_s: u64,
    schedule: Option<Schedule>,
    next: u64,
    count: u64,
    lateness: GeneratorLateness,
    result: Arc<Mutex<GeneratorLateness>>,
    rec: Option<LaneRecorder>,
}

impl PacedSource {
    /// `epoch` is the time base shared with the [`PacedSink`].
    pub fn new(
        epoch: Instant,
        rate_per_s: u64,
        count: u64,
        rec: Option<LaneRecorder>,
    ) -> (Self, Arc<Mutex<GeneratorLateness>>) {
        let result = Arc::new(Mutex::new(GeneratorLateness::default()));
        (
            PacedSource {
                epoch,
                rate_per_s,
                schedule: None,
                next: 0,
                count,
                lateness: GeneratorLateness::default(),
                result: result.clone(),
                rec,
            },
            result,
        )
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Kernel for PacedSource {
    fn ports(&self) -> PortSpec {
        PortSpec::new().output::<Paced>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        if self.next == self.count || ctx.stop_requested() {
            *self.result.lock().expect("generator result lock") = self.lateness.clone();
            return KStatus::Stop;
        }
        let rate = self.rate_per_s;
        let start = self.now_ns();
        let schedule = *self
            .schedule
            .get_or_insert_with(|| Schedule::new(start + START_LEAD_NS, rate));
        let due = schedule.due_ns(self.next);
        begin(&mut self.rec);
        let sleep_until = due.saturating_sub(SPIN_WINDOW.as_nanos() as u64);
        let now = self.now_ns();
        if now < sleep_until {
            std::thread::sleep(Duration::from_nanos(sleep_until - now));
        }
        while self.now_ns() < due {
            std::hint::spin_loop();
        }
        self.lateness.late_ns.record(self.now_ns() - due);
        let elem = (self.next, due);
        let pushed = timed(&mut self.rec, PortOp::Push, || {
            ctx.output::<Paced>("out").push(elem)
        });
        self.next += 1;
        let status = if pushed.is_ok() {
            KStatus::Proceed
        } else {
            KStatus::Stop
        };
        end(&mut self.rec, 1, status)
    }

    fn name(&self) -> String {
        "bench-paced-source".to_string()
    }
}

/// What the latency sink saw.
#[derive(Debug, Clone, Default)]
pub struct LatencyResult {
    /// Receipt time minus due time, ns.
    pub latency_ns: LogHist,
    pub received: u64,
    /// Elements whose sequence number was not the next expected one.
    pub out_of_sequence: u64,
    /// Receipt time of the last element, ns since the epoch.
    pub last_receipt_ns: u64,
}

/// Records `now − due` for every element and checks the sequence.
pub struct PacedSink {
    epoch: Instant,
    res: LatencyResult,
    result: Arc<Mutex<LatencyResult>>,
    rec: Option<LaneRecorder>,
}

impl PacedSink {
    pub fn new(epoch: Instant, rec: Option<LaneRecorder>) -> (Self, Arc<Mutex<LatencyResult>>) {
        let result = Arc::new(Mutex::new(LatencyResult::default()));
        (
            PacedSink {
                epoch,
                res: LatencyResult::default(),
                result: result.clone(),
                rec,
            },
            result,
        )
    }
}

impl Kernel for PacedSink {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<Paced>("in")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        begin(&mut self.rec);
        let popped = timed(&mut self.rec, PortOp::Pop, || {
            ctx.input::<Paced>("in").pop()
        });
        match popped {
            Ok((seq, due)) => {
                let now = self.epoch.elapsed().as_nanos() as u64;
                self.res.latency_ns.record(now.saturating_sub(due));
                if seq != self.res.received {
                    self.res.out_of_sequence += 1;
                }
                self.res.received += 1;
                self.res.last_receipt_ns = now;
                end(&mut self.rec, 1, KStatus::Proceed)
            }
            Err(_) => {
                *self.result.lock().expect("sink result lock") = self.res.clone();
                end(&mut self.rec, 0, KStatus::Stop)
            }
        }
    }

    fn name(&self) -> String {
        "bench-paced-sink".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_depend_on_the_index_only() {
        let s = Schedule::new(1_000_000, 5_000);
        assert_eq!(s.period_ns, 200_000);
        assert_eq!(s.due_ns(0), 1_000_000);
        assert_eq!(s.due_ns(1), 1_200_000);
        // However late element 7 was emitted, element 8 is due when it
        // always was: the schedule has no input but the index.
        let before_stall = s.due_ns(8);
        let _emitted_late_at = s.due_ns(7) + 50_000_000;
        assert_eq!(s.due_ns(8), before_stall);
        assert_eq!(s.due_ns(50_000) - s.due_ns(0), 10_000_000_000);
    }

    #[test]
    fn checksum_sees_loss_duplication_and_reordering() {
        let sum = |vals: &[u64]| {
            let mut c = Checksum::default();
            vals.iter().for_each(|&v| c.add(v));
            c
        };
        let base = sum(&[1, 2, 3, 4]);
        assert_ne!(base, sum(&[1, 2, 4]));
        assert_ne!(base, sum(&[1, 2, 3, 3, 4]));
        assert_ne!(base, sum(&[1, 3, 2, 4]));
        assert_eq!(base, sum(&[1, 2, 3, 4]));
    }

    #[test]
    fn reference_matches_a_hand_computed_chain() {
        let gen = XorShift::new(3, 0);
        let mut g = gen.clone();
        let (a, b) = (g.next_u64(), g.next_u64());
        // two relays: first forwards prefix xors (a, a^b); second forwards
        // the prefix xors of those (a, a^a^b = b)
        let mut want = Checksum::default();
        want.add(a);
        want.add(b);
        assert_eq!(hop_reference(gen, 2, 2), want);
    }
}
