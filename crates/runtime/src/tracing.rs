//! Per-tick signal traces — the raw material of Golden Run Comparison.
//!
//! The paper's PROPANE tool records a trace of every monitored variable with
//! millisecond resolution; an injection run's traces are compared to the
//! Golden Run's, and the comparison stops at the first difference. The
//! [`TraceSet`] here records one `u16` sample per signal per tick and offers
//! exactly that first-divergence query.
//!
//! # Storage layout
//!
//! Samples live in one flat signal-major arena: signal `i` owns the
//! contiguous words `data[i*cap .. i*cap + ticks]`, where `cap` is the
//! per-signal tick capacity. Recording appends one word per signal per
//! tick at each signal's own cursor, and golden-run comparison walks one
//! signal's samples as a single contiguous slice in cache-line-sized
//! chunks ([`first_divergence`]) with an early exit at the first
//! mismatching chunk. The arena is reusable: [`TraceSet::reset_from`] /
//! [`TraceSet::reset_for`] rewind a set for the next run without
//! releasing its capacity, so a campaign worker pays the sample
//! allocations once instead of once per injection run.

use crate::signals::{SignalBus, SignalRef};
use serde::{DeError, Deserialize, Serialize, Value};

/// Words compared per chunk: 32 × `u16` = one 64-byte cache line.
const CHUNK_WORDS: usize = 32;

/// Initial per-signal tick capacity when a set grows from empty.
const MIN_CAP: usize = 64;

/// Index of the first position where equal-length prefixes of `a` and `b`
/// differ, comparing `0..min(len)` only — extra ticks on either side are
/// ignored. The walk proceeds in cache-line-sized chunks (a wide equality
/// test per chunk, which the compiler lowers to a vectorised compare) and
/// only a mismatching chunk pays a scalar scan.
pub fn first_mismatch(a: &[u16], b: &[u16]) -> Option<usize> {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut i = 0;
    while i < n {
        let end = (i + CHUNK_WORDS).min(n);
        if a[i..end] == b[i..end] {
            i = end;
            continue;
        }
        return (i..end).find(|&j| a[j] != b[j]);
    }
    None
}

/// Index of the first tick where `a` and `b` differ, also reporting a
/// divergence at the shorter length when one trace is a prefix of the
/// other. Chunked like [`first_mismatch`].
pub fn first_divergence(a: &[u16], b: &[u16]) -> Option<usize> {
    if let Some(i) = first_mismatch(a, b) {
        return Some(i);
    }
    if a.len() != b.len() {
        Some(a.len().min(b.len()))
    } else {
        None
    }
}

/// A set of signal traces recorded over one simulation run.
///
/// # Examples
///
/// ```
/// use permea_runtime::signals::SignalBus;
/// use permea_runtime::tracing::TraceSet;
///
/// let mut bus = SignalBus::new();
/// let s = bus.define("s");
/// let mut traces = TraceSet::for_signals(&bus, &[s]);
/// bus.write(s, 1);
/// traces.record(&bus);
/// bus.write(s, 2);
/// traces.record(&bus);
/// assert_eq!(traces.trace("s").unwrap(), vec![1, 2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceSet {
    /// Bus references of the monitored signals (meaningless after
    /// deserialisation — names, not indices, survive across runs).
    refs: Vec<SignalRef>,
    /// Names of the monitored signals, in monitoring order.
    names: Vec<String>,
    /// Signal-major sample arena: signal `i` owns
    /// `data[i*cap .. i*cap + ticks]`.
    data: Vec<u16>,
    /// Per-signal stride (tick capacity) of the arena.
    cap: usize,
    ticks: usize,
}

/// Two sets are equal when they monitor the same signal names in the same
/// order and recorded the same samples; arena capacity and bus references
/// are ignored.
impl PartialEq for TraceSet {
    fn eq(&self, other: &TraceSet) -> bool {
        self.ticks == other.ticks
            && self.names == other.names
            && (0..self.names.len()).all(|i| self.samples(i) == other.samples(i))
    }
}

impl Eq for TraceSet {}

/// The serialised shape of one signal's trace — pinned to the historical
/// array-of-structs JSON layout `{"name": ..., "samples": [...]}` so
/// artifacts and golden fixtures survive the arena refactor unchanged.
#[derive(Serialize, Deserialize)]
struct TraceSerde {
    name: String,
    samples: Vec<u16>,
}

#[derive(Serialize, Deserialize)]
struct SetSerde {
    traces: Vec<TraceSerde>,
    ticks: usize,
}

impl Serialize for TraceSet {
    fn to_value(&self) -> Value {
        SetSerde {
            traces: self
                .iter_traces()
                .map(|(name, samples)| TraceSerde {
                    name: name.to_string(),
                    samples: samples.to_vec(),
                })
                .collect(),
            ticks: self.ticks,
        }
        .to_value()
    }
}

impl Deserialize for TraceSet {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let raw = SetSerde::from_value(v)?;
        let cap = raw.ticks;
        let mut set = TraceSet {
            refs: Vec::new(),
            names: Vec::with_capacity(raw.traces.len()),
            data: vec![0; raw.traces.len() * cap],
            cap,
            ticks: raw.ticks,
        };
        for (i, t) in raw.traces.into_iter().enumerate() {
            let n = t.samples.len().min(cap);
            set.data[i * cap..i * cap + n].copy_from_slice(&t.samples[..n]);
            set.names.push(t.name);
        }
        Ok(set)
    }
}

impl TraceSet {
    /// Creates a trace set monitoring the given signals of `bus`.
    pub fn for_signals(bus: &SignalBus, signals: &[SignalRef]) -> Self {
        let mut set = TraceSet::default();
        set.reset_for(bus, signals);
        set
    }

    /// Creates a trace set monitoring every signal of `bus`.
    pub fn for_all(bus: &SignalBus) -> Self {
        let refs: Vec<SignalRef> = bus.iter().map(|(r, _, _)| r).collect();
        Self::for_signals(bus, &refs)
    }

    /// Rewinds this set for a fresh run monitoring `signals` of `bus`,
    /// reusing the sample arena (and, when the signal list is unchanged,
    /// the name strings) instead of reallocating.
    pub fn reset_for(&mut self, bus: &SignalBus, signals: &[SignalRef]) {
        let unchanged = self.refs == signals
            && self.names.len() == signals.len()
            && self
                .refs
                .iter()
                .zip(&self.names)
                .all(|(&r, n)| bus.name(r) == n);
        if !unchanged {
            self.refs.clear();
            self.refs.extend_from_slice(signals);
            self.names.clear();
            self.names
                .extend(signals.iter().map(|&s| bus.name(s).to_owned()));
            self.fit_arena();
        }
        self.ticks = 0;
    }

    /// Rewinds this set for a fresh run monitoring the same signals as
    /// `other`, reusing the sample arena. This is the per-run reset of a
    /// worker-owned arena: steady-state (same factory, hence the same
    /// signal list every run) it allocates nothing.
    pub fn reset_from(&mut self, other: &TraceSet) {
        if self.refs != other.refs || self.names != other.names {
            self.refs.clear();
            self.refs.extend_from_slice(&other.refs);
            self.names.clear();
            self.names.extend(other.names.iter().cloned());
            self.fit_arena();
        }
        self.ticks = 0;
    }

    /// Grows the arena to `ticks` per-signal capacity up front, so a run
    /// of known length records without intermediate regrowth.
    pub fn reserve_ticks(&mut self, ticks: usize) {
        if ticks > self.cap {
            self.regrow(ticks);
        }
    }

    /// Ensures the arena covers the current signal count at the current
    /// stride (called after the signal list changed).
    fn fit_arena(&mut self) {
        let need = self.names.len() * self.cap;
        if need > self.data.len() {
            self.data.resize(need, 0);
        }
    }

    /// Widens the per-signal stride to `new_cap`, moving each signal's
    /// recorded prefix into its new slot.
    fn regrow(&mut self, new_cap: usize) {
        let n = self.names.len();
        let mut data = vec![0u16; n * new_cap];
        for i in 0..n {
            data[i * new_cap..i * new_cap + self.ticks]
                .copy_from_slice(&self.data[i * self.cap..i * self.cap + self.ticks]);
        }
        self.data = data;
        self.cap = new_cap;
    }

    /// Records the current value of every monitored signal (call once per
    /// tick).
    pub fn record(&mut self, bus: &SignalBus) {
        if self.ticks == self.cap {
            self.regrow((self.cap * 2).max(MIN_CAP));
        }
        let t = self.ticks;
        for (i, &r) in self.refs.iter().enumerate() {
            self.data[i * self.cap + t] = bus.read(r);
        }
        self.ticks = t + 1;
    }

    /// Number of recorded ticks.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// Number of monitored signals.
    pub fn signal_count(&self) -> usize {
        self.names.len()
    }

    /// The recorded samples of signal `i` (monitoring order, see
    /// [`TraceSet::position`]), as one contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics when `i` is not below [`TraceSet::signal_count`].
    pub fn samples(&self, i: usize) -> &[u16] {
        assert!(i < self.names.len(), "signal index out of range");
        &self.data[i * self.cap..i * self.cap + self.ticks]
    }

    /// The monitoring-order index of the signal named `name`, if
    /// monitored: resolve it once, then read [`TraceSet::samples`] by index.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Iterates `(name, samples)` over all traces in monitoring order.
    pub fn iter_traces(&self) -> impl Iterator<Item = (&str, &[u16])> + '_ {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), self.samples(i)))
    }

    /// The recorded samples of the signal named `name`, if monitored.
    pub fn trace(&self, name: &str) -> Option<&[u16]> {
        self.position(name).map(|i| self.samples(i))
    }

    /// First tick at which the named signal diverges from the same signal in
    /// `golden`. Returns `None` when the traces agree (or the signal is not
    /// monitored in both sets).
    pub fn first_divergence(&self, golden: &TraceSet, name: &str) -> Option<usize> {
        let mine = self.trace(name)?;
        let theirs = golden.trace(name)?;
        first_divergence(mine, theirs)
    }

    /// A copy containing only the first `ticks` ticks of every trace
    /// (saturating when `ticks` exceeds the recorded length).
    pub fn truncated(&self, ticks: usize) -> TraceSet {
        let keep = ticks.min(self.ticks);
        let n = self.names.len();
        let mut data = vec![0u16; n * keep];
        for i in 0..n {
            data[i * keep..(i + 1) * keep].copy_from_slice(&self.samples(i)[..keep]);
        }
        TraceSet {
            refs: self.refs.clone(),
            names: self.names.clone(),
            data,
            cap: keep,
            ticks: keep,
        }
    }

    /// Appends ticks `[from, to)` of `other` to this set — the splice used
    /// to reassemble a full trace from a fast-forwarded run's window plus
    /// the golden prefix and tail.
    ///
    /// # Panics
    ///
    /// Panics when the two sets monitor different signal lists or the window
    /// exceeds `other`'s recorded length.
    pub fn extend_from_window(&mut self, other: &TraceSet, from: usize, to: usize) {
        assert_eq!(
            self.names.len(),
            other.names.len(),
            "trace sets monitor different signals"
        );
        debug_assert_eq!(
            self.names, other.names,
            "trace sets monitor different signals"
        );
        assert!(to <= other.ticks, "window exceeds the recorded length");
        let extra = to - from;
        self.reserve_ticks(self.ticks + extra);
        for i in 0..self.names.len() {
            let dst = i * self.cap + self.ticks;
            let src = &other.data[i * other.cap + from..i * other.cap + to];
            self.data[dst..dst + extra].copy_from_slice(src);
        }
        self.ticks += extra;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus3() -> (SignalBus, Vec<SignalRef>) {
        let mut bus = SignalBus::new();
        let a = bus.define("a");
        let b = bus.define("b");
        let c = bus.define("c");
        (bus, vec![a, b, c])
    }

    #[test]
    fn records_selected_signals_per_tick() {
        let (mut bus, refs) = bus3();
        let mut ts = TraceSet::for_signals(&bus, &refs[..2]);
        bus.write(refs[0], 1);
        bus.write(refs[2], 99); // not monitored
        ts.record(&bus);
        bus.write(refs[0], 2);
        ts.record(&bus);
        assert_eq!(ts.ticks(), 2);
        assert_eq!(ts.signal_count(), 2);
        assert_eq!(ts.trace("a").unwrap(), vec![1, 2]);
        assert_eq!(ts.trace("b").unwrap(), vec![0, 0]);
        assert!(ts.trace("c").is_none());
    }

    #[test]
    fn for_all_monitors_everything() {
        let (bus, _) = bus3();
        let ts = TraceSet::for_all(&bus);
        assert_eq!(ts.signal_count(), 3);
    }

    #[test]
    fn first_divergence_finds_first_difference() {
        let x: Vec<u16> = vec![1, 2, 3, 4];
        let y: Vec<u16> = vec![1, 2, 9, 4];
        assert_eq!(first_divergence(&x, &y), Some(2));
        assert_eq!(first_divergence(&x, &x.clone()), None);
    }

    #[test]
    fn length_mismatch_is_divergence_at_shorter_end() {
        let x: Vec<u16> = vec![1, 2];
        let y: Vec<u16> = vec![1, 2, 3];
        assert_eq!(first_divergence(&x, &y), Some(2));
        assert_eq!(first_divergence(&y, &x), Some(2));
        // The prefix-only compare ignores the extra tick.
        assert_eq!(first_mismatch(&x, &y), None);
    }

    #[test]
    fn chunked_compare_agrees_with_scalar_reference() {
        // Cover every alignment around the chunk width, including inside
        // the first chunk, on a chunk boundary, and in the ragged tail.
        let n = 5 * CHUNK_WORDS + 7;
        let base: Vec<u16> = (0..n as u16).map(|v| v.wrapping_mul(31)).collect();
        assert_eq!(first_divergence(&base, &base.clone()), None);
        for at in [
            0,
            1,
            CHUNK_WORDS - 1,
            CHUNK_WORDS,
            CHUNK_WORDS + 1,
            3 * CHUNK_WORDS + 5,
            n - 1,
        ] {
            let mut mutated = base.clone();
            mutated[at] ^= 0x4000;
            assert_eq!(first_divergence(&base, &mutated), Some(at), "at {at}");
            assert_eq!(first_mismatch(&base, &mutated), Some(at), "at {at}");
        }
        // An earlier divergence wins even with later ones present.
        let mut mutated = base.clone();
        mutated[2] ^= 1;
        mutated[4 * CHUNK_WORDS] ^= 1;
        assert_eq!(first_divergence(&base, &mutated), Some(2));
    }

    #[test]
    fn set_level_divergence_by_name() {
        let (mut bus, refs) = bus3();
        let mut golden = TraceSet::for_signals(&bus, &refs);
        bus.write(refs[0], 1);
        golden.record(&bus);
        golden.record(&bus);

        let mut ir = TraceSet::for_signals(&bus, &refs);
        ir.record(&bus);
        bus.write(refs[0], 5);
        ir.record(&bus);
        assert_eq!(ir.first_divergence(&golden, "a"), Some(1));
        assert_eq!(ir.first_divergence(&golden, "b"), None);
        assert_eq!(ir.first_divergence(&golden, "zz"), None);
    }

    #[test]
    fn truncate_and_splice_reassemble_a_run() {
        let (mut bus, refs) = bus3();
        let mut full = TraceSet::for_signals(&bus, &refs);
        for v in 0..10u16 {
            bus.write(refs[0], v);
            bus.write(refs[1], 100 + v);
            full.record(&bus);
        }
        // Rebuild [0..4) + [4..7) + [7..10) and compare with the original.
        let mut spliced = full.truncated(4);
        assert_eq!(spliced.ticks(), 4);
        spliced.extend_from_window(&full, 4, 7);
        spliced.extend_from_window(&full, 7, 10);
        assert_eq!(spliced, full);
        // Truncation beyond the recorded length saturates.
        assert_eq!(full.truncated(99), full);
    }

    #[test]
    #[should_panic(expected = "different signals")]
    fn splice_rejects_mismatched_signal_sets() {
        let (bus, refs) = bus3();
        let mut two = TraceSet::for_signals(&bus, &refs[..2]);
        let three = TraceSet::for_signals(&bus, &refs);
        two.extend_from_window(&three, 0, 0);
    }

    #[test]
    fn serde_roundtrip_preserves_samples() {
        let (mut bus, refs) = bus3();
        let mut ts = TraceSet::for_signals(&bus, &refs);
        bus.write(refs[1], 7);
        ts.record(&bus);
        let json = serde_json::to_string(&ts).unwrap();
        // The historical array-of-structs JSON shape is pinned: traces as
        // {name, samples} objects, then the tick count.
        assert_eq!(
            json,
            "{\"traces\":[{\"name\":\"a\",\"samples\":[0]},\
             {\"name\":\"b\",\"samples\":[7]},\
             {\"name\":\"c\",\"samples\":[0]}],\"ticks\":1}"
        );
        let back: TraceSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back.trace("b").unwrap(), vec![7]);
        assert_eq!(back, ts);
    }

    #[test]
    fn arena_reset_reuses_capacity() {
        let (mut bus, refs) = bus3();
        let mut arena = TraceSet::for_signals(&bus, &refs);
        arena.reserve_ticks(256);
        for v in 0..100u16 {
            bus.write(refs[0], v);
            arena.record(&bus);
        }
        let first: Vec<u16> = arena.trace("a").unwrap().to_vec();
        assert_eq!(first.len(), 100);

        // Reset and re-record: same signals, no stale samples.
        let template = TraceSet::for_signals(&bus, &refs);
        arena.reset_from(&template);
        assert_eq!(arena.ticks(), 0);
        bus.write(refs[0], 7);
        arena.record(&bus);
        assert_eq!(arena.trace("a").unwrap(), vec![7]);
        assert_eq!(arena, {
            let mut fresh = TraceSet::for_signals(&bus, &refs);
            fresh.record(&bus);
            fresh
        });
    }

    #[test]
    fn reset_for_handles_changed_signal_lists() {
        let (mut bus, refs) = bus3();
        let mut arena = TraceSet::for_signals(&bus, &refs[..2]);
        bus.write(refs[0], 3);
        arena.record(&bus);
        arena.reset_for(&bus, &refs);
        assert_eq!(arena.signal_count(), 3);
        assert_eq!(arena.ticks(), 0);
        arena.record(&bus);
        assert_eq!(arena.trace("c").unwrap(), vec![0]);
    }
}
