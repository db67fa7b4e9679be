//! Golden Runs: reference traces of the un-injected system.
//!
//! "A Golden Run is a trace of the system executing without any injections
//! being made; this trace is used as reference and is stated to be correct."
//! One Golden Run is recorded per workload case; every injection run for
//! that case is executed for exactly the Golden Run's tick count and
//! compared trace-by-trace.

use permea_runtime::tracing::TraceSet;
use serde::{Deserialize, Serialize};

/// The reference execution of one workload case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenRun {
    /// Workload case index.
    pub case: usize,
    /// Ticks executed (injection runs replay exactly this many).
    pub ticks: u64,
    /// Reference traces of every monitored signal.
    pub traces: TraceSet,
}

impl GoldenRun {
    /// First tick at which `signal` in `ir_traces` deviates from this Golden
    /// Run; `None` if the traces agree over the whole horizon.
    pub fn first_divergence(&self, ir_traces: &TraceSet, signal: &str) -> Option<usize> {
        ir_traces.first_divergence(&self.traces, signal)
    }

    /// `true` if `signal` in `ir_traces` differs anywhere from the Golden
    /// Run — the paper's per-output error test.
    pub fn diverged(&self, ir_traces: &TraceSet, signal: &str) -> bool {
        self.first_divergence(ir_traces, signal).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permea_runtime::signals::SignalBus;

    fn traces(samples: &[u16]) -> TraceSet {
        let mut bus = SignalBus::new();
        let s = bus.define("out");
        let mut t = TraceSet::for_signals(&bus, &[s]);
        for &v in samples {
            bus.write(s, v);
            t.record(&bus);
        }
        t
    }

    #[test]
    fn divergence_detection() {
        let golden = GoldenRun {
            case: 0,
            ticks: 3,
            traces: traces(&[1, 2, 3]),
        };
        let same = traces(&[1, 2, 3]);
        let diff = traces(&[1, 9, 3]);
        assert!(!golden.diverged(&same, "out"));
        assert!(golden.diverged(&diff, "out"));
        assert_eq!(golden.first_divergence(&diff, "out"), Some(1));
    }

    #[test]
    fn unknown_signal_never_diverges() {
        let golden = GoldenRun {
            case: 0,
            ticks: 3,
            traces: traces(&[1, 2, 3]),
        };
        let ir = traces(&[1, 2, 3]);
        assert!(!golden.diverged(&ir, "nope"));
    }
}
