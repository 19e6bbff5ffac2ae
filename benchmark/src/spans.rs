//! Phase brackets: the spans the benchmark records around its own calls
//! into the system (`setup.generate`, `setup.batch`, `setup.build`,
//! `run.sim`, `collect`), kept in memory until the run ends.

use std::cell::RefCell;
use std::time::Instant;

/// One bracketed phase of one repetition.
#[derive(Debug, Clone)]
pub struct PhaseSpan {
    /// Phase name.
    pub name: &'static str,
    /// Repetition the phase belongs to (0 = warm-up).
    pub rep: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// Recorder of phase brackets. Interior-mutable so workloads can bracket
/// parts of their `setup` through a shared reference.
pub struct Phases {
    epoch: Instant,
    rep: RefCell<u32>,
    spans: RefCell<Vec<PhaseSpan>>,
}

impl Default for Phases {
    fn default() -> Self {
        Phases { epoch: Instant::now(), rep: RefCell::new(0), spans: RefCell::new(Vec::new()) }
    }
}

impl Phases {
    /// A recorder whose clock started at `epoch` (so phase and tap spans of
    /// one traced run share a time base).
    pub fn since(epoch: Instant) -> Phases {
        Phases { epoch, ..Phases::default() }
    }

    /// Tag subsequent phases with repetition `rep`.
    pub fn set_rep(&self, rep: u32) {
        *self.rep.borrow_mut() = rep;
    }

    /// Run `f` inside a phase bracket.
    pub fn phase<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed();
        let value = f();
        let end = self.epoch.elapsed();
        self.spans.borrow_mut().push(PhaseSpan {
            name,
            rep: *self.rep.borrow(),
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        value
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<PhaseSpan> {
        self.spans.borrow().clone()
    }
}
