//! Cycle-by-cycle pipeline event tracing and textual pipeline diagrams.
//!
//! Enable with [`CoreConfig::record_pipeline_trace`]; the
//! [`SimResult`](crate::SimResult) then carries a [`PipeTrace`] that can
//! be rendered as the classic per-instruction timeline:
//!
//! ```text
//! seq      cycle 10        20        30
//! 12 lw    ....F.D..I X...W....C
//! ```
//!
//! [`CoreConfig::record_pipeline_trace`]: crate::CoreConfig

use std::fmt;

/// A pipeline stage event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeStage {
    /// Instruction fetched.
    Fetch,
    /// Entered the window (dispatched).
    Dispatch,
    /// Address micro-op issued (AS modes).
    AddrIssue,
    /// Main operation issued.
    Issue,
    /// Memory access performed (loads: read; stores: buffer write).
    Execute,
    /// Result available to consumers (writeback).
    Complete,
    /// Retired in program order.
    Commit,
    /// Invalidated by a squash (will re-run).
    Squash,
}

impl PipeStage {
    /// One-letter diagram code.
    pub fn code(self) -> char {
        match self {
            PipeStage::Fetch => 'F',
            PipeStage::Dispatch => 'D',
            PipeStage::AddrIssue => 'A',
            PipeStage::Issue => 'I',
            PipeStage::Execute => 'X',
            PipeStage::Complete => 'W',
            PipeStage::Commit => 'C',
            PipeStage::Squash => 's',
        }
    }
}

impl fmt::Display for PipeStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeEvent {
    /// Dynamic sequence number of the instruction.
    pub seq: u64,
    /// Stage reached.
    pub stage: PipeStage,
    /// Cycle it happened.
    pub cycle: u64,
}

/// The recorded pipeline trace of one simulation.
#[derive(Debug, Clone, Default)]
pub struct PipeTrace {
    events: Vec<PipeEvent>,
}

impl PipeTrace {
    pub(crate) fn record(&mut self, seq: u64, stage: PipeStage, cycle: u64) {
        self.events.push(PipeEvent { seq, stage, cycle });
    }

    /// All events, in recording order.
    pub fn events(&self) -> &[PipeEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one instruction, in recording order.
    pub fn of(&self, seq: u64) -> Vec<PipeEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.seq == seq)
            .collect()
    }

    /// Renders a timeline diagram for instructions `seq_range`, one row
    /// per dynamic instruction. Later events overwrite earlier ones in
    /// the same cell; a squashed-and-replayed stage therefore shows its
    /// final occurrence, with `s` marking the squash itself.
    pub fn render(&self, seq_range: std::ops::Range<u64>) -> String {
        let rows: Vec<u64> = seq_range.collect();
        let relevant: Vec<&PipeEvent> = self
            .events
            .iter()
            .filter(|e| rows.contains(&e.seq))
            .collect();
        let Some(min_c) = relevant.iter().map(|e| e.cycle).min() else {
            return String::new();
        };
        let max_c = relevant.iter().map(|e| e.cycle).max().expect("non-empty");
        let span = (max_c - min_c + 1) as usize;
        let mut out = format!("cycles {min_c}..={max_c}\n");
        for &seq in &rows {
            let mut line = vec![b'.'; span];
            for e in relevant.iter().filter(|e| e.seq == seq) {
                line[(e.cycle - min_c) as usize] = e.stage.code() as u8;
            }
            out.push_str(&format!(
                "{seq:>6} {}\n",
                String::from_utf8(line).expect("ascii")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique() {
        let stages = [
            PipeStage::Fetch,
            PipeStage::Dispatch,
            PipeStage::AddrIssue,
            PipeStage::Issue,
            PipeStage::Execute,
            PipeStage::Complete,
            PipeStage::Commit,
            PipeStage::Squash,
        ];
        let mut codes: Vec<char> = stages.iter().map(|s| s.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), stages.len());
    }

    #[test]
    fn render_places_stages_at_cycles() {
        let mut t = PipeTrace::default();
        t.record(0, PipeStage::Fetch, 1);
        t.record(0, PipeStage::Commit, 5);
        t.record(1, PipeStage::Fetch, 2);
        let s = t.render(0..2);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains("1..=5"));
        assert!(lines[1].ends_with("F...C"));
        assert!(lines[2].ends_with(".F..."));
    }

    #[test]
    fn of_filters_by_seq() {
        let mut t = PipeTrace::default();
        t.record(3, PipeStage::Issue, 7);
        t.record(4, PipeStage::Issue, 8);
        assert_eq!(t.of(3).len(), 1);
        assert_eq!(t.of(3)[0].cycle, 7);
    }

    #[test]
    fn empty_range_renders_empty() {
        let t = PipeTrace::default();
        assert_eq!(t.render(0..4), "");
        assert!(t.is_empty());
    }
}
