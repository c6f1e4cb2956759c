//! Trace record/replay: a run's decision journal.
//!
//! A journal is the run's ground truth at event granularity: one entry
//! per popped event plus one per routing decision, each carrying the
//! virtual timestamp and what happened. Because every entry is produced
//! from seeded state only, re-running the same `(seed, plan)` must
//! reproduce the journal entry for entry — [`Journal::diff`] turns any
//! divergence into a precise first-mismatch report instead of a shrug.
//!
//! Entries hold the driver's own typed record `R` by value, so
//! journaling a decision is one push of a small `Copy` value. Text is
//! produced only when a journal is printed: by [`Journal::to_jsonl`],
//! [`JournalDivergence::render`] and [`Journal::rendered`], each of
//! which formats a record through its `Display` form. A journal read
//! back from text is a `Journal<String>`, the default record type.

use std::fmt::Display;

use simcore::json::Json;
use simcore::time::SimTime;
use simcore::SprintError;

/// One journaled decision: a virtual timestamp (microseconds) and the
/// record of the event or routing verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry<R = String> {
    /// Virtual time of the decision, in microseconds.
    pub t_us: u64,
    /// What was decided: a driver's typed record, or its rendered text
    /// in a journal read back from a file.
    pub what: R,
}

/// An append-only log of decisions for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journal<R = String> {
    entries: Vec<JournalEntry<R>>,
}

/// The first point at which two journals disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalDivergence<R = String> {
    /// Index of the first mismatching entry.
    pub index: usize,
    /// The entry the reference journal holds there (`None` if it ended).
    pub expected: Option<JournalEntry<R>>,
    /// The entry the other journal holds there (`None` if it ended).
    pub got: Option<JournalEntry<R>>,
}

impl<R: Display> JournalDivergence<R> {
    /// Renders the divergence with up to `context` preceding entries
    /// from the reference journal, for human-readable diff output.
    pub fn render(&self, reference: &Journal<R>, context: usize) -> String {
        let mut out = String::new();
        let start = self.index.saturating_sub(context);
        for (i, e) in reference
            .entries()
            .iter()
            .enumerate()
            .skip(start)
            .take(self.index - start)
        {
            out.push_str(&format!("  [{i}] {:>12}us  {}\n", e.t_us, e.what));
        }
        let fmt = |e: &Option<JournalEntry<R>>| match e {
            Some(e) => format!("{:>12}us  {}", e.t_us, e.what),
            None => "<journal ends>".to_string(),
        };
        out.push_str(&format!(
            "first divergence at entry {}:\n  expected: {}\n  got:      {}\n",
            self.index,
            fmt(&self.expected),
            fmt(&self.got)
        ));
        out
    }
}

impl<R> Default for Journal<R> {
    fn default() -> Self {
        Journal {
            entries: Vec::new(),
        }
    }
}

impl<R> Journal<R> {
    /// An empty journal.
    pub fn new() -> Journal<R> {
        Journal::default()
    }

    /// Appends one decision.
    pub fn push(&mut self, at: SimTime, what: R) {
        self.entries.push(JournalEntry { t_us: at.0, what });
    }

    /// All entries, in decision order.
    pub fn entries(&self) -> &[JournalEntry<R>] {
        &self.entries
    }

    /// Hands over every entry by value, in decision order, leaving the
    /// journal empty but keeping its buffer's capacity.
    pub fn drain(&mut self) -> std::vec::Drain<'_, JournalEntry<R>> {
        self.entries.drain(..)
    }

    /// Number of journaled decisions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<R: PartialEq + Clone> Journal<R> {
    /// Compares against another journal, returning the first divergence
    /// (`None` when every entry is equal).
    pub fn diff(&self, other: &Journal<R>) -> Option<JournalDivergence<R>> {
        let n = self.entries.len().max(other.entries.len());
        for i in 0..n {
            let a = self.entries.get(i);
            let b = other.entries.get(i);
            if a != b {
                return Some(JournalDivergence {
                    index: i,
                    expected: a.cloned(),
                    got: b.cloned(),
                });
            }
        }
        None
    }
}

impl<R: Display> Journal<R> {
    /// Serializes as JSONL: one compact object per entry, one per line
    /// (`{"seq": …, "t_us": …, "what": …}`, `what` being the record's
    /// `Display` form).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (seq, e) in self.entries.iter().enumerate() {
            let obj = Json::Obj(vec![
                ("seq".to_string(), Json::Num(seq as f64)),
                ("t_us".to_string(), Json::Num(e.t_us as f64)),
                ("what".to_string(), Json::Str(e.what.to_string())),
            ]);
            out.push_str(&obj.to_string_pretty().replace('\n', " "));
            out.push('\n');
        }
        out
    }

    /// The text journal: every record replaced by its `Display` form,
    /// which is what [`Journal::to_jsonl`] writes and
    /// [`Journal::parse_jsonl`] reads back.
    pub fn rendered(&self) -> Journal<String> {
        Journal {
            entries: self
                .entries
                .iter()
                .map(|e| JournalEntry {
                    t_us: e.t_us,
                    what: e.what.to_string(),
                })
                .collect(),
        }
    }
}

/// Largest integer a JSON number (an `f64`) holds exactly: 2^53.
const MAX_EXACT_INTEGER: f64 = 9_007_199_254_740_992.0;

/// Reads field `key` of a journal line as a whole number. The JSON
/// parser yields an `f64`, and an `as` cast would silently truncate a
/// fraction, clamp a negative to 0 and saturate a huge value, so each
/// of those is a typed error instead.
fn whole_field(obj: &Json, line: usize, key: &str) -> Result<u64, SprintError> {
    let v = obj.field(key)?.as_f64()?;
    if v.fract() != 0.0 || !(0.0..=MAX_EXACT_INTEGER).contains(&v) {
        return Err(SprintError::invalid(
            "Journal::parse_jsonl",
            format!("line {line}: {key} {v} is not a whole number in [0, 2^53]"),
        ));
    }
    Ok(v as u64)
}

impl Journal<String> {
    /// Parses a JSONL dump produced by [`Journal::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] (directly or via the JSON
    /// parser) if a line is malformed or out of sequence, or its `seq`
    /// or `t_us` is not a whole number in `[0, 2^53]`.
    pub fn parse_jsonl(text: &str) -> Result<Journal, SprintError> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let obj = Json::parse(line)?;
            let seq = whole_field(&obj, i, "seq")?;
            if seq != entries.len() as u64 {
                return Err(SprintError::invalid(
                    "Journal::parse_jsonl",
                    format!("line {i}: seq {seq} != expected {}", entries.len()),
                ));
            }
            let t_us = whole_field(&obj, i, "t_us")?;
            let what = obj.field("what")?.as_str()?.to_string();
            entries.push(JournalEntry { t_us, what });
        }
        Ok(Journal { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reactor;
    use std::fmt;

    fn sample() -> Journal {
        let mut j = Journal::new();
        j.push(SimTime::from_secs(1), "Arrival".to_string());
        j.push(
            SimTime::from_secs(2),
            "Slot { slot: 0, gen: 1 }".to_string(),
        );
        j.push(
            SimTime::from_secs(2),
            "route Watchdog->Controller: Dropped { partitioned: false }".to_string(),
        );
        j
    }

    /// A driver's typed record: an event whose text is its `Debug` form.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Tick(u32),
        Msg { from: u32, to: u32 },
    }

    impl fmt::Display for Ev {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{self:?}")
        }
    }

    /// Drives a reactor to empty, journaling every pop the way the
    /// testbed and fleet drivers do.
    fn drive(reactor: &mut Reactor<Ev>) -> Journal<Ev> {
        let mut journal = Journal::new();
        while let Some((at, ev)) = reactor.pop() {
            journal.push(at, ev);
        }
        journal
    }

    #[test]
    fn jsonl_round_trips() {
        let j = sample();
        let text = j.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        let back = Journal::parse_jsonl(&text).unwrap();
        assert_eq!(j, back);
        assert!(j.diff(&back).is_none());
    }

    #[test]
    fn diff_reports_first_mismatch() {
        let a = sample();
        let mut b = sample();
        b.entries[1].what = "Slot { slot: 1, gen: 1 }".to_string();
        let d = a.diff(&b).expect("must diverge");
        assert_eq!(d.index, 1);
        assert!(d.expected.unwrap().what.contains("slot: 0"));
        assert!(d.got.unwrap().what.contains("slot: 1"));
    }

    #[test]
    fn diff_detects_truncation() {
        let a = sample();
        let mut b = sample();
        b.entries.pop();
        let d = a.diff(&b).expect("must diverge");
        assert_eq!(d.index, 2);
        assert!(d.got.is_none());
        let rendered = d.render(&a, 4);
        assert!(rendered.contains("<journal ends>"));
        assert!(rendered.contains("first divergence at entry 2"));
    }

    #[test]
    fn parse_rejects_out_of_sequence_lines() {
        let mut text = sample().to_jsonl();
        let first = text.lines().next().unwrap().to_string();
        text.push_str(&first);
        text.push('\n');
        assert!(Journal::parse_jsonl(&text).is_err());
    }

    /// Asserts `line` is rejected with a typed error naming `key`.
    fn assert_rejects(line: &str, key: &str) {
        match Journal::parse_jsonl(line) {
            Err(SprintError::InvalidConfig { details, .. }) => {
                assert!(details.contains(key), "{line}: {details}");
            }
            other => panic!("{line}: {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_fractional_numbers() {
        assert_rejects(r#"{"seq": 0.5, "t_us": 7, "what": "x"}"#, "seq");
        assert_rejects(r#"{"seq": 0, "t_us": 7.25, "what": "x"}"#, "t_us");
    }

    #[test]
    fn parse_rejects_negative_numbers() {
        assert_rejects(r#"{"seq": 0, "t_us": -7, "what": "x"}"#, "t_us");
        assert_rejects(r#"{"seq": -1, "t_us": 7, "what": "x"}"#, "seq");
    }

    #[test]
    fn parse_rejects_numbers_past_2_pow_53() {
        assert_rejects(r#"{"seq": 0, "t_us": 1e300, "what": "x"}"#, "t_us");
        assert_rejects(
            r#"{"seq": 0, "t_us": 9007199254740994, "what": "x"}"#,
            "t_us",
        );
        // 2^53 itself is exact and still accepted.
        let j = Journal::parse_jsonl(r#"{"seq": 0, "t_us": 9007199254740992, "what": "x"}"#)
            .expect("2^53 is a whole number");
        assert_eq!(j.entries()[0].t_us, 1 << 53);
    }

    #[test]
    fn popped_events_journal_in_pop_order() {
        let mut r: Reactor<Ev> = Reactor::new();
        r.schedule(SimTime::from_secs(2), Ev::Tick(2));
        r.schedule(SimTime::from_secs(1), Ev::Tick(1));
        r.schedule(SimTime::from_secs(1), Ev::Msg { from: 0, to: 1 });
        let j = drive(&mut r);
        assert_eq!(j.len(), 3);
        assert_eq!(j.entries()[0].what, Ev::Tick(1));
        assert_eq!(j.entries()[1].what, Ev::Msg { from: 0, to: 1 });
        let text = j.rendered();
        assert_eq!(text.entries()[0].what, "Tick(1)");
        assert_eq!(text.entries()[1].what, "Msg { from: 0, to: 1 }");
    }

    #[test]
    fn identical_drives_produce_identical_journals() {
        let run = || {
            let mut r: Reactor<Ev> = Reactor::new();
            for i in 0..16 {
                r.schedule(SimTime::from_secs(i % 5), Ev::Tick(i as u32));
            }
            drive(&mut r)
        };
        let a = run();
        let b = run();
        assert!(a.diff(&b).is_none());
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    /// A typed journal and its text form print the same JSONL, and one
    /// changed typed entry is the divergence both forms report.
    #[test]
    fn typed_and_rendered_journals_agree() {
        let mut r: Reactor<Ev> = Reactor::new();
        for i in 0..8 {
            r.schedule(SimTime::from_secs(i % 3), Ev::Tick(i as u32));
        }
        let typed = drive(&mut r);
        let text = typed.rendered();
        assert_eq!(typed.to_jsonl(), text.to_jsonl());
        assert_eq!(Journal::parse_jsonl(&typed.to_jsonl()).unwrap(), text);

        let mut changed = typed.clone();
        changed.entries[5].what = Ev::Msg { from: 7, to: 7 };
        let d = typed.diff(&changed).expect("typed journals diverge");
        assert_eq!(d.index, 5);
        let d_text = text.diff(&changed.rendered()).expect("text diverges");
        assert_eq!(d_text.index, 5);
        assert_eq!(d.render(&typed, 2), d_text.render(&text, 2));
    }
}
