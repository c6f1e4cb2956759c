//! Journal files: a catalog plan and the decision journal it produced.
//!
//! A journal file is two parts in one text:
//!
//! ```text
//! {"scenario_journal": 2, "plan": "<the plan as canonical TOML>"}
//! {"seq": 0, "t_us": …, "what": "…"}          <- Journal::to_jsonl, one
//! {"seq": 1, "t_us": …, "what": "…"}             entry per line
//! ```
//!
//! The header carries the plan in the catalog's own format, so a file
//! describes its run the way the catalog does, and a run is a pure
//! function of its plan and seed: re-running the header's plan
//! journaled at its committed seed ([`crate::journal`]) must reproduce
//! the body entry for entry. `scenario_run --record <name>` writes such
//! a file and `scenario_run --replay <path>` re-runs and diffs it.
//!
//! Format 2 holds a fleet's entries in the order the run executed them;
//! format 1 sorted them by time and then source, so a format-1 file is
//! rejected by its version rather than reported as a divergence.

use simcore::json::Json;
use simcore::SprintError;
use testbed::Journal;

use crate::plan::ScenarioPlan;

/// Format version in the header's `scenario_journal` field.
const JOURNAL_FILE_FORMAT: u64 = 2;

/// Header keys of journal files that carried a hand-built JSON run
/// spec instead of a catalog plan. That format is retired; such a file
/// is rejected by name rather than as an unknown header.
const RETIRED_HEADERS: [&str; 2] = ["reactor_journal", "fleet_journal"];

/// Renders a journal file: the one-line header carrying `plan` as
/// canonical TOML, then the journal's JSONL body.
///
/// # Errors
///
/// Returns [`SprintError::Parse`] if the plan has no TOML form (cannot
/// happen for a decoded plan).
pub fn journal_file_text(plan: &ScenarioPlan, journal: &Journal) -> Result<String, SprintError> {
    let plan_toml = Json::Str(plan.to_toml_string()?).to_string_pretty();
    let mut out =
        format!("{{\"scenario_journal\": {JOURNAL_FILE_FORMAT}, \"plan\": {plan_toml}}}\n");
    out.push_str(&journal.to_jsonl());
    Ok(out)
}

/// Parses a journal file back into its plan and recorded journal.
///
/// # Errors
///
/// Returns [`SprintError::Parse`] on a malformed header, a retired
/// header, an unknown format version, or a plan that does not parse;
/// a plan that parses but fails validation is
/// [`SprintError::InvalidConfig`]; a malformed body line is whatever
/// [`Journal::parse_jsonl`] returns.
pub fn parse_journal_file(text: &str) -> Result<(ScenarioPlan, Journal), SprintError> {
    let (header_line, body) = text.split_once('\n').unwrap_or((text, ""));
    let header = Json::parse(header_line)
        .map_err(|e| SprintError::Parse(format!("journal file header: {e}")))?;
    if let Some(retired) = RETIRED_HEADERS.iter().find(|k| header.get(k).is_some()) {
        return Err(SprintError::Parse(format!(
            "journal file header `{retired}`: a retired format that carried no catalog \
             plan; re-record the run with `scenario_run --record <name>`"
        )));
    }
    let version = header
        .field("scenario_journal")
        .and_then(Json::as_f64)
        .map_err(|e| SprintError::Parse(format!("journal file header: {e}")))?;
    if version != JOURNAL_FILE_FORMAT as f64 {
        return Err(SprintError::Parse(format!(
            "journal file format {version} unsupported (expected {JOURNAL_FILE_FORMAT})"
        )));
    }
    let plan_toml = header
        .field("plan")
        .and_then(Json::as_str)
        .map_err(|e| SprintError::Parse(format!("journal file header: {e}")))?;
    let plan = ScenarioPlan::from_toml_str(plan_toml)?;
    Ok((plan, Journal::parse_jsonl(body)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{build_fleet_spec, with_server, Faults, TRACE_CAPACITY};
    use crate::{catalog_dir, journal, load_catalog, Topology};
    use fleet::{run_fleet, run_fleet_traced};

    fn committed(name: &str) -> ScenarioPlan {
        load_catalog(catalog_dir())
            .unwrap()
            .into_iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("committed plan {name}"))
    }

    fn recorded_text(plan: &ScenarioPlan) -> String {
        let recorded = journal(plan, plan.seed).unwrap().expect("journaled plan");
        journal_file_text(plan, &recorded).unwrap()
    }

    /// Record to text, parse back, re-run the parsed plan: the header
    /// returns the same plan and the fresh journal shows no diff.
    #[test]
    fn recorded_file_replays_without_divergence() {
        let plan = committed("message-fault-mix");
        let text = recorded_text(&plan);
        let header = text.lines().next().unwrap();
        assert!(
            header.starts_with("{\"scenario_journal\": 2, \"plan\": \"name = "),
            "{header}"
        );
        let (back, recorded) = parse_journal_file(&text).unwrap();
        assert_eq!(back, plan);
        assert_eq!(recorded.len(), text.lines().count() - 1);
        let fresh = journal(&back, back.seed).unwrap().unwrap();
        assert!(recorded.diff(&fresh).is_none());
    }

    /// One entry's `what` changed in the file: the replay diff names
    /// exactly that entry.
    #[test]
    fn tampered_entry_is_the_reported_divergence() {
        let plan = committed("message-fault-mix");
        let text = recorded_text(&plan);
        let target = (text.lines().count() - 1) / 2;
        let tampered: String = text
            .lines()
            .enumerate()
            .map(|(i, line)| {
                // Line 0 is the header; entry k is line k + 1.
                let line = if i == target + 1 {
                    line.replace("\"what\": \"", "\"what\": \"tampered ")
                } else {
                    line.to_string()
                };
                line + "\n"
            })
            .collect();
        assert_ne!(tampered, text);
        let (back, recorded) = parse_journal_file(&tampered).unwrap();
        let fresh = journal(&back, back.seed).unwrap().unwrap();
        let d = recorded.diff(&fresh).expect("tampered file must diverge");
        assert_eq!(d.index, target);
        assert!(d.render(&recorded, 8).contains(&format!("entry {target}")));
        assert!(d.expected.unwrap().what.starts_with("tampered "));
    }

    #[test]
    fn unknown_headers_and_versions_are_typed_errors() {
        let plan = committed("message-fault-mix");
        let text = recorded_text(&plan);
        let body = text.split_once('\n').unwrap().1;
        // Each error names what it rejects. Format 1 sorted fleet bodies
        // by time and source, so its files are refused, not diffed.
        for (header, named) in [
            ("{\"reactor_journal\": 1, \"spec\": {}}", "reactor_journal"),
            ("{\"fleet_journal\": 1, \"spec\": {}}", "fleet_journal"),
            ("{\"scenario_journal\": 1, \"plan\": \"\"}", "format 1 "),
            ("{\"scenario_journal\": 3, \"plan\": \"\"}", "format 3 "),
            ("{\"something_else\": 1}", "scenario_journal"),
            ("not json", "header"),
            ("", "header"),
        ] {
            match parse_journal_file(&format!("{header}\n{body}")) {
                Err(SprintError::Parse(msg)) => assert!(msg.contains(named), "{header:?}: {msg}"),
                other => panic!("header {header:?}: {other:?}"),
            }
        }
    }

    /// FNV-1a 64 of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Pins the journal text across versions: the body of each
    /// journaled catalog plan's `--record` file at its committed seed
    /// must hash to its committed digest, so a change to how entries
    /// are stored, ordered or rendered cannot change a byte of a journal
    /// file unnoticed.
    #[test]
    fn journal_bodies_match_committed_digests() {
        const DIGESTS: [(&str, usize, u64); 12] = [
            ("delayed-budget-telemetry", 889, 0xa618_b207_f581_dc7b),
            ("diurnal-budget-pressure", 1010, 0x642b_fdb9_86ac_8abb),
            ("flash-crowd-single", 890, 0x6371_a503_20ce_92ca),
            ("lost-unsprint-command", 604, 0xfad1_45bf_5bd7_e79b),
            ("message-fault-mix", 690, 0x5fda_4d38_5309_1664),
            ("pareto-heavy-tail", 698, 0xa601_7c69_ff2a_d6b8),
            ("watchdog-partition", 601, 0xf925_6390_bba1_cac3),
            ("fleet-100-node-failover", 31268, 0xf2ee_766a_793e_2201),
            ("fleet-coordinator-crash", 3373, 0x447e_9988_7049_aa6a),
            ("fleet-flash-crowd", 3272, 0xbc90_9a05_f745_937e),
            ("fleet-renewal-storm", 3635, 0xb2c8_a76c_7c17_1ed5),
            ("fleet-split-brain", 3166, 0x7aae_b8cb_f874_0eb5),
        ];
        let plans = load_catalog(catalog_dir()).unwrap();
        let journaled = plans
            .iter()
            .filter(|p| p.topology != Topology::Cloning)
            .count();
        assert_eq!(journaled, DIGESTS.len(), "a journaled plan has no digest");
        let mut mismatches = Vec::new();
        for (name, entries, want) in DIGESTS {
            let plan = committed(name);
            let journal = journal(&plan, plan.seed).unwrap().expect("journaled plan");
            let got = fnv1a(journal.to_jsonl().as_bytes());
            if got != want || journal.len() != entries {
                mismatches.push(format!(
                    "{name}: digest {got:#018x} over {} entries, committed {want:#018x} \
                     over {entries}",
                    journal.len()
                ));
            }
        }
        assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    }

    /// The flight-recorder JSONL of `plan` at its committed seed, traced
    /// or plain. A single-node plan records into a [`TRACE_CAPACITY`]
    /// ring, traced as node 0 the way [`crate::trace_graph`] runs it. A
    /// fleet plan gives its control plane's stream and, traced, each
    /// node's stream after it in node order.
    fn telemetry_text(plan: &ScenarioPlan, traced: bool) -> String {
        match plan.topology {
            Topology::SingleNode => {
                let run = with_server(plan, plan.seed, Faults::Planned, |mut server| {
                    server.attach_recorder(TRACE_CAPACITY);
                    if traced {
                        server.enable_tracing(0);
                    }
                    server.run()
                })
                .unwrap();
                run.telemetry().expect("recorded run").to_jsonl()
            }
            Topology::Fleet => {
                let spec = build_fleet_spec(plan, plan.seed).unwrap();
                if !traced {
                    return run_fleet(&spec).unwrap().telemetry.to_jsonl();
                }
                let run = run_fleet_traced(&spec).unwrap();
                let mut text = run.telemetry.to_jsonl();
                for node in &run.node_telemetries {
                    text.push_str(&node.to_jsonl());
                }
                text
            }
            Topology::Cloning => unreachable!("cloning plans record no telemetry"),
        }
    }

    /// Pins what the observers write, as the journal digests pin the
    /// journal: the traced and the plain recorder stream of each
    /// single-node and fleet catalog plan at its committed seed must
    /// hash to its committed digest, so an event that moves, vanishes
    /// or changes in every run shows here even though two runs of one
    /// build still agree with each other.
    #[test]
    fn telemetry_streams_match_committed_digests() {
        const DIGESTS: [(&str, u64, u64); 12] = [
            (
                "delayed-budget-telemetry",
                0xeeb5_6ab2_20e9_4a00,
                0xcb24_f760_fc6e_f28d,
            ),
            (
                "diurnal-budget-pressure",
                0x359a_429d_6a29_f7b9,
                0xd90c_e6af_d7f5_2a6b,
            ),
            (
                "flash-crowd-single",
                0x30e9_5678_2639_5712,
                0x8e77_2a25_1eab_5881,
            ),
            (
                "lost-unsprint-command",
                0xe0e4_3c69_c79f_2c94,
                0x1759_a598_4ea9_c342,
            ),
            (
                "message-fault-mix",
                0x715f_5235_0eac_0a8f,
                0xe016_f25a_835c_5903,
            ),
            (
                "pareto-heavy-tail",
                0x55b5_ad80_6e9a_72a5,
                0x85d4_9622_6350_d668,
            ),
            (
                "watchdog-partition",
                0xe283_7600_472b_6773,
                0x0aaf_7380_6320_4ea8,
            ),
            (
                "fleet-100-node-failover",
                0xfc65_01d6_dfe9_bcc9,
                0x907d_f7fe_e0de_1fd3,
            ),
            (
                "fleet-coordinator-crash",
                0xa60f_5772_3eb4_cbe6,
                0x67f9_2924_2739_d0b9,
            ),
            (
                "fleet-flash-crowd",
                0x1b33_bae5_6c40_5cea,
                0x737e_1091_d7ef_9c81,
            ),
            (
                "fleet-renewal-storm",
                0x3508_cdb9_d749_c0c5,
                0x8bf4_07b2_5fae_3d5b,
            ),
            (
                "fleet-split-brain",
                0xad9c_e70a_9dc8_0b24,
                0x521a_0479_c43d_f7aa,
            ),
        ];
        let plans = load_catalog(catalog_dir()).unwrap();
        let recorded = plans
            .iter()
            .filter(|p| p.topology != Topology::Cloning)
            .count();
        assert_eq!(recorded, DIGESTS.len(), "a recorded plan has no digest");
        let mut mismatches = Vec::new();
        for (name, traced_want, plain_want) in DIGESTS {
            let plan = committed(name);
            let traced = fnv1a(telemetry_text(&plan, true).as_bytes());
            let plain = fnv1a(telemetry_text(&plan, false).as_bytes());
            if (traced, plain) != (traced_want, plain_want) {
                mismatches.push(format!(
                    "{name}: traced {traced:#018x}, plain {plain:#018x}; committed traced \
                     {traced_want:#018x}, plain {plain_want:#018x}"
                ));
            }
        }
        assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    }

    #[test]
    fn cloning_plans_have_no_journal() {
        let plans = load_catalog(catalog_dir()).unwrap();
        let cloning: Vec<_> = plans
            .iter()
            .filter(|p| p.topology == Topology::Cloning)
            .collect();
        assert!(!cloning.is_empty());
        for plan in cloning {
            assert!(journal(plan, plan.seed).unwrap().is_none(), "{}", plan.name);
        }
    }
}
