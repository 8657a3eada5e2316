//! Shared diagnostic model for the two static-analysis layers.
//!
//! Both the source auditor (`dichotomy-lint`, codes `D0xx`) and the semantic
//! plan linter (`repro lint`, codes `S0xx`) emit the same [`Diagnostic`]
//! shape so one renderer serves the human report, the `--json` document, and
//! the exit-code policy (any [`Severity::Deny`] finding fails the run).
//!
//! The model lives in `dichotomy-common` because it is shared across crate
//! layers: `dichotomy-simnet` produces fault-schedule diagnostics during
//! `FaultPlan::validate`, `dichotomy-core` attaches plan loci during scenario
//! expansion, and the `dichotomy-lint` / `repro` binaries render them.

use crate::json::Value;
use std::fmt;

/// How serious a finding is. Ordering is ascending severity, so
/// `max()`-style folds and sorts do the right thing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, never actionable by itself.
    Note,
    /// Probably a mistake, but the run is still well-defined.
    Warn,
    /// A correctness hazard; the linting command exits nonzero.
    Deny,
}

impl Severity {
    /// Lowercase label used in both the text and JSON renderings.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a finding anchors: a source position (layer 1), a plan position
/// (layer 2), or nowhere in particular (produced before the locus is known —
/// e.g. inside `FaultPlan::validate`, which cannot see the experiment it
/// belongs to; the caller fills the locus in via [`Diagnostic::at_plan`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Locus {
    /// No anchor (yet).
    None,
    /// A file/line position in the workspace source tree.
    Source { file: String, line: u32 },
    /// A position inside an expanded experiment plan. Empty strings mean
    /// "not applicable" (e.g. a plan-wide finding has no row or probe).
    Plan {
        experiment: String,
        row: String,
        probe: String,
    },
}

/// One finding from either analysis layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code, `D0xx` (source auditor) or `S0xx` (plan linter).
    pub code: &'static str,
    /// Severity; [`Severity::Deny`] findings fail the linting command.
    pub severity: Severity,
    /// Anchor for the finding.
    pub locus: Locus,
    /// Human-readable description of this specific finding.
    pub message: String,
    /// Optional remediation hint.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Convenience constructor with no locus and no help text.
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            locus: Locus::None,
            message: message.into(),
            help: None,
        }
    }

    /// Attach a source locus.
    pub fn at_source(mut self, file: impl Into<String>, line: u32) -> Self {
        self.locus = Locus::Source {
            file: file.into(),
            line,
        };
        self
    }

    /// Attach a plan locus. Pass `""` for fields that do not apply.
    pub fn at_plan(
        mut self,
        experiment: impl Into<String>,
        row: impl Into<String>,
        probe: impl Into<String>,
    ) -> Self {
        self.locus = Locus::Plan {
            experiment: experiment.into(),
            row: row.into(),
            probe: probe.into(),
        };
        self
    }

    /// Attach a remediation hint.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Fill in the experiment field of a plan locus (or promote a bare locus
    /// to a plan locus). Diagnostics produced during plan expansion know
    /// their row and probe but not which repro key requested them.
    pub fn for_experiment(mut self, experiment: &str) -> Self {
        match &mut self.locus {
            Locus::Plan {
                experiment: slot, ..
            } => {
                if slot.is_empty() {
                    *slot = experiment.to_string();
                }
            }
            Locus::None => {
                self.locus = Locus::Plan {
                    experiment: experiment.to_string(),
                    row: String::new(),
                    probe: String::new(),
                };
            }
            Locus::Source { .. } => {}
        }
        self
    }

    /// One-line human rendering:
    /// `deny[D001] crates/foo/src/bar.rs:12: message (help: ...)`.
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]", self.severity, self.code);
        match &self.locus {
            Locus::None => {}
            Locus::Source { file, line } => {
                out.push_str(&format!(" {file}:{line}"));
            }
            Locus::Plan {
                experiment,
                row,
                probe,
            } => {
                out.push(' ');
                out.push_str(experiment);
                if !row.is_empty() {
                    out.push_str(&format!(" / row '{row}'"));
                }
                if !probe.is_empty() {
                    out.push_str(&format!(" / probe '{probe}'"));
                }
            }
        }
        out.push_str(": ");
        out.push_str(&self.message);
        if let Some(help) = &self.help {
            out.push_str(&format!(" (help: {help})"));
        }
        out
    }

    /// JSON object rendering: `code`, `severity`, the locus fields, then
    /// `message` and the optional `help`.
    pub fn to_json(&self) -> Value {
        let mut fields: Vec<(&str, Value)> = vec![
            ("code", self.code.into()),
            ("severity", self.severity.label().into()),
        ];
        match &self.locus {
            Locus::None => {}
            Locus::Source { file, line } => {
                fields.push(("file", file.into()));
                fields.push(("line", (*line).into()));
            }
            Locus::Plan {
                experiment,
                row,
                probe,
            } => {
                fields.push(("experiment", experiment.into()));
                if !row.is_empty() {
                    fields.push(("row", row.into()));
                }
                if !probe.is_empty() {
                    fields.push(("probe", probe.into()));
                }
            }
        }
        fields.push(("message", (&self.message).into()));
        if let Some(help) = &self.help {
            fields.push(("help", help.into()));
        }
        Value::object(fields)
    }
}

/// Render a diagnostic list as a JSON array (stable order: input order).
pub fn to_json_array(diags: &[Diagnostic]) -> Value {
    Value::array(diags.iter().map(Diagnostic::to_json))
}

/// The `--json` document of a linting command, newline-terminated: the
/// caller's `header` fields (`generator` first), then the `findings` and
/// `deny` counts and the `diagnostics` array.
pub fn json_document(mut header: Vec<(&str, Value)>, diags: &[Diagnostic]) -> String {
    let denies = diags
        .iter()
        .filter(|d| d.severity == Severity::Deny)
        .count();
    header.push(("findings", diags.len().into()));
    header.push(("deny", denies.into()));
    header.push(("diagnostics", to_json_array(diags)));
    format!("{}\n", Value::object(header))
}

/// True if any finding is deny-level (the exit-1 policy for both linters).
pub fn has_deny(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Deny)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_ascending() {
        assert!(Severity::Note < Severity::Warn);
        assert!(Severity::Warn < Severity::Deny);
    }

    #[test]
    fn render_source_locus() {
        let d = Diagnostic::new("D001", Severity::Deny, "field `x` never encoded")
            .at_source("crates/foo/src/bar.rs", 12)
            .with_help("encode every named field");
        assert_eq!(
            d.render(),
            "deny[D001] crates/foo/src/bar.rs:12: field `x` never encoded \
             (help: encode every named field)"
        );
    }

    #[test]
    fn render_plan_locus() {
        let d = Diagnostic::new("S001", Severity::Warn, "fault past horizon")
            .at_plan("fault01", "crash", "etcd");
        assert_eq!(
            d.render(),
            "warn[S001] fault01 / row 'crash' / probe 'etcd': fault past horizon"
        );
    }

    #[test]
    fn json_escapes_and_shapes() {
        let d = Diagnostic::new("S003", Severity::Note, "dup \"x\"\n").at_plan("fig04", "", "");
        let expected = "{\"code\":\"S003\",\"severity\":\"note\",\"experiment\":\"fig04\",\
                        \"message\":\"dup \\\"x\\\"\\n\"}";
        assert_eq!(d.to_json().to_string(), expected);
        assert_eq!(to_json_array(&[]).to_string(), "[]");
        let deny = Diagnostic::new("D001", Severity::Deny, "d").at_source("a.rs", 3);
        assert_eq!(
            json_document(vec![("generator", "g".into())], &[d, deny]),
            format!(
                "{{\"generator\":\"g\",\"findings\":2,\"deny\":1,\"diagnostics\":[{expected},\
                 {{\"code\":\"D001\",\"severity\":\"deny\",\"file\":\"a.rs\",\"line\":3,\
                 \"message\":\"d\"}}]}}\n"
            )
        );
    }

    #[test]
    fn for_experiment_fills_empty_slot_only() {
        let d = Diagnostic::new("S001", Severity::Warn, "m").for_experiment("fault01");
        assert!(matches!(&d.locus, Locus::Plan { experiment, .. } if experiment == "fault01"));
        let d = d.for_experiment("other");
        assert!(matches!(&d.locus, Locus::Plan { experiment, .. } if experiment == "fault01"));
    }

    #[test]
    fn has_deny_policy() {
        let warn = Diagnostic::new("S001", Severity::Warn, "w");
        let deny = Diagnostic::new("D001", Severity::Deny, "d");
        assert!(!has_deny(std::slice::from_ref(&warn)));
        assert!(has_deny(&[warn, deny]));
    }
}
