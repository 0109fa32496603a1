//! Build errors.
//!
//! One error type spans the whole pipeline — front end ([`crate::ir`]),
//! planner ([`crate::graph`]), and executor (`crate::executor`) — so every
//! way of running a build reports failures the same way instead of
//! smuggling strings through unrelated fields.

use crate::dockerfile::ParseError;

/// An error from parsing, planning, or executing a build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The Dockerfile text failed to parse.
    Parse(ParseError),
    /// The Dockerfile contains no `FROM` instruction.
    NoStages,
    /// A non-`ARG` instruction appears before the first `FROM`.
    BeforeFirstFrom {
        /// The offending instruction's keyword (e.g. `RUN`).
        instruction: String,
    },
    /// `COPY --from=` or `FROM` names a stage that does not exist.
    UnknownStage {
        /// Stage index where the reference appears.
        stage: usize,
        /// The unresolved reference text.
        reference: String,
    },
    /// A stage references a *later* stage, which cannot have been built yet.
    ForwardReference {
        /// Stage index where the reference appears.
        stage: usize,
        /// The offending reference text.
        reference: String,
    },
    /// A stage references itself.
    SelfReference {
        /// Stage index where the reference appears.
        stage: usize,
        /// The offending reference text.
        reference: String,
    },
    /// Two stages declare the same `AS <alias>`, making references to it
    /// ambiguous.
    DuplicateAlias {
        /// The later stage re-declaring the alias.
        stage: usize,
        /// The duplicated alias.
        alias: String,
    },
    /// The stage graph contains a dependency cycle (defensive: backward-only
    /// edges cannot form one today, but the planner checks anyway).
    Cycle {
        /// Stage indices left unschedulable by the cycle.
        stages: Vec<usize>,
    },
    /// A stage was skipped because one of its dependencies failed or was
    /// skipped.
    DependencyFailed {
        /// The stage that never ran.
        stage: usize,
        /// The lowest-index dependency of `stage` that failed or was
        /// skipped.
        dependency: usize,
    },
    /// An instruction failed while executing.
    Execution {
        /// Stage index the failure occurred in.
        stage: usize,
        /// Human-readable failure message (transcript style).
        message: String,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Parse(e) => write!(f, "{}", e),
            BuildError::NoStages => write!(f, "Dockerfile has no FROM"),
            BuildError::BeforeFirstFrom { instruction } => {
                write!(f, "instruction before first FROM: {}", instruction)
            }
            BuildError::UnknownStage { reference, .. } => {
                write!(f, "unknown build stage: {}", reference)
            }
            BuildError::ForwardReference { stage, reference } => write!(
                f,
                "stage {}: --from={} references a later stage",
                stage, reference
            ),
            BuildError::SelfReference { stage, reference } => {
                write!(f, "stage {}: --from={} references itself", stage, reference)
            }
            BuildError::DuplicateAlias { stage, alias } => {
                write!(f, "stage {}: duplicate stage alias: {}", stage, alias)
            }
            BuildError::Cycle { stages } => {
                write!(f, "stage graph contains a cycle through {:?}", stages)
            }
            BuildError::DependencyFailed { stage, dependency } => write!(
                f,
                "stage {} skipped: dependency stage {} failed",
                stage, dependency
            ),
            BuildError::Execution { message, .. } => write!(f, "{}", message),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for BuildError {
    fn from(e: ParseError) -> Self {
        BuildError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_transcript_style() {
        assert_eq!(BuildError::NoStages.to_string(), "Dockerfile has no FROM");
        assert_eq!(
            BuildError::UnknownStage {
                stage: 1,
                reference: "missing".into()
            }
            .to_string(),
            "unknown build stage: missing"
        );
        let e = BuildError::Execution {
            stage: 0,
            message: "error: build failed: RUN command exited with 1".into(),
        };
        assert!(e.to_string().contains("exited with 1"));
    }

    #[test]
    fn parse_error_wraps_with_source() {
        let p = ParseError {
            line: 3,
            message: "unknown instruction: FRBO".into(),
        };
        let e: BuildError = p.clone().into();
        assert_eq!(e.to_string(), p.to_string());
        assert!(std::error::Error::source(&e).is_some());
    }
}
