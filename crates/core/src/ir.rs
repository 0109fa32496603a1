//! Stage-aware intermediate representation of a Dockerfile.
//!
//! [`crate::dockerfile::Dockerfile::parse`] is the *only* tokenizer; this
//! module lowers its flat instruction list into a [`BuildIr`] — stages split
//! on `FROM` boundaries, with aliases, per-instruction source spans, and the
//! raw `COPY --from=` references that the planner ([`crate::graph`]) resolves
//! into DAG edges. The multi-stage path used to re-tokenize the Dockerfile
//! text with its own line-based parser; that duplicate is gone.

use std::collections::BTreeMap;

use crate::dockerfile::{Dockerfile, InstrSpan, Instruction};
use crate::error::BuildError;

/// One stage of a (possibly multi-stage) Dockerfile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrStage {
    /// 0-based stage index, in order of appearance.
    pub index: usize,
    /// `FROM ... AS <alias>` alias, if present.
    pub alias: Option<String>,
    /// The raw `FROM` reference (base image, local tag, or earlier stage
    /// alias — resolved by the planner, not here).
    pub base: String,
    /// The stage's instructions; element 0 is always the `FROM`.
    pub instructions: Vec<Instruction>,
    /// Source span of each instruction (parallel to `instructions`).
    pub spans: Vec<InstrSpan>,
}

impl IrStage {
    /// Raw `--from=` references made by this stage's `COPY` instructions,
    /// with the index of the instruction making each.
    pub fn copy_from_refs(&self) -> Vec<(usize, &str)> {
        self.instructions
            .iter()
            .enumerate()
            .filter_map(|(i, instr)| match instr {
                Instruction::Copy { from: Some(r), .. } => Some((i, r.as_str())),
                _ => None,
            })
            .collect()
    }
}

/// The stage-aware IR: what the planner and executor consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildIr {
    /// `ARG` instructions appearing before the first `FROM` (Docker's global
    /// build args). Recorded but not executed.
    pub global_args: Vec<Instruction>,
    /// Stages in order of appearance.
    pub stages: Vec<IrStage>,
}

impl BuildIr {
    /// Parses Dockerfile text straight to IR (single tokenizer:
    /// [`Dockerfile::parse`]), with no per-build `ARG` overrides.
    pub fn parse(text: &str) -> Result<BuildIr, BuildError> {
        BuildIr::parse_with_args(text, &BTreeMap::new())
    }

    /// Like [`BuildIr::parse`], but with `--build-arg`-style overrides: a
    /// value in `build_args` overrides the default of any *declared* `ARG`
    /// of that name (overrides for undeclared names are ignored, as Docker
    /// does).
    pub fn parse_with_args(
        text: &str,
        build_args: &BTreeMap<String, String>,
    ) -> Result<BuildIr, BuildError> {
        let df = Dockerfile::parse(text)?;
        BuildIr::from_dockerfile_with_args(&df, build_args)
    }

    /// Lowers a parsed [`Dockerfile`] into stages.
    ///
    /// `ARG` substitution happens here, at lowering time, so the planner
    /// sees concrete `FROM` references and the executor's cache keys bind to
    /// the *substituted* instruction text (a rebuild with different
    /// `--build-arg` values can never hit a stale entry):
    ///
    /// * global `ARG`s (before the first `FROM`) substitute into `FROM`
    ///   image references — Docker's "ARG before FROM" semantics — but are
    ///   **not** visible inside a stage unless redeclared there (`ARG NAME`
    ///   with no default inherits the global value), exactly as Docker
    ///   scopes them;
    /// * `ARG`s declared inside a stage join that stage's scope from that
    ///   instruction on, shadowing any global of the same name, and every
    ///   `FROM` starts an empty stage scope;
    /// * `RUN` commands, `ENV` values, and `COPY` sources/destination are
    ///   substituted against the scope in effect;
    /// * values from `build_args` override declared defaults (global or
    ///   stage-local).
    pub fn from_dockerfile_with_args(
        df: &Dockerfile,
        build_args: &BTreeMap<String, String>,
    ) -> Result<BuildIr, BuildError> {
        let mut global_args = Vec::new();
        let mut arg_values: BTreeMap<String, String> = BTreeMap::new();
        // Per-stage scope, reset to empty at each FROM: globals must be
        // redeclared inside the stage to become visible (Docker semantics).
        let mut stage_args: BTreeMap<String, String> = BTreeMap::new();
        let mut stages: Vec<IrStage> = Vec::new();
        let effective = |name: &str, default: &Option<String>| -> Option<String> {
            build_args.get(name).or(default.as_ref()).cloned()
        };
        for (i, instruction) in df.instructions.iter().enumerate() {
            let span = df
                .spans
                .get(i)
                .copied()
                .unwrap_or(InstrSpan { start: 0, end: 0 });
            if let Instruction::From { image, alias } = instruction {
                let image = substitute_args(image, &arg_values);
                stage_args = BTreeMap::new();
                stages.push(IrStage {
                    index: stages.len(),
                    alias: alias.clone(),
                    base: image.clone(),
                    instructions: vec![Instruction::From {
                        image,
                        alias: alias.clone(),
                    }],
                    spans: vec![span],
                });
                continue;
            }
            match stages.last_mut() {
                Some(stage) => {
                    let lowered = match instruction {
                        Instruction::Arg { name, default } => {
                            // Redeclaration: override > stage default >
                            // global value (a default-less `ARG NAME`
                            // inherits the global declaration, as Docker's
                            // scoping rules specify).
                            let value =
                                effective(name, default).or_else(|| arg_values.get(name).cloned());
                            if let Some(value) = value {
                                stage_args.insert(name.clone(), value);
                            }
                            instruction.clone()
                        }
                        Instruction::Run(cmd) => {
                            Instruction::Run(substitute_args(cmd, &stage_args))
                        }
                        Instruction::Env { key, value } => Instruction::Env {
                            key: key.clone(),
                            value: substitute_args(value, &stage_args),
                        },
                        Instruction::Copy {
                            sources,
                            dest,
                            from,
                        } => Instruction::Copy {
                            sources: sources
                                .iter()
                                .map(|s| substitute_args(s, &stage_args))
                                .collect(),
                            dest: substitute_args(dest, &stage_args),
                            from: from.clone(),
                        },
                        other => other.clone(),
                    };
                    stage.instructions.push(lowered);
                    stage.spans.push(span);
                }
                None => {
                    // Docker permits global ARGs before the first FROM;
                    // anything else there is an error.
                    if let Instruction::Arg { name, default } = instruction {
                        if let Some(value) = effective(name, default) {
                            arg_values.insert(name.clone(), value);
                        }
                        global_args.push(instruction.clone());
                    } else {
                        return Err(BuildError::BeforeFirstFrom {
                            instruction: keyword(instruction).to_string(),
                        });
                    }
                }
            }
        }
        if stages.is_empty() {
            return Err(BuildError::NoStages);
        }
        Ok(BuildIr {
            global_args,
            stages,
        })
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Resolves a stage reference — an alias (`builder`) or a 0-based index
    /// (`0`) — to a stage index, without any position validation (the planner
    /// enforces backward-only references).
    pub fn resolve_stage(&self, reference: &str) -> Option<usize> {
        if let Ok(idx) = reference.parse::<usize>() {
            return (idx < self.stages.len()).then_some(idx);
        }
        self.stages
            .iter()
            .find(|s| s.alias.as_deref() == Some(reference))
            .map(|s| s.index)
    }
}

/// Substitutes `${NAME}` and `$NAME` references in `reference` with values
/// from `args`. Unknown names are left verbatim so the error surfaces later
/// as an unknown image reference instead of a silent empty string.
pub fn substitute_args(reference: &str, args: &BTreeMap<String, String>) -> String {
    let bytes = reference.as_bytes();
    let mut out = String::with_capacity(reference.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'$' {
            let start = i;
            while i < bytes.len() && bytes[i] != b'$' {
                i += 1;
            }
            // '$' is ASCII, so these are valid UTF-8 boundaries.
            out.push_str(&reference[start..i]);
            continue;
        }
        let braced = i + 1 < bytes.len() && bytes[i + 1] == b'{';
        let name_start = if braced { i + 2 } else { i + 1 };
        let mut j = name_start;
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        let name = &reference[name_start..j];
        let closed = !braced || (j < bytes.len() && bytes[j] == b'}');
        if name.is_empty() || !closed {
            out.push('$');
            i += 1;
            continue;
        }
        match args.get(name) {
            Some(value) => {
                out.push_str(value);
                i = if braced { j + 1 } else { j };
            }
            None => {
                out.push('$');
                i += 1;
            }
        }
    }
    out
}

fn keyword(instruction: &Instruction) -> &'static str {
    match instruction {
        Instruction::From { .. } => "FROM",
        Instruction::Run(_) => "RUN",
        Instruction::Copy { .. } => "COPY",
        Instruction::Env { .. } => "ENV",
        Instruction::Arg { .. } => "ARG",
        Instruction::Workdir(_) => "WORKDIR",
        Instruction::User(_) => "USER",
        Instruction::Label { .. } => "LABEL",
        Instruction::Cmd(_) => "CMD",
        Instruction::Entrypoint(_) => "ENTRYPOINT",
        Instruction::Expose(_) => "EXPOSE",
        Instruction::Volume(_) => "VOLUME",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_STAGE: &str = "\
FROM centos:7 AS builder
RUN echo compiling
RUN mkdir -p /opt/app/bin && echo binary > /opt/app/bin/app

FROM centos:7
COPY --from=builder /opt/app/bin/app /usr/local/bin/app
RUN echo runtime ready
";

    #[test]
    fn splits_stages_and_extracts_copy_from() {
        let ir = BuildIr::parse(TWO_STAGE).unwrap();
        assert_eq!(ir.stage_count(), 2);
        assert!(ir.stage_count() > 1);
        assert_eq!(ir.stages[0].alias.as_deref(), Some("builder"));
        assert_eq!(ir.stages[0].base, "centos:7");
        assert_eq!(ir.stages[1].copy_from_refs(), vec![(1, "builder")]);
        assert_eq!(ir.resolve_stage("builder"), Some(0));
        assert_eq!(ir.resolve_stage("0"), Some(0));
        assert_eq!(ir.resolve_stage("1"), Some(1));
        assert_eq!(ir.resolve_stage("2"), None);
        assert_eq!(ir.resolve_stage("missing"), None);
    }

    #[test]
    fn single_stage_keeps_all_instructions() {
        let ir = BuildIr::parse("FROM centos:7\nRUN echo hi\nENV A=b\n").unwrap();
        assert_eq!(ir.stage_count(), 1);
        assert_eq!(ir.stages[0].instructions.len(), 3);
        assert_eq!(ir.stages[0].spans.len(), 3);
        assert!(matches!(
            ir.stages[0].instructions[0],
            Instruction::From { .. }
        ));
    }

    #[test]
    fn instruction_before_first_from_is_an_error() {
        assert_eq!(
            BuildIr::parse("RUN echo hi\nFROM centos:7\n").unwrap_err(),
            BuildError::BeforeFirstFrom {
                instruction: "RUN".into()
            }
        );
        assert_eq!(
            BuildIr::parse("# comment only\n").unwrap_err(),
            BuildError::NoStages
        );
    }

    #[test]
    fn global_args_before_first_from_are_kept_aside() {
        let ir = BuildIr::parse("ARG VERSION=1\nFROM centos:7\nRUN echo hi\n").unwrap();
        assert_eq!(ir.global_args.len(), 1);
        assert_eq!(ir.stages[0].instructions.len(), 2);
    }

    #[test]
    fn global_arg_substitutes_into_from_reference() {
        let ir = BuildIr::parse("ARG BASE=centos:7\nFROM ${BASE}\nRUN echo hi\n").unwrap();
        assert_eq!(ir.stages[0].base, "centos:7");
        // The stored FROM instruction carries the substituted reference too,
        // so cache keys and transcripts bind to the concrete image.
        assert_eq!(
            ir.stages[0].instructions[0],
            Instruction::From {
                image: "centos:7".into(),
                alias: None
            }
        );
        // Unbraced form and partial substitution.
        let ir = BuildIr::parse("ARG TAG=7\nFROM centos:$TAG\n").unwrap();
        assert_eq!(ir.stages[0].base, "centos:7");
        // ARG without a default (or unknown name) leaves the reference as-is.
        let ir = BuildIr::parse("ARG BASE\nFROM ${BASE}\n").unwrap();
        assert_eq!(ir.stages[0].base, "${BASE}");
    }

    #[test]
    fn substitute_args_edge_cases() {
        let mut args = BTreeMap::new();
        args.insert("BASE".to_string(), "centos".to_string());
        args.insert("TAG".to_string(), "7".to_string());
        assert_eq!(substitute_args("${BASE}:${TAG}", &args), "centos:7");
        assert_eq!(substitute_args("$BASE:$TAG", &args), "centos:7");
        assert_eq!(substitute_args("plain:ref", &args), "plain:ref");
        // Unknown name, unterminated brace, trailing dollar: all verbatim.
        assert_eq!(substitute_args("${NOPE}", &args), "${NOPE}");
        assert_eq!(substitute_args("${BASE", &args), "${BASE");
        assert_eq!(substitute_args("x$", &args), "x$");
    }

    #[test]
    fn args_substitute_into_run_env_copy_operands() {
        // Globals are redeclared inside the stage (Docker scoping); the
        // default-less redeclarations inherit the global defaults.
        let df = "\
ARG PKG=openssh
ARG PREFIX=/opt
FROM centos:7
ARG PKG
ARG PREFIX
ARG EXTRA=vim
RUN yum install -y ${PKG} $EXTRA
ENV TOOLDIR=${PREFIX}/tools
COPY ${PKG}.conf ${PREFIX}/etc/
";
        let ir = BuildIr::parse(df).unwrap();
        let instrs = &ir.stages[0].instructions;
        assert_eq!(
            instrs[4],
            Instruction::Run("yum install -y openssh vim".into())
        );
        assert_eq!(
            instrs[5],
            Instruction::Env {
                key: "TOOLDIR".into(),
                value: "/opt/tools".into()
            }
        );
        assert_eq!(
            instrs[6],
            Instruction::Copy {
                sources: vec!["openssh.conf".into()],
                dest: "/opt/etc/".into(),
                from: None,
            }
        );
    }

    #[test]
    fn global_args_invisible_in_stage_without_redeclaration() {
        // The documented gap vs Docker is closed: a global ARG substitutes
        // into FROM but is NOT visible inside the stage unless redeclared.
        let df = "\
ARG BASE=centos:7
ARG PKG=openssh
FROM ${BASE}
RUN yum install -y ${PKG}
";
        let ir = BuildIr::parse(df).unwrap();
        assert_eq!(ir.stages[0].base, "centos:7");
        assert_eq!(
            ir.stages[0].instructions[1],
            Instruction::Run("yum install -y ${PKG}".into()),
            "undeclared use stays verbatim"
        );
        // Even a --build-arg override cannot reach an unredeclared name.
        let mut ov = BTreeMap::new();
        ov.insert("PKG".to_string(), "gcc".to_string());
        let ir = BuildIr::parse_with_args(df, &ov).unwrap();
        assert_eq!(
            ir.stages[0].instructions[1],
            Instruction::Run("yum install -y ${PKG}".into())
        );
    }

    #[test]
    fn stage_redeclaration_inherits_and_shadows_global() {
        let df = "\
ARG PKG=openssh
FROM centos:7 AS first
ARG PKG
RUN echo ${PKG}
FROM centos:7
ARG PKG=vim
RUN echo ${PKG}
";
        let ir = BuildIr::parse(df).unwrap();
        // Default-less redeclaration inherits the global default.
        assert_eq!(
            ir.stages[0].instructions[2],
            Instruction::Run("echo openssh".into())
        );
        // A stage default shadows the global one.
        assert_eq!(
            ir.stages[1].instructions[2],
            Instruction::Run("echo vim".into())
        );
        // An override beats both the stage and global defaults.
        let mut ov = BTreeMap::new();
        ov.insert("PKG".to_string(), "tmux".to_string());
        let ir = BuildIr::parse_with_args(df, &ov).unwrap();
        assert_eq!(
            ir.stages[0].instructions[2],
            Instruction::Run("echo tmux".into())
        );
        assert_eq!(
            ir.stages[1].instructions[2],
            Instruction::Run("echo tmux".into())
        );
    }

    #[test]
    fn arg_scoping_survives_planning() {
        // Parse → plan: ARG-substituted FROMs and aliases still produce a
        // valid DAG, and the unredeclared global never leaks into stage
        // instructions that the planner walks for COPY --from references.
        let df = "\
ARG BASE=centos:7
FROM ${BASE} AS builder
ARG OUT=/opt/app
RUN mkdir -p ${OUT}
FROM ${BASE}
COPY --from=builder /opt/app /opt/app
RUN echo ${OUT}
";
        let ir = BuildIr::parse(df).unwrap();
        assert_eq!(ir.stages[0].base, "centos:7");
        assert_eq!(ir.stages[1].base, "centos:7");
        assert_eq!(
            ir.stages[0].instructions[2],
            Instruction::Run("mkdir -p /opt/app".into())
        );
        // OUT was stage-0-local: stage 1 sees it verbatim.
        assert_eq!(
            ir.stages[1].instructions[2],
            Instruction::Run("echo ${OUT}".into())
        );
        let graph = crate::graph::BuildGraph::plan(&ir).expect("plans");
        assert_eq!(graph.stage_count(), 2);
    }

    #[test]
    fn build_arg_overrides_replace_declared_defaults_only() {
        let df =
            "ARG PKG=openssh\nFROM centos:7\nARG PKG\nRUN yum install -y ${PKG} ${UNDECLARED}\n";
        let mut overrides = BTreeMap::new();
        overrides.insert("PKG".to_string(), "gcc".to_string());
        // Overrides for undeclared ARGs are ignored (Docker semantics).
        overrides.insert("UNDECLARED".to_string(), "nope".to_string());
        let ir = BuildIr::parse_with_args(df, &overrides).unwrap();
        assert_eq!(
            ir.stages[0].instructions[2],
            Instruction::Run("yum install -y gcc ${UNDECLARED}".into())
        );
        // An override can supply a value for a default-less declared ARG.
        let df2 = "FROM centos:7\nARG TARGET\nRUN echo building for ${TARGET}\n";
        let mut ov2 = BTreeMap::new();
        ov2.insert("TARGET".to_string(), "aarch64".to_string());
        let ir2 = BuildIr::parse_with_args(df2, &ov2).unwrap();
        assert_eq!(
            ir2.stages[0].instructions[2],
            Instruction::Run("echo building for aarch64".into())
        );
        // Without the override the default-less reference stays verbatim.
        let ir3 = BuildIr::parse(df2).unwrap();
        assert_eq!(
            ir3.stages[0].instructions[2],
            Instruction::Run("echo building for ${TARGET}".into())
        );
    }

    #[test]
    fn stage_scope_resets_at_from_boundaries() {
        // A stage-local ARG does not leak into the next stage, and the
        // global BASE is invisible inside both stages (never redeclared).
        let df = "\
ARG BASE=centos:7
FROM ${BASE} AS builder
ARG LOCAL=one
RUN echo ${LOCAL} ${BASE}
FROM ${BASE}
RUN echo ${LOCAL} ${BASE}
";
        let ir = BuildIr::parse(df).unwrap();
        assert_eq!(
            ir.stages[0].instructions[2],
            Instruction::Run("echo one ${BASE}".into())
        );
        assert_eq!(
            ir.stages[1].instructions[1],
            Instruction::Run("echo ${LOCAL} ${BASE}".into())
        );
    }

    #[test]
    fn spans_survive_lowering() {
        let ir = BuildIr::parse(TWO_STAGE).unwrap();
        // Stage 1's FROM is on physical line 5.
        assert_eq!(ir.stages[1].spans[0].start, 5);
        assert_eq!(ir.stages[1].spans[1].start, 6);
    }
}
