//! Dockerfile parser.
//!
//! Supports the instruction subset exercised by the paper's examples and by
//! typical HPC application Dockerfiles: `FROM`, `RUN`, `COPY`, `ADD`, `ENV`,
//! `ARG`, `WORKDIR`, `USER`, `LABEL`, `CMD`, `ENTRYPOINT`, `EXPOSE`,
//! `VOLUME`, comments, and backslash line continuations.

/// One parsed instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instruction {
    /// `FROM image[:tag] [AS name]`
    From {
        /// Image reference.
        image: String,
        /// Optional stage alias.
        alias: Option<String>,
    },
    /// `RUN command`
    Run(String),
    /// `COPY [--from=stage] src... dst`
    Copy {
        /// Source paths (build-context relative, or stage-image relative when
        /// `from` is set).
        sources: Vec<String>,
        /// Destination path in the image.
        dest: String,
        /// `--from=` stage reference (alias or 0-based index), if present.
        from: Option<String>,
    },
    /// `ENV key value` / `ENV key=value`
    Env {
        /// Variable name.
        key: String,
        /// Value.
        value: String,
    },
    /// `ARG name[=default]`
    Arg {
        /// Argument name.
        name: String,
        /// Default value.
        default: Option<String>,
    },
    /// `WORKDIR path`
    Workdir(String),
    /// `USER name`
    User(String),
    /// `LABEL key=value`
    Label {
        /// Label key.
        key: String,
        /// Label value.
        value: String,
    },
    /// `CMD ...`
    Cmd(Vec<String>),
    /// `ENTRYPOINT ...`
    Entrypoint(Vec<String>),
    /// `EXPOSE port`
    Expose(u16),
    /// `VOLUME path`
    Volume(String),
}

/// Parse error with the offending line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line number.
    pub line: usize,
    /// Message.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Source location of one instruction: the physical line range it was parsed
/// from (1-based, inclusive; `start < end` only for continuation lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrSpan {
    /// First physical line of the instruction.
    pub start: usize,
    /// Last physical line of the instruction.
    pub end: usize,
}

/// A parsed Dockerfile.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Dockerfile {
    /// Instructions in order.
    pub instructions: Vec<Instruction>,
    /// Source span of each instruction (parallel to `instructions`).
    pub spans: Vec<InstrSpan>,
}

fn parse_exec_or_shell_form(rest: &str) -> Vec<String> {
    let rest = rest.trim();
    if rest.starts_with('[') && rest.ends_with(']') {
        rest[1..rest.len() - 1]
            .split(',')
            .map(|s| s.trim().trim_matches('"').trim_matches('\'').to_string())
            .filter(|s| !s.is_empty())
            .collect()
    } else {
        vec!["/bin/sh".to_string(), "-c".to_string(), rest.to_string()]
    }
}

impl Dockerfile {
    /// Parses Dockerfile text.
    pub fn parse(text: &str) -> Result<Dockerfile, ParseError> {
        let mut instructions = Vec::new();
        let mut spans = Vec::new();
        // Join continuation lines first, remembering original line ranges.
        let mut logical: Vec<(InstrSpan, String)> = Vec::new();
        let mut pending: Option<(usize, String)> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim_end();
            match pending.take() {
                Some((start, mut acc)) => {
                    let cont = line.trim_start();
                    if let Some(stripped) = cont.strip_suffix('\\') {
                        acc.push(' ');
                        acc.push_str(stripped.trim_end());
                        pending = Some((start, acc));
                    } else {
                        acc.push(' ');
                        acc.push_str(cont);
                        logical.push((
                            InstrSpan {
                                start,
                                end: line_no,
                            },
                            acc,
                        ));
                    }
                }
                None => {
                    let trimmed = line.trim_start();
                    if trimmed.is_empty() || trimmed.starts_with('#') {
                        continue;
                    }
                    if let Some(stripped) = trimmed.strip_suffix('\\') {
                        pending = Some((line_no, stripped.trim_end().to_string()));
                    } else {
                        logical.push((
                            InstrSpan {
                                start: line_no,
                                end: line_no,
                            },
                            trimmed.to_string(),
                        ));
                    }
                }
            }
        }
        if let Some((start, acc)) = pending {
            logical.push((
                InstrSpan {
                    start,
                    end: text.lines().count(),
                },
                acc,
            ));
        }

        for (span, line) in logical {
            let line_no = span.start;
            let (word, rest) = match line.split_once(char::is_whitespace) {
                Some((w, r)) => (w, r.trim()),
                None => (line.as_str(), ""),
            };
            let instr = match word.to_ascii_uppercase().as_str() {
                "FROM" => {
                    let mut parts = rest.split_whitespace();
                    let image = parts.next().map(|s| s.to_string()).ok_or(ParseError {
                        line: line_no,
                        message: "FROM requires an image".to_string(),
                    })?;
                    let alias = match (parts.next(), parts.next()) {
                        (Some(kw), Some(name)) if kw.eq_ignore_ascii_case("as") => {
                            Some(name.to_string())
                        }
                        _ => None,
                    };
                    Instruction::From { image, alias }
                }
                "RUN" => {
                    if rest.is_empty() {
                        return Err(ParseError {
                            line: line_no,
                            message: "RUN requires a command".to_string(),
                        });
                    }
                    let args = parse_exec_or_shell_form(rest);
                    // Normalize exec form back to a shell string.
                    if args.len() >= 3 && args[0] == "/bin/sh" && args[1] == "-c" {
                        Instruction::Run(args[2..].join(" "))
                    } else {
                        Instruction::Run(args.join(" "))
                    }
                }
                "COPY" | "ADD" => {
                    let mut from = None;
                    let mut parts: Vec<String> = Vec::new();
                    for p in rest.split_whitespace() {
                        if let Some(r) = p.strip_prefix("--from=") {
                            if r.is_empty() {
                                return Err(ParseError {
                                    line: line_no,
                                    message: "--from= requires a stage reference".to_string(),
                                });
                            }
                            from = Some(r.to_string());
                        } else if !p.starts_with("--") {
                            parts.push(p.to_string());
                        }
                    }
                    if parts.len() < 2 {
                        return Err(ParseError {
                            line: line_no,
                            message: format!("{} requires source and destination", word),
                        });
                    }
                    let dest = parts.pop().expect("checked length above");
                    Instruction::Copy {
                        sources: parts,
                        dest,
                        from,
                    }
                }
                "ENV" => {
                    let (k, v) = if let Some((k, v)) = rest.split_once('=') {
                        (k.trim(), v.trim())
                    } else if let Some((k, v)) = rest.split_once(char::is_whitespace) {
                        (k.trim(), v.trim())
                    } else {
                        (rest, "")
                    };
                    Instruction::Env {
                        key: k.to_string(),
                        value: v.trim_matches('"').to_string(),
                    }
                }
                "ARG" => {
                    let (name, default) = match rest.split_once('=') {
                        Some((n, d)) => (n.trim().to_string(), Some(d.trim().to_string())),
                        None => (rest.to_string(), None),
                    };
                    Instruction::Arg { name, default }
                }
                "WORKDIR" => Instruction::Workdir(rest.to_string()),
                "USER" => Instruction::User(rest.to_string()),
                "LABEL" => {
                    let (k, v) = rest.split_once('=').unwrap_or((rest, ""));
                    Instruction::Label {
                        key: k.trim().trim_matches('"').to_string(),
                        value: v.trim().trim_matches('"').to_string(),
                    }
                }
                "CMD" => Instruction::Cmd(parse_exec_or_shell_form(rest)),
                "ENTRYPOINT" => Instruction::Entrypoint(parse_exec_or_shell_form(rest)),
                "EXPOSE" => {
                    Instruction::Expose(rest.split('/').next().unwrap_or("0").parse().map_err(
                        |_| ParseError {
                            line: line_no,
                            message: format!("invalid port: {}", rest),
                        },
                    )?)
                }
                "VOLUME" => {
                    Instruction::Volume(rest.trim_matches(['[', ']', '"'].as_ref()).to_string())
                }
                "MAINTAINER" | "SHELL" | "STOPSIGNAL" | "HEALTHCHECK" | "ONBUILD" => continue,
                other => {
                    return Err(ParseError {
                        line: line_no,
                        message: format!("unknown instruction: {}", other),
                    })
                }
            };
            instructions.push(instr);
            spans.push(span);
        }
        Ok(Dockerfile {
            instructions,
            spans,
        })
    }

    /// The base image of the first `FROM`.
    pub fn base_image(&self) -> Option<&str> {
        self.instructions.iter().find_map(|i| match i {
            Instruction::From { image, .. } => Some(image.as_str()),
            _ => None,
        })
    }
}

/// The paper's Figure 2 Dockerfile (`centos7.dockerfile`).
pub fn centos7_dockerfile() -> &'static str {
    "FROM centos:7\nRUN echo hello\nRUN yum install -y openssh\n"
}

/// The paper's Figure 3 Dockerfile (`debian10.dockerfile`).
pub fn debian10_dockerfile() -> &'static str {
    "FROM debian:buster\nRUN echo hello\nRUN apt-get update\nRUN apt-get install -y openssh-client\n"
}

/// The paper's Figure 8 Dockerfile (`centos7-fr.dockerfile`): manually
/// modified to install and use `fakeroot(1)`.
pub fn centos7_fr_dockerfile() -> &'static str {
    "FROM centos:7\n\
     RUN yum install -y epel-release\n\
     RUN yum install -y fakeroot\n\
     RUN echo hello\n\
     RUN fakeroot yum install -y openssh\n"
}

/// The paper's Figure 9 Dockerfile (`debian10-fr.dockerfile`): manually
/// modified to disable the APT sandbox and use `fakeroot(1)` (pseudo).
pub fn debian10_fr_dockerfile() -> &'static str {
    "FROM debian:buster\n\
     RUN echo 'APT::Sandbox::User \"root\"; ' > /etc/apt/apt.conf.d/no-sandbox\n\
     RUN echo hello\n\
     RUN apt-get update\n\
     RUN apt-get install -y pseudo\n\
     RUN fakeroot apt-get install -y openssh-client\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure2_dockerfile() {
        let df = Dockerfile::parse(centos7_dockerfile()).unwrap();
        assert_eq!(df.instructions.len(), 3);
        assert_eq!(df.base_image(), Some("centos:7"));
        let runs = df
            .instructions
            .iter()
            .filter(|i| matches!(i, Instruction::Run(_)))
            .count();
        assert_eq!(runs, 2);
        assert_eq!(
            df.instructions[2],
            Instruction::Run("yum install -y openssh".to_string())
        );
    }

    #[test]
    fn parses_figure9_dockerfile() {
        let df = Dockerfile::parse(debian10_fr_dockerfile()).unwrap();
        let runs = df
            .instructions
            .iter()
            .filter(|i| matches!(i, Instruction::Run(_)))
            .count();
        assert_eq!(runs, 5);
        assert!(matches!(&df.instructions[1], Instruction::Run(c) if c.contains("no-sandbox")));
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let df =
            Dockerfile::parse("# a comment\n\nFROM centos:7\n# another\nRUN echo hi\n").unwrap();
        assert_eq!(df.instructions.len(), 2);
    }

    #[test]
    fn line_continuations_join() {
        let df =
            Dockerfile::parse("FROM centos:7\nRUN yum install -y \\\n    openmpi \\\n    gcc\n")
                .unwrap();
        assert_eq!(
            df.instructions[1],
            Instruction::Run("yum install -y openmpi gcc".to_string())
        );
    }

    #[test]
    fn exec_form_run_normalizes() {
        let df = Dockerfile::parse("FROM centos:7\nRUN [\"/bin/sh\", \"-c\", \"echo hello\"]\n")
            .unwrap();
        assert_eq!(
            df.instructions[1],
            Instruction::Run("echo hello".to_string())
        );
    }

    #[test]
    fn env_workdir_label_cmd() {
        let text = "FROM centos:7\nENV PATH=/opt/bin\nENV MPI_HOME /usr/lib64/openmpi\nWORKDIR /opt/app\nUSER builder\nLABEL version=\"1.2\"\nCMD [\"/bin/sh\", \"-c\", \"mpirun app\"]\nEXPOSE 8080\nVOLUME /scratch\n";
        let df = Dockerfile::parse(text).unwrap();
        assert!(df.instructions.contains(&Instruction::Env {
            key: "PATH".into(),
            value: "/opt/bin".into()
        }));
        assert!(df.instructions.contains(&Instruction::Env {
            key: "MPI_HOME".into(),
            value: "/usr/lib64/openmpi".into()
        }));
        assert!(df
            .instructions
            .contains(&Instruction::Workdir("/opt/app".into())));
        assert!(df
            .instructions
            .contains(&Instruction::User("builder".into())));
        assert!(df.instructions.contains(&Instruction::Expose(8080)));
    }

    #[test]
    fn copy_with_multiple_sources() {
        let df = Dockerfile::parse("FROM centos:7\nCOPY a.c b.c /src/\n").unwrap();
        assert_eq!(
            df.instructions[1],
            Instruction::Copy {
                sources: vec!["a.c".into(), "b.c".into()],
                dest: "/src/".into(),
                from: None,
            }
        );
    }

    #[test]
    fn copy_from_stage_reference() {
        let df = Dockerfile::parse(
            "FROM centos:7 AS builder\nFROM centos:7\nCOPY --from=builder /a /b\n",
        )
        .unwrap();
        assert_eq!(
            df.instructions[2],
            Instruction::Copy {
                sources: vec!["/a".into()],
                dest: "/b".into(),
                from: Some("builder".into()),
            }
        );
        assert!(Dockerfile::parse("FROM c:7\nCOPY --from= /a /b\n").is_err());
    }

    #[test]
    fn spans_track_physical_lines() {
        let text = "# header\nFROM centos:7\n\nRUN yum install -y \\\n    openmpi \\\n    gcc\nRUN echo done\n";
        let df = Dockerfile::parse(text).unwrap();
        assert_eq!(df.spans.len(), df.instructions.len());
        assert_eq!(df.spans[0], InstrSpan { start: 2, end: 2 });
        // The continued RUN spans lines 4-6.
        assert_eq!(df.spans[1], InstrSpan { start: 4, end: 6 });
        assert_eq!(df.spans[2], InstrSpan { start: 7, end: 7 });
    }

    #[test]
    fn from_with_alias() {
        let df = Dockerfile::parse("FROM centos:7 AS builder\n").unwrap();
        assert_eq!(
            df.instructions[0],
            Instruction::From {
                image: "centos:7".into(),
                alias: Some("builder".into())
            }
        );
    }

    #[test]
    fn unknown_instruction_is_an_error() {
        let err = Dockerfile::parse("FROM centos:7\nFRBO x\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown instruction"));
    }

    #[test]
    fn missing_run_body_is_an_error() {
        assert!(Dockerfile::parse("FROM centos:7\nRUN\n").is_err());
    }
}
