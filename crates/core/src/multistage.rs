//! Multi-stage build tests.
//!
//! HPC application images are usually produced by a heavyweight compile
//! environment (compilers, MPI, Spack trees — the stack of the paper's
//! §5.3.3 production pipeline) followed by a much smaller runtime image.
//! Docker expresses this as multi-stage Dockerfiles: several `FROM` blocks,
//! with later stages pulling artifacts out of earlier ones via
//! `COPY --from=<stage>`. These tests build such Dockerfiles through
//! [`Builder::build`](crate::Builder::build) and check the per-stage
//! reports, plan-time rejections, skipped stages and cross-stage cache
//! hits.

mod tests {
    use crate::{BuildError, BuildOptions, Builder};
    use hpcc_kernel::{Credentials, UserNamespace};
    use hpcc_runtime::Invoker;
    use hpcc_vfs::Actor;

    const TWO_STAGE: &str = "\
FROM centos:7 AS builder
RUN echo compiling application
RUN mkdir -p /opt/app/bin && echo binary > /opt/app/bin/app

FROM centos:7
COPY --from=builder /opt/app/bin/app /usr/local/bin/app
RUN echo runtime image ready
";

    fn alice() -> Invoker {
        Invoker::user("alice", 1000, 1000)
    }

    fn root_actor() -> (Credentials, UserNamespace) {
        (Credentials::host_root(), UserNamespace::initial())
    }

    #[test]
    fn two_stage_build_copies_artifact_between_stages() {
        let mut b = Builder::ch_image(alice());
        let report = b.build(TWO_STAGE, &BuildOptions::new("app"), None);
        assert!(
            report.success,
            "{:?}",
            report.stages.last().map(|r| r.transcript_text())
        );
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.tag, "app");
        assert!(report.error.is_none());
        // The final image contains the artifact produced in the first stage.
        let built = b.image("app").unwrap();
        let (creds, ns) = root_actor();
        let actor = Actor::new(&creds, &ns);
        assert!(built.fs.exists(&actor, "/usr/local/bin/app"));
        // Intermediate stages stay out of the builder's tag namespace.
        assert_eq!(b.tags(), vec!["app".to_string()]);
    }

    #[test]
    fn parse_errors_are_typed_not_smuggled() {
        let mut b = Builder::ch_image(alice());
        let report = b.build(
            "RUN echo hi\nFROM centos:7\n",
            &BuildOptions::new("x"),
            None,
        );
        assert!(!report.success);
        assert!(b.image("x").is_none(), "a failed build stores no image");
        assert_eq!(
            report.error,
            Some(BuildError::BeforeFirstFrom {
                instruction: "RUN".into()
            })
        );
        let report = b.build("# comment only\n", &BuildOptions::new("x"), None);
        assert_eq!(report.error, Some(BuildError::NoStages));
    }

    #[test]
    fn copy_from_unknown_stage_fails_at_plan_time() {
        let text = "FROM centos:7 AS a\nRUN echo x\n\nFROM centos:7\nCOPY --from=missing /x /y\n";
        let mut b = Builder::ch_image(alice());
        let report = b.build(text, &BuildOptions::new("bad"), None);
        assert!(!report.success);
        // Nothing executed: the reference error surfaced before any stage ran.
        assert!(report.stages.is_empty());
        assert!(report.error_text().unwrap().contains("unknown build stage"));
    }

    #[test]
    fn forward_reference_is_rejected_at_plan_time() {
        let text = "FROM centos:7 AS a\nCOPY --from=1 /x /y\n\nFROM centos:7\nRUN echo x\n";
        let mut b = Builder::ch_image(alice());
        let report = b.build(text, &BuildOptions::new("bad"), None);
        assert!(!report.success);
        assert!(matches!(
            report.error,
            Some(BuildError::ForwardReference { stage: 0, .. })
        ));
    }

    #[test]
    fn copy_from_missing_path_fails_in_executing_stage() {
        let text = "FROM centos:7 AS a\nRUN echo x\n\nFROM centos:7\nCOPY --from=a /nope /y\n";
        let mut b = Builder::ch_image(alice());
        let report = b.build(text, &BuildOptions::new("bad"), None);
        assert!(!report.success);
        assert!(report
            .error_text()
            .unwrap()
            .contains("not found in stage image"));
        // Stage 0 ran fine; stage 1 carries the failure.
        assert_eq!(report.stages.len(), 2);
        assert!(report.stages[0].success);
        assert!(!report.stages[1].success);
    }

    #[test]
    fn diamond_stages_share_cache_within_one_build() {
        // Stage `c` depends on `b`, so it executes strictly after it — and
        // its FROM + RUN prefix is byte-identical to `b`'s, so both hit the
        // cache entries `b` stored moments earlier in the same build.
        let text = "\
FROM centos:7 AS b
RUN yum install -y gcc
RUN mkdir -p /opt/out && echo b > /opt/out/b

FROM centos:7
RUN yum install -y gcc
COPY --from=b /opt/out/b /opt/in/b
RUN echo done
";
        let mut b = Builder::ch_image(alice());
        let report = b.build(text, &BuildOptions::new("app").with_cache(), None);
        assert!(report.success, "{:?}", report.error);
        let final_stage = report.stages.last().unwrap();
        assert!(
            final_stage.cache_hits >= 2,
            "FROM and RUN should hit stage b's fresh entries, got {} hits\n{}",
            final_stage.cache_hits,
            final_stage.transcript_text()
        );
        assert!(final_stage.transcript_text().contains("(cached)"));
    }

    #[test]
    fn skipped_stages_report_the_failed_dependency() {
        // Stage 0 fails (unknown base image), so stages 1 and 2 never run
        // and each records a DependencyFailed pointing at stage 0.
        let text = "\
FROM alpine:3.14 AS broken
RUN echo never

FROM broken AS child
RUN echo never

FROM centos:7
COPY --from=child /x /y
";
        let mut b = Builder::ch_image(alice());
        let report = b.build(text, &BuildOptions::new("bad"), None);
        assert!(!report.success);
        assert_eq!(report.stages.len(), 1);
        assert_eq!(
            report.skipped,
            vec![
                BuildError::DependencyFailed {
                    stage: 1,
                    dependency: 0
                },
                BuildError::DependencyFailed {
                    stage: 2,
                    dependency: 1
                },
            ]
        );
    }

    #[test]
    fn cache_is_keyed_by_architecture() {
        // The same Dockerfile built for two architectures must not share
        // cache entries: the second build would otherwise adopt the first
        // architecture's filesystem and config.
        let mut b = Builder::ch_image(alice());
        let df = "FROM centos:7\nRUN echo hi\n";
        let first = b.build(df, &BuildOptions::new("x").with_cache(), None);
        assert!(first.success);
        let second = b.build(
            df,
            &BuildOptions::new("y").with_cache().with_arch("aarch64"),
            None,
        );
        assert!(second.success);
        assert_eq!(second.cache_hits, 0, "{}", second.transcript_text());
        assert_eq!(b.image("y").unwrap().config.architecture, "aarch64");
    }

    #[test]
    fn cached_rebuild_hits_every_stage() {
        let mut b = Builder::ch_image(alice());
        let opts = BuildOptions::new("app").with_cache();
        let first = b.build(TWO_STAGE, &opts, None);
        assert!(first.success);
        let second = b.build(TWO_STAGE, &opts, None);
        assert!(second.success);
        for stage in &second.stages {
            assert_eq!(
                stage.cache_misses,
                0,
                "stage {} missed: {}",
                stage.tag,
                stage.transcript_text()
            );
        }
    }
}
