//! Driver agreement: every way of running a build returns the same report
//! and the same image. These are metamorphic checks — no oracle, only a
//! relation between runs of one build under different drivers:
//!
//! * serial stages and threaded stages, each on a fresh `Builder`;
//! * a reused `Builder` that has already built every earlier case;
//! * a one-worker `BuildFarm` whose tenants get the case's builder kind.
//!
//! The cases are the success rows of the paper's conformance table
//! (Type I/II/III × CentOS 7/Debian 10 × plain/modified/`--force`), the
//! multi-stage diamond bench Dockerfile and the §5.3.3 LANL pipeline. With
//! the cache off every driver returns an equal report (apart from elapsed
//! time); with it on, every driver's final image has the same tree and
//! `--force` configuration. The failing rows, and failing multi-stage
//! builds, must give the same whole report under every driver.

use std::collections::HashMap;
use std::time::Duration;

use hpcc_repro::core::{
    centos7_dockerfile, centos7_fr_dockerfile, debian10_dockerfile, debian10_fr_dockerfile,
    default_subuid_for, BuildError, BuildIr, BuildOptions, BuildReport, Builder, BuilderKind,
};
use hpcc_repro::farm::{BuildFarm, BuildRequest, FarmConfig};
use hpcc_repro::image::{Digest, Sha256};
use hpcc_repro::kernel::{Credentials, Gid, Uid, UserNamespace};
use hpcc_repro::runtime::{Invoker, SubIdDb};
use hpcc_repro::vfs::{Actor, FileType, Filesystem, Mode};

/// One build: who builds what, with which options.
struct Case {
    name: String,
    kind: BuilderKind,
    invoker: Invoker,
    dockerfile: String,
    options: BuildOptions,
    context: Option<Filesystem>,
}

impl Case {
    /// A case built the way `builder` builds. The tag is `foo`, as in the
    /// conformance table.
    fn new(name: &str, builder: Builder, dockerfile: &str, options: BuildOptions) -> Self {
        Case {
            name: name.to_string(),
            kind: builder.kind,
            invoker: builder.invoker,
            dockerfile: dockerfile.to_string(),
            options,
            context: None,
        }
    }

    fn builder(&self) -> Builder {
        Builder::new(self.kind.clone(), self.invoker.clone())
    }

    /// Builds on `builder` and returns the report plus the fingerprint of
    /// the stored final image.
    fn build_on(&self, builder: &mut Builder, options: &BuildOptions) -> Outcome {
        let report = builder.build(&self.dockerfile, options, self.context.as_ref());
        let image = builder.image(&options.tag).map(|img| fingerprint(&img.fs));
        Outcome { report, image }
    }
}

/// What a driver returns for one case.
#[derive(Debug)]
struct Outcome {
    report: BuildReport,
    /// Fingerprint of the stored final image, if the build stored one.
    image: Option<Digest>,
}

/// The drivers under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driver {
    Serial,
    Threaded,
    Reused,
    Farm,
}

const DRIVERS: [Driver; 4] = [
    Driver::Serial,
    Driver::Threaded,
    Driver::Reused,
    Driver::Farm,
];

/// Runs every case under `driver`. The reused builders are one per builder
/// kind (the case name's first word), shared by every case of that kind.
fn run(driver: Driver, cases: &[Case], cache: bool) -> Vec<Outcome> {
    let mut reused: HashMap<String, Builder> = HashMap::new();
    cases
        .iter()
        .map(|case| {
            let mut options = case.options.clone();
            if cache {
                options = options.with_cache();
            }
            match driver {
                Driver::Serial => case.build_on(&mut case.builder(), &options.with_serial_stages()),
                Driver::Threaded => case.build_on(&mut case.builder(), &options),
                Driver::Reused => {
                    let kind = case.name.split(' ').next().unwrap_or_default();
                    let builder = reused
                        .entry(kind.to_string())
                        .or_insert_with(|| case.builder());
                    case.build_on(builder, &options)
                }
                Driver::Farm => {
                    let farm = BuildFarm::new(FarmConfig::new(1).with_kind(case.kind.clone()));
                    let mut request = BuildRequest::new("tenant", &case.dockerfile, options)
                        .with_invoker(case.invoker.clone());
                    request.context = case.context.clone();
                    farm.try_submit(request)
                        .expect("an idle farm accepts a build");
                    let mut results = farm.drain();
                    assert_eq!(results.len(), 1, "{}", case.name);
                    let result = results.remove(0);
                    let builder = farm.tenant_builder("tenant").expect("tenant builder");
                    let guard = builder.read().unwrap();
                    let image = guard
                        .image(&result.report.tag)
                        .map(|img| fingerprint(&img.fs));
                    Outcome {
                        report: result.report,
                        image,
                    }
                }
            }
        })
        .collect()
}

/// Content fingerprint of a filesystem tree, as `farm_stress.rs` computes
/// it: SHA-256 over the sorted (path, uid, gid, mode, type, content)
/// tuples, never inode numbers.
fn fingerprint(fs: &Filesystem) -> Digest {
    let creds = Credentials::host_root();
    let ns = UserNamespace::initial();
    let actor = Actor::new(&creds, &ns);
    let mut h = Sha256::new();
    for (path, ino) in fs.walk() {
        let inode = fs.inode(ino).expect("walked inode exists");
        h.update(path.as_bytes());
        h.update(
            format!(
                "|{:?}|{:?}|{:?}|{:?}|",
                inode.uid,
                inode.gid,
                inode.mode,
                inode.file_type()
            )
            .as_bytes(),
        );
        if inode.file_type() == FileType::Regular {
            let bytes = fs
                .file_bytes_ino(&actor, ino)
                .expect("regular file readable as root");
            h.update(bytes.as_slice());
        }
        h.update(b"\n");
    }
    h.finalize()
}

/// The report with every elapsed time zeroed: the one field drivers may
/// disagree on.
fn timeless(report: &BuildReport) -> BuildReport {
    let mut report = report.clone();
    report.elapsed = Duration::ZERO;
    for stage in &mut report.stages {
        stage.elapsed = Duration::ZERO;
    }
    report
}

fn alice() -> Invoker {
    Invoker::user("alice", 1000, 1000)
}

fn app_context() -> Filesystem {
    let mut ctx = Filesystem::new_local();
    ctx.install_file(
        "/app.c",
        b"int main(){return 0;}".to_vec(),
        Uid(0),
        Gid(0),
        Mode::FILE_644,
    )
    .expect("install into a fresh filesystem");
    ctx
}

/// The conformance table's rows as `(builder, distro, variant)`, each named
/// `<builder> <distro> <variant>`.
fn conformance_rows(rows: &[(&str, &str, &str)]) -> Vec<Case> {
    rows.iter()
        .map(|&(privilege, distro, variant)| {
            let builder = match privilege {
                "type1" => Builder::docker(),
                "type2" => Builder::rootless_podman(alice(), default_subuid_for("alice")),
                "type2-nosubuid" => Builder::rootless_podman(alice(), SubIdDb::new()),
                _ => Builder::ch_image(alice()),
            };
            let (dockerfile, arch) = match (distro, variant) {
                ("centos7", "modified") => (centos7_fr_dockerfile(), "x86_64"),
                ("centos7", _) => (centos7_dockerfile(), "x86_64"),
                (_, "modified") => (debian10_fr_dockerfile(), "amd64"),
                _ => (debian10_dockerfile(), "amd64"),
            };
            let mut options = BuildOptions::new("foo").with_arch(arch);
            if variant == "force" {
                options = options.with_force();
            }
            let name = format!("{privilege} {distro} {variant}");
            Case::new(&name, builder, dockerfile, options)
        })
        .collect()
}

/// The 16 success rows, the diamond bench Dockerfile and the LANL
/// multi-stage pipeline.
fn success_cases() -> Vec<Case> {
    let mut rows = Vec::new();
    for privilege in ["type1", "type2"] {
        for distro in ["centos7", "debian10"] {
            for variant in ["plain", "modified", "force"] {
                rows.push((privilege, distro, variant));
            }
        }
    }
    for distro in ["centos7", "debian10"] {
        for variant in ["modified", "force"] {
            rows.push(("type3", distro, variant));
        }
    }
    let mut cases = conformance_rows(&rows);
    assert_eq!(cases.len(), 16);
    cases.push(Case::new(
        "type3 diamond",
        Builder::ch_image(alice()),
        &hpcc_bench::diamond_dockerfile(),
        BuildOptions::new("diamond"),
    ));
    let mut lanl = Case::new(
        "type3 lanl-multistage",
        Builder::ch_image(alice()),
        hpcc_repro::cluster::workflow::lanl_multistage_dockerfile(),
        BuildOptions::new("app").with_force(),
    );
    lanl.context = Some(app_context());
    cases.push(lanl);
    cases
}

#[test]
fn every_driver_returns_the_same_report_with_the_cache_off() {
    let cases = success_cases();
    let reference = run(Driver::Serial, &cases, false);
    for (case, outcome) in cases.iter().zip(&reference) {
        assert!(
            outcome.report.success,
            "{}: {}",
            case.name,
            outcome.report.transcript_text()
        );
    }
    for driver in DRIVERS {
        let outcomes = run(driver, &cases, false);
        for ((case, expected), got) in cases.iter().zip(&reference).zip(&outcomes) {
            assert_eq!(
                timeless(&got.report),
                timeless(&expected.report),
                "{} under {driver:?}",
                case.name
            );
            assert_eq!(got.image, expected.image, "{} under {driver:?}", case.name);
        }
    }
}

#[test]
fn every_driver_builds_the_same_image_with_the_cache_on() {
    let cases = success_cases();
    let reference = run(Driver::Serial, &cases, true);
    for driver in DRIVERS {
        let outcomes = run(driver, &cases, true);
        for ((case, expected), got) in cases.iter().zip(&reference).zip(&outcomes) {
            assert!(got.report.success, "{} under {driver:?}", case.name);
            assert!(got.image.is_some(), "{} under {driver:?}", case.name);
            assert_eq!(got.image, expected.image, "{} under {driver:?}", case.name);
            assert_eq!(
                got.report.force_config, expected.report.force_config,
                "{} under {driver:?}",
                case.name
            );
        }
    }
}

#[test]
fn failing_rows_give_the_same_whole_report_under_every_driver() {
    let cases = conformance_rows(&[
        ("type2-nosubuid", "centos7", "plain"),
        ("type3", "centos7", "plain"),
        ("type3", "debian10", "plain"),
    ]);
    let reference = run(Driver::Serial, &cases, false);
    for driver in DRIVERS {
        let outcomes = run(driver, &cases, false);
        for ((case, expected), got) in cases.iter().zip(&reference).zip(&outcomes) {
            assert!(!got.report.success, "{} under {driver:?}", case.name);
            assert!(got.image.is_none(), "{} under {driver:?}", case.name);
            assert_eq!(
                timeless(&got.report),
                timeless(&expected.report),
                "{} under {driver:?}",
                case.name
            );
        }
    }
}

/// `a` fails on an unknown base image, so `b` (built on it) is skipped;
/// `c` → `d` is an independent chain; the final stage copies from `b` and
/// `d`.
const BROKEN_CHAIN: &str = "\
FROM alpine:3.14 AS a
RUN mkdir -p /tmp/out && echo a > /tmp/out/a

FROM a AS b
RUN echo b > /tmp/out/b

FROM centos:7 AS c
RUN yum install -y gcc
RUN yum install -y openmpi

FROM c AS d
RUN mkdir -p /tmp/out && echo d > /tmp/out/d

FROM centos:7
COPY --from=b /tmp/out/b /srv/b
COPY --from=d /tmp/out/d /srv/d
";

/// A failing root, an independent root, and a final stage copying from
/// both.
const BROKEN_ROOT: &str = "\
FROM alpine:3.14 AS broken
RUN echo never

FROM centos:7 AS ok
RUN mkdir -p /tmp/out && echo ok > /tmp/out/ok

FROM centos:7
COPY --from=broken /tmp/out/x /srv/x
COPY --from=ok /tmp/out/ok /srv/ok
";

/// What must agree across drivers for a failed build: each stage that ran
/// (index, tag, outcome), and the skipped stages.
type Shape = (Vec<(usize, String, bool)>, Vec<BuildError>);

fn shape(report: &BuildReport) -> Shape {
    let ran = report
        .stages
        .iter()
        .map(|s| (s.stage, s.tag.clone(), s.success))
        .collect();
    (ran, report.skipped.clone())
}

/// Runs `dockerfile` through the serial driver, the threaded driver
/// (`repeats` times) and one- and two-worker farms.
fn every_driver(dockerfile: &str, options: &BuildOptions, repeats: usize) -> Vec<BuildReport> {
    let mut reports = Vec::new();
    let serial = options.clone().with_serial_stages();
    reports.push(Builder::ch_image(alice()).build(dockerfile, &serial, None));
    for _ in 0..repeats {
        reports.push(Builder::ch_image(alice()).build(dockerfile, options, None));
    }
    for workers in [1, 2] {
        let farm = BuildFarm::new(FarmConfig::new(workers));
        farm.try_submit(BuildRequest::new("tenant", dockerfile, options.clone()))
            .expect("an idle farm accepts a build");
        reports.extend(farm.drain().into_iter().map(|r| r.report));
    }
    reports
}

#[test]
fn a_failed_build_runs_the_same_stages_under_every_driver() {
    let expected: [(&str, Shape); 2] = [
        (
            BROKEN_CHAIN,
            (
                vec![
                    (0, "bad (stage 0: a)".to_string(), false),
                    (2, "bad (stage 2: c)".to_string(), true),
                    (3, "bad (stage 3: d)".to_string(), true),
                ],
                vec![
                    BuildError::DependencyFailed {
                        stage: 1,
                        dependency: 0,
                    },
                    BuildError::DependencyFailed {
                        stage: 4,
                        dependency: 1,
                    },
                ],
            ),
        ),
        (
            BROKEN_ROOT,
            (
                vec![
                    (0, "bad (stage 0: broken)".to_string(), false),
                    (1, "bad (stage 1: ok)".to_string(), true),
                ],
                vec![BuildError::DependencyFailed {
                    stage: 2,
                    dependency: 0,
                }],
            ),
        ),
    ];
    for (dockerfile, expected) in &expected {
        let graph = hpcc_repro::core::BuildGraph::plan(&BuildIr::parse(dockerfile).unwrap())
            .expect("plans");
        let reports = every_driver(dockerfile, &BuildOptions::new("bad"), 50);
        assert_eq!(reports.len(), 53);
        for report in &reports {
            assert!(!report.success);
            assert_eq!(&shape(report), expected, "{}", report.transcript_text());
            for skipped in &report.skipped {
                let BuildError::DependencyFailed { stage, dependency } = skipped else {
                    panic!("not a skipped stage: {skipped:?}");
                };
                assert!(graph.node(*stage).deps.contains(dependency), "{skipped:?}");
            }
        }
    }
}

#[test]
fn a_fixed_commit_rebuild_hits_the_stages_that_ran_beside_the_failure() {
    let fixed = BROKEN_CHAIN.replace("alpine:3.14", "centos:7");
    let options = BuildOptions::new("app").with_cache();
    for serial in [true, false] {
        let options = if serial {
            options.clone().with_serial_stages()
        } else {
            options.clone()
        };
        let mut builder = Builder::ch_image(alice());
        assert!(!builder.build(BROKEN_CHAIN, &options, None).success);
        let rebuild = builder.build(&fixed, &options, None);
        assert!(rebuild.success, "{}", rebuild.transcript_text());
        for stage in &rebuild.stages {
            let independent = stage.stage == 2 || stage.stage == 3;
            assert_eq!(
                stage.cache_misses == 0,
                independent,
                "serial={serial} stage {}: {}",
                stage.stage,
                stage.transcript_text()
            );
        }
    }
}
