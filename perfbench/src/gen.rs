//! Seeded input generation.
//!
//! Every input a workload hands to the program — Dockerfile texts, build
//! contexts, commit streams, payload trees, the operation mix — comes from
//! here and is a pure function of the `--seed` argument, so the same seed
//! gives byte-identical inputs and another seed gives different ones.
//!
//! Context file names carry a digest of their content. The program's
//! instruction cache keys a `COPY` from the build context on the instruction
//! text alone, so without the digest in the name an edited file would hit a
//! stale cache entry; with it, every content change is a text change.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// SplitMix64: small, fast, and good enough to draw workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of one seed. Streams are
    /// independent, so adding draws to one never shifts another.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in stream.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        let mut rng = Rng(seed ^ h);
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Log-uniform in `[lo, hi]`: as many small values per octave as large.
    pub fn log_uniform(&mut self, lo: usize, hi: usize) -> usize {
        log_quantile(lo, hi, self.unit())
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// The `q`-quantile (0..1) of the log-uniform distribution on `[lo, hi]`.
fn log_quantile(lo: usize, hi: usize, q: f64) -> usize {
    let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
    ((l + (h - l) * q).exp() as usize).clamp(lo, hi)
}

/// A seeded permutation of `0..n`.
fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// A 64-bit FNV-1a digest of `bytes`, as 16 hex digits: the content tag in
/// context file names.
pub fn content_tag(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One file of a build context: a relative path whose file name ends in
/// the content tag, and its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextFile {
    /// Path relative to the context root (no leading `/`).
    pub path: String,
    /// File content.
    pub bytes: Vec<u8>,
}

impl ContextFile {
    fn tagged(dir: &str, stem: &str, ext: &str, bytes: Vec<u8>) -> ContextFile {
        let tag = content_tag(&bytes);
        let path = if dir.is_empty() {
            format!("{stem}-{tag}.{ext}")
        } else {
            format!("{dir}/{stem}-{tag}.{ext}")
        };
        ContextFile { path, bytes }
    }

    /// The file name (last path component).
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

// ------------------------------------------------------------- cold_build

/// The two privilege types the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Privilege {
    /// Type II: rootless Podman with privileged ID-map helpers.
    TypeII,
    /// Type III: `ch-image --force`, fully unprivileged.
    TypeIII,
}

/// The unmodified paper Dockerfiles a cold build picks from: Figure 2
/// (CentOS 7) and Figure 3 (Debian 10), with their architectures.
pub const COLD_DOCKERFILES: [(&str, &str); 2] = [
    (
        "FROM centos:7\nRUN echo hello\nRUN yum install -y openssh\n",
        "x86_64",
    ),
    (
        "FROM debian:buster\nRUN echo hello\nRUN apt-get update\nRUN apt-get install -y openssh-client\n",
        "amd64",
    ),
];

/// Where the app payload lands in the image.
pub const COLD_PAYLOAD_DIR: &str = "/opt/app/";

/// Sizes of the `cold_build` inputs.
#[derive(Debug, Clone, Copy)]
pub struct ColdSizes {
    /// Distinct app payloads; each (Dockerfile, payload, type) repeats.
    pub payloads: usize,
    /// Files per payload.
    pub files: usize,
    /// Smallest payload file.
    pub min_bytes: usize,
    /// Largest payload file.
    pub max_bytes: usize,
}

/// The `cold_build` sizes recorded in `perfbench/README.md`.
pub const COLD_SIZES: ColdSizes = ColdSizes {
    payloads: 4,
    files: 3,
    min_bytes: 1 << 10,
    max_bytes: 32 << 10,
};

/// One pipeline's choice of inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColdPick {
    /// Builder privilege type.
    pub privilege: Privilege,
    /// Index into [`COLD_DOCKERFILES`].
    pub dockerfile: usize,
    /// Index into [`ColdInputs::payloads`].
    pub payload: usize,
}

/// All `cold_build` inputs of one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdInputs {
    /// Payload file sets, one per distinct payload.
    pub payloads: Vec<Vec<ContextFile>>,
}

impl ColdInputs {
    /// Generates the payloads of `seed`. File sizes are the evenly spaced
    /// quantiles of a log-uniform distribution, dealt to files by seed:
    /// which payload is large changes with the seed, the mean work of a
    /// pipeline does not.
    pub fn generate(seed: u64, sizes: ColdSizes) -> ColdInputs {
        let mut rng = Rng::new(seed, "cold_build/payloads");
        let n = sizes.payloads * sizes.files;
        let order = permutation(&mut rng, n);
        let payloads = (0..sizes.payloads)
            .map(|p| {
                (0..sizes.files)
                    .map(|f| {
                        let q = (order[p * sizes.files + f] as f64 + 0.5) / n as f64;
                        let len = log_quantile(sizes.min_bytes, sizes.max_bytes, q);
                        ContextFile::tagged("", &format!("p{p}f{f}"), "dat", rng.bytes(len))
                    })
                    .collect()
            })
            .collect();
        ColdInputs { payloads }
    }

    /// The Dockerfile text a pick builds: the unmodified paper Dockerfile
    /// plus one `COPY` of the payload from the build context.
    pub fn dockerfile(&self, pick: ColdPick) -> String {
        let mut text = COLD_DOCKERFILES[pick.dockerfile].0.to_string();
        text.push_str("COPY");
        for f in &self.payloads[pick.payload] {
            text.push(' ');
            text.push_str(&f.path);
        }
        text.push(' ');
        text.push_str(COLD_PAYLOAD_DIR);
        text.push('\n');
        text
    }

    /// Every distinct pick, in a fixed order.
    pub fn all_picks(&self) -> Vec<ColdPick> {
        let mut out = Vec::new();
        for privilege in [Privilege::TypeIII, Privilege::TypeII] {
            for dockerfile in 0..COLD_DOCKERFILES.len() {
                for payload in 0..self.payloads.len() {
                    out.push(ColdPick {
                        privilege,
                        dockerfile,
                        payload,
                    });
                }
            }
        }
        out
    }
}

/// The seeded sequence of pipeline picks: rounds that each hold every
/// distinct pick once, in a seeded order, so the mix of privilege types,
/// Dockerfiles and payloads is the same in every run.
pub struct ColdSchedule {
    rng: Rng,
    all: Vec<ColdPick>,
    round: Vec<ColdPick>,
}

impl ColdSchedule {
    /// The pick sequence of `seed`.
    pub fn new(seed: u64, inputs: &ColdInputs) -> ColdSchedule {
        ColdSchedule {
            rng: Rng::new(seed, "cold_build/schedule"),
            all: inputs.all_picks(),
            round: Vec::new(),
        }
    }

    /// The next pipeline's pick.
    pub fn next_pick(&mut self) -> ColdPick {
        if self.round.is_empty() {
            let order = permutation(&mut self.rng, self.all.len());
            self.round = order.into_iter().map(|i| self.all[i]).collect();
        }
        self.round.pop().expect("a non-empty round")
    }
}

// ------------------------------------------------------------- ci_rebuild

/// Sizes of the `ci_rebuild` commit stream.
#[derive(Debug, Clone, Copy)]
pub struct CiSizes {
    /// Tenants submitting commits.
    pub tenants: usize,
    /// Launch identities (uid/gid pairs) the tenants are spread over.
    pub identities: usize,
    /// Commits each tenant submits per wave.
    pub commits_per_tenant: usize,
    /// Chance that a commit also edits the `toolchain` or `spack-env` stage.
    pub stage_edit_chance: f64,
    /// Smallest app source.
    pub min_app_bytes: usize,
    /// Largest app source.
    pub max_app_bytes: usize,
    /// Instruction-cache entry cap.
    pub cache_capacity: usize,
}

/// The `ci_rebuild` sizes recorded in `perfbench/README.md`.
pub const CI_SIZES: CiSizes = CiSizes {
    tenants: 8,
    identities: 4,
    commits_per_tenant: 8,
    stage_edit_chance: 1.0 / 16.0,
    min_app_bytes: 1 << 10,
    max_app_bytes: 4 << 10,
    cache_capacity: 1024,
};

/// First host uid of the launch identities.
pub const CI_BASE_UID: u32 = 2000;

/// One commit: a tenant's LANL-shaped multi-stage Dockerfile and the app
/// source its build context holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commit {
    /// Submitting tenant.
    pub tenant: usize,
    /// Launch identity the tenant builds as.
    pub identity: usize,
    /// Dockerfile text.
    pub dockerfile: String,
    /// The app source (the only file of the build context).
    pub app: ContextFile,
}

/// One wave of commits and the number of instruction-cache keys it
/// introduces that no earlier wave used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wave {
    /// Commits in submission order.
    pub commits: Vec<Commit>,
    /// Distinct cache keys of this wave not used by an earlier one: with
    /// in-flight dedup, the cache misses the wave must produce.
    pub predicted_misses: usize,
}

/// The seeded commit stream, with a model of the program's cache keys.
///
/// A cache key chains a stage's instructions, the launch identity, and —
/// for `COPY --from` — the source stage's final key. The model hashes the
/// same ingredients, so two commits share a modelled key exactly when their
/// builds share a real one. Stage revisions only grow and app sources never
/// repeat, so a key unused for a whole wave never comes back; forgetting
/// such keys keeps the model's memory flat.
pub struct CiStream {
    rng: Rng,
    sizes: CiSizes,
    toolchain_rev: Vec<u64>,
    spack_rev: Vec<u64>,
    commits: u64,
    wave: u64,
    last_used: HashMap<u128, u64>,
}

fn chain(parent: u128, instruction: &str) -> u128 {
    let mut lo = DefaultHasher::new();
    (0u8, parent, instruction).hash(&mut lo);
    let mut hi = DefaultHasher::new();
    (1u8, parent, instruction).hash(&mut hi);
    (u128::from(hi.finish()) << 64) | u128::from(lo.finish())
}

fn chain_all(mut key: u128, instructions: &[String], out: &mut Vec<u128>) -> u128 {
    for i in instructions {
        key = chain(key, i);
        out.push(key);
    }
    key
}

impl CiStream {
    /// The commit stream of `seed`.
    pub fn new(seed: u64, sizes: CiSizes) -> CiStream {
        CiStream {
            rng: Rng::new(seed, "ci_rebuild/commits"),
            sizes,
            toolchain_rev: vec![0; sizes.identities],
            spack_rev: vec![0; sizes.identities],
            commits: 0,
            wave: 0,
            last_used: HashMap::new(),
        }
    }

    /// The next wave: `commits_per_tenant` rounds of one commit per tenant.
    pub fn next_wave(&mut self) -> Wave {
        let mut commits = Vec::new();
        let mut keys = Vec::new();
        for _ in 0..self.sizes.commits_per_tenant {
            for tenant in 0..self.sizes.tenants {
                // Neighbouring tenants share an identity, so their commits
                // are admitted back to back and race on the same new keys
                // after a stage edit: in-flight dedup has work to do.
                let identity = tenant * self.sizes.identities / self.sizes.tenants;
                if self.rng.chance(self.sizes.stage_edit_chance) {
                    if self.rng.chance(0.5) {
                        self.toolchain_rev[identity] += 1;
                    } else {
                        self.spack_rev[identity] += 1;
                    }
                }
                commits.push(self.commit(tenant, identity, &mut keys));
            }
        }
        self.wave += 1;
        let wave = self.wave;
        let mut predicted_misses = 0;
        for key in keys {
            if self.last_used.insert(key, wave).is_none() {
                predicted_misses += 1;
            }
        }
        self.last_used.retain(|_, used| *used + 1 >= wave);
        Wave {
            commits,
            predicted_misses,
        }
    }

    fn commit(&mut self, tenant: usize, identity: usize, keys: &mut Vec<u128>) -> Commit {
        self.commits += 1;
        let len = self
            .rng
            .log_uniform(self.sizes.min_app_bytes, self.sizes.max_app_bytes);
        let mut source = format!(
            "/* commit {} of tenant {} */\nint main(){{return 0;}}\n/* ",
            self.commits, tenant
        );
        while source.len() + 3 < len {
            source.push_str(&format!("{:016x}", self.rng.next_u64()));
        }
        source.push_str(" */\n");
        let app = ContextFile::tagged("", "app", "c", source.into_bytes());

        let base = [
            "FROM centos:7".to_string(),
            "RUN yum install -y gcc".to_string(),
        ];
        let toolchain = [
            "RUN yum install -y openmpi".to_string(),
            "RUN yum install -y openssh".to_string(),
            format!(
                "RUN echo toolchain-rev-{} > /usr/lib64/openmpi/REVISION",
                self.toolchain_rev[identity]
            ),
        ];
        let spack = [
            "RUN yum install -y spack".to_string(),
            "RUN /opt/spack/bin/spack install app-deps".to_string(),
            format!(
                "RUN echo spack-rev-{} > /opt/spack/REVISION",
                self.spack_rev[identity]
            ),
        ];
        let copies = [
            "COPY --from=toolchain /usr/lib64/openmpi /usr/lib64/openmpi".to_string(),
            "COPY --from=spack-env /opt/spack /opt/spack".to_string(),
        ];
        let app_tail = [
            format!("COPY {} /src/app.c", app.path),
            "RUN gcc -o /usr/bin/app /src/app.c".to_string(),
            "CMD [\"/usr/bin/app\"]".to_string(),
        ];

        let root = chain(0, &format!("identity-{identity}"));
        let based = chain_all(root, &base, keys);
        let tc_final = chain_all(based, &toolchain, keys);
        let sp_final = chain_all(based, &spack, keys);
        let mut key = chain(based, &format!("{}|{tc_final}", copies[0]));
        keys.push(key);
        key = chain(key, &format!("{}|{sp_final}", copies[1]));
        keys.push(key);
        chain_all(key, &app_tail, keys);

        let stage = |alias: Option<&str>, body: &[String]| {
            let mut s = match alias {
                Some(a) => format!("{} AS {a}\n", base[0]),
                None => format!("{}\n", base[0]),
            };
            s.push_str(&base[1]);
            s.push('\n');
            for line in body {
                s.push_str(line);
                s.push('\n');
            }
            s
        };
        let final_body: Vec<String> = copies.iter().chain(app_tail.iter()).cloned().collect();
        let dockerfile = format!(
            "{}\n{}\n{}",
            stage(Some("toolchain"), &toolchain),
            stage(Some("spack-env"), &spack),
            stage(None, &final_body)
        );
        Commit {
            tenant,
            identity,
            dockerfile,
            app,
        }
    }
}

// ------------------------------------------------------------ serve_image

/// Sizes of the `serve_image` payload tree and operation mix.
#[derive(Debug, Clone, Copy)]
pub struct ServeSizes {
    /// Top-level groups under `/data`.
    pub groups: usize,
    /// Directories per group.
    pub dirs_per_group: usize,
    /// Files per directory.
    pub files_per_dir: usize,
    /// Smallest payload file.
    pub min_bytes: usize,
    /// Largest payload file.
    pub max_bytes: usize,
    /// Zipf exponent of file popularity.
    pub zipf_s: f64,
    /// Bytes per read request.
    pub read_chunk: u32,
    /// Smallest stored file.
    pub min_store: usize,
    /// Largest stored file.
    pub max_store: usize,
    /// Stored files kept live in the scratch directory before the oldest
    /// is unlinked.
    pub live_stores: usize,
}

/// The `serve_image` sizes recorded in `perfbench/README.md`.
pub const SERVE_SIZES: ServeSizes = ServeSizes {
    groups: 8,
    dirs_per_group: 6,
    files_per_dir: 30,
    min_bytes: 512,
    max_bytes: 256 << 10,
    zipf_s: 1.0,
    read_chunk: 32 << 10,
    min_store: 4 << 10,
    max_store: 64 << 10,
    live_stores: 32,
};

/// Where the payload tree lands in the served image.
pub const SERVE_ROOT: &str = "data";

/// The payload tree of one seed: `g<G>/d<D>/<file>` relative paths.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeTree {
    /// Files; their paths are relative to `/data` in the image.
    pub files: Vec<ContextFile>,
    /// Directories (`g<G>/d<D>`), each holding a run of `files`.
    pub dirs: Vec<String>,
    /// Cumulative Zipf popularity over `files` (last entry 1.0).
    popularity: Vec<f64>,
}

impl ServeTree {
    /// Generates the tree of `seed`. Each file gets a popularity rank by
    /// seed; its size is the log-uniform quantile at the rank's point of
    /// the golden-ratio sequence. Sizes thus spread evenly over every
    /// popularity band, and the popular files weigh the same under every
    /// seed, while their names, places and bytes change with it.
    pub fn generate(seed: u64, sizes: ServeSizes) -> ServeTree {
        let mut rng = Rng::new(seed, "serve_image/tree");
        let n = sizes.groups * sizes.dirs_per_group * sizes.files_per_dir;
        let rank = permutation(&mut rng, n);
        let golden = (5f64.sqrt() - 1.0) / 2.0;
        let mut files = Vec::new();
        let mut dirs = Vec::new();
        for g in 0..sizes.groups {
            for d in 0..sizes.dirs_per_group {
                let dir = format!("g{g}/d{d}");
                for f in 0..sizes.files_per_dir {
                    let q = ((rank[files.len()] + 1) as f64 * golden).fract();
                    let len = log_quantile(sizes.min_bytes, sizes.max_bytes, q);
                    files.push(ContextFile::tagged(
                        &dir,
                        &format!("f{f}"),
                        "bin",
                        rng.bytes(len),
                    ));
                }
                dirs.push(dir);
            }
        }
        let weights: Vec<f64> = rank
            .iter()
            .map(|&r| 1.0 / ((r + 1) as f64).powf(sizes.zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let popularity = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ServeTree {
            files,
            dirs,
            popularity,
        }
    }

    /// A file index drawn by Zipf popularity.
    pub fn popular_file(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.popularity
            .partition_point(|&c| c <= u)
            .min(self.files.len() - 1)
    }

    /// The Dockerfile that bakes the tree into a Type III image: one `COPY`
    /// per directory, so the tree shape survives.
    pub fn dockerfile(&self) -> String {
        let mut text = String::from("FROM centos:7\n");
        for dir in &self.dirs {
            text.push_str("COPY");
            for f in self.files.iter().filter(|f| {
                f.path.starts_with(dir.as_str()) && f.path.as_bytes()[dir.len()] == b'/'
            }) {
                text.push(' ');
                text.push_str(&f.path);
            }
            text.push_str(&format!(" /{SERVE_ROOT}/{dir}/\n"));
        }
        text
    }
}
