//! The seeded generator: the same seed gives byte-identical inputs, and
//! another seed gives different ones.

use perfbench::gen::{
    CiSizes, CiStream, ColdInputs, ColdSchedule, ServeSizes, ServeTree, Wave, CI_SIZES, COLD_SIZES,
    SERVE_SIZES,
};

const SMALL_TREE: ServeSizes = ServeSizes {
    groups: 2,
    dirs_per_group: 2,
    files_per_dir: 4,
    ..SERVE_SIZES
};

fn cold(seed: u64) -> (ColdInputs, Vec<String>) {
    let inputs = ColdInputs::generate(seed, COLD_SIZES);
    let mut schedule = ColdSchedule::new(seed, &inputs);
    let texts = (0..64)
        .map(|_| inputs.dockerfile(schedule.next_pick()))
        .collect();
    (inputs, texts)
}

fn waves(seed: u64, sizes: CiSizes, n: usize) -> Vec<Wave> {
    let mut stream = CiStream::new(seed, sizes);
    (0..n).map(|_| stream.next_wave()).collect()
}

#[test]
fn same_seed_gives_identical_inputs() {
    assert_eq!(cold(7), cold(7));
    assert_eq!(waves(7, CI_SIZES, 4), waves(7, CI_SIZES, 4));
    assert_eq!(
        ServeTree::generate(7, SMALL_TREE),
        ServeTree::generate(7, SMALL_TREE)
    );
}

#[test]
fn another_seed_gives_different_inputs() {
    assert_ne!(cold(7).0, cold(8).0);
    assert_ne!(cold(7).1, cold(8).1);
    assert_ne!(waves(7, CI_SIZES, 2), waves(8, CI_SIZES, 2));
    assert_ne!(
        ServeTree::generate(7, SMALL_TREE),
        ServeTree::generate(8, SMALL_TREE)
    );
}

#[test]
fn context_file_names_carry_their_content_tag() {
    let inputs = ColdInputs::generate(3, COLD_SIZES);
    for f in inputs.payloads.iter().flatten() {
        let tag = perfbench::gen::content_tag(&f.bytes);
        assert!(f.path.contains(&tag), "{} lacks {tag}", f.path);
    }
    for c in &waves(3, CI_SIZES, 1)[0].commits {
        assert!(c
            .app
            .path
            .contains(&perfbench::gen::content_tag(&c.app.bytes)));
        assert!(c
            .dockerfile
            .contains(&format!("COPY {} /src/app.c", c.app.path)));
    }
}

#[test]
fn the_first_wave_misses_every_key_and_later_waves_only_new_ones() {
    let sizes = CI_SIZES;
    let w = waves(11, sizes, 3);
    // First wave, per identity: FROM + gcc, three toolchain and three
    // spack-env instructions, plus per commit two COPY --from and three
    // app instructions — at least the shared prefix is new.
    assert!(w[0].predicted_misses >= sizes.identities * 8);
    // A later wave re-uses the stages: each commit's three app keys are
    // new, plus whatever stage edits added.
    let commits = sizes.tenants * sizes.commits_per_tenant;
    for later in &w[1..] {
        assert!(later.predicted_misses >= commits * 3);
        assert!(later.predicted_misses < w[0].predicted_misses + commits * 3);
    }
}
