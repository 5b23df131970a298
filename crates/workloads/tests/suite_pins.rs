//! Suite-wide pins on what `Workload::concurrent` derives from the
//! Presburger layer: footprints, bounding boxes and iteration counts
//! feed every memo key, so a change to how `IterSpace::bounding_box`
//! finds its bounds must leave every fingerprint where it was.

use lams_mpsoc::{Fingerprint, FingerprintHasher};
use lams_workloads::{suite, Scale, Workload};

const SCALES: [Scale; 5] = [
    Scale::Tiny,
    Scale::Small,
    Scale::Paper,
    Scale::Large,
    Scale::Huge,
];

#[test]
fn suite_workload_fingerprints_are_pinned() {
    let mut fold = FingerprintHasher::new("suite-pins");
    for scale in SCALES {
        for app in suite::all(scale) {
            fold.write_fingerprint(
                Workload::single(app)
                    .expect("suite app builds")
                    .fingerprint(),
            );
        }
    }
    for scale in [Scale::Tiny, Scale::Paper] {
        let mix = Workload::concurrent(suite::mix(6, scale)).expect("mix builds");
        fold.write_fingerprint(mix.fingerprint());
    }
    // Recorded at the parent of the PR that made `bounding_box` read
    // box bounds off the constraints (Fourier–Motzkin for every call
    // before it). Moves only when an application's arrays, spaces or
    // accesses are changed on purpose.
    assert_eq!(
        fold.finish(),
        Fingerprint(0x8191_0271_4512_4cab, 0x84c8_35dc_2753_92ca),
        "suite workload fingerprints moved"
    );
}

#[test]
fn every_suite_space_has_its_bounds_written_in_its_constraints() {
    // `Workload::concurrent` asks each process space for its bounding
    // box several times; a unit box answers without Fourier–Motzkin
    // elimination. A future application whose spaces silently fall
    // back to elimination should be a decision, not an accident.
    for scale in SCALES {
        for app in suite::all(scale) {
            for p in &app.processes {
                assert!(
                    p.space.is_unit_box(),
                    "{} at {scale}: {} is not a unit box: {}",
                    app.name,
                    p.name,
                    p.space
                );
            }
        }
    }
}
