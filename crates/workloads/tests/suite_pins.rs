//! Suite-wide pin on what `Workload::concurrent` derives from the
//! Presburger layer: footprints, bounding boxes and iteration counts
//! feed every memo key, so a change to how `IterSpace` represents or
//! answers for its box must leave every fingerprint where it was.

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
