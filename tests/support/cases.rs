//! The seeded case runner shared by the property suites: the root
//! package's `tests/property_based.rs`, `noodle-nn`'s
//! `tests/tensor_properties.rs` and `noodle-gan`'s `tests/gan_properties.rs`.
//! Each includes this file with `#[path = "…/tests/support/cases.rs"] mod cases;`.
//!
//! Case `k` of a property draws its inputs from its own `StdRng` seeded
//! with `BASE_SEED + k`, and a failure names that seed, so a failing case
//! reruns alone from the seed in the message.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::SeedableRng;

const BASE_SEED: u64 = 0x9E0D_1E00;

/// Runs `property` on `cases` cases, each with that case's generator, and
/// panics with the case's seed (and the property's own message) on the
/// first failure.
pub fn check(cases: u64, property: impl Fn(&mut StdRng)) {
    for seed in BASE_SEED..BASE_SEED + cases {
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut StdRng::seed_from_u64(seed))));
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(no message)");
            panic!("case with seed {seed:#x} failed: {message}");
        }
    }
}
