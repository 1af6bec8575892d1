//! Bench artifacts: the workspace JSON writer ([`evax_obs::json`]) plus
//! the header every `BENCH_*.json` opens with.

use evax_core::par::Parallelism;
pub use evax_obs::json::{Object, Value};

/// The header every artifact opens with: which bench ran, at what seed
/// (`None::<u64>` for a run without a master seed), on how many cores with
/// what worker setting (usually [`threads`]), at smoke scale or not, from a
/// debug or release build.
pub fn header(
    bench: &str,
    seed: impl Into<Value>,
    threads: impl Into<Value>,
    smoke: bool,
) -> Object {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // The machine's size, recorded next to the run's setting; not a policy.
    #[allow(clippy::disallowed_methods)]
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Object::new()
        .field("bench", bench)
        .field("seed", seed)
        .field("cores", cores)
        .field("threads", threads)
        .field("smoke", smoke)
        .field("profile", profile)
}

/// A worker setting as artifacts record it: the fixed count, or `"auto"`.
pub fn threads(parallelism: Parallelism) -> Value {
    match parallelism {
        Parallelism::Fixed(n) => n.into(),
        Parallelism::Auto => "auto".into(),
    }
}
