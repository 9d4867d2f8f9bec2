//! A seeded, closed-loop benchmark of the star-interconnect stack.
//!
//! Four workloads exercise the four measured layers from outside,
//! through their public functions: `sg-net` (network build, workload
//! generation, the round loop), `sg-sched` (stream generation,
//! scheduling, the shared tenant run), `sg-obs` (trace record, JSONL
//! write, parse, replay) and `sg-coll` (schedule construction,
//! compilation, payload execution). Every op's output is checked, and
//! its counts and simulated figures must repeat exactly.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uniform-s8 --seed 48879 --trace 0
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod coll;
pub mod fingerprint;
pub mod heap;
pub mod span;
pub mod spec;
pub mod summary;
pub mod tenants;
pub mod traffic;

use bench::{Report, RunConfig};

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 0xBEEF;

/// Runs the named workload at its benchmark size; `None` for an
/// unknown name.
#[must_use]
pub fn run_workload(name: &str, cfg: RunConfig) -> Option<Report> {
    Some(match name {
        "uniform-s8" => bench::run::<traffic::Traffic>(&traffic::TrafficParams::UNIFORM_S8, cfg),
        "escape-s7" => bench::run::<traffic::Traffic>(&traffic::TrafficParams::ESCAPE_S7, cfg),
        "tenants-s7" => bench::run::<tenants::Tenants>(&tenants::TenantParams::TENANTS_S7, cfg),
        "coll-s6" => bench::run::<coll::Coll>(&coll::CollParams::COLL_S6, cfg),
        _ => return None,
    })
}
