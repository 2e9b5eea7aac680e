//! The shard worker the `service_mix` workload's daemon spawns for its
//! fleet: the same process shell as the repository's `relaxed-shardd`,
//! built next to `relbench` so the daemon finds it.

fn main() -> std::process::ExitCode {
    relaxed_programs::core::shard::worker_main()
}
