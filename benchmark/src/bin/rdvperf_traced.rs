//! The per-layer binary: the same program as `rdvperf` with the counting
//! allocator installed, so `host.allocs_per_op` is real and the
//! end-to-end binary stays on the untouched system allocator.

#[global_allocator]
static ALLOC: rdvperf::alloc::CountingAlloc = rdvperf::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    rdvperf::cli::main()
}
