//! The end-to-end benchmark binary: no observers, default allocator.

fn main() -> std::process::ExitCode {
    rdvperf::cli::main()
}
