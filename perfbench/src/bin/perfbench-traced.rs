//! Traced benchmark run: per-layer metrics, counting allocator.

#[global_allocator]
static ALLOCATOR: nettrails_perfbench::alloc::Counting = nettrails_perfbench::alloc::Counting;

fn main() -> std::process::ExitCode {
    nettrails_perfbench::main(true)
}
